"""Zeta integrals, gamma factors, characters, and the duality invariant."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gjzeta.errors import NoRecurrence, ZeroDenominator
from gjzeta.integrate import K_EXTRA, IntegrationConfig, rationalize, schwartz_shell_integral
from gjzeta.padic import PAdicContext, PAdicMatrix, mod_int, valuation
from gjzeta.ratfun import LaurentPoly, RationalFunctionT
from gjzeta.scalars import (as_scalar, embed_complex, root_of_unity, root_of_unity_sum,
                            sqrt_q)
from gjzeta.schwartz import SchwartzBruhatFn, SchwartzTerm
from gjzeta.zeta import (MultiplicativeCharacter, dual_gamma_factor,
                         gamma_factor, phi_independence_check, zeta_integral)


def tate_gamma_target(p):
    """(1 - T^2) / (1 - q^-1 T^-2), the trivial-character gamma factor."""
    num = LaurentPoly({0: as_scalar(1, p), 2: as_scalar(-1, p)})
    den = LaurentPoly({0: as_scalar(1, p), -2: as_scalar(Fraction(-1, p), p)})
    return RationalFunctionT(num, den, p)


# -- characters ----------------------------------------------------------

def unit_table(chi):
    """chi on the units mod p^c as scalars ({} when c = 0)."""
    return {u: chi.unit_value(u) for u in chi.phases if u % chi.p}


def char_eval(chi, x):
    """chi(x) for a nonzero rational x."""
    x = Fraction(x)
    v = int(valuation(x, chi.p))
    return chi.value_at_p ** v * chi.unit_value(
        mod_int(x / Fraction(chi.p) ** v, chi.p ** chi.conductor_exp))


def test_character_evaluation_and_inverse():
    chi = MultiplicativeCharacter.quadratic_ramified(2)
    assert char_eval(chi, 3) == -1
    assert char_eval(chi, Fraction(5, 4)) == 1
    assert char_eval(chi.inverse(), 3) == -1
    zeta3 = root_of_unity(3, 1, 1)
    psi = MultiplicativeCharacter.unramified(3, zeta3)
    assert char_eval(psi, 9) == zeta3 ** 2
    assert char_eval(psi.inverse(), 3) * char_eval(psi, 3) == 1


@pytest.mark.parametrize("p, gen", [(2, None), (3, None), (5, None), (7, None),
                                    (7, 3), (13, 2)])
def test_character_inverse_permutes_the_table(p, gen):
    # the quadratic chi, or the conductor-2 chi with chi(gen) = zeta_p
    z = root_of_unity(p, 1, 1)
    chi = (MultiplicativeCharacter(p, 2, {gen: z}, z) if gen
           else MultiplicativeCharacter.quadratic_ramified(p, z))
    inv = chi.inverse()
    ref = MultiplicativeCharacter(p, chi.conductor_exp,
                                  {u: v.inverse() for u, v in unit_table(chi).items()},
                                  chi.value_at_p.inverse())
    inv_table, ref_table = unit_table(inv), unit_table(ref)
    assert inv_table == ref_table and inv.value_at_p == ref.value_at_p
    assert repr(inv) == repr(ref)
    assert [repr(inv_table[u]) for u in ref_table] == [repr(v) for v in ref_table.values()]


def test_true_conductor():
    # (chi, written c, f): conductor_exp is the least f with chi = 1 on the units = 1
    # mod p^f, also for a table written at c > f (imprimitive), whose phases are then
    # kept mod p^f
    units = [u for u in range(1, 49) if u % 7]
    quadratic = MultiplicativeCharacter.quadratic_ramified(7)
    cases = [(MultiplicativeCharacter(7, 2, {3: root_of_unity(7, 1, 1)}), 2, 2),
             (quadratic, 1, 1), (MultiplicativeCharacter.quadratic_ramified(2), 2, 2),
             (MultiplicativeCharacter(7, 2, {u: quadratic.unit_value(u) for u in units}), 2, 1),
             (MultiplicativeCharacter(7, 2, {u: 1 for u in units}), 2, 0),
             (MultiplicativeCharacter(2, 3, {5: -1, 7: 1}), 3, 3),
             (MultiplicativeCharacter(2, 3, {5: 1, 7: -1}), 3, 2),
             (MultiplicativeCharacter.unramified(7, Fraction(1, 7)), 0, 0)]
    for chi, _, f in cases:
        assert chi.conductor_exp == chi.inverse().conductor_exp == f
        assert len(chi.phases) == ((chi.p - 1) * chi.p ** (f - 1) if f else 1)


def test_character_table_validation():
    with pytest.raises(ValueError):
        MultiplicativeCharacter(2, 2, {1: 1})  # missing unit 3
    with pytest.raises(ValueError):
        MultiplicativeCharacter(5, 1, {4: -1})  # <4> is not all units
    # tables that cover the units but are not characters
    for p, table in ((3, {1: 2, 2: 1}),  # chi(1) = 2
                     (5, {1: 1, 2: 1, 3: -1, 4: -1})):  # chi(2)^2 = 1, chi(4) = -1
        with pytest.raises(ValueError, match="not a character"):
            MultiplicativeCharacter(p, 1, table)
    # values that are no root of unity of level <= c: sqrt(3) (a QuadExt), zeta_9 mod 3
    for value in (sqrt_q(3), root_of_unity(3, 2, 1)):
        with pytest.raises(ValueError, match="not a character"):
            MultiplicativeCharacter(3, 1, {2: value})


def _cyclotomic_reference(p, c, sign, a):
    """Generator values of a character of (Z/p^c)^x and its cyclotomic table,
    built by multiplying them: <-1> x <5> at p = 2, cyclic on a primitive root else.
    p = 2 goes up to c = 4, where chi(5) = i and -1 = chi(-1) = chi(5)^2 meet."""
    pc = p ** c
    if p == 2:
        k = max(c - 2, 0)
        s, z = (sign if c >= 2 else 1), root_of_unity(2, k, a)
        return ({pc - 1: s, 5 % pc: z},
                {(-1) ** e * 5 ** i % pc: z ** i * s ** e for e in (0, 1) for i in range(2 ** k)})
    g = {3: 2, 5: 2, 7: 3}[p]  # a primitive root mod p^2, hence mod every p^c
    z = root_of_unity(p, c - 1, a) * sign
    return {g: z}, {pow(g, i, pc): z ** i for i in range((p - 1) * p ** (c - 1))}


@settings(max_examples=60, deadline=None)
@given(pc=st.sampled_from([(2, c) for c in (1, 2, 3, 4)]
                          + [(p, c) for p in (3, 5, 7) for c in (1, 2, 3)]),
       sign=st.sampled_from([1, -1]), a=st.integers(0, 10 ** 6), v=st.integers(-2, 2),
       i=st.integers(0, 10 ** 6), j=st.integers(0, 10 ** 6),
       vp=st.sampled_from([Fraction(1, 2), -1, (2, 1)]))
@example(pc=(2, 2), sign=-1, a=0, v=1, i=1, j=0, vp=-1)  # the character mod 4
@example(pc=(2, 3), sign=-1, a=1, v=0, i=2, j=3, vp=1)  # chi(-1) = chi(5) = -1
@example(pc=(2, 4), sign=-1, a=1, v=0, i=3, j=1, vp=1)  # chi(5) = i: -1 reached two ways
def test_phase_characters_match_a_cyclotomic_reference(pc, sign, a, v, i, j, vp):
    (p, c), pc = pc, pc[0] ** pc[1]
    gens, ref = _cyclotomic_reference(p, c, sign, a)
    vp = root_of_unity(p, *vp) if isinstance(vp, tuple) else vp
    chi = MultiplicativeCharacter(p, c, gens, vp)
    inv = chi.inverse()
    assert sorted(ref) == [u for u in range(pc) if u % p]
    for u, want in ref.items():
        assert repr(chi.unit_value(u)) == repr(want)
        assert inv.unit_value(u) * want == 1
    assert chi.value_at_minus_one() == ref[pc - 1]
    # the full table gives the same phases as the generators, and so does a double inverse
    full = MultiplicativeCharacter(p, c, ref, 1)
    assert full.phases == chi.phases
    assert inv.inverse().phases == chi.phases
    units = sorted(ref)
    u1, u2 = units[i % len(units)], units[j % len(units)]
    x = Fraction(p) ** v * u1 / u2
    want = as_scalar(vp, p) ** v * ref[u1 * pow(u2, -1, pc) % pc]
    assert char_eval(chi, x) == want
    assert char_eval(inv, x) * want == 1


def test_value_at_minus_one():
    assert MultiplicativeCharacter.quadratic_ramified(2).value_at_minus_one() == -1
    assert MultiplicativeCharacter.quadratic_ramified(3).value_at_minus_one() == -1
    assert MultiplicativeCharacter.trivial(2).value_at_minus_one() == 1


# -- zeta and gamma ------------------------------------------------------

def test_tate_zeta_unit_ball():
    # Z(1_{Z_p}, s) = (1 - 1/p) / (1 - T^2)
    for p in (2, 3):
        z = zeta_integral(SchwartzBruhatFn.unit_ball(1, PAdicContext(p)),
                          MultiplicativeCharacter.trivial(p))
        target = RationalFunctionT(LaurentPoly({0: as_scalar(Fraction(p - 1, p), p)}),
                                   LaurentPoly({0: as_scalar(1, p), 2: as_scalar(-1, p)}), p)
        assert z.value == target


@pytest.mark.parametrize("p", [2, 3])
def test_tate_gamma_trivial(p):
    phi = SchwartzBruhatFn.unit_ball(1, PAdicContext(p))
    g = gamma_factor(phi, MultiplicativeCharacter.trivial(p))
    assert g.value == tate_gamma_target(p)


def test_tate_gamma_unramified_twist():
    p = 3
    zeta3 = root_of_unity(3, 1, 1)
    chi = MultiplicativeCharacter.unramified(p, zeta3)
    phi = SchwartzBruhatFn.unit_ball(1, PAdicContext(p))
    g = gamma_factor(phi, chi)
    # gamma = L(1-s, chi^-1) / L(s, chi) = (1 - chi(p) T^2) / (1 - chi(p)^-1 q^-1 T^-2)
    num = LaurentPoly({0: as_scalar(1, p), 2: -zeta3})
    den = LaurentPoly({0: as_scalar(1, p), -2: -(zeta3.inverse() * Fraction(1, p))})
    assert g.value == RationalFunctionT(num, den, p)


def test_gamma_phi_independent_n1():
    p = 2
    ctx = PAdicContext(p)
    chi = MultiplicativeCharacter.trivial(p)
    phis = [SchwartzBruhatFn.unit_ball(1, ctx),
            SchwartzBruhatFn.scaled_ball(1, ctx, 1),
            SchwartzBruhatFn.shifted_ball(1, ctx, 1, 2),
            SchwartzBruhatFn.scaled_ball(1, ctx, -1)]
    ok, gamma, warnings = phi_independence_check(phis, chi)
    assert ok and not warnings
    assert gamma.value == tate_gamma_target(p)


def test_ramified_gamma_is_gauss_monomial():
    # conductor-exponent-2 character at p=2: gamma is a monomial whose
    # coefficient has modulus q^(c/2) = 2 under the complex embedding
    p = 2
    ctx = PAdicContext(p)
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    phis = [SchwartzBruhatFn.shifted_ball(1, ctx, 1, 2),
            SchwartzBruhatFn.shifted_ball(1, ctx, 1, 3)]
    ok, gamma, _ = phi_independence_check(phis, chi)
    assert ok
    assert gamma.value.is_monomial()
    coeff = next(iter(gamma.value.num.coeffs.values()))
    den_coeff = next(iter(gamma.value.den.coeffs.values()))
    mag = abs(embed_complex(coeff, 30) / embed_complex(den_coeff, 30))
    assert abs(mag - 2) < mpmath.mpf(10) ** -10


def test_degenerate_phi_raises_zero_denominator():
    p = 2
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    phi = SchwartzBruhatFn.unit_ball(1, PAdicContext(p))  # Z == 0 for ramified chi
    with pytest.raises(ZeroDenominator):
        gamma_factor(phi, chi)


@pytest.mark.parametrize("p", [2, 3])
def test_duality_n1(p):
    ctx = PAdicContext(p)
    cases = [
        (MultiplicativeCharacter.trivial(p), SchwartzBruhatFn.unit_ball(1, ctx)),
        (MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1)),
         SchwartzBruhatFn.unit_ball(1, ctx)),
        (MultiplicativeCharacter.quadratic_ramified(p),
         SchwartzBruhatFn.shifted_ball(1, ctx, 1, 2)),
    ]
    for chi, phi in cases:
        g = gamma_factor(phi, chi)
        gd = dual_gamma_factor(phi, chi)
        assert g.value * gd.value == chi.value_at_minus_one()


def test_gamma_n2_trivial_and_duality():
    p = 2
    ctx = PAdicContext(p)
    chi = MultiplicativeCharacter.trivial(p)
    phis = [SchwartzBruhatFn.unit_ball(2, ctx), SchwartzBruhatFn.scaled_ball(2, ctx, 1)]
    ok, gamma, _ = phi_independence_check(phis, chi)
    assert ok
    # denominator degree <= 2 in T^2 (order <= n recurrence)
    assert gamma.den.value.den.degree() <= 4
    g = gamma_factor(phis[0], chi)
    gd = dual_gamma_factor(phis[0], chi)
    assert g.value * gd.value == 1  # chi(-1)^2 = 1


# -- generating functions against the sampled series ------------------------

def sampled_zeta_integral(phi, chi, r_max, dual_weight=False):
    """zeta_integral as a sampled series: the 2 r_max + confirm + K_EXTRA shells from
    det_valuation_bound, rationalized by Berlekamp-Massey and twisted once."""
    config = IntegrationConfig(r_max=r_max)
    n, p = phi.n, phi.ctx.p
    k_min = phi.det_valuation_bound()
    seq = schwartz_shell_integral(
        phi, range(k_min, k_min + 2 * r_max + config.confirm + K_EXTRA), config, chi)

    def factor(k):
        c = chi.value_at_p ** k
        return c * Fraction(p) ** (-n * k) if dual_weight else c
    weight = -2 if dual_weight else 2
    return rationalize(seq, k_min, weight, p, r_max, config.confirm).twisted(factor, weight)


PRIMITIVE_ROOTS = {2: 3, 3: 2, 5: 2}  # each generates (Z/p^2)^x


def series_characters(p):
    return [MultiplicativeCharacter.trivial(p), MultiplicativeCharacter.unramified(p, 2),
            MultiplicativeCharacter.quadratic_ramified(p, -1),
            MultiplicativeCharacter(p, 2, {PRIMITIVE_ROOTS[p]: root_of_unity(p, 1, 1)}, 3)]


@st.composite
def closed_form_sums(draw):
    """(Phi, chi, r_max): a sum of closed-form terms and an r_max past its series' head.

    A term is 0 or a Id (a in p^L) under c Id, or a Id (v(a) < L) under c Id with p^L c
    integral.  Its series' last head shell h (the numerator's top exponent) is n L,
    n (L + mc - 1) + 1, n (L + mc - f) or n v(a), and a common denominator of degree
    <= n raises it by <= n, so r_max = 2n + 1 + max h - k_min covers the head."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3))
    chi = draw(st.sampled_from(series_characters(p)))
    f = chi.conductor_exp
    unit = st.sampled_from([u for u in range(-p * p, p * p + 1) if u % p])
    terms, heads = [], []
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.integers(-2, 2))
        if draw(st.booleans()):  # Hermite: a = 0 mod p^L, any c
            a = draw(st.sampled_from([0, draw(unit) * Fraction(p) ** (level + draw(
                st.integers(0, 1)))]))
            c = draw(st.integers(-4, 4)) * Fraction(p) ** -draw(st.integers(0, 3))
            mc = max(0, -valuation(c * Fraction(p) ** level, p))
            heads.append(n * level + (n * (mc - f) if f else 0 if mc == 0 else n * (mc - 1) + 1))
        else:  # scalar centre: v(a) < L, p^L c integral
            va = level - draw(st.integers(1, 2))
            a = draw(unit) * Fraction(p) ** va
            c = draw(st.integers(-3, 3)) * Fraction(p) ** (-level + draw(st.integers(0, 1)))
            heads.append(n * va)
        m = draw(st.integers(0, 1))
        coeff = root_of_unity_sum(p, m, [draw(st.fractions(-3, 3, max_denominator=3))
                                         for _ in range(p ** m)])
        assume(not coeff.is_zero())
        terms.append(SchwartzTerm(coeff, PAdicMatrix.scalar(n, a), level,
                                  PAdicMatrix.scalar(n, c)))
    phi = SchwartzBruhatFn(n, PAdicContext(p), terms)
    return phi, chi, 2 * n + 1 + max(heads) - phi.det_valuation_bound()


@settings(max_examples=80, deadline=None)
@given(closed_form_sums(), st.booleans())
def test_generating_functions_match_the_sampled_series(case, dual_weight):
    phi, chi, r_max = case
    got = zeta_integral(phi, chi, dual_weight=dual_weight)
    assert got.stats == {}
    assert got.value.serialize() == sampled_zeta_integral(
        phi, chi, r_max, dual_weight).serialize()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_in_balls_match_the_sampled_series(p, n):
    # every built-in ball and a three-term sum, on both sides of the gamma factor
    ctx = PAdicContext(p)
    balls = [SchwartzBruhatFn.unit_ball(n, ctx), SchwartzBruhatFn.scaled_ball(n, ctx, 1),
             SchwartzBruhatFn.scaled_ball(n, ctx, 2), SchwartzBruhatFn.shifted_ball(n, ctx, 1, 1),
             SchwartzBruhatFn.shifted_ball(n, ctx, 1, 3)]
    phis = balls + [balls[0] + balls[2].scale(3) - balls[3]]
    for chi in series_characters(p):
        for phi in phis:
            for hat, psi, dual in ((phi, chi, False), (phi.fourier(), chi.inverse(), True)):
                got = zeta_integral(hat, psi, dual_weight=dual).value.serialize()
                assert got == sampled_zeta_integral(hat, psi, 4 * n + 4, dual).serialize()


def test_forced_enumeration_starts_at_the_support():
    # the sampled window of scaled_ball(3) started at shell 0, three shells below its
    # support, so the head ran past K_EXTRA: NoRecurrence at the default r_max
    ctx, chi = PAdicContext(3), MultiplicativeCharacter.trivial(3)
    phi = SchwartzBruhatFn.scaled_ball(1, ctx, 3)
    forced = IntegrationConfig(force_enumeration=True)
    g = gamma_factor(phi, chi, forced)
    assert g.num.stats["cells"] > 0 and g.den.stats["cells"] > 0
    assert g.value.serialize() == gamma_factor(phi, chi).value.serialize()
    assert g.den.k_range[0] == 3


def test_forced_enumeration_still_certifies_its_recurrence():
    # shifted_ball(1,3)'s sampled head outruns K_EXTRA at r_max = n; the generating
    # function has no window
    ctx, chi = PAdicContext(3), MultiplicativeCharacter.trivial(3)
    phi = SchwartzBruhatFn.shifted_ball(1, ctx, 1, 3)
    with pytest.raises(NoRecurrence):
        gamma_factor(phi, chi, IntegrationConfig(force_enumeration=True))
    want = gamma_factor(phi, chi).value.serialize()
    assert gamma_factor(phi, chi, IntegrationConfig(force_enumeration=True, r_max=3)
                        ).value.serialize() == want


@pytest.mark.parametrize("phi, chi, hat", [
    ("unit_ball", "trivial", False), ("unit_ball", "unramified", True),
    ("shifted_ball(1,1)", "trivial", True), ("shifted_ball(1,2)", "trivial", True)])
def test_forced_sampled_series_checks_n2_generating_functions(phi, chi, hat):
    # at n = 2, p = 2 the sampled window refines shells up to k = 8; a shell counts
    # about 5 * 10^8 cells, almost all under memoized keys and never built, so it
    # needs a budget past the default
    ctx = PAdicContext(2)
    phi = {"unit_ball": SchwartzBruhatFn.unit_ball(2, ctx),
           "shifted_ball(1,1)": SchwartzBruhatFn.shifted_ball(2, ctx, 1, 1),
           "shifted_ball(1,2)": SchwartzBruhatFn.shifted_ball(2, ctx, 1, 2)}[phi]
    chi = {"trivial": MultiplicativeCharacter.trivial(2),
           "unramified": MultiplicativeCharacter.unramified(2, Fraction(3))}[chi]
    if hat:  # the numerator side of gamma_factor
        phi, chi = phi.fourier(), chi.inverse()
    forced = IntegrationConfig(force_enumeration=True, hard_budget=10 ** 9)
    got = zeta_integral(phi, chi, forced, dual_weight=hat)
    assert got.stats["cells"] > 10 ** 8
    assert got.value.serialize() == zeta_integral(phi, chi, dual_weight=hat).value.serialize()
