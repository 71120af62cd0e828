"""Shell-integral oracles and cross-checks between evaluation paths.

The closed-form volumes used as oracles:
  * n = 1, shell k of Z_p under d^x: vol = 1 - 1/p for every k >= 0;
  * n = 1, int_{v=k} psi(x) d^x x = 1-1/p (k>=0), -1/p (k=-1), 0 (k<=-2);
  * n = 2, shell k of M_2(Z_p) under d^x g = |det|^(-2) dg:
    vol = sigma(p^k) (1 - 1/p)(1 - 1/p^2) with sigma the divisor sum
    (from the Hermite-form count of index-p^k lattices).
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gjzeta import integrate
from gjzeta.errors import BudgetExceeded
from gjzeta.integrate import (IntegrationConfig, stabilized_shell_integral,
                              term_shell_integral)
from gjzeta.padic import PAdicContext, PAdicMatrix, psi_exponent, trace_pairing, valuation
from gjzeta.scalars import root_of_unity, scalar_is_zero
from gjzeta.zeta import MultiplicativeCharacter


def shell(p, n, k, center=None, level=0, modulation=None, chi=None, **cfg):
    ctx = PAdicContext(p)
    center = center if center is not None else PAdicMatrix.zero(n)
    modulation = modulation if modulation is not None else PAdicMatrix.zero(n)
    return term_shell_integral(ctx, k, center, level, modulation,
                               IntegrationConfig(**cfg), chi)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n1_shell_volumes(p):
    for k in range(0, 4):
        assert shell(p, 1, k) == Fraction(p - 1, p)
    assert scalar_is_zero(shell(p, 1, -1))


@pytest.mark.parametrize("p", [2, 3])
def test_n1_psi_shells(p):
    mod = PAdicMatrix([[1]])
    assert shell(p, 1, 0, level=-3, modulation=mod) == Fraction(p - 1, p)
    assert shell(p, 1, -1, level=-3, modulation=mod) == Fraction(-1, p)
    assert scalar_is_zero(shell(p, 1, -2, level=-3, modulation=mod))
    assert scalar_is_zero(shell(p, 1, -3, level=-3, modulation=mod))


@pytest.mark.parametrize("p, ks", [
    pytest.param(2, range(0, 4), id="2"),
    pytest.param(3, range(0, 4), id="3"),
    # large shells: the Hermite weights p^d no longer fit in 64 bits
    pytest.param(2, (61, 70), id="2-large"),
    pytest.param(3, (45,), id="3-large")])
def test_n2_shell_volumes_divisor_sum(p, ks):
    w = Fraction((p - 1), p) * Fraction(p * p - 1, p * p)
    for k in ks:
        sigma = sum(p ** d for d in range(k + 1))
        assert shell(p, 2, k) == sigma * w


def test_n2_hermite_agrees_with_refinement():
    # same integrand through the fast path and the generic refinement path
    for p in (2, 3):
        for c in (Fraction(1), Fraction(1, p)):
            for level in (0, -1):
                for k in range(2 * level, 2 * level + 3):
                    fast = shell(p, 2, k, level=level,
                                 modulation=PAdicMatrix.scalar(2, c))
                    slow = shell(p, 2, k, level=level,
                                 modulation=PAdicMatrix.scalar(2, c),
                                 force_enumeration=True)
                    assert scalar_is_zero(fast - slow), (p, c, level, k)


def test_n2_hermite_agrees_with_refinement_ramified_char():
    p = 2
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    for k in (0, 1, 2):
        fast = shell(p, 2, k, modulation=PAdicMatrix.scalar(2, Fraction(1, 2)),
                     chi=chi)
        slow = shell(p, 2, k, modulation=PAdicMatrix.scalar(2, Fraction(1, 2)),
                     chi=chi, force_enumeration=True)
        assert scalar_is_zero(fast - slow), k


def test_nonscalar_modulation_uses_generic_path():
    # off-diagonal modulation cannot take the Hermite fast path; the result
    # must still match the scalar case by symmetry when conjugate
    p = 2
    b = PAdicMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    val = shell(p, 2, 0, modulation=b)
    # compare against an explicit enumeration with the same integrand
    ref = shell(p, 2, 0, modulation=b, force_enumeration=True)
    assert scalar_is_zero(val - ref)


@pytest.mark.parametrize("center, modulation, route", [
    (PAdicMatrix([[2, 0], [4, 2]]), PAdicMatrix.scalar(2, Fraction(1, 2)), "hermite"),
    (PAdicMatrix.zero(2), PAdicMatrix.scalar(2, Fraction(1, 2)), "hermite"),
    (PAdicMatrix([[2, 0], [1, 2]]), PAdicMatrix.scalar(2, Fraction(1, 2)), "generic"),
    # a modulation = c Id mod 2^(-1) M_2(Z_2) is Hermite's, however it is written
    (PAdicMatrix.zero(2), PAdicMatrix([[Fraction(1, 2), 0], [0, 1]]), "hermite"),
    (PAdicMatrix.zero(2), PAdicMatrix([[1, 1], [0, 1]]), "hermite"),
    # a scalar center off the lattice takes the scalar-centre closed form when
    # 2 * modulation is integral, and the refinement otherwise
    (PAdicMatrix.scalar(2, 1), PAdicMatrix.zero(2), "scalar_centre"),
    (PAdicMatrix.scalar(2, Fraction(3, 2)), PAdicMatrix([[0, Fraction(1, 2)], [1, 0]]),
     "scalar_centre"),
    (PAdicMatrix.scalar(2, 1), PAdicMatrix.scalar(2, Fraction(1, 4)), "generic"),
    (PAdicMatrix([[1, 1], [0, 1]]), PAdicMatrix.zero(2), "generic"),
    # off every scalar class mod 2^(-1): the refinement
    (PAdicMatrix.zero(2), PAdicMatrix.diagonal([Fraction(1, 4), Fraction(1, 2)]), "generic"),
    (PAdicMatrix.zero(2), PAdicMatrix([[Fraction(1, 2), Fraction(1, 4)], [0, Fraction(1, 2)]]),
     "generic"),
    # a center = Id mod 2 M_2(Z_2) is the shifted ball's coset
    (PAdicMatrix([[1, 2], [0, 3]]), PAdicMatrix.zero(2), "scalar_centre")])
def test_hermite_route_needs_scalar_modulation_and_center_in_the_lattice(
        center, modulation, route, monkeypatch):
    # at level 1 a path reads the center mod 2 M_2(Z_2) and the modulation mod
    # 2^(-1) M_2(Z_2): Hermite needs center = 0 and modulation = c Id there
    taken = []
    for name in ("hermite", "scalar_centre"):
        monkeypatch.setattr(integrate, "_series_" + name,
                            lambda *args, name=name: taken.append(name) or ({}, 0))
    monkeypatch.setattr(integrate, "_shell_generic", lambda *args: taken.append("generic") or 0)
    shell(2, 2, 2, center=center, level=1, modulation=modulation)
    assert taken == [route]


@pytest.mark.parametrize("force, route", [(False, "hermite"), (True, "generic")])
def test_n1_routes_like_every_n(force, route, monkeypatch):
    # n = 1 has no path of its own: force_enumeration sends the shell to the refinement
    taken = []
    monkeypatch.setattr(integrate, "_series_hermite", lambda *args: taken.append("hermite") or ({}, 0))
    monkeypatch.setattr(integrate, "_shell_generic", lambda *args: taken.append("generic") or 0)
    shell(3, 1, 0, level=-1, modulation=PAdicMatrix([[1]]), force_enumeration=force)
    assert taken == [route]


def test_hard_budget_raises():
    with pytest.raises(BudgetExceeded):
        shell(2, 2, 4, modulation=PAdicMatrix([[0, 1], [Fraction(1, 4), 0]]),
              level=-1, hard_budget=50)


def test_stabilized_integral_n1():
    ctx = PAdicContext(2)
    cfg = IntegrationConfig()
    # int_{v=k} psi(x) d^x x over all of Q_p: stabilizes to the compact answer
    val, m = stabilized_shell_integral(ctx, 1, 0, PAdicMatrix([[1]]), cfg)
    assert val == Fraction(1, 2)
    val, m = stabilized_shell_integral(ctx, 1, -1, PAdicMatrix([[1]]), cfg)
    assert val == Fraction(-1, 2)
    val, m = stabilized_shell_integral(ctx, 1, -2, PAdicMatrix([[1]]), cfg)
    assert scalar_is_zero(val)


def test_high_conductor_shell_needs_no_truncation_cap():
    # chi(5) = zeta_{2^8} has true conductor 2^10, so shell k = -10 = -n f is the nonzero
    # one and m* = max(0, -k) = 10, past the old default cap m_max = 8
    ctx = PAdicContext(2)
    chi = MultiplicativeCharacter(2, 10, {5: root_of_unity(2, 8, 1), 1023: 1})
    mod = PAdicMatrix([[1]])
    val, m = stabilized_shell_integral(ctx, 1, -10, mod, IntegrationConfig(), chi)
    assert m == 10 and not scalar_is_zero(val)
    ref = term_shell_integral(ctx, -10, PAdicMatrix.zero(1), -10, mod,
                              IntegrationConfig(force_enumeration=True), chi)
    assert scalar_is_zero(val - ref)


@st.composite
def _spelled_terms(draw):
    """A closed-form term (C, L, B) as spelled by a built-in, and integral X, Y: either
    C = 0, B = c Id (Hermite) or C = a Id with v(a) < L, B = 0 (scalar centre)."""
    p, n, L = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 3)), draw(st.integers(-2, 2))
    unit = draw(st.sampled_from([u for u in (1, -1, 2, -2, 3, 4, Fraction(1, 7), Fraction(5, 2))
                                 if u % p]))
    if draw(st.booleans()):
        c = draw(st.sampled_from([0, unit])) * Fraction(p) ** draw(st.integers(-L - 3, -L + 1))
        C, B = PAdicMatrix.zero(n), PAdicMatrix.scalar(n, c)
    else:
        a = unit * Fraction(p) ** draw(st.integers(L - 3, L - 1))
        C, B = PAdicMatrix.scalar(n, a), PAdicMatrix.zero(n)
    entries = st.sampled_from([Fraction(b, d) for b in range(-3, 4) for d in (1, p + 1)])
    X, Y = (PAdicMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                      min_size=n, max_size=n))) for _ in "XY")
    chi = draw(st.sampled_from([None, MultiplicativeCharacter.trivial(p),
                                MultiplicativeCharacter.quadratic_ramified(p)]))
    return p, C, L, B, X, Y, chi


def _written_shells(ctx, C, L, B, X, Y, chi):
    """(C + p^L X, L, B + p^(-L) Y) and {k: its shell k} for five k from n min(v(C), L) - 1.
    It is the coset of (C, L, B) with psi(tr(B g)) times the constant psi(p^(-L) tr(Y C)),
    so each shell must be the spelled term's times that constant, with no refinement."""
    p, n = ctx.p, C.n
    Cw, Bw = C - X.scale(-Fraction(p) ** L), B - Y.scale(-Fraction(p) ** -L)
    phase = psi_exponent(trace_pairing(Y.scale(Fraction(p) ** -L), C), ctx)
    k0 = n * min(L, valuation(C.entries[0][0], p))
    cfg, shells = IntegrationConfig(), {}
    with mock.patch.object(integrate, "_shell_generic", side_effect=AssertionError("refined")):
        for k in range(k0 - 1, k0 + 4):
            shells[k] = term_shell_integral(ctx, k, Cw, L, Bw, cfg, chi)
            spelled = term_shell_integral(ctx, k, C, L, B, cfg, chi).times_root(*phase)
            assert scalar_is_zero(shells[k] - spelled), k
    return (Cw, L, Bw), shells


@settings(max_examples=60, deadline=None)
@given(_spelled_terms(), st.booleans(), st.integers(0, 4))
def test_congruent_spellings_route_to_closed_forms_and_agree(case, transform, i):
    # a centre = C mod p^L and a modulation = B mod p^(-L) take C's and B's closed form,
    # and so does the transform (-B, -L, C), with the perturbation (-Y, X)
    p, C, L, B, X, Y, chi = case
    ctx = PAdicContext(p)
    term = _written_shells(ctx, C, L, B, X, Y, chi)
    dual = _written_shells(ctx, -B, -L, C, -Y, X, chi)
    if p > 3 or C.n > 2:
        return
    (Cw, Lw, Bw), shells = dual if transform else term
    k = sorted(shells)[i]
    try:
        slow = term_shell_integral(ctx, k, Cw, Lw, Bw,
                                   IntegrationConfig(force_enumeration=True, hard_budget=20000),
                                   chi)
    except BudgetExceeded:
        return
    assert scalar_is_zero(shells[k] - slow), k
