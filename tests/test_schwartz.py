"""Schwartz-Bruhat functions: Fourier, Plancherel, canonical forms."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gjzeta.padic import PAdicContext, PAdicMatrix, _phase_add, psi_exponent, valuation
from gjzeta.cli import random_schwartz
from gjzeta.schwartz import SchwartzBruhatFn, SchwartzTerm
from gjzeta.scalars import (as_scalar, root_of_unity, root_of_unity_sum,
                            scalar_conjugate, scalar_is_zero)


def test_unit_ball_is_self_dual():
    for n, p in [(1, 2), (2, 3)]:
        phi = SchwartzBruhatFn.unit_ball(n, PAdicContext(p))
        assert phi.fourier().fn_equal(phi)


def test_scaled_ball_transform_volume():
    # F(1_{pM}) = p^(-n^2) 1_{p^-1 M}
    n, p = 2, 2
    ctx = PAdicContext(p)
    phi = SchwartzBruhatFn.scaled_ball(n, ctx, 1).fourier()
    target = SchwartzBruhatFn.scaled_ball(n, ctx, -1).scale(Fraction(1, p ** (n * n)))
    assert phi.fn_equal(target)


def test_double_transform_is_reflection():
    rng = random.Random(11)
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        ctx = PAdicContext(p)
        for _ in range(5):
            f = random_schwartz(n, ctx, rng)
            assert f.fourier().fourier().fn_equal(f.reflect())


def test_double_transform_shares_reflect_matrices():
    # F(F(t)) has centre -(t.center) and modulation -(t.modulation), as
    # reflect(t) does; with the cached negation they are the same objects,
    # so fn_equal's term-by-term test matches them by identity
    rng = random.Random(14)
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        ctx = PAdicContext(p)
        for _ in range(10):
            f = random_schwartz(n, ctx, rng)
            twice, refl = f.fourier().fourier(), f.reflect()
            assert len(twice.terms) == len(refl.terms) == len(f.terms)
            for s, t in zip(twice.terms, refl.terms):
                assert s.center is t.center and s.modulation is t.modulation


def test_double_transform_merges_without_an_inner_product(monkeypatch):
    # F(F(t)) keeps t's base, its scales -k n^2 and +k n^2 sum to 0 and its
    # phases cancel, so the term lists of F(F(f)) and reflect(f) agree term by
    # term and fn_equal runs no inner product and no scalar arithmetic
    from gjzeta.scalars import CyclotomicNumber

    def refuse(*args):
        raise AssertionError("inner product or scalar arithmetic run")
    rng = random.Random(15)
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5)]:
        ctx = PAdicContext(p)
        for _ in range(10):
            f = random_schwartz(n, ctx, rng)
            twice, refl = f.fourier().fourier(), f.reflect()
            with monkeypatch.context() as m:
                m.setattr(SchwartzBruhatFn, "inner_product", refuse)
                for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                             "__rmul__", "__neg__"):
                    m.setattr(CyclotomicNumber, name, refuse)
                assert twice.fn_equal(refl) and refl.fn_equal(twice)


def test_transform_and_reflection_terms_pass_the_public_checks():
    # fourier and reflect build their result unchecked; the public constructor
    # would keep every term as it is, the same objects in the same order
    rng = random.Random(16)
    for n, p in [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5)]:
        ctx = PAdicContext(p)
        for _ in range(10):
            f = random_schwartz(n, ctx, rng)
            for g in (f.fourier(), f.reflect(), f.fourier().fourier()):
                assert len(g.terms) == len(f.terms)
                assert SchwartzBruhatFn(n, ctx, g.terms).terms == g.terms


def test_plancherel():
    rng = random.Random(12)
    for n, p in [(1, 2), (2, 3)]:
        ctx = PAdicContext(p)
        for _ in range(5):
            f = random_schwartz(n, ctx, rng)
            g = random_schwartz(n, ctx, rng)
            assert scalar_is_zero(f.inner_product(g)
                                  - f.fourier().inner_product(g.fourier()))


def test_norm_detects_zero_function():
    ctx = PAdicContext(2)
    # 1_{M} written as the sum of its two level-1 scalar-shift slices plus
    # the rest, minus itself, is the zero function despite nonzero terms
    f = SchwartzBruhatFn.unit_ball(1, ctx)
    halves = SchwartzBruhatFn.indicator(1, ctx, PAdicMatrix([[0]]), 1) \
        + SchwartzBruhatFn.indicator(1, ctx, PAdicMatrix([[1]]), 1)
    assert f.fn_equal(halves)
    assert not f.fn_equal(SchwartzBruhatFn(1, ctx, []))


def test_json_roundtrip():
    rng = random.Random(13)
    for n, p in [(1, 2), (2, 3)]:
        ctx = PAdicContext(p)
        f = random_schwartz(n, ctx, rng)
        g = SchwartzBruhatFn.from_json(f.to_json())
        assert f.fn_equal(g)


def test_from_json_stores_coefficients_at_their_minimal_level():
    # 3 written at level 2 must equal, and hash like, the level-0 scalar 3
    doc = {"n": 1, "p": 3, "terms": [{
        "coeff": {"level": 2, "coeffs": ["3", "0", "0", "0", "0", "0"]},
        "center": [["0"]], "level": 0, "modulation": [["0"]]}]}
    c = SchwartzBruhatFn.from_json(json.dumps(doc)).terms[0].coeff
    assert c == 3
    assert hash(c) == hash(as_scalar(3, 3))


def test_rational_coefficients_take_the_functions_prime():
    # psi(tr([[1]] [[1/3]])) = zeta_3, applied to the coefficient: a rational
    # tagged with another prime (as_scalar(1) is p = 2) must still get zeta_3
    ctx = PAdicContext(3)
    center, modulation = PAdicMatrix([[Fraction(1, 3)]]), PAdicMatrix([[1]])
    for coeff in (as_scalar(1, 3), as_scalar(1), as_scalar(1, 5), 1, Fraction(1)):
        f = SchwartzBruhatFn(1, ctx, [SchwartzTerm(coeff, center, 0, modulation)])
        (t,) = f.fourier().terms
        assert t.coeff == root_of_unity(3, 1, 1) and repr(t.coeff) == "1*z3^1"
        assert f.fourier().fourier().fn_equal(f.reflect())
        assert f.inner_product(f) == f.fourier().inner_product(f.fourier()) == 1
    with pytest.raises(ValueError):
        SchwartzBruhatFn(1, ctx, [SchwartzTerm(root_of_unity(5, 1, 1), center, 0, modulation)])


def test_terms_must_be_n_by_n():
    # a 1 x 1 term in an n = 2 function was kept, and its gamma factor was n = 1's
    ctx, one, two = PAdicContext(3), PAdicMatrix.zero(1), PAdicMatrix.zero(2)
    for center, modulation in ((one, one), (two, one), (one, two)):
        with pytest.raises(ValueError):
            SchwartzBruhatFn(2, ctx, [SchwartzTerm(1, center, 0, modulation)])
        with pytest.raises(ValueError):
            SchwartzBruhatFn.indicator(2, ctx, center, 0, modulation)


def test_det_valuation_bound():
    ctx = PAdicContext(2)
    phi = SchwartzBruhatFn.scaled_ball(2, ctx, -2)
    assert phi.det_valuation_bound() == -4
    assert SchwartzBruhatFn.unit_ball(1, ctx).det_valuation_bound() == 0
    # no clamp at 0: the support of p^2 M_n(Z_p) starts at shell 2n
    for n in (1, 2, 3):
        assert SchwartzBruhatFn.scaled_ball(n, ctx, 2).det_valuation_bound() == 2 * n
    assert SchwartzBruhatFn(2, ctx).det_valuation_bound() == 0


# -- Fourier laws (hypothesis) ----------------------------------------------

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _schwartz_fn(draw, n, ctx, general=False):
    """The shapes of cli.random_schwartz: 1..3 modulated coset indicators,
    levels in [-3, 3], centres and modulations in p^(-2) Z entrywise.  With
    general, a coefficient is any element of Q(zeta_{p^j}), j <= 2, not a
    multiple of one root of unity."""
    p = ctx.p
    out = SchwartzBruhatFn(n, ctx, [])
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.integers(-3, 3))
        denom = p ** draw(st.integers(0, 2))
        entries = st.integers(-4, 4).map(lambda a: Fraction(a, denom))
        center, modulation = (
            PAdicMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
            for _ in range(2))
        if general:
            j = draw(st.integers(0, 2))
            phi = 1 if j == 0 else (p - 1) * p ** (j - 1)
            coeff = root_of_unity_sum(p, j, draw(st.lists(_coeffs, min_size=phi,
                                                          max_size=phi)))
        else:
            coeff = root_of_unity(p, 1, draw(st.integers(0, p - 1))) * Fraction(
                draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        out = out + SchwartzBruhatFn.indicator(n, ctx, center, level,
                                               modulation, coeff)
    return out


@st.composite
def _schwartz_pairs(draw, general=False):
    cases = [(1, 2), (1, 3), (2, 2), (2, 3)] + general * [(1, 5), (2, 5)]
    n, p = draw(st.sampled_from(cases))
    ctx = PAdicContext(p)
    return draw(_schwartz_fn(n, ctx, general)), draw(_schwartz_fn(n, ctx, general))


def _psi_reference(x, ctx):
    """psi(x) as the exponent vector with a single 1, reduced by the tower."""
    m, e = psi_exponent(x, ctx)
    return root_of_unity_sum(ctx.p, m, [0] * e + [1])


def inner_product_reference(f, g):
    """<f, g> term pair by term pair, conjugating g's coefficient each time.
    Nothing here calls the engine's coset test, trace pairing or root of
    unity: cosets compare entry valuations, tr(b a) is a plain sum of
    Fraction products, p^k b is tested scaled, and psi(x) is the reduced
    exponent vector with a single 1."""
    p, n = f.ctx.p, f.n
    total = as_scalar(0, p)
    for s in f.terms:
        for t in g.terms:
            inner, outer = (s, t) if s.level >= t.level else (t, s)
            if not all(valuation(x - y, p) >= outer.level
                       for r1, r2 in zip(inner.center.entries, outer.center.entries)
                       for x, y in zip(r1, r2)):
                continue
            a, k = inner.center, inner.level
            b = s.modulation - t.modulation
            if (b.scale(Fraction(p) ** k)).min_valuation(p) < 0:
                continue
            tr = sum((b.entries[i][j] * a.entries[j][i] for i in range(n) for j in range(n)),
                     Fraction(0))
            total = total + s.coeff * scalar_conjugate(t.coeff) * _psi_reference(tr, f.ctx) \
                * Fraction(p) ** (-k * n * n)
    return total


@settings(max_examples=40, deadline=None)
@given(_schwartz_pairs())
def test_double_transform_is_reflection_property(pair):
    f, _ = pair
    assert f.fourier().fourier().fn_equal(f.reflect())


@settings(max_examples=40, deadline=None)
@given(_schwartz_pairs())
def test_plancherel_property(pair):
    f, g = pair
    assert scalar_is_zero(f.inner_product(g) - f.fourier().inner_product(g.fourier()))


@settings(max_examples=40, deadline=None)
@given(_schwartz_pairs())
def test_inner_product_is_hermitian(pair):
    f, g = pair
    assert f.inner_product(g) == scalar_conjugate(g.inner_product(f))


@settings(max_examples=60, deadline=None)
@given(_schwartz_pairs(general=True))
def test_inner_product_equals_reference(pair):
    # general coefficients at mixed levels: the one exponent vector adds products
    # whose coefficient and psi levels differ
    f, g = pair
    for x, y in ((f, g), (f.fourier(), g.fourier()), (f - g, f - g)):
        got, want = x.inner_product(y), inner_product_reference(x, y)
        assert got == want and repr(got) == repr(want)


# -- fn_equal against the L^2 norm of the unmerged difference ----------------

def _rewrite(draw, f):
    """f in another representation (same function), or with one coefficient
    changed (another function).  Returns (g, whether f and g are equal)."""
    p, n = f.ctx.p, f.n
    terms = list(f.terms)
    i = draw(st.integers(0, len(terms) - 1))
    t = terms[i]
    kinds = ["shift", "split_coeff", "change_coeff"]
    if p ** (n * n) <= 16:  # the split has p^(n^2) pieces; keep the norm cheap
        kinds.append("split_ball")
    kind = draw(st.sampled_from(kinds))
    if kind == "shift":  # a + p^level M is the same coset
        shift = PAdicMatrix([[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)])
        new = [SchwartzTerm(t.coeff, t.center - shift.scale(Fraction(p) ** t.level),
                            t.level, t.modulation)]
    elif kind == "split_coeff":  # c = c1 + (c - c1) over two identical terms
        c1 = root_of_unity(p, 1, draw(st.integers(0, p - 1))) * draw(st.integers(-2, 2))
        new = [SchwartzTerm(c1, t.center, t.level, t.modulation),
               SchwartzTerm(t.coeff - c1, t.center, t.level, t.modulation)]
    elif kind == "split_ball":  # a + p^k M is the union of its p^(n^2) level-(k+1) balls
        pk = Fraction(p) ** t.level
        digits = (PAdicMatrix([d[r * n:(r + 1) * n] for r in range(n)])
                  for d in product(range(p), repeat=n * n))
        new = [SchwartzTerm(t.coeff, t.center - e.scale(pk), t.level + 1, t.modulation)
               for e in digits]
    else:
        delta = root_of_unity(p, 1, draw(st.integers(0, p - 1))) * draw(
            st.sampled_from([-1, 1, Fraction(1, 2)]))
        new = [SchwartzTerm(t.coeff + delta, t.center, t.level, t.modulation)]
    return SchwartzBruhatFn(n, f.ctx, terms[:i] + new + terms[i + 1:]), kind != "change_coeff"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fn_equal_matches_norm_reference(data):
    f, g = data.draw(_schwartz_pairs())
    if not f.terms:
        f = f + SchwartzBruhatFn.unit_ball(f.n, f.ctx)
    h, same = _rewrite(data.draw, f)
    for x, y, want in ((f, h, same), (h, f, same), (f, g, None), (f.fourier(), h.fourier(), same)):
        d = x - y
        reference = scalar_is_zero(inner_product_reference(d, d))
        assert x.fn_equal(y) == reference
        assert want is None or reference == want


@st.composite
def _one_change(draw):
    """(f, g): f a drawn function or its transform, and g f's terms with one
    term's base, phase, scale or level changed, or with the terms reordered."""
    f, _ = draw(_schwartz_pairs())
    if draw(st.booleans()):
        f = f.fourier()  # terms with a nonzero scale and a phase
    if not f.terms:
        f = f + SchwartzBruhatFn.unit_ball(f.n, f.ctx)
    p, terms = f.ctx.p, list(f.terms)
    kind = draw(st.sampled_from(["base", "phase", "scale", "level", "reorder"]))
    if kind == "reorder":
        return f, SchwartzBruhatFn(f.n, f.ctx, draw(st.permutations(terms)))
    i = draw(st.integers(0, len(terms) - 1))
    t = terms[i]
    base, level, scale, phase = t.base, t.level, t.scale, t.phase
    if kind == "base":
        base = base + root_of_unity(p, 1, draw(st.integers(0, p - 1))) * draw(
            st.sampled_from([-1, 1, Fraction(1, 2)]))
    elif kind == "phase":
        phase = _phase_add(p, phase, (draw(st.integers(1, 2)), draw(st.integers(1, p - 1))))
    elif kind == "scale":
        scale += draw(st.sampled_from([-1, 1]))
    else:
        level += draw(st.sampled_from([-1, 1]))
    terms[i] = SchwartzTerm(base, t.center, level, t.modulation, scale, phase)
    return f, SchwartzBruhatFn(f.n, f.ctx, terms)


@settings(max_examples=80, deadline=None)
@given(_one_change())
def test_fn_equal_matches_norm_reference_after_one_change(pair):
    f, g = pair
    d = f - g
    reference = scalar_is_zero(inner_product_reference(d, d))
    assert f.fn_equal(g) == g.fn_equal(f) == reference


# -- the transform's integer scale and phase ----------------------------------

def _fourier_coeffs_reference(f):
    """The coefficients of f^, each built eagerly from f's: c * p^(-k n^2) *
    psi(tr(b a)), with tr(b a) a plain sum of Fraction products."""
    p, n = f.ctx.p, f.n
    return [t.coeff * Fraction(p) ** (-t.level * n * n) * _psi_reference(
        sum((t.modulation.entries[i][j] * t.center.entries[j][i]
             for i in range(n) for j in range(n)), Fraction(0)), f.ctx)
        for t in f.terms]


@st.composite
def _drawn_or_parsed(draw):
    """A random_schwartz draw, or a function read back from JSON with general
    coefficients (scale 0, phase (0, 0), a base of any level <= 2)."""
    n, p = draw(st.sampled_from([(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5)]))
    ctx = PAdicContext(p)
    if draw(st.booleans()):
        return random_schwartz(n, ctx, random.Random(draw(st.integers(0, 10 ** 6))))
    return SchwartzBruhatFn.from_json(draw(_schwartz_fn(n, ctx, general=True)).to_json())


@settings(max_examples=60, deadline=None)
@given(_drawn_or_parsed())
def test_fourier_coeff_equals_the_eager_product(f):
    once = f.fourier()
    twice = once.fourier()
    for g, h in ((f, once), (once, twice)):
        want = _fourier_coeffs_reference(g)
        assert len(h.terms) == len(want)
        for t, c in zip(h.terms, want):
            assert t.coeff == c and repr(t.coeff) == repr(c)


# f.fourier().to_json() for random_schwartz(n, PAdicContext(p), random.Random(seed)),
# as printed when each transform multiplied its coefficients out
FOURIER_JSON = {
    1: (1, 2, '{"n": 1, "p": 2, "terms": [{"coeff": {"level": 0, "coeffs": ["-3/4"]}, '
              '"center": [["3"]], "level": -1, "modulation": [["0"]]}]}'),
    2: (1, 3, '{"n": 1, "p": 3, "terms": [{"coeff": {"level": 1, "coeffs": ["-27", '
              '"-27"]}, "center": [["2"]], "level": 3, "modulation": [["1"]]}]}'),
    3: (2, 2, '{"n": 2, "p": 2, "terms": [{"coeff": {"level": 4, "coeffs": ["0", "0", '
              '"0", "0", "0", "-1/24", "0", "0"]}, "center": [["1", "-3/4"], ["0", '
              '"-1"]], "level": -1, "modulation": [["-1/2", "1/4"], ["3/4", '
              '"-3/4"]]}]}'),
    4: (2, 3, '{"n": 2, "p": 3, "terms": [{"coeff": {"level": 1, "coeffs": ["0", '
              '"243"]}, "center": [["3", "4"], ["-2", "-4"]], "level": 1, '
              '"modulation": [["2", "3"], ["-2", "-3"]]}]}'),
}


def test_fourier_json_is_pinned():
    for seed, (n, p, want) in FOURIER_JSON.items():
        f = random_schwartz(n, PAdicContext(p), random.Random(seed))
        assert f.fourier().to_json() == want, seed


def test_fn_equal_across_a_phase_and_its_multiplied_out_base():
    # base c with phase zeta_3 on one side, c * zeta_3 with no phase on the
    # other: the keys differ, so the L^2 norm decides
    ctx = PAdicContext(3)
    center = PAdicMatrix([[1, Fraction(1, 3)], [0, 2]])
    modulation = PAdicMatrix([[Fraction(1, 9), 0], [1, Fraction(-2, 3)]])
    c = root_of_unity(3, 1, 2) * Fraction(5, 2) + 1
    other = SchwartzTerm(Fraction(1, 3), center, 0, PAdicMatrix.zero(2))
    f = SchwartzBruhatFn(2, ctx, [SchwartzTerm(c, center, 1, modulation, 0, (1, 1)), other])
    g = SchwartzBruhatFn(2, ctx, [SchwartzTerm(c * root_of_unity(3, 1, 1), center, 1,
                                               modulation), other])
    assert f.terms[0].coeff == g.terms[0].coeff
    assert f.fn_equal(g) and g.fn_equal(f)
    h = SchwartzBruhatFn(2, ctx, [SchwartzTerm(c * root_of_unity(3, 1, 1) + Fraction(1, 2),
                                               center, 1, modulation), other])
    assert not f.fn_equal(h) and not h.fn_equal(f)


# -- what fourier-selftest checks ---------------------------------------------

# SHA-256 over the to_json() lines of every function fourier-selftest --count 10
# draws (f then g for each index, over (n, p) = (1, 2), (1, 3), (2, 2), (2, 3)),
# at seeds 1-16, the benchmark's whole self-test pool.  The selftest report
# counts functions and failures only, so a random_schwartz that drew other
# functions would still pass; this pins the draws themselves, and with them the
# random stream that random_schwartz consumes.
SELFTEST_DRAWS_SHA256 = {
    1: "53d415667ee45a5ffc60d17e1b98665df3b6a0ae4eeb1862b16312a26b9c864a",
    2: "052b2374d5aa8ec36e0ba35911de1e10145be7ebc6b0bf5aaf12c6048fb90ec2",
    3: "b5b71eb8985ddd6015e0aa1684685980c3e13054027e773f2dcc5d2d5cc8f5be",
    4: "1633ce0f536229b86565debe6147bacb181632099aaddaddf1ef3d2015b0b9e8",
    5: "09fddc9c21618062469260c408d0bfd859e3c2ca8dab3487627f216f3d4b1381",
    6: "a4bf15e99df24f542c8d47cfa1d424a0f2d78ca8b47a10685afc1787e2a1c83b",
    7: "4846e10ace2136d213682f4212ee5621e6cfee33f2146f032a17bd6485b30f13",
    8: "7dbf650da3b3600f422cceebd11e45a93f62d3a41f53d298750c3953c206bf60",
    9: "7033defafd3c850a49b08ac328ec0239c2e2971e6694313dafa08d983eb38ab1",
    10: "3cdf88e1f48be6d47b88736206360d22ef06c3175f43d63e52d7bbe98dc1d0e0",
    11: "b030be586176285e1940787b08df6c5e016b16f0bf0cce33a5b9a8fa969fd91e",
    12: "3b234ffb538700404e73a38ab30f26e3b206de0b01bbf75b6e58608bf2b9b8e4",
    13: "f65cda96879be2e80ce9d8db2f527cbffc0ad89a119c2b909540b5595e8248c9",
    14: "33321d5ef9c8541b612b797c5c248f4e55ad90145722282e53f120b0311491c9",
    15: "27f489c539f0a5e6ba2ece0a273941e6ef4f65f46bc78f95540238322c0fe127",
    16: "9bab19c30315b97122138e72d2f4d868d0b73c50dc47c73d54a43b00b8d49a50",
}


def test_random_schwartz_draws_are_pinned():
    import hashlib
    for seed, want in SELFTEST_DRAWS_SHA256.items():
        rng = random.Random(seed)
        h = hashlib.sha256()
        for n in (1, 2):
            for p in (2, 3):
                ctx = PAdicContext(p)
                for _ in range(10 * 2):
                    h.update(random_schwartz(n, ctx, rng).to_json().encode() + b"\n")
        assert h.hexdigest() == want, seed


def _slot_sums_of_the_selftest(seed):
    """Run fourier-selftest's laws at one seed (--count 10) with schwartz._slot_sum
    checked against the fold of every slot, _reduce over all nonzero slots; return
    the number of nonzero slots of each call."""
    from gjzeta import schwartz
    from gjzeta.scalars import _reduce
    slot_sum, seen = schwartz._slot_sum, []

    def checked(p, top, vec, den):
        got = slot_sum(p, top, vec, den)
        want = _reduce(p, top, [(e, Fraction(v, den)) for e, v in enumerate(vec) if v])
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        seen.append(sum(map(bool, vec)))
        return got
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schwartz, "_slot_sum", checked)
        for n, p in product((1, 2), (2, 3)):
            for _ in range(10):
                f, g = (random_schwartz(n, PAdicContext(p), rng) for _ in range(2))
                f_hat = f.fourier()
                assert f_hat.fourier().fn_equal(f.reflect())
                assert scalar_is_zero(f.inner_product(g) - f_hat.inner_product(g.fourier()))
    return seen


@settings(max_examples=16, deadline=None)
@given(st.integers(1, 16))
def test_inner_product_slots_match_the_fold_over_the_selftest_pool(seed):
    assert _slot_sums_of_the_selftest(seed)


def test_selftest_pool_has_inner_products_of_no_one_and_many_slots():
    seen = _slot_sums_of_the_selftest(1)
    assert 0 in seen and 1 in seen and max(seen) > 1


# -- the self-test's draws against the choice/randint oracle -----------------

def random_schwartz_oracle(n, ctx, rng, terms=3, max_level=3):
    """random_schwartz as written with Random.choice for every pick: the
    numerators are choice(range(-4, 5)), which cli inlines on getrandbits."""
    ratios = tuple(tuple(Fraction(b, c) for c in range(1, 4)) for b in range(-3, 4))
    p, choice, randint, nums = ctx.p, rng.choice, rng.randint, range(-4, 5)

    def matrix(den):
        return PAdicMatrix._lattice(n, tuple([choice(nums) for _ in range(n * n)]), den)
    out = []
    for _ in range(randint(1, terms)):
        level = randint(-max_level, max_level)
        den = choice((1, p, p * p))
        center = matrix(den)
        modulation = matrix(den)
        a = choice(range(p))
        out.append(SchwartzTerm(choice(choice(ratios)), center, level, modulation, 0,
                                (1, a) if a else (0, 0)))
    return SchwartzBruhatFn(n, ctx, out)


def _drawn_terms(fn):
    return [(t.base, t.center.nums, t.center.den, t.level, t.modulation.nums,
             t.modulation.den, t.scale, t.phase) for t in fn.terms]


@pytest.mark.parametrize("seed", range(1, 65))
def test_random_schwartz_draws_what_the_oracle_draws(seed):
    # fourier-selftest's order: per (n, p), f then g from one stream
    rng, oracle = random.Random(seed), random.Random(seed)
    for n in (1, 2):
        for p in (2, 3):
            ctx = PAdicContext(p)
            for _ in range(4):
                got = random_schwartz(n, ctx, rng)
                want = random_schwartz_oracle(n, ctx, oracle)
                assert _drawn_terms(got) == _drawn_terms(want)
    assert rng.getstate() == oracle.getstate()
