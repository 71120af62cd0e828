"""Schwartz-Bruhat functions: Fourier, Plancherel, canonical forms."""

import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gjzeta.padic import PAdicContext, PAdicMatrix, psi_value, trace_pairing
from gjzeta.cli import random_schwartz
from gjzeta.schwartz import SchwartzBruhatFn
from gjzeta.scalars import (as_scalar, root_of_unity, scalar_conjugate,
                            scalar_is_zero)


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
    assert (f - halves).is_zero_fn()
    assert not f.is_zero_fn()


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


def test_det_valuation_bound():
    ctx = PAdicContext(2)
    phi = SchwartzBruhatFn.scaled_ball(2, ctx, -2)
    assert phi.det_valuation_bound() == -4
    assert SchwartzBruhatFn.unit_ball(1, ctx).det_valuation_bound() == 0


# -- Fourier laws (hypothesis) ----------------------------------------------

@st.composite
def _schwartz_fn(draw, n, ctx):
    """The shapes of cli.random_schwartz: 1..3 modulated coset indicators,
    levels in [-3, 3], centres and modulations in p^(-2) Z entrywise."""
    p = ctx.p
    out = SchwartzBruhatFn(n, ctx, [])
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.integers(-3, 3))
        denom = p ** draw(st.integers(0, 2))
        entries = st.integers(-4, 4).map(lambda a: Fraction(a, denom))
        center, modulation = (
            PAdicMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
            for _ in range(2))
        coeff = root_of_unity(p, 1, draw(st.integers(0, p - 1))) * Fraction(
            draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        out = out + SchwartzBruhatFn.indicator(n, ctx, center, level,
                                               modulation, coeff)
    return out


@st.composite
def _schwartz_pairs(draw):
    n, p = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3)]))
    ctx = PAdicContext(p)
    return draw(_schwartz_fn(n, ctx)), draw(_schwartz_fn(n, ctx))


def inner_product_reference(f, g):
    """<f, g> term pair by term pair, conjugating g's coefficient each time
    and testing integrality of p^k b on the scaled matrix."""
    p = f.ctx.p
    n2 = f.n * f.n
    total = as_scalar(0, p)
    for s in f.terms:
        for t in g.terms:
            inner, outer = (s, t) if s.level >= t.level else (t, s)
            if not inner.center.in_coset(outer.center, outer.level, p):
                continue
            a, k = inner.center, inner.level
            b = s.modulation - t.modulation
            if (b.scale(Fraction(p) ** k)).min_valuation(p) < 0:
                continue
            total = total + s.coeff * scalar_conjugate(t.coeff) \
                * psi_value(trace_pairing(b, a), f.ctx) * Fraction(p) ** (-k * n2)
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


@settings(max_examples=40, deadline=None)
@given(_schwartz_pairs())
def test_inner_product_equals_reference(pair):
    f, g = pair
    for x, y in ((f, g), (f.fourier(), g.fourier()), (f - g, f - g)):
        got, want = x.inner_product(y), inner_product_reference(x, y)
        assert got == want and repr(got) == repr(want)
