"""Q_p scalars, matrices, and the additive character psi."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gjzeta.errors import Singular
from gjzeta.padic import (INFINITE, PAdicContext, PAdicMatrix, psi_value,
                          trace_pairing, valuation)
from gjzeta.scalars import scalar_is_zero


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(9, 4), 2) == -2
    assert valuation(Fraction(9, 4), 3) == 2
    assert valuation(0, 5) == INFINITE


def test_context_requires_prime():
    with pytest.raises(ValueError):
        PAdicContext(6)


def test_psi_conductor_is_zp():
    ctx = PAdicContext(2)
    assert psi_value(Fraction(3), ctx) == 1
    assert psi_value(0, ctx) == 1
    assert psi_value(Fraction(1, 2), ctx) == -1
    # nontrivial at level p^-1 for every p
    for p in (2, 3, 5):
        assert not (psi_value(Fraction(1, p), PAdicContext(p)) == 1)


def test_psi_additivity():
    ctx = PAdicContext(3)
    for x in (Fraction(1, 3), Fraction(2, 9), Fraction(5, 27)):
        for y in (Fraction(1, 9), Fraction(4, 3)):
            assert scalar_is_zero(psi_value(x + y, ctx)
                                  - psi_value(x, ctx) * psi_value(y, ctx))


def test_matrix_det_and_inverse():
    g = PAdicMatrix([[1, 2], [3, 4]])
    assert g.det() == -2
    assert g * g.inverse() == PAdicMatrix.identity(2)
    with pytest.raises(Singular):
        PAdicMatrix([[1, 2], [2, 4]]).inverse()


def test_coset_membership():
    g = PAdicMatrix([[1, 4], [8, 1]])
    assert g.in_coset(PAdicMatrix.identity(2), 2, 2)
    assert not g.in_coset(PAdicMatrix.identity(2), 3, 2)


@st.composite
def _coset_cases(draw):
    """(g, center, level, p) with entries a/u * p^e, zero included; center is
    g minus a random matrix so both answers are common."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    entry = st.builds(lambda a, u, e: Fraction(a, u) * Fraction(p) ** e,
                      st.integers(-12, 12), st.sampled_from([1, 7, 11]), st.integers(-3, 3))

    def matrix():
        return PAdicMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    g = matrix()
    delta = draw(st.sampled_from([PAdicMatrix.zero(n), matrix()]))
    return g, g - delta, draw(st.integers(-4, 4)), p


@settings(max_examples=200, deadline=None)
@given(_coset_cases())
def test_in_coset_matches_min_valuation(case):
    g, center, level, p = case
    assert g.in_coset(center, level, p) == ((g - center).min_valuation(p) >= level)


def test_trace_pairing_matches_trace_of_product():
    b = PAdicMatrix([[1, Fraction(1, 2)], [3, 0]])
    x = PAdicMatrix([[2, 1], [Fraction(1, 4), 5]])
    assert trace_pairing(b, x) == (b * x).trace()
