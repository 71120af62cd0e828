"""Exact scalar tower: cyclotomic arithmetic, sqrt(q), embeddings."""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from gjzeta.scalars import (CyclotomicNumber, QuadExt, as_scalar,
                            embed_complex, root_of_unity, root_of_unity_sum,
                            scalar_conjugate, scalar_is_zero, sqrt_q, sqrt_q_power)


def test_zeta_order_and_power_relations():
    z8 = root_of_unity(2, 3, 1)
    assert z8 ** 8 == 1
    assert z8 ** 4 == -1
    z9 = root_of_unity(3, 2, 1)
    assert z9 ** 9 == 1
    assert not (z9 ** 3 == 1)


def test_minimal_level_normalization():
    # zeta_8^2 = zeta_4 = i lives at level 2, not 3
    z = root_of_unity(2, 3, 2)
    assert z.m == 2
    assert root_of_unity(2, 3, 4).m == 0  # = -1
    assert root_of_unity(3, 2, 3).m == 1  # zeta_9^3 = zeta_3


def test_vanishing_sums():
    # 1 + zeta_p + ... + zeta_p^(p-1) = 0
    for p in (2, 3, 5):
        total = as_scalar(0, p)
        for a in range(p):
            total = total + root_of_unity(p, 1, a)
        assert scalar_is_zero(total)


def test_inverse_roundtrip():
    z = root_of_unity(3, 2, 1) * Fraction(2, 7) + root_of_unity(3, 2, 5) - 3
    assert (z * z.inverse()) == 1
    with pytest.raises(ZeroDivisionError):
        as_scalar(0, 2).inverse()


def test_conjugation_is_complex_conjugation():
    z = root_of_unity(2, 3, 1) + Fraction(1, 2) * root_of_unity(2, 3, 3)
    num = embed_complex(z, 30)
    conj = embed_complex(scalar_conjugate(z), 30)
    assert abs(mpmath.conj(num) - conj) < mpmath.mpf(10) ** -12
    # z * conj(z) is real
    prod = z * scalar_conjugate(z)
    assert abs(mpmath.im(embed_complex(prod, 30))) < mpmath.mpf(10) ** -12


@pytest.mark.parametrize("p", [2, 5, 3, 7, 13])
def test_sqrt_q_squares_to_p(p):
    r = sqrt_q(p)
    assert r * r == p
    assert abs(embed_complex(r, 30) - mpmath.sqrt(p)) < mpmath.mpf(10) ** -12


def test_sqrt_q_power_half_integers():
    assert sqrt_q_power(2, 4) == 4
    assert sqrt_q_power(2, -2) == Fraction(1, 2)
    assert sqrt_q_power(3, 3) * sqrt_q_power(3, -3) == 1
    assert sqrt_q_power(3, 1) * sqrt_q_power(3, 1) == 3


def test_quadext_is_a_field():
    r = sqrt_q(3)
    assert isinstance(r, QuadExt)
    x = r * Fraction(2, 5) + root_of_unity(3, 1, 1)
    assert (x * x.inverse()) == 1
    assert ((x + r) - r) == x


def test_mixed_prime_rationals_coerce():
    a = as_scalar(Fraction(1, 2), 2)
    b = as_scalar(Fraction(1, 3), 3)
    assert a + b == Fraction(5, 6)


# -- differential oracle: sympy polynomials modulo the cyclotomic polynomial --

Z = sympy.Symbol("z")
ORACLE_LEVELS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1)]
# no norm-one element here: building it takes sympy about 13 s at 7^2
FAST_ORACLE_LEVELS = [(7, 2)]


def _element(p, m, terms):
    """Canonical sum of c * zeta_{p^m}^a over (a, c) in terms."""
    total = as_scalar(0, p)
    for a, c in terms:
        total = total + root_of_unity(p, m, a) * c
    return total


def _to_poly(x, m):
    return sympy.Poly(list(reversed(x._lift(m).coeffs)), Z, domain=sympy.QQ)


def _basis_vector(poly, p, m):
    """Power-basis coefficients of a polynomial already reduced mod Phi_{p^m}."""
    phi = (p - 1) * p ** (m - 1)
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(cs + [Fraction(0)] * (phi - len(cs)))


def _oracle_elements(p, m, phi_poly):
    rng = random.Random(100 * p + m)
    order = p ** m
    out = [_element(p, m, [(rng.randrange(order), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                           for _ in range(rng.randint(1, 5))]) for _ in range(4)]
    # zeta^a - 1: a prime to p, and (from level 2 on) a lower-level root
    out += [root_of_unity(p, m, a) - 1 for a in (1, order - 1, p) if a % order]
    if m >= 2 and (p, m) not in FAST_ORACLE_LEVELS:
        # y / sigma(y) with sigma: zeta -> zeta^(1 + p^(m-1)) generating the
        # automorphisms over level m-1, so its norm one level down is 1 (level 0)
        a = 1 + p ** (m - 1)
        y = _to_poly(_element(p, m, [(1, 2), (0, 1), (order - 2, Fraction(-1, 3))]), m)
        sigma_y = y.compose(sympy.Poly(Z ** a, Z, domain=sympy.QQ)).rem(phi_poly)
        x_poly = (y * sigma_y.invert(phi_poly)).rem(phi_poly)
        norm = sympy.Poly(1, Z, domain=sympy.QQ)
        for j in range(p):
            sigma_j = sympy.Poly(Z ** ((1 + j * p ** (m - 1)) % order), Z, domain=sympy.QQ)
            norm = (norm * x_poly.compose(sigma_j)).rem(phi_poly)
        assert norm == sympy.Poly(1, Z, domain=sympy.QQ)
        x = _element(p, m, enumerate(_basis_vector(x_poly, p, m)))
        assert x.m == m
        out.append(x)
    return [x for x in out if not x.is_zero()]


def _count_vectors(p, m):
    """Random integer counts over all p^m exponents: one dense, one sparse."""
    rng = random.Random(1000 * p + m)
    order = p ** m
    return [[rng.randint(0, 5) for _ in range(order)],
            [rng.randint(1, 9) if rng.random() < 0.2 else 0 for _ in range(order)]]


@pytest.mark.parametrize("p, m", ORACLE_LEVELS + FAST_ORACLE_LEVELS)
def test_mul_and_inverse_match_sympy_oracle(p, m):
    phi_poly = sympy.Poly(sympy.cyclotomic_poly(p ** m, Z), Z, domain=sympy.QQ)
    xs = _oracle_elements(p, m, phi_poly)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        expected = (_to_poly(x, m) * _to_poly(y, m)).rem(phi_poly)
        assert (x * y)._lift(m).coeffs == _basis_vector(expected, p, m)
    for x in xs:
        expected = _to_poly(x, m).invert(phi_poly)
        assert x.inverse()._lift(m).coeffs == _basis_vector(expected, p, m)
    # exponents e >= phi(p^m) reduce into the power basis
    for counts in _count_vectors(p, m):
        expected = sympy.Poly(list(reversed(counts)), Z, domain=sympy.QQ).rem(phi_poly)
        assert root_of_unity_sum(p, m, counts)._lift(m).coeffs == _basis_vector(expected, p, m)


# -- field properties (hypothesis) -----------------------------------------

PROPERTY_LEVELS = [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _cyclotomic(draw, p, m):
    terms = draw(st.lists(st.tuples(st.integers(0, p ** m - 1), _coeffs),
                          min_size=1, max_size=4))
    return _element(p, m, terms)


@st.composite
def _same_field_pairs(draw):
    """Two elements of one field: Q(zeta_{p^m}), or Q(zeta_{p^m}, sqrt(p))
    for p = 3 mod 4 (QuadExt)."""
    if draw(st.booleans()):
        p, m = draw(st.sampled_from(PROPERTY_LEVELS))
        return _cyclotomic(draw, p, m), _cyclotomic(draw, p, m)
    p, m = draw(st.sampled_from([(3, 1), (3, 2), (7, 1)]))
    return tuple(_cyclotomic(draw, p, m) + _cyclotomic(draw, p, m) * sqrt_q(p)
                 for _ in range(2))


@settings(max_examples=40, deadline=None)
@given(_same_field_pairs())
def test_inverse_is_multiplicative(pair):
    x, y = pair
    assume(not x.is_zero() and not y.is_zero())
    assert x * x.inverse() == 1
    assert (x * y).inverse() == x.inverse() * y.inverse()


@settings(max_examples=40, deadline=None)
@given(_same_field_pairs())
def test_conjugate_is_a_multiplicative_involution(pair):
    x, y = pair
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
