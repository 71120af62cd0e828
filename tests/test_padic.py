"""Q_p scalars, matrices, and the additive character psi."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from gjzeta.integrate import _scalar_mod
from gjzeta.padic import (INFINITE, PAdicContext, PAdicMatrix, flat_cofactors, flat_det,
                          in_level, psi_exponent, psi_parts, psi_value, trace_pairing, valuation)
from gjzeta.scalars import root_of_unity, scalar_is_zero


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(9, 4), 2) == -2
    assert valuation(Fraction(9, 4), 3) == 2
    assert valuation(0, 5) == INFINITE


def test_context_requires_prime():
    with pytest.raises(ValueError):
        PAdicContext(6)


def _accepted(p):
    try:
        PAdicContext(p)
    except ValueError:
        return False
    return True


def test_primality_agrees_with_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    ns = range(-3, 2 * 10 ** 4)
    assert [p for p in ns if _accepted(p)] == [p for p in ns if trial_division(p)]


@pytest.mark.parametrize("n", [
    561, 41041, 825265,  # Carmichael numbers
    2047, 3215031751,  # strong pseudoprimes to base 2
    1000000016000000063])  # (10^9 + 7)(10^9 + 9)
def test_pseudoprimes_and_semiprimes_are_refused(n):
    assert not _accepted(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 2 ** 81), st.integers(2, 2 ** 40))
def test_primality_agrees_with_sympy_below_the_bound(n, m):
    # n itself, and a product whose factors miss every Miller-Rabin base
    for x in (n, sympy.nextprime(m) * sympy.nextprime(m + 50)):
        assert _accepted(x) == sympy.isprime(x)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 14 + 31])
def test_large_primes_are_accepted(p):
    # trial division up to sqrt(2^61 - 1) takes minutes
    assert _accepted(p)


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


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-60, 60), st.integers(0, 4),
       st.sampled_from([1, 7, 11]), st.sampled_from([1, 2, 3, 5, 7 * 9 * 25]))
def test_psi_exponent_is_the_fractional_part(p, num, e, unit, g):
    # psi(x) = zeta_{p^m}^a with a / p^m = x mod Z_p and a a unit mod p (or m = 0)
    ctx = PAdicContext(p)
    x = Fraction(num, p ** e * unit)
    m, a = psi_exponent(x, ctx)
    # the integer form reads the same phase from the pair times a common factor g
    assert psi_parts(num * g, p ** e * unit * g, p) == (m, a)
    assert valuation(x - Fraction(a, p ** m), p) >= 0
    assert (m, a) == (0, 0) or (m > 0 and 0 < a < p ** m and a % p)
    assert psi_exponent(x + 5, ctx) == (m, a)
    got, want = psi_value(x, ctx), root_of_unity(p, m, a)
    assert got == want and repr(got) == repr(want)


def test_matrix_det():
    assert PAdicMatrix([[1, 2], [3, 4]]).det() == -2
    assert PAdicMatrix([[1, 2], [2, 4]]).det() == 0


@st.composite
def _square_matrices(draw):
    """An n x n Fraction matrix, n = 1..4; a repeated row makes some singular."""
    n = draw(st.integers(1, 4))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-2, 2)) * e for e in rows[0]]
    return rows


@settings(max_examples=150, deadline=None)
@given(_square_matrices())
def test_det_matches_sympy(rows):
    n = len(rows)
    expected = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                             for row in rows]).det()
    assert PAdicMatrix(rows).det() == Fraction(int(expected.p), int(expected.q))
    ints = [[e.numerator for e in row] for row in rows]
    flat = tuple(e for row in ints for e in row)
    assert flat_det(flat, n) == sympy.Matrix(ints).det()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-40, 40), min_size=n * n, max_size=n * n))))
def test_cofactors_are_the_slopes_of_det(case):
    # det is affine in each entry: det(a + e_l) - det(a) is entry l's cofactor
    n, a = case
    a, d = tuple(a), flat_det(tuple(a), n)
    want = tuple(flat_det(tuple(x + (i == l) for i, x in enumerate(a)), n) - d
                 for l in range(n * n))
    assert flat_cofactors(a, n) == want


def test_two_by_two_cofactors():
    assert flat_cofactors((2, 3, 5, 7), 2) == (7, -5, -3, 2)
    assert flat_cofactors((9,), 1) == (1,)


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


def _check_against_fraction_entries(a, b, p):
    """The integer forms of -, *, det, min_valuation and trace_pairing against the
    same operations on the Fraction entries."""
    n, x, y = a.n, a.entries, b.entries
    assert PAdicMatrix(x) == a and all(type(e) is Fraction for row in x for e in row)
    assert (a - b).entries == tuple(tuple(u - v for u, v in zip(r1, r2))
                                    for r1, r2 in zip(x, y))
    assert (a * b).entries == tuple(tuple(sum((x[i][k] * y[k][j] for k in range(n)),
                                              Fraction(0)) for j in range(n))
                                    for i in range(n))
    want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in x]).det()
    assert a.det() == Fraction(int(want.p), int(want.q))
    assert a.min_valuation(p) == min(valuation(e, p) for row in x for e in row)
    got = trace_pairing(a, b)
    assert type(got) is Fraction and got == sum((x[i][k] * y[k][i] for i in range(n)
                                                 for k in range(n)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(_coset_cases())
def test_in_coset_matches_min_valuation(case):
    g, center, level, p = case
    assert g.in_coset(center, level, p) == ((g - center).min_valuation(p) >= level)
    _check_against_fraction_entries(g, center, p)


def test_lattice_form_is_canonical():
    rows = [[Fraction(1, 2), 0], [Fraction(-3, 2), 5]]
    m = PAdicMatrix(rows)
    assert (m.den, m.nums) == (2, (1, 0, -3, 10))
    unreduced = PAdicMatrix._lattice(2, (2, 0, -6, 20), 4)
    for other in (unreduced, -(-m)):
        assert (other.den, other.nums) == (m.den, m.nums)
        assert other == m and m == other and hash(other) == hash(m)
        assert other.entries == tuple(tuple(Fraction(e) for e in row) for row in rows)
    zero = PAdicMatrix._lattice(2, (0, 0, 0, 0), 4)
    assert (zero.den, zero.nums) == (1, (0,) * 4) and zero == PAdicMatrix.zero(2)


def test_trace_pairing_matches_trace_of_product():
    b = PAdicMatrix([[1, Fraction(1, 2)], [3, 0]])
    x = PAdicMatrix([[2, 1], [Fraction(1, 4), 5]])
    assert trace_pairing(b, x) == (b * x).trace()


@settings(max_examples=100, deadline=None)
@given(_coset_cases())
def test_negation_is_cached_one_way(case):
    m = case[0]
    neg = -m
    assert -m is neg
    assert neg.den == m.den and neg.nums == tuple([-x for x in m.nums])
    fresh = PAdicMatrix([[-x for x in row] for row in m.entries])
    assert neg == fresh and fresh == neg and hash(neg) == hash(fresh)
    assert -neg == m and hash(-neg) == hash(m)
    # the cache points from m to -m only, so no reference cycle is made
    assert all(r is not m for r in gc.get_referents(neg))


# -- the integer-residue helpers against the Fraction/valuation forms ---------

@st.composite
def _residue_cases(draw):
    """(p, n, two matrices, level): entries 0, or u * p^e with u = a / d, where
    d is prime to p (1/3 at p = 2) and a may carry p (5/49 at p = 7)."""
    p = draw(st.sampled_from([2, 3, 7]))
    n = draw(st.integers(1, 3))
    unit_den = st.sampled_from([d for d in (1, 3, 5, 11, 49) if d % p])
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(lambda a, d, e: Fraction(a, d) * Fraction(p) ** e,
                                st.integers(-50, 50), unit_den, st.integers(-4, 4)))

    def matrix():
        return PAdicMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])

    def near(x):
        """x itself, an equal but distinct Fraction, or an entry with p in its
        denominator (x may carry p there too)."""
        how = draw(st.sampled_from(["same", "copy", "p_den"]))
        if how == "same":
            return x
        if how == "copy":
            return Fraction(x.numerator, x.denominator)
        return Fraction(draw(st.integers(-50, 50)), draw(unit_den) * p ** draw(st.integers(1, 4)))
    a = matrix()
    b = draw(st.sampled_from([a, matrix(), a - matrix(),
                              PAdicMatrix([[near(x) for x in row] for row in a.entries])]))
    return p, n, a, b, draw(st.integers(-4, 4))


def test_residue_helpers_on_named_entries():
    assert in_level(Fraction(1, 3), 0, 2) and not in_level(Fraction(1, 3), 1, 2)
    assert in_level(Fraction(5, 49), -2, 7) and not in_level(Fraction(5, 49), -1, 7)
    assert in_level(0, 4, 3) and in_level(Fraction(0), -4, 3) and in_level(18, 2, 3)
    b = PAdicMatrix([[Fraction(1, 3), 0], [Fraction(5, 49), 2]])
    x = PAdicMatrix([[3, Fraction(7, 2)], [0, Fraction(1, 7)]])
    # b00 x00 + b01 x10 + b10 x01 + b11 x11, the zero products skipped
    assert trace_pairing(b, x) == 1 + Fraction(5, 49) * Fraction(7, 2) + Fraction(2, 7)
    # p in both denominators: 1/9 - 4/9 = -1/3 and 5/21 - 1/6 = 1/14 at p = 3
    x = PAdicMatrix([[Fraction(1, 9), Fraction(5, 21)]] * 2)
    y = PAdicMatrix([[Fraction(4, 9), Fraction(1, 6)]] * 2)
    assert x.in_coset(y, -1, 3) and not x.in_coset(y, 0, 3)
    assert x.in_coset(PAdicMatrix(x.entries), 4, 3) and x.in_coset(x, 4, 3)


@settings(max_examples=300, deadline=None)
@given(_residue_cases())
def test_residue_helpers_match_fraction_forms(case):
    p, n, a, b, level = case
    pairs = [(x, y) for r1, r2 in zip(a.entries, b.entries) for x, y in zip(r1, r2)]
    for x, _ in pairs:
        assert in_level(x, level, p) == (valuation(x, p) >= level)
        assert in_level(x.numerator, level, p) == (valuation(x.numerator, p) >= level)
    c = a.entries[0][0]  # a in c Id + p^level M_n(Z_p), the class a shell's path reads
    scalar = all(valuation(x - (c if i == j else 0), p) >= level
                 for i, row in enumerate(a.entries) for j, x in enumerate(row))
    assert _scalar_mod(a, level, p) == (c if scalar else None)
    assert a.in_coset(b, level, p) == all(valuation(x - y, p) >= level for x, y in pairs)
    _check_against_fraction_entries(a, b, p)
