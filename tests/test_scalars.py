"""Exact scalar tower: cyclotomic arithmetic, sqrt(q), embeddings."""

import operator
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from gjzeta.scalars import (CyclotomicNumber, QuadExt, _power, as_scalar, embed_complex,
                            root_of_unity, root_of_unity_sum, scalar_conjugate,
                            scalar_inverse, scalar_is_zero, sqrt_q, sqrt_q_power)


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
    assert (root_of_unity(3, 2, 1) * 0).m == 0  # a scaled zero is the level-0 zero


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


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41, 101])
def test_sqrt_q_is_the_term_by_term_gauss_sum(p):
    # the reference adds the p - 1 signed roots (a|p) zeta_p^a one at a time
    gauss = as_scalar(0, p)
    for a in range(1, p):
        gauss = gauss + root_of_unity(p, 1, a) * (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
    r = sqrt_q(p)
    assert r == gauss and repr(r) == repr(gauss) and hash(r) == hash(gauss)


def test_sqrt_q_cache_is_bounded():
    maxsize = sqrt_q.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_sqrt_q_power_half_integers():
    assert sqrt_q_power(2, 4) == 4
    assert sqrt_q_power(2, -2) == Fraction(1, 2)
    assert sqrt_q_power(3, 3) * sqrt_q_power(3, -3) == 1
    assert sqrt_q_power(3, 1) * sqrt_q_power(3, 1) == 3


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sqrt_q_power_is_the_repeated_product(p):
    # cyclotomic roots (p = 2, 1 mod 4) and QuadExt roots (p = 3 mod 4)
    root = sqrt_q(p)
    for base, sign in ((root, 1), (root.inverse(), -1)):
        x = as_scalar(1, p)
        for e in range(10):
            got = sqrt_q_power(p, sign * e)
            assert got == x and hash(got) == hash(x)
            if e % 2:  # an even power is a rational, kept as one
                assert repr(got) == repr(x)
            x = x * base


def test_rational_power_matches_square_and_multiply():
    rng = random.Random(5)
    for p in (2, 3, 5):
        xs = [as_scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), p)
              for _ in range(12)] + [as_scalar(0, p)]
        for x in xs:
            for e in range(-6, 7):
                if x.is_zero() and e < 0:
                    with pytest.raises(ZeroDivisionError):
                        x ** e
                    continue
                got, want = x ** e, _power(x, e, as_scalar(1, p))
                assert got.m == 0 and got == want
                assert repr(got) == repr(want) and hash(got) == hash(want)


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


def _lift(x, m):
    """x written at level m >= x.m, with no drop to its least level: a
    non-canonical value that only the trusted constructor can build."""
    nums = [0] * (1 if m == 0 else (x.p - 1) * x.p ** (m - 1))
    nums[::x.p ** (m - x.m)] = x.nums
    return CyclotomicNumber._of(x.p, m, tuple(nums), x.den)


def _to_poly(x, m):
    return sympy.Poly(list(reversed(_lift(x, m).coeffs)), Z, domain=sympy.QQ)


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
        assert _lift(x * y, m).coeffs == _basis_vector(expected, p, m)
    for x in xs:
        expected = _to_poly(x, m).invert(phi_poly)
        assert _lift(x.inverse(), m).coeffs == _basis_vector(expected, p, m)
    # exponents e >= phi(p^m) reduce into the power basis
    for counts in _count_vectors(p, m):
        expected = sympy.Poly(list(reversed(counts)), Z, domain=sympy.QQ).rem(phi_poly)
        assert _lift(root_of_unity_sum(p, m, counts), m).coeffs == _basis_vector(expected, p, m)


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


@st.composite
def _root_multiples(draw):
    """x in Q(zeta_{p^j}), j <= 3, with a full vector of coefficients, and (m, a)."""
    p = draw(st.sampled_from([2, 3, 5]))
    j = draw(st.integers(0, 3))
    phi = 1 if j == 0 else (p - 1) * p ** (j - 1)
    x = root_of_unity_sum(p, j, draw(st.lists(_coeffs, min_size=phi, max_size=phi)))
    return x, draw(st.integers(0, 4)), draw(st.integers(-200, 200))


@settings(max_examples=80, deadline=None)
@given(_root_multiples())
def test_times_root_is_the_product_with_the_root(case):
    x, m, a = case
    got, want = x.times_root(m, a), x * root_of_unity(x.p, m, a)
    assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
    assert x.times_root(0, a) is x  # zeta_1 = 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_root_of_unity_is_the_reduced_exponent_vector(p):
    for m in range(4):
        for a in range(-p ** m, 2 * p ** m):
            vec = [0] * p ** m
            vec[a % p ** m] = 1
            got, want = root_of_unity(p, m, a), root_of_unity_sum(p, m, vec)
            assert (got.m, got.coeffs) == (want.m, want.coeffs)
            assert repr(got) == repr(want) and hash(got) == hash(want)
            assert type(got.coeffs) is tuple and all(type(c) is Fraction for c in got.coeffs)


def test_constructor_stores_the_least_level():
    x = CyclotomicNumber(3, 1, [1, 0])
    assert x.m == 0 and x == 1 and hash(x) == hash(1) == hash(as_scalar(1, 3))
    z = CyclotomicNumber(3, 2, [0, 0, 0, 1, 0, 0])
    assert z.m == 1 and z == root_of_unity(3, 1, 1) and len({z, root_of_unity(3, 1, 1)}) == 1


@st.composite
def _level_vectors(draw):
    """(p, m, phi(p^m) coefficients), the value often at a lower level j <= m:
    its level-j vector spread at step p^(m-j)."""
    p, m = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 3))
    j = draw(st.integers(0, m))
    phi = [1 if i == 0 else (p - 1) * p ** (i - 1) for i in (j, m)]
    vec = [Fraction(0)] * phi[1]
    vec[::p ** (m - j)] = draw(st.lists(_coeffs, min_size=phi[0], max_size=phi[0]))
    return p, m, vec


@settings(max_examples=200, deadline=None)
@given(_level_vectors(), _coeffs)
def test_constructor_is_canonical(case, r):
    p, m, vec = case
    x, want = CyclotomicNumber(p, m, vec), root_of_unity_sum(p, m, vec)
    assert (x.p, x.m, x.coeffs) == (want.p, want.m, want.coeffs)
    assert x == want and hash(x) == hash(want) and repr(x) == repr(want)
    for s in (r, r.numerator, vec[0]):
        assert (x == s) is (x == as_scalar(s, p)) is (s == x)


# -- rationals: the level-0 path against the vector path --------------------

@st.composite
def _rationals(draw, kinds=("int", "fraction", 2, 3)):
    """A plain int, a Fraction (0 and negatives included) or a level-0
    element at p = 2 or p = 3."""
    kind = draw(st.sampled_from(kinds))
    value = draw(_coeffs)
    if kind == "int":
        return value.numerator
    if kind == "fraction":
        return value
    return CyclotomicNumber(kind, 0, [value])


def _lifted(u, v):
    """u and v at level 2, so that u (op) v takes the vector path (level 1 is
    Q itself at p = 2, with no conjugate for inverse to multiply by).  An
    element moves first to the prime the result keeps: the left operand's, or
    the right one's when the left is a plain int or Fraction."""
    home = u.p if isinstance(u, CyclotomicNumber) else v.p
    return tuple(_lift(as_scalar(w.coeffs[0], home), 2)
                 if isinstance(w, CyclotomicNumber) else w for w in (u, v))


def _outcome(f, *args):
    try:
        return ("ok", f(*args))
    except ZeroDivisionError as exc:
        return ("raise", str(exc))


def _assert_canonical(z):
    assert type(z.coeffs) is tuple and all(type(c) is Fraction for c in z.coeffs)
    assert len(z.coeffs) == (1 if z.m == 0 else (z.p - 1) * z.p ** (z.m - 1))


def _assert_same(got, want):
    assert got[0] == want[0]
    if got[0] == "raise":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    if isinstance(b, CyclotomicNumber):
        b = CyclotomicNumber(b.p, b.m, b.coeffs)  # -x and x * rational keep the lifted level
        _assert_canonical(a)
        assert (a.p, a.m, a.coeffs) == (b.p, b.m, b.coeffs)
        assert hash(a) == hash(b) and repr(a) == repr(b)
    else:
        assert type(a) is type(b) and a == b


BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@settings(max_examples=300, deadline=None)
@given(_rationals(kinds=(2, 3)), _rationals())
def test_rational_path_matches_vector_path(x, y):
    for u, v in ((x, y), (y, x)):
        for op in BINARY_OPS:
            _assert_same(_outcome(op, u, v), _outcome(op, *_lifted(u, v)))
    lx, ly = _lifted(x, y)
    value = x.coeffs[0]
    yvalue = y.coeffs[0] if isinstance(y, CyclotomicNumber) else Fraction(y)
    assert (x == y) is (y == x) is (value == yvalue) is (lx - ly).is_zero()
    assert hash(x) == hash(value) and repr(x) == str(value)
    _assert_same(_outcome(lambda: -x), _outcome(lambda: -lx))
    _assert_same(_outcome(x.inverse), _outcome(lx.inverse))
    _assert_same(_outcome(scalar_inverse, x), _outcome(scalar_inverse, lx))
    assert scalar_is_zero(x) is scalar_is_zero(lx) is (value == 0)
    assert x.is_zero() is (value == 0)
    assert as_scalar(x, 5) is x
    if not isinstance(y, CyclotomicNumber):
        _assert_same(("ok", as_scalar(y, x.p)), ("ok", CyclotomicNumber(x.p, 0, [y])))


@settings(max_examples=60, deadline=None)
@given(_rationals(), st.sampled_from([(2, 2), (3, 2)]),
       st.lists(st.tuples(st.integers(0, 8), _coeffs), min_size=1, max_size=4))
def test_rational_with_level_two_element_matches_vector_path(r, level, terms):
    z = _element(*level, terms)
    assume(z.m == 2)
    # a plain int or Fraction keeps its own branch (x / 0 raises Fraction's error)
    lr = _lift(as_scalar(r.coeffs[0], z.p), 2) if isinstance(r, CyclotomicNumber) else r
    for op in BINARY_OPS:
        _assert_same(_outcome(op, z, r), _outcome(op, z, lr))
        _assert_same(_outcome(op, r, z), _outcome(op, lr, z))
    assert (z == r) is (z == lr) is (z - lr).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_zero_rational_inverse_names_the_cyclotomic_division(p):
    for zero_ in (as_scalar(0, p), as_scalar(Fraction(0), p), CyclotomicNumber(p, 0, [0])):
        for divide in (lambda: zero_.inverse(), lambda: 1 / zero_,
                       lambda: as_scalar(Fraction(3, 4), p) / zero_,
                       lambda: Fraction(3, 4) / zero_, lambda: scalar_inverse(zero_)):
            with pytest.raises(ZeroDivisionError, match="^cyclotomic division by zero$"):
                divide()


# -- equality by canonical form against the difference oracle -----------------

EQ_LEVELS = [(2, 3), (3, 2), (3, 4), (5, 2)]


@st.composite
def _equality_pairs(draw):
    """(a, b): a of p^m in EQ_LEVELS at a drawn level, and b the same value built
    by another path, a one-root perturbation of a, another value of the field, a
    rational (an int, a Fraction or a level-0 number of either prime), a number
    of another prime, or, at p = 3, a QuadExt a + c sqrt(3) with c often 0."""
    p, top = draw(st.sampled_from(EQ_LEVELS))
    a = _cyclotomic(draw, p, draw(st.integers(0, top)))
    kind = draw(st.sampled_from(["rebuilt", "perturbed", "other", "rational", "prime",
                                 "quad"]))
    if kind == "rebuilt":  # the checked constructor on a's vector written at level top
        return a, CyclotomicNumber(p, top, _lift(a, top).coeffs)
    if kind == "perturbed":
        root = root_of_unity(p, draw(st.integers(0, top)), draw(st.integers(0, p ** top - 1)))
        return a, a + root * draw(_coeffs)
    if kind == "other":
        return a, _cyclotomic(draw, p, draw(st.integers(0, top)))
    if kind == "rational":
        if not a.m and draw(st.booleans()):
            value = a.coeffs[0]
            return a, draw(st.sampled_from([value, CyclotomicNumber(2, 0, [value]),
                                            CyclotomicNumber(3, 0, [value])]))
        return a, draw(_rationals())
    if kind == "prime":
        q = draw(st.sampled_from([q for q in (2, 3, 5) if q != p]))
        if not a.m and draw(st.booleans()):
            return a, as_scalar(a.coeffs[0], q)  # the same rational of another prime
        return a, _cyclotomic(draw, q, draw(st.integers(0, 2)))
    if p != 3:
        a = _cyclotomic(draw, 3, draw(st.integers(0, 4)))
    c = draw(st.sampled_from([0, 0, Fraction(1, 2), root_of_unity(3, 1, 1)]))
    return a, QuadExt(a, c, 3)


@settings(max_examples=400, deadline=None)
@given(_equality_pairs())
def test_equality_matches_the_difference_oracle(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        try:
            want = (x - y).is_zero()
        except ValueError:
            # numbers of two primes at level >= 1: their fields meet in Q, so
            # neither is the other; their embeddings say so too
            assert x.m and y.m and x.p != y.p
            want = abs(x.embed() - y.embed()) < 1e-12
            assert not want
        assert (x == y) is want and (x != y) is (not want)
        if want:
            assert hash(x) == hash(y)


def test_equality_reads_stored_forms_only(monkeypatch):
    # == on two CyclotomicNumbers builds no difference
    def refuse(self, other):
        raise AssertionError("scalar arithmetic run")
    x = root_of_unity(3, 4, 5) * Fraction(2, 3) + root_of_unity(3, 4, 1)
    y = CyclotomicNumber(3, 4, x.coeffs)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(CyclotomicNumber, name, refuse)
    assert x == y and x is not y and not x != y
    assert x != root_of_unity(3, 4, 5) and root_of_unity(2, 3, 1) != root_of_unity(3, 2, 1)
    assert CyclotomicNumber(2, 0, [3]) == CyclotomicNumber(5, 0, [3]) == 3 == Fraction(3)
    assert root_of_unity(5, 2, 7) != 1 and Fraction(1, 2) != root_of_unity(2, 3, 1)
