"""The integer cyclotomic tower against its Fraction form, coefficient for coefficient.

FractionCyclotomic is the tower as it was written on Fractions: every
operation scatters (exponent, Fraction) terms into one vector and folds it.
It is kept here as the oracle of gjzeta.scalars.CyclotomicNumber, which
holds integer numerators over one denominator.  Every result must print,
compare and hash as the oracle's does.
"""

import operator
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from hypothesis import given, settings, strategies as st

from gjzeta.scalars import CyclotomicNumber, QuadExt, sqrt_q


def _oracle_scalar(x, p):
    if isinstance(x, FractionCyclotomic):
        return x
    return FractionCyclotomic._of(p, 0, (Fraction(x),))


def _euler_phi_prime_power(p: int, m: int) -> int:
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


class FractionCyclotomic:
    """The tower as a tuple of Fractions, as it stood before it moved to integers.

    Element of Q(zeta_{p^m}) in the power basis zeta^j, 0 <= j < phi(p^m).

    Canonical form: reduced by the relation sum_{j<p} zeta^{j*p^(m-1)} = 0
    and stored at the minimal level containing the element.  Every instance
    is canonical, so == compares (p, m, coeffs) and hash agrees with it.
    Instances are immutable; arithmetic scatters both operands' terms at the
    larger level and reduces once.
    """

    __slots__ = ("p", "m", "coeffs")

    def __init__(self, p: int, m: int, coeffs):
        # the checked entry for outside values (JSON, the CLI, integer
        # histograms), stored at its least level; the tower's own results
        # go through _of
        coeffs = tuple([c if type(c) is Fraction else Fraction(c) for c in coeffs])
        if len(coeffs) != _euler_phi_prime_power(p, m):
            raise ValueError("coefficient vector has wrong length for level")
        self.p = p
        self.m, self.coeffs = _least(p, m, coeffs)

    @staticmethod
    def _of(p: int, m: int, coeffs: tuple) -> "FractionCyclotomic":
        """Trusted constructor for the tower's own results: coeffs is already
        a tuple of phi(p^m) Fractions in canonical form, so nothing is
        checked or copied."""
        z = object.__new__(FractionCyclotomic)
        z.p, z.m, z.coeffs = p, m, coeffs
        return z

    def _rational(self, other):
        """other's value (an int or Fraction) when self and other are both
        rational, else None: the level-0 path of + - *."""
        t = type(other)
        if t is FractionCyclotomic:
            return None if self.m or other.m else other.coeffs[0]
        return None if self.m or not (t is int or t is Fraction) else other

    def _terms(self, top: int) -> list:
        """The nonzero coefficients as (exponent of zeta_{p^top}, coefficient)
        pairs, for top >= self.m.  Every exponent is below phi(p^top), and a
        rational's is 0 whatever its prime."""
        step = self.p ** (top - self.m)
        return [(j * step, c) for j, c in enumerate(self.coeffs) if c]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        """(p, top, self's terms, other's terms) at top, the larger level, or
        None when other is no scalar.  The prime is that of an operand at
        level >= 1, so a rational takes the other operand's; two primes at
        level >= 1 raise."""
        if isinstance(other, FractionCyclotomic):
            if self.m and other.m and self.p != other.p:
                raise ValueError("mixed cyclotomic primes %d and %d" % (self.p, other.p))
            high = self if self.m >= other.m else other
            return high.p, high.m, self._terms(high.m), other._terms(high.m)
        if isinstance(other, (int, Fraction)):
            return self.p, self.m, self._terms(self.m), [(0, Fraction(other))] if other else []
        return None

    def __add__(self, other):
        r = self._rational(other)
        if r is not None:  # keeps self.p, as _pair does
            return self._of(self.p, 0, (self.coeffs[0] + r,))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, top, xs, ys = pair
        return _reduce(p, top, xs + ys)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.p, self.m, tuple([-c if c else c for c in self.coeffs]))

    def __sub__(self, other):
        r = self._rational(other)
        if r is not None:
            return self._of(self.p, 0, (self.coeffs[0] - r,))
        if isinstance(other, (int, Fraction, FractionCyclotomic)):
            return self.__add__(-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        r = self._rational(other)
        if r is not None:
            return self._of(self.p, 0, (self.coeffs[0] * r,))
        if isinstance(other, (int, Fraction)):
            if not other:
                return _oracle_scalar(0, self.p)  # canonical level 0, so == and hash agree
            # most coefficients of a high-level phase are 0
            return self._of(self.p, self.m, tuple([c * other if c else c for c in self.coeffs]))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, top, xs, ys = pair
        return _reduce(p, top, [(i + j, ci * cj) for i, ci in xs for j, cj in ys])

    __rmul__ = __mul__

    def times_root(self, m: int, a: int) -> "FractionCyclotomic":
        """self * zeta_{p^m}^a: each term moves to its shifted exponent at level
        max(m, self.m), and one _reduce follows.  zeta_1 = 1 costs nothing."""
        if not m:
            return self
        top = max(m, self.m)
        shift = a * self.p ** (top - m)
        return _reduce(self.p, top, [(e + shift, c) for e, c in self._terms(top)])

    def inverse(self) -> "FractionCyclotomic":
        """cofactor / N, with N the norm of x to Q (see the module docstring).

        zeta -> zeta^a with a = 1 + j*p^(m-1) < p^m, j >= 1, are the
        conjugations of level m over level m-1 (at m = 1: a = 2..p-1).
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if not self.m:
            return self._of(self.p, 0, (1 / self.coeffs[0],))
        p = self.p
        norm, cofactor = self, 1
        while norm.m:
            step = p ** (norm.m - 1)
            conj = reduce(mul, map(norm._galois, range(1 + step, p * step, step)))
            norm, cofactor = norm * conj, conj * cofactor
        return _oracle_scalar(cofactor / norm.coeffs[0], p)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))  # raises ZeroDivisionError at 0
        if isinstance(other, FractionCyclotomic):
            return self * other.inverse()
        return NotImplemented

    def _galois(self, a: int) -> "FractionCyclotomic":
        """The field automorphism zeta -> zeta^a, for a prime to p."""
        if self.m == 0:
            return self
        return _reduce(self.p, self.m, [(a * e, c) for e, c in self._terms(self.m)])

    def conjugate(self) -> "FractionCyclotomic":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._galois(-1)

    # -- comparison / misc --------------------------------------------

    def __eq__(self, other):
        """Equality of canonical forms, with no arithmetic.

        The power-basis coordinates of a value at its least level are unique,
        and every instance is stored there, so two numbers of one prime are
        equal iff their (m, coeffs) are.  A number at level >= 1 is not
        rational, so it differs from every level-0 number and rational; and
        Q(zeta_{p^a}) meets Q(zeta_{q^b}) in Q for p != q, so numbers of two
        primes at level >= 1 differ.  Two rationals compare by value whatever
        their primes.  A QuadExt is not canonical and decides by value."""
        if isinstance(other, FractionCyclotomic):
            if self.m or other.m:
                return self.m == other.m and self.p == other.p and self.coeffs == other.coeffs
            return self.coeffs[0] == other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            return not self.m and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs[0]) if self.m == 0 else hash((self.p, self.m, self.coeffs))

    def __repr__(self):
        if self.m == 0:
            return str(self.coeffs[0])
        parts = []
        for j, c in enumerate(self.coeffs):
            if c:
                parts.append("%s*z%d^%d" % (c, self.p ** self.m, j))
        return " + ".join(parts) if parts else "0"

def _fold(p: int, m: int, vec) -> list:
    """A length <= p^m exponent vector folded into the power basis: phi(p^m)
    entries, in vec's own arithmetic (ints stay ints).

    For phi <= e < p^m, zeta^e = -sum_{j<p-1} zeta^(e - phi + j p^(m-1))."""
    phi = _euler_phi_prime_power(p, m)
    out = list(vec[:phi]) + [Fraction(0)] * (phi - min(phi, len(vec)))
    step = p ** m // p  # only read when len(vec) > phi, so m >= 1
    for e in range(phi, len(vec)):
        c = vec[e]
        if c:
            for i in range(e - phi, phi, step):
                out[i] -= c
    return out


def _reduce(p: int, m: int, terms) -> FractionCyclotomic:
    """sum c * zeta_{p^m}^e over the tower's own (e, c) terms, e any integer and
    c a Fraction, in canonical form: the one scatter of the tower's arithmetic."""
    order, zero = p ** m, Fraction(0)
    vec = [zero] * order
    for e, c in terms:
        e %= order
        v = vec[e]
        vec[e] = c if v is zero else v + c  # a first term costs no addition
    return FractionCyclotomic._of(p, *_least(p, m, tuple(_fold(p, m, vec))))


def _least(p: int, m: int, coeffs: tuple) -> tuple:
    """(level, coefficients) of the same value at its least level."""
    while m > 0:
        if m == 1:
            return (1, coeffs) if any(coeffs[1:]) else (0, coeffs[:1])
        if any(any(coeffs[j::p]) for j in range(1, p)):
            break
        m, coeffs = m - 1, coeffs[::p]
    return m, coeffs


# -- the integer tower against the oracle ------------------------------------

LEVELS = [(2, 3), (3, 2), (3, 4), (5, 2), (7, 2)]


def _phi(p, m):
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


def _coeffs(p):
    """a / p^j, |a| <= 9 and j <= 3, or a small other denominator."""
    return st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, p, p * p, p ** 3, 2, 6]))


@st.composite
def _number(draw, p, top):
    """(new, oracle): one value of Q(zeta_{p^j}), j <= top, built by both checked
    constructors from one coefficient vector, dense or with at most four terms."""
    j = draw(st.integers(0, top))
    phi = _phi(p, j)
    if draw(st.booleans()):
        cs = draw(st.lists(_coeffs(p), min_size=phi, max_size=phi))
    else:
        cs = [Fraction(0)] * phi
        for i, c in draw(st.lists(st.tuples(st.integers(0, phi - 1), _coeffs(p)), max_size=4)):
            cs[i] = c
    return CyclotomicNumber(p, j, cs), FractionCyclotomic(p, j, cs)


@st.composite
def _operand(draw, p, top):
    """A number of the field, or a rational operand: an int, a Fraction, or a
    level-0 number of p or of another prime."""
    kind = draw(st.sampled_from(["number", "number", "int", "fraction", "level0"]))
    if kind == "number":
        return draw(_number(p, top))
    value = draw(_coeffs(p))
    if kind == "int":
        return value.numerator, value.numerator
    if kind == "fraction":
        return value, value
    q = draw(st.sampled_from([p, 2, 3]))
    return CyclotomicNumber(q, 0, [value]), FractionCyclotomic(q, 0, [value])


def _assert_same(new, old):
    """new, a result of the integer tower, is old's value in canonical integer
    form: the same p, level, Fraction coefficients, repr and (at level 0) hash."""
    assert type(new) is CyclotomicNumber and type(old) is FractionCyclotomic
    assert (new.p, new.m, new.coeffs) == (old.p, old.m, old.coeffs)
    assert type(new.nums) is tuple and len(new.nums) == _phi(new.p, new.m)
    assert all(type(v) is int for v in new.nums) and type(new.den) is int
    assert new.den == lcm(*[c.denominator for c in old.coeffs])
    assert gcd(new.den, *new.nums) == 1
    assert repr(new) == repr(old)
    if not new.m:
        assert hash(new) == hash(old) == hash(old.coeffs[0])
    assert hash(new) == hash(CyclotomicNumber(old.p, old.m, old.coeffs))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return "raise", (type(exc), str(exc))


def _check(op, new_args, old_args):
    got, want = _outcome(op, *new_args), _outcome(op, *old_args)
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1] == want[1]
    else:
        _assert_same(got[1], want[1])


@st.composite
def _cases(draw):
    p, top = draw(st.sampled_from(LEVELS))
    return p, top, draw(_operand(p, top)), draw(_operand(p, top))


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_binary_operations_match_the_fraction_oracle(case):
    p, top, (x, ox), (y, oy) = case
    for (u, ou), (v, ov) in (((x, ox), (y, oy)), ((y, oy), (x, ox))):
        if not isinstance(u, CyclotomicNumber) and not isinstance(v, CyclotomicNumber):
            continue  # two plain rationals never reach the tower
        for op in (operator.add, operator.sub, operator.mul):
            _check(op, (u, v), (ou, ov))
        if isinstance(u, CyclotomicNumber) and isinstance(v, (CyclotomicNumber, int, Fraction)):
            assert (u == v) is (ou == ov) and (u != v) is (ou != ov)
            if u == v:
                assert hash(u) == hash(v)


@st.composite
def _unary_cases(draw):
    p, top = draw(st.sampled_from(LEVELS))
    return (p, top, draw(_number(p, top)), draw(st.integers(0, top + 1)),
            draw(st.integers(-200, 200)), draw(st.integers(1, p ** top - 1).filter(
                lambda a: a % p)))


@settings(max_examples=150, deadline=None)
@given(_unary_cases())
def test_unary_operations_match_the_fraction_oracle(case):
    p, top, (x, ox), m, a, unit = case
    _check(operator.neg, (x,), (ox,))
    _check(lambda z: z.times_root(m, a), (x,), (ox,))
    _check(lambda z: z._galois(unit), (x,), (ox,))
    _check(lambda z: z.conjugate(), (x,), (ox,))
    _check(lambda z: z.inverse(), (x,), (ox,))


@st.composite
def _quad_cases(draw):
    p, top = draw(st.sampled_from([(3, 2), (3, 4), (7, 2)]))
    return p, draw(_operand(p, top)), draw(_number(p, top)), draw(_number(p, top))


@settings(max_examples=60, deadline=None)
@given(_quad_cases())
def test_quadratic_extension_operands_match_the_fraction_oracle(case):
    # a CyclotomicNumber leaves a QuadExt operand to QuadExt, which coerces it to
    # x + 0 sqrt(p) and combines the parts a + b sqrt(p) with the tower's + - *
    p, (x, ox), (a, oa), (b, ob) = case
    q, ox, zero = QuadExt(a, b, p), _oracle_scalar(ox, p), _oracle_scalar(0, p)
    plus, times = (oa + ox, ob + zero), (oa * ox + ob * zero * p, oa * zero + ob * ox)
    for got, want in ((x + q, plus), (q + x, plus), (x - q, (-oa + ox, -ob + zero)),
                      (q - x, (oa - ox, ob - zero)), (x * q, times), (q * x, times)):
        assert type(got) is QuadExt
        _assert_same(got.a, want[0])
        _assert_same(got.b, want[1])
    assert (x == q) is (q == x) is (ob.is_zero() and ox == oa)


def test_dense_products_of_q_zeta_1009_match_the_fraction_oracle():
    # verify-inverse --p 1009 --n 2 multiplies -sqrt(1009) by -sqrt(1009)/1009^2: two
    # level-1 elements with 505 nonzero coefficients of 1008
    u = -sqrt_q(1009)
    v = u * Fraction(1, 1009 ** 2)
    ou, ov = (FractionCyclotomic(1009, 1, z.coeffs) for z in (u, v))
    assert sum(map(bool, u.nums)) == 505 and u.m == 1
    _check(operator.mul, (u, v), (ou, ov))
    _check(operator.add, (u, v), (ou, ov))
    _check(operator.sub, (u, v), (ou, ov))
    _check(lambda z: z.times_root(1, 5), (u,), (ou,))
    _check(lambda z: z._galois(3), (u,), (ou,))
    assert u * u == 1009 and u * v == Fraction(1, 1009)
