"""Exact scalar tower: rationals, prime-power cyclotomic fields, and sqrt(q).

All integral values produced by the p-adic layer live in Q(zeta_{p^m}) for
some m; half-integer powers of q additionally require sqrt(q), which is
either an explicit cyclotomic element (p = 2 or p = 1 mod 4) or a formal
quadratic generator (p = 3 mod 4, where the extension is a genuine field).

A CyclotomicNumber is integer numerators over one positive denominator, always
canonical, so == compares stored forms and does no arithmetic.  Every tower
operation is integer arithmetic with one gcd against the denominator.  No value
depends on a level-0 number's prime, except a phase applied by times_root.

Inverses need no linear algebra.  Multiplying x in Q(zeta_{p^m}) by its other
conjugates over Q(zeta_{p^(m-1)}) gives its relative norm, one level down;
repeating down the tower reaches a rational N, and x^-1 is the product of
all the conjugates used, divided by N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import add, mul, sub


def _euler_phi_prime_power(p: int, m: int) -> int:
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


class CyclotomicNumber:
    """Element of Q(zeta_{p^m}) in the power basis zeta^j, 0 <= j < phi(p^m): the
    coefficient of zeta^j is nums[j] / den, with den > 0.

    Canonical form: reduced by the relation sum_{j<p} zeta^{j*p^(m-1)} = 0, at the
    minimal level containing the element, with gcd(den, *nums) = 1.  Every
    instance is canonical, so == compares (p, m, den, nums) and hash agrees.
    """

    __slots__ = ("p", "m", "nums", "den")

    def __init__(self, p: int, m: int, coeffs):
        # the checked entry for outside values; the tower's own results go through _make
        coeffs = [c if type(c) is int else Fraction(c) for c in coeffs]
        if len(coeffs) != _euler_phi_prime_power(p, m):
            raise ValueError("coefficient vector has wrong length for level")
        den = lcm(*[c.denominator for c in coeffs])
        z = _make(p, m, [c.numerator * (den // c.denominator) for c in coeffs], den)
        self.p, self.m, self.nums, self.den = p, z.m, z.nums, z.den

    @staticmethod
    def _of(p: int, m: int, nums: tuple, den: int) -> "CyclotomicNumber":
        """Trusted constructor for the tower's own results: nums is already a
        canonical tuple of phi(p^m) ints over den, so nothing is checked or copied."""
        z = object.__new__(CyclotomicNumber)
        z.p, z.m, z.nums, z.den = p, m, nums, den
        return z

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions, built on each read."""
        return tuple([Fraction(n, self.den) for n in self.nums])

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- arithmetic ----------------------------------------------------

    def _high(self, other):
        """(x, n, d) when self or other is rational (an int, a Fraction or a level-0
        number): n/d is that rational and x the other operand, whose prime the result
        keeps.  (self, None, None) at levels >= 1 of one prime; None for no scalar."""
        if type(other) is CyclotomicNumber:
            if not other.m:
                return self, other.nums[0], other.den
            if not self.m:
                return other, self.nums[0], self.den
            if self.p != other.p:
                raise ValueError("mixed cyclotomic primes %d and %d" % (self.p, other.p))
            return self, None, None
        if isinstance(other, (int, Fraction)):
            return self, other.numerator, other.denominator
        return None

    def __add__(self, other):
        """A rational adds to the zeta^0 numerator only, which keeps the level.  Two
        numbers at level >= 1 add over the lcm of their denominators, the lower
        one's numerators at its step in the higher one's basis."""
        high = self._high(other)
        if high is None:
            return NotImplemented
        x, n, d = high
        if n is not None:
            if not x.m:
                return _rat(x.p, x.nums[0] * d + n * x.den, x.den * d)
            nums = [v * d for v in x.nums]
            nums[0] += n * x.den
            return _make(x.p, x.m, nums, x.den * d)
        x, y = (self, other) if self.m >= other.m else (other, self)
        den = lcm(x.den, y.den)
        nums = [v * (den // x.den) for v in x.nums]
        fy, step = den // y.den, x.p ** (x.m - y.m)
        nums[::step] = [u + v * fy for u, v in zip(nums[::step], y.nums)]
        return _make(x.p, x.m, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.p, self.m, tuple([-v for v in self.nums]), self.den)

    def __sub__(self, other):
        high = self._high(other)
        if high is None:
            return NotImplemented
        if self.m or high[0] is not self:
            return self.__add__(-other)
        return _rat(self.p, self.nums[0] * high[2] - high[1] * self.den, self.den * high[2])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """A rational n/d scales the other operand's numerators by n and its den by d.
        Two numbers at level >= 1 make one integer convolution, a row of the higher
        (or denser) one's numerators per nonzero numerator of the other, folded."""
        high = self._high(other)
        if high is None:
            return NotImplemented
        x, n, d = high
        if n is not None:
            if not x.m or not n:  # a rational, or the zero
                return _rat(x.p, x.nums[0] * n, x.den * d)
            return _make(x.p, x.m, [v * n for v in x.nums], x.den * d)
        x, y = (self, other) if self.m > other.m or self.m == other.m and (
            self.nums.count(0) <= other.nums.count(0)) else (other, self)
        p, top, row, step = x.p, x.m, x.nums, x.p ** (x.m - y.m)
        vec = [0] * (len(row) + step * (len(y.nums) - 1))
        for i, v in enumerate(y.nums):
            if v:
                i *= step
                vec[i:i + len(row)] = map(add, vec[i:i + len(row)], map(v.__mul__, row))
        return _make(p, top, _fold(p, top, vec), x.den * y.den)

    __rmul__ = __mul__

    def _permuted(self, top: int, exponent) -> list:
        """The power-basis numerators at level top of sum_j nums[j] zeta_{p^top}^
        exponent(j * p^(top - m)), for an exponent map injective mod p^top."""
        order = self.p ** top
        step, vec = order // self.p ** self.m, [0] * order
        for j, v in enumerate(self.nums):
            vec[exponent(j * step) % order] = v
        return _fold(self.p, top, vec)

    def times_root(self, m: int, a: int) -> "CyclotomicNumber":
        """self * zeta_{p^m}^a: each numerator moves to its shifted exponent at level
        max(m, self.m), with one fold and no field multiply; zeta_1 = 1 costs nothing."""
        if not m:
            return self
        top = max(m, self.m)
        return _make(self.p, top, self._permuted(top, (a * self.p ** (top - m)).__add__),
                     self.den)

    def inverse(self) -> "CyclotomicNumber":
        """cofactor / N, with N the norm of x to Q (see the module docstring).

        zeta -> zeta^a with a = 1 + j*p^(m-1) < p^m, j >= 1, are the
        conjugations of level m over level m-1 (at m = 1: a = 2..p-1).
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if not self.m:
            n = self.nums[0]
            return self._of(self.p, 0, (self.den if n > 0 else -self.den,), abs(n))
        p = self.p
        norm, cofactor = self, as_scalar(1, p)
        while any(norm.nums[1:]):  # norm is rational once only zeta^0's numerator is left
            step = p ** (norm.m - 1)
            conj = reduce(mul, map(norm._galois, range(1 + step, p * step, step)))
            norm, cofactor = norm * conj, conj * cofactor
        return cofactor * Fraction(norm.den, norm.nums[0])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))  # raises ZeroDivisionError at 0
        if isinstance(other, CyclotomicNumber):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if self.m == 0:  # a rational: Fraction ** e, which rejects 0 ** -e too
            return as_scalar(Fraction(self.nums[0], self.den) ** e, self.p)
        return _power(self, e, as_scalar(1, self.p))

    def _galois(self, a: int) -> "CyclotomicNumber":
        """The field automorphism zeta -> zeta^a, for a prime to p."""
        if self.m == 0:
            return self
        return _make(self.p, self.m, self._permuted(self.m, a.__mul__), self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._galois(-1)

    # -- comparison / misc --------------------------------------------

    def __eq__(self, other):
        """Equality of canonical forms, with no arithmetic.

        The power-basis coordinates of a value at its least level are unique,
        and every instance is stored there.  den is then the least positive
        integer making every coordinate integral, since any such integer is a
        multiple of it and gcd(den, *nums) = 1.  So two numbers of one prime
        are equal iff their (m, den, nums) are.  A number at level >= 1 is not
        rational, so it differs from every rational; and Q(zeta_{p^a}) meets
        Q(zeta_{q^b}) in Q for p != q, so numbers of two primes at level >= 1
        differ.  Two rationals, reduced (num, den) pairs as Fractions are,
        compare by value whatever their primes.  A QuadExt decides by value."""
        if type(other) is CyclotomicNumber:
            if self.m or other.m:
                return (self.m == other.m and self.p == other.p and self.den == other.den
                        and self.nums == other.nums)
            return self.den == other.den and self.nums[0] == other.nums[0]
        if isinstance(other, (int, Fraction)):
            return not self.m and self.den == other.denominator and self.nums[0] == other.numerator
        return NotImplemented

    def __hash__(self):  # a rational hashes as the equal int or Fraction
        return hash((self.p, self.m, self.den, self.nums) if self.m else
                    Fraction(self.nums[0], self.den))

    def __repr__(self):
        if self.m == 0:  # as str(Fraction) prints it
            return str(self.nums[0]) if self.den == 1 else "%d/%d" % (self.nums[0], self.den)
        order = self.p ** self.m
        return " + ".join("%s*z%d^%d" % (c, order, j) for j, c in enumerate(self.coeffs) if c)

    def embed(self, digits: int = 20):
        """Numeric value under zeta_{p^m} -> exp(2*pi*i/p^m) as an mpmath mpc."""
        import mpmath  # numeric checks only: exact runs never load mpmath
        with mpmath.workdps(digits + 10):
            order = self.p ** self.m
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    w = mpmath.expjpi(mpmath.mpf(2 * j) / order)
                    total += w * mpmath.mpf(c.numerator) / c.denominator
            return total


def _fold(p: int, m: int, vec) -> list:
    """An exponent vector shorter than 2 p^m in the power basis of level m, in its own
    arithmetic: e wraps mod p^m, and zeta^e = -sum_{j<p-1} zeta^(e - phi + j p^(m-1))."""
    order, phi = p ** m, _euler_phi_prime_power(p, m)
    out, wrap = list(vec[:order]) + [0] * (order - len(vec)), vec[order:]
    out[:len(wrap)] = map(add, out[:len(wrap)], wrap)
    tail = out[phi:]
    return list(map(sub, out[:phi], tail * (p - 1))) if any(tail) else out[:phi]


def _make(p: int, m: int, nums, den: int) -> CyclotomicNumber:
    """nums / den at level m (den > 0) in canonical form: at its least level, with
    gcd(den, *nums) = 1, so the zero is (0, (0,), 1).  The value drops a level while
    every numerator off the multiples of p is 0, as zeta^(p j) = zeta_{p^(m-1)}^j."""
    while m and nums.count(0) - nums[::p].count(0) == len(nums) - len(nums[::p]):
        m, nums = m - 1, nums[::p]
    g = gcd(den, *nums)
    return CyclotomicNumber._of(p, m, tuple([v // g for v in nums]) if g != 1 else tuple(nums),
                                den // g)


def _rat(p: int, n: int, d: int) -> CyclotomicNumber:
    """n/d at level 0, for d > 0."""
    g = gcd(n, d)
    z = object.__new__(CyclotomicNumber)
    z.p, z.m, z.nums, z.den = p, 0, (n // g,), d // g
    return z


def _power(x, e: int, unit):
    """x**e by square-and-multiply; a negative e inverts x first."""
    if e < 0:
        x, e = x.inverse(), -e
    result = unit
    while e:
        if e & 1:
            result = result * x
        x = x * x
        e >>= 1
    return result


# -- public helpers ----------------------------------------------------

def root_of_unity(p: int, m: int, a: int) -> CyclotomicNumber:
    """zeta_{p^m}^a in canonical form."""
    if m < 0:
        raise ValueError("level must be >= 0")
    a %= p ** m
    while m and a % p == 0:  # zeta_{p^m}^(p b) = zeta_{p^(m-1)}^b
        m, a = m - 1, a // p
    vec = [0] * (a + 1)
    vec[a] = 1
    return _make(p, m, _fold(p, m, vec), 1)


def root_of_unity_sum(p: int, m: int, counts) -> CyclotomicNumber:
    """sum_e counts[e] * zeta_{p^m}^e in canonical form, len(counts) <= p^m."""
    if len(counts) > p ** m:
        raise ValueError("more than p^m exponents for level %d" % m)
    # outside counts (integer histograms, JSON) fold in their own arithmetic
    # and go through the checked constructor
    return CyclotomicNumber(p, m, _fold(p, m, counts))


def embed_complex(z, digits: int = 20):
    import mpmath
    if isinstance(z, (int, Fraction)):
        return mpmath.mpc(Fraction(z).numerator) / Fraction(z).denominator
    return z.embed(digits)


def as_scalar(x, p: int = 2):
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x
    x = x if type(x) in (int, Fraction) else Fraction(x)
    return CyclotomicNumber._of(p, 0, (x.numerator,), x.denominator)


@lru_cache(maxsize=64)
def sqrt_q(p: int):
    """Exact sqrt(p).

    For p = 2 this is zeta_8 - zeta_8^3; for p = 1 mod 4 the quadratic Gauss
    sum sum_a (a|p) zeta_p^a.  For p = 3 mod 4 sqrt(p) does not lie in the
    p-power tower and a formal quadratic generator is returned (QuadExt is
    then a field, so division stays safe).
    """
    if p == 2:
        return root_of_unity(2, 3, 1) - root_of_unity(2, 3, 3)
    if p % 4 == 1:
        return root_of_unity_sum(p, 1, [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1
                                              for a in range(1, p)])
    return QuadExt(0, 1, p)


def sqrt_q_power(p: int, e: int):
    """Exact p^(e/2) for an integer e (i.e. sqrt(p)^e)."""
    if e % 2 == 0:
        return as_scalar(Fraction(p) ** (e // 2), p)
    return sqrt_q(p) * Fraction(p) ** ((e - 1) // 2)


class QuadExt:
    """a + b*sqrt(p) with cyclotomic a, b; used only when p = 3 mod 4."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a, b, p: int):
        self.a = as_scalar(a, p)
        self.b = as_scalar(b, p)
        self.p = p

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.p != self.p:
                raise ValueError("mixed QuadExt primes")
            return other
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return QuadExt(other, 0, self.p)
        return None

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.p)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.b * o.b * self.p,
                       self.a * o.b + self.b * o.a, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        nrm = self.a * self.a - self.b * self.b * self.p
        if nrm.is_zero():
            raise ZeroDivisionError("non-invertible quadratic extension element")
        inv = nrm.inverse()
        return QuadExt(self.a * inv, -self.b * inv, self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        return _power(self, e, QuadExt(1, 0, self.p))

    def conjugate(self) -> "QuadExt":
        # complex conjugation; sqrt(p) is real
        return QuadExt(self.a.conjugate(), self.b.conjugate(), self.p)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        if self.b.is_zero():
            return hash(self.a)
        return hash((self.a, self.b, self.p))

    def __repr__(self):
        return "(%r) + (%r)*sqrt(%d)" % (self.a, self.b, self.p)

    def embed(self, digits: int = 20):
        import mpmath
        with mpmath.workdps(digits + 10):
            return self.a.embed(digits) + self.b.embed(digits) * mpmath.sqrt(self.p)


def scalar_is_zero(x) -> bool:
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x.is_zero()
    return x == 0


def scalar_inverse(x):
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x.inverse()
    return 1 / Fraction(x)


def scalar_conjugate(x):
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x.conjugate()
    return Fraction(x)
