"""Exact scalar tower: rationals, prime-power cyclotomic fields, and sqrt(q).

All integral values produced by the p-adic layer live in Q(zeta_{p^m}) for
some m; half-integer powers of q additionally require sqrt(q), which is
either an explicit cyclotomic element (p = 2 or p = 1 mod 4) or a formal
quadratic generator (p = 3 mod 4, where the extension is a genuine field).

Every CyclotomicNumber is canonical: the public constructor stores its value
at its least level, as the tower's own results are.  Arithmetic scatters the
operands' (exponent, coefficient) terms at the larger level and reduces once,
so no value depends on a level-0 number's prime, except a phase applied by
times_root.

Inverses need no linear algebra.  Multiplying x in Q(zeta_{p^m}) by its other
conjugates over Q(zeta_{p^(m-1)}) gives its relative norm, one level down;
repeating down the tower reaches a rational N, and x^-1 is the product of
all the conjugates used, divided by N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul


def _euler_phi_prime_power(p: int, m: int) -> int:
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


class CyclotomicNumber:
    """Element of Q(zeta_{p^m}) in the power basis zeta^j, 0 <= j < phi(p^m).

    Canonical form: reduced by the relation sum_{j<p} zeta^{j*p^(m-1)} = 0
    and stored at the minimal level containing the element.  Every instance
    is canonical, so == and hash agree.  Instances are immutable; arithmetic
    scatters both operands' terms at the larger level and reduces once.
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
    def _of(p: int, m: int, coeffs: tuple) -> "CyclotomicNumber":
        """Trusted constructor for the tower's own results: coeffs is already
        a tuple of phi(p^m) Fractions in canonical form, so nothing is
        checked or copied."""
        z = object.__new__(CyclotomicNumber)
        z.p, z.m, z.coeffs = p, m, coeffs
        return z

    def _rational(self, other):
        """other's value (an int or Fraction) when self and other are both
        rational, else None: the level-0 path of + - * ==."""
        t = type(other)
        if t is CyclotomicNumber:
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
        if isinstance(other, CyclotomicNumber):
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
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
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
                return as_scalar(0, self.p)  # canonical level 0, so == and hash agree
            # most coefficients of a high-level phase are 0
            return self._of(self.p, self.m, tuple([c * other if c else c for c in self.coeffs]))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        p, top, xs, ys = pair
        return _reduce(p, top, [(i + j, ci * cj) for i, ci in xs for j, cj in ys])

    __rmul__ = __mul__

    def times_root(self, m: int, a: int) -> "CyclotomicNumber":
        """self * zeta_{p^m}^a: each term moves to its shifted exponent at level
        max(m, self.m), and one _reduce follows.  zeta_1 = 1 costs nothing."""
        if not m:
            return self
        top = max(m, self.m)
        shift = a * self.p ** (top - m)
        return _reduce(self.p, top, [(e + shift, c) for e, c in self._terms(top)])

    def inverse(self) -> "CyclotomicNumber":
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
        return as_scalar(cofactor / norm.coeffs[0], p)

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
            return self._of(self.p, 0, (self.coeffs[0] ** e,))
        return _power(self, e, as_scalar(1, self.p))

    def _galois(self, a: int) -> "CyclotomicNumber":
        """The field automorphism zeta -> zeta^a, for a prime to p."""
        if self.m == 0:
            return self
        return _reduce(self.p, self.m, [(a * e, c) for e, c in self._terms(self.m)])

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._galois(-1)

    # -- comparison / misc --------------------------------------------

    def __eq__(self, other):
        r = self._rational(other)
        if r is not None:
            return self.coeffs[0] == r
        if not isinstance(other, (int, Fraction, CyclotomicNumber)):
            return NotImplemented
        return (self - other).is_zero()

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


def _reduce(p: int, m: int, terms) -> CyclotomicNumber:
    """sum c * zeta_{p^m}^e over the tower's own (e, c) terms, e any integer and
    c a Fraction, in canonical form: the one scatter of the tower's arithmetic."""
    order, zero = p ** m, Fraction(0)
    vec = [zero] * order
    for e, c in terms:
        e %= order
        v = vec[e]
        vec[e] = c if v is zero else v + c  # a first term costs no addition
    return CyclotomicNumber._of(p, *_least(p, m, tuple(_fold(p, m, vec))))


def _least(p: int, m: int, coeffs: tuple) -> tuple:
    """(level, coefficients) of the same value at its least level."""
    while m > 0:
        if m == 1:
            return (1, coeffs) if any(coeffs[1:]) else (0, coeffs[:1])
        if any(any(coeffs[j::p]) for j in range(1, p)):
            break
        m, coeffs = m - 1, coeffs[::p]
    return m, coeffs


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
    phi = _euler_phi_prime_power(p, m)
    if a >= phi:
        return _reduce(p, m, [(a, Fraction(1))])
    # below phi, a basis vector whose exponent p does not divide is canonical
    vec = [Fraction(0)] * phi
    vec[a] = Fraction(1)
    return CyclotomicNumber._of(p, m, tuple(vec))


def root_of_unity_sum(p: int, m: int, counts) -> CyclotomicNumber:
    """sum_e counts[e] * zeta_{p^m}^e in canonical form, len(counts) <= p^m."""
    if len(counts) > p ** m:
        raise ValueError("more than p^m exponents for level %d" % m)
    # outside counts (integer histograms, JSON) fold in their own arithmetic
    # and become Fractions once, in the checked constructor
    return CyclotomicNumber(p, m, _fold(p, m, counts))


def embed_complex(z, digits: int = 20):
    import mpmath
    if isinstance(z, (int, Fraction)):
        return mpmath.mpc(Fraction(z).numerator) / Fraction(z).denominator
    return z.embed(digits)


def as_scalar(x, p: int = 2):
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x
    return CyclotomicNumber._of(p, 0, (x if type(x) is Fraction else Fraction(x),))


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
