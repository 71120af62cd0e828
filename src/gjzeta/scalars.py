"""Exact scalar tower: rationals, prime-power cyclotomic fields, and sqrt(q).

All integral values produced by the p-adic layer live in Q(zeta_{p^m}) for
some m; half-integer powers of q additionally require sqrt(q), which is
either an explicit cyclotomic element (p = 2 or p = 1 mod 4) or a formal
quadratic generator (p = 3 mod 4, where the extension is a genuine field).

Inverses need no linear algebra.  Multiplying x in Q(zeta_{p^m}) by its other
conjugates over Q(zeta_{p^(m-1)}) gives its relative norm, one level down;
repeating down the tower reaches a rational N, and x^-1 is the product of
all the conjugates used, divided by N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

import mpmath


def _euler_phi_prime_power(p: int, m: int) -> int:
    return 1 if m == 0 else (p - 1) * p ** (m - 1)


class CyclotomicNumber:
    """Element of Q(zeta_{p^m}) in the power basis zeta^j, 0 <= j < phi(p^m).

    Canonical form: reduced by the relation sum_{j<p} zeta^{j*p^(m-1)} = 0
    and stored at the minimal level containing the element.  Instances are
    immutable; arithmetic between levels coerces to the larger level.
    """

    __slots__ = ("p", "m", "coeffs", "_hash")

    def __init__(self, p: int, m: int, coeffs):
        self.p = p
        self.m = m
        # callers mostly pass Fractions already; wrapping those again is the
        # dominant cost of every add, mul and reduce
        self.coeffs = tuple([c if type(c) is Fraction else Fraction(c) for c in coeffs])
        if len(self.coeffs) != _euler_phi_prime_power(p, m):
            raise ValueError("coefficient vector has wrong length for level")
        self._hash = None

    # -- construction -------------------------------------------------

    @staticmethod
    def zeta(p: int, m: int, a: int = 1) -> "CyclotomicNumber":
        """zeta_{p^m}^a, reduced to canonical form."""
        if m < 0:
            raise ValueError("level must be >= 0")
        if m == 0:
            return CyclotomicNumber(p, 0, [Fraction(1)])
        order = p ** m
        vec = [Fraction(0)] * order
        vec[a % order] = Fraction(1)
        return _reduce(p, m, vec)

    # -- canonicalization ---------------------------------------------

    def _lift(self, m: int) -> "CyclotomicNumber":
        """Re-express at level m >= self.m (no minimality normalization).

        j*step < phi(p^m) for every j < phi(p^self.m): nothing to reduce."""
        if m == self.m:
            return self
        step = self.p ** (m - self.m)
        vec = [Fraction(0)] * _euler_phi_prime_power(self.p, m)
        vec[::step] = self.coeffs
        return CyclotomicNumber(self.p, m, vec)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, CyclotomicNumber):
            if self.p != other.p:
                if other.m == 0:
                    other = CyclotomicNumber(self.p, 0, other.coeffs)
                elif self.m == 0:
                    return CyclotomicNumber(other.p, 0, self.coeffs)._pair(other)
                else:
                    raise ValueError("mixed cyclotomic primes %d and %d" % (self.p, other.p))
        elif isinstance(other, (int, Fraction)):
            other = CyclotomicNumber(self.p, 0, [Fraction(other)])
        else:
            return None, None
        m = max(self.m, other.m)
        return self._lift(m), other._lift(m)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        vec = [x + y for x, y in zip(a.coeffs, b.coeffs)]
        return _normalize_level(CyclotomicNumber(a.p, a.m, vec))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.p, self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self.__add__(-other)
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.p, self.m, [c * f for c in self.coeffs])
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.m == 0:
            return CyclotomicNumber(a.p, 0, [a.coeffs[0] * b.coeffs[0]])
        order = a.p ** a.m
        vec = [Fraction(0)] * order
        nz_b = [(j, c) for j, c in enumerate(b.coeffs) if c]
        for i, ci in enumerate(a.coeffs):
            if ci:
                for j, cj in nz_b:
                    k = i + j
                    if k >= order:
                        k -= order
                    vec[k] += ci * cj
        return _reduce(a.p, a.m, vec)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """cofactor / N, with N the norm of x to Q (see the module docstring).

        zeta -> zeta^a with a = 1 + j*p^(m-1) < p^m, j >= 1, are the
        conjugations of level m over level m-1 (at m = 1: a = 2..p-1).
        """
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        p = self.p
        norm, cofactor = _normalize_level(self), 1
        while norm.m:
            step = p ** (norm.m - 1)
            conj = reduce(mul, map(norm._galois, range(1 + step, p * step, step)))
            norm, cofactor = norm * conj, conj * cofactor
        return as_scalar(cofactor / norm.coeffs[0], p)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CyclotomicNumber(self.p, self.m, [c / f for c in self.coeffs])
        if isinstance(other, CyclotomicNumber):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        return _power(self, e, one(self.p))

    def _galois(self, a: int) -> "CyclotomicNumber":
        """The field automorphism zeta -> zeta^a, for a prime to p."""
        if self.m == 0:
            return self
        order = self.p ** self.m
        vec = [Fraction(0)] * order
        for j, c in enumerate(self.coeffs):
            if c:
                vec[a * j % order] = c
        return _reduce(self.p, self.m, vec)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._galois(-1)

    # -- comparison / misc --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.m == 0 and self.coeffs[0] == other
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        if self._hash is None:
            if self.m == 0:
                self._hash = hash(self.coeffs[0])
            else:
                self._hash = hash((self.p, self.m, self.coeffs))
        return self._hash

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
        with mpmath.workdps(digits + 10):
            if self.m == 0:
                return mpmath.mpc(mpmath.mpf(self.coeffs[0].numerator)
                                  / self.coeffs[0].denominator)
            order = self.p ** self.m
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    w = mpmath.expjpi(mpmath.mpf(2 * j) / order)
                    total += w * mpmath.mpf(c.numerator) / c.denominator
            return total


def _reduce(p: int, m: int, vec) -> CyclotomicNumber:
    """Reduce a length-p^m exponent vector into the power basis.

    For phi <= e < p^m, zeta^e = -sum_{j<p-1} zeta^(e - phi + j p^(m-1))."""
    phi = _euler_phi_prime_power(p, m)
    out = list(vec[:phi]) + [Fraction(0)] * (phi - min(phi, len(vec)))
    step = p ** m // p  # only read when len(vec) > phi, so m >= 1
    for e in range(phi, len(vec)):
        c = vec[e]
        if c:
            for i in range(e - phi, phi, step):
                out[i] -= c
    return _normalize_level(CyclotomicNumber(p, m, out))


def _normalize_level(z: CyclotomicNumber) -> CyclotomicNumber:
    """Drop to the minimal level p^m containing z."""
    while z.m > 0:
        if z.m == 1:
            if any(c for c in z.coeffs[1:]):
                break
            z = CyclotomicNumber(z.p, 0, [z.coeffs[0]])
            continue
        if any(c for j, c in enumerate(z.coeffs) if j % z.p):
            break
        z = CyclotomicNumber(z.p, z.m - 1, [z.coeffs[j] for j in range(0, len(z.coeffs), z.p)])
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
    return CyclotomicNumber.zeta(p, m, a)


def root_of_unity_sum(p: int, m: int, counts) -> CyclotomicNumber:
    """sum_e counts[e] * zeta_{p^m}^e in canonical form, len(counts) <= p^m."""
    if len(counts) > p ** m:
        raise ValueError("more than p^m exponents for level %d" % m)
    return _reduce(p, m, counts)


def embed_complex(z, digits: int = 20):
    if isinstance(z, QuadExt):
        return z.embed(digits)
    if isinstance(z, (int, Fraction)):
        return mpmath.mpc(Fraction(z).numerator) / Fraction(z).denominator
    return z.embed(digits)


def one(p: int = 2) -> CyclotomicNumber:
    return CyclotomicNumber(p, 0, [Fraction(1)])


def zero(p: int = 2) -> CyclotomicNumber:
    return CyclotomicNumber(p, 0, [Fraction(0)])


def as_scalar(x, p: int = 2):
    if isinstance(x, (CyclotomicNumber, QuadExt)):
        return x
    return CyclotomicNumber(p, 0, [Fraction(x)])


@lru_cache(maxsize=None)
def sqrt_q(p: int):
    """Exact sqrt(p).

    For p = 2 this is zeta_8 - zeta_8^3; for p = 1 mod 4 the quadratic Gauss
    sum sum_a (a|p) zeta_p^a.  For p = 3 mod 4 sqrt(p) does not lie in the
    p-power tower and a formal quadratic generator is returned (QuadExt is
    then a field, so division stays safe).
    """
    if p == 2:
        return CyclotomicNumber.zeta(2, 3, 1) - CyclotomicNumber.zeta(2, 3, 3)
    if p % 4 == 1:
        total = zero(p)
        for a in range(1, p):
            ls = pow(a, (p - 1) // 2, p)
            sign = 1 if ls == 1 else -1
            total = total + CyclotomicNumber.zeta(p, 1, a) * sign
        return total
    return QuadExt(zero(p), one(p), p)


def sqrt_q_power(p: int, e: int):
    """Exact p^(e/2) for an integer e (i.e. sqrt(p)^e)."""
    if e % 2 == 0:
        return as_scalar(Fraction(p) ** (e // 2), p)
    root = sqrt_q(p)
    return root ** e if e >= 0 else (1 / root) ** (-e)


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
            return QuadExt(as_scalar(other, self.p), zero(self.p), self.p)
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
        return _power(self, e, QuadExt(one(self.p), zero(self.p), self.p))

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
