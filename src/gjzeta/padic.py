"""Exact model of Q_p scalars and matrices, the norm, and the character psi.

Elements of Q_p are exact rationals: every point arising in the engine is
rational, so valuations and psi-values are computed from integer
factorizations with no precision bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import CyclotomicNumber, root_of_unity

INFINITE = float("inf")  # valuation of zero


def int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("zero has no finite valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int):
    """p-adic valuation of a rational; +inf for zero."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if x == 0:
        return INFINITE
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def in_level(x, level: int, p: int) -> bool:
    """x in p^level Z_p, for an int or reduced Fraction x, by one modulus: p^level
    divides the numerator (level > 0), or p^(1 - level) not the denominator."""
    if level > 0:
        return x.numerator % p ** level == 0
    return x.denominator % p ** (1 - level) != 0


class PAdicContext:
    """Prime p (the residue cardinality q = p) and the fixed psi convention.

    psi has conductor Z_p: trivial on Z_p, nontrivial on p^(-1) Z_p.  With
    this choice 1_{M_n(Z_p)} is self-dual and vol(M_n(Z_p)) = 1.
    """
    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime")
        self.p = p


def psi_exponent(x, ctx: PAdicContext) -> tuple[int, int]:
    """(m, a) with psi(x) = zeta_{p^m}^a: a/p^m is the p-fractional part of x."""
    if type(x) is not Fraction:
        x = Fraction(x)
    p = ctx.p
    m = int_valuation(x.denominator, p)
    if m == 0:
        return 0, 0
    pm = p ** m
    return m, x.numerator * pow(x.denominator // pm, -1, pm) % pm


def _phase_add(p: int, x: tuple, y: tuple) -> tuple[int, int]:
    """x + y for phases (m, a) of zeta_{p^m}^a, a any integer, in psi_exponent's form."""
    m = max(x[0], y[0])
    a = (x[1] * p ** (m - x[0]) + y[1] * p ** (m - y[0])) % p ** m
    while m and a % p == 0:
        m, a = m - 1, a // p
    return m, a


def psi_value(x, ctx: PAdicContext) -> CyclotomicNumber:
    """psi(x) as a root of unity in canonical form."""
    return root_of_unity(ctx.p, *psi_exponent(x, ctx))


def mod_int(x, modulus: int) -> int:
    """Integer representative of a p-integral rational mod p^j."""
    if modulus <= 1:
        return 0
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def flat_det(a, n: int):
    """Determinant of a flat row-major n x n tuple of ints or Fractions,
    by cofactor expansion along the first row (n is small)."""
    if n == 1:
        return a[0]
    if n == 2:
        return a[0] * a[3] - a[1] * a[2]
    total = 0
    minor_rows = range(1, n)
    for col in range(n):
        if a[col] == 0:
            continue
        sub = tuple(a[r * n + c] for r in minor_rows for c in range(n) if c != col)
        total += (-1) ** col * a[col] * flat_det(sub, n - 1)
    return total


class PAdicMatrix:
    """n x n matrix with exact rational entries."""

    __slots__ = ("n", "entries", "_hash", "_neg")

    def __init__(self, entries):
        rows = [tuple([e if type(e) is Fraction else Fraction(e) for e in row])
                for row in entries]
        self.n = len(rows)
        if any(len(r) != self.n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = tuple(rows)
        self._hash = self._neg = None

    @staticmethod
    def _of(rows) -> "PAdicMatrix":
        """Trusted constructor: rows is a square tuple of tuples of Fractions."""
        out = object.__new__(PAdicMatrix)
        out.n, out.entries, out._hash, out._neg = len(rows), rows, None, None
        return out

    @staticmethod
    def identity(n: int) -> "PAdicMatrix":
        return PAdicMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> "PAdicMatrix":
        return PAdicMatrix([[0] * n for _ in range(n)])

    @staticmethod
    def diagonal(diag) -> "PAdicMatrix":
        n = len(diag)
        return PAdicMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def scalar(n: int, c) -> "PAdicMatrix":
        return PAdicMatrix.diagonal([c] * n)

    def trace(self) -> Fraction:
        return sum(self.entries[i][i] for i in range(self.n))

    def det(self) -> Fraction:
        return Fraction(flat_det([e for row in self.entries for e in row], self.n))

    def __mul__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        n = self.n
        return PAdicMatrix([[sum(self.entries[i][k] * other.entries[k][j]
                                 for k in range(n)) for j in range(n)]
                            for i in range(n)])

    def __sub__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        return PAdicMatrix._of(tuple([tuple([x - y for x, y in zip(r1, r2)])
                                      for r1, r2 in zip(self.entries, other.entries)]))

    def __neg__(self) -> "PAdicMatrix":
        """-self, built once and kept, so transforms share it and fn_equal
        matches their keys by identity; kept one way only, with no cycle."""
        if self._neg is None:
            self._neg = PAdicMatrix._of(tuple([tuple([-e if e else e for e in row])
                                               for row in self.entries]))
        return self._neg

    def scale(self, c) -> "PAdicMatrix":
        c = Fraction(c)
        return PAdicMatrix([[e * c for e in row] for row in self.entries])

    def min_valuation(self, p: int):
        """min over entries of v_p; +inf for the zero matrix."""
        vals = [valuation(e, p) for row in self.entries for e in row]
        return min(vals)

    def in_coset(self, center: "PAdicMatrix", level: int, p: int) -> bool:
        """self in center + p^level M_n(Z_p)?  Stops at the first entry below.
        From integers: x - y = N / (x.den y.den), and with t = level +
        v_p(x.den y.den) an entry passes iff N = 0, t <= 0 or p^t | N."""
        for r1, r2 in zip(self.entries, center.entries):
            for x, y in zip(r1, r2):
                if x is y:
                    continue
                xd, yd = x.denominator, y.denominator
                num = x.numerator * yd - y.numerator * xd
                if num:
                    t, d = level, xd * yd
                    while d % p == 0:
                        d //= p
                        t += 1
                    if t > 0 and num % p ** t:
                        return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PAdicMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):  # fn_equal keys its merge on (center, level, modulation, ...)
        if self._hash is None:
            self._hash = hash(self.entries)
        return self._hash

    def __repr__(self):
        return "PAdicMatrix(%s)" % (
            [[str(e) for e in row] for row in self.entries],)


def trace_pairing(b: PAdicMatrix, x: PAdicMatrix) -> Fraction:
    """tr(b x) as an exact rational: the integer numerators of the nonzero
    products over one running denominator, normalized once at the end."""
    num, den = 0, 1
    for i, row in enumerate(b.entries):
        for u, xrow in zip(row, x.entries):
            v = xrow[i]
            if u and v:
                d = u.denominator * v.denominator
                if den % d:
                    num, den = num * d, den * d
                num += u.numerator * v.numerator * (den // d)
    return Fraction(num, den)
