"""Exact model of Q_p scalars and matrices, the norm, and the character psi.

Elements of Q_p are exact rationals: every point arising in the engine is
rational, so valuations and psi-values are computed from integer
factorizations with no precision bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Singular
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


@dataclass(frozen=True)
class PAdicContext:
    """Prime p, residue cardinality q = p, and the fixed psi convention.

    psi has conductor Z_p: trivial on Z_p, nontrivial on p^(-1) Z_p.  With
    this choice 1_{M_n(Z_p)} is self-dual and vol(M_n(Z_p)) = 1.
    """
    p: int
    psi_convention: str = field(default="conductor Z_p")

    @property
    def q(self) -> int:
        return self.p

    def __post_init__(self):
        if self.p < 2 or any(self.p % d == 0 for d in range(2, int(self.p ** 0.5) + 1)):
            raise ValueError("p must be prime")


def psi_value(x, ctx: PAdicContext) -> CyclotomicNumber:
    """psi(x) = zeta_{p^m}^a where a/p^m is the p-fractional part of x."""
    if type(x) is not Fraction:
        x = Fraction(x)
    p = ctx.p
    if x == 0:
        return root_of_unity(p, 0, 0)
    m = int_valuation(x.denominator, p)
    if m == 0:
        return root_of_unity(p, 0, 0)
    u = x.denominator // p ** m
    a = x.numerator * pow(u, -1, p ** m) % p ** m
    return root_of_unity(p, m, a)


class PAdicMatrix:
    """n x n matrix with exact rational entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = [tuple([e if type(e) is Fraction else Fraction(e) for e in row])
                for row in entries]
        self.n = len(rows)
        if any(len(r) != self.n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = tuple(rows)

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
        # fraction Gaussian elimination; n is small throughout the engine
        n = self.n
        a = [list(row) for row in self.entries]
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] * inv
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return det

    def inverse(self) -> "PAdicMatrix":
        n = self.n
        a = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise Singular("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return PAdicMatrix([row[n:] for row in a])

    def __mul__(self, other):
        if isinstance(other, PAdicMatrix):
            n = self.n
            return PAdicMatrix([[sum(self.entries[i][k] * other.entries[k][j]
                                     for k in range(n)) for j in range(n)]
                                for i in range(n)])
        return PAdicMatrix([[e * Fraction(other) for e in row] for row in self.entries])

    __rmul__ = __mul__

    def __add__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        return PAdicMatrix([[x + y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        return PAdicMatrix([[x - y for x, y in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "PAdicMatrix":
        return PAdicMatrix([[-e for e in row] for row in self.entries])

    def scale(self, c) -> "PAdicMatrix":
        c = Fraction(c)
        return PAdicMatrix([[e * c for e in row] for row in self.entries])

    def min_valuation(self, p: int):
        """min over entries of v_p; +inf for the zero matrix."""
        vals = [valuation(e, p) for row in self.entries for e in row]
        return min(vals)

    def in_coset(self, center: "PAdicMatrix", level: int, p: int) -> bool:
        """self in center + p^level M_n(Z_p)?  Stops at the first entry below."""
        return all(valuation(x - y, p) >= level
                   for r1, r2 in zip(self.entries, center.entries) for x, y in zip(r1, r2))

    def __eq__(self, other):
        if not isinstance(other, PAdicMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "PAdicMatrix(%s)" % (
            [[str(e) for e in row] for row in self.entries],)


def trace_pairing(b: PAdicMatrix, x: PAdicMatrix) -> Fraction:
    """tr(b x) as an exact rational."""
    n = b.n
    return sum(b.entries[i][k] * x.entries[k][i] for i in range(n) for k in range(n))
