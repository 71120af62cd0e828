"""Exact model of Q_p scalars and matrices, the norm, and the character psi.

Elements of Q_p are exact rationals: every point arising in the engine is
rational, so valuations and psi-values are computed from integer
factorizations with no precision bookkeeping.  A matrix is held as integer
numerators over one positive denominator, reduced, so its negation, difference,
product, determinant, coset test and trace pairing are integer arithmetic, and
its Fraction entries are built only when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
        if not _is_prime(p):
            raise ValueError("p must be prime")
        self.p = p


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, exact below 3.317 * 10^24 (Sorenson and
    Webster, 2015): with p - 1 = d 2^s, d odd, a prime p has b^d = 1 or b^(d 2^r) = -1 mod p
    for some r < s.  Trial division from the bound on."""
    if p >= 3317044064679887385961981:
        return all(p % d for d in range(2, int(p ** 0.5) + 1))
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or p in bases:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1
    return all(pow(b, p - 1 >> s, p) == 1 or any(pow(b, p - 1 >> r, p) == p - 1
                                                  for r in range(1, s + 1)) for b in bases)


def psi_parts(num: int, den: int, p: int) -> tuple[int, int]:
    """psi_exponent of num/den, den > 0: each factor p of den cancels one of num's
    while num has one; with m left and u den's prime-to-p part, a = num/u mod p^m."""
    m = 0
    while den % p == 0:
        den //= p
        if num % p:
            m += 1
        else:
            num //= p
    pm = p ** m
    return (m, num * pow(den, -1, pm) % pm) if m else (0, 0)


def psi_exponent(x, ctx: PAdicContext) -> tuple[int, int]:
    """(m, a) with psi(x) = zeta_{p^m}^a: a/p^m is the p-fractional part of x."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return psi_parts(x.numerator, x.denominator, ctx.p)


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


def flat_cofactors(a, n: int) -> tuple:
    """det(a + e_l) - det a for each entry l of a flat row-major n x n tuple: det is
    affine in each entry, so this is l's cofactor, its signed (n-1)-minor."""
    if n < 3:
        return (a[3], -a[2], -a[1], a[0]) if n == 2 else (1,)
    idx = range(n)
    return tuple([(-1) ** (i + j) * flat_det(tuple([a[r * n + c] for r in idx if r != i
                                                    for c in idx if c != j]), n - 1)
                  for i in idx for j in idx])


class PAdicMatrix:
    """n x n matrix with exact rational entries, held as integers: entry (i, j)
    is nums[i n + j] / den, with den > 0 and gcd(den, *nums) = 1.  That form is
    canonical, so == and hash compare (den, nums)."""

    __slots__ = ("n", "nums", "den", "_entries", "_hash", "_neg")

    def __init__(self, entries):
        rows = tuple([tuple([e if type(e) is Fraction else Fraction(e) for e in row])
                      for row in entries])
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        # over the least common denominator no prime divides den and every numerator
        self.n, self.den = len(rows), lcm(*[e.denominator for row in rows for e in row])
        self.nums = tuple([e.numerator * (self.den // e.denominator) for row in rows for e in row])
        self._entries, self._hash, self._neg = rows, None, None

    @staticmethod
    def _lattice(n: int, nums: tuple, den: int) -> "PAdicMatrix":
        """Trusted constructor: n*n ints nums, row-major, over den > 0, reduced here."""
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple([x // g for x in nums]), den // g
        out = object.__new__(PAdicMatrix)
        out.n, out.nums, out.den = n, nums, den
        out._entries = out._hash = out._neg = None
        return out

    @property
    def entries(self) -> tuple:
        """The rows as Fractions: those given to the constructor, or built on the first read."""
        if self._entries is None:
            n, d = self.n, self.den
            self._entries = tuple([tuple([Fraction(x, d) for x in self.nums[i:i + n]])
                                   for i in range(0, n * n, n)])
        return self._entries

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
        return Fraction(sum(self.nums[::self.n + 1]), self.den)

    def det(self) -> Fraction:
        return Fraction(flat_det(self.nums, self.n), self.den ** self.n)

    def __mul__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        n, a, b = self.n, self.nums, other.nums
        return PAdicMatrix._lattice(n, tuple([sum(a[i + k] * b[k * n + j] for k in range(n))
                                              for i in range(0, n * n, n) for j in range(n)]),
                                    self.den * other.den)

    def __sub__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        d, e = self.den, other.den
        return PAdicMatrix._lattice(self.n, tuple([x * e - y * d for x, y in
                                                   zip(self.nums, other.nums)]), d * e)

    def __neg__(self) -> "PAdicMatrix":
        """-self, built once and kept, so transforms share it and fn_equal
        matches their keys by identity; kept one way only, with no cycle."""
        if self._neg is None:
            self._neg = PAdicMatrix._lattice(self.n, tuple([-x for x in self.nums]), self.den)
        return self._neg

    def scale(self, c) -> "PAdicMatrix":
        c = Fraction(c)
        return PAdicMatrix._lattice(self.n, tuple([x * c.numerator for x in self.nums]),
                                    self.den * c.denominator)

    def min_valuation(self, p: int):
        """min over entries of v_p; +inf for the zero matrix."""
        vals = [int_valuation(x, p) for x in self.nums if x]
        return min(vals) - int_valuation(self.den, p) if vals else INFINITE

    def in_coset(self, center: "PAdicMatrix", level: int, p: int) -> bool:
        """self in center + p^level M_n(Z_p)?  Stops at the first entry outside.
        Entrywise x - y = (a e - b d) / (d e) for self = a/d and center = b/e, so
        with t = level + v_p(d e) all pass if t <= 0, and else iff p^t | a e - b d."""
        d, e = self.den, center.den
        t = level + int_valuation(d * e, p)
        if t <= 0:
            return True
        q = p ** t
        for a, b in zip(self.nums, center.nums):
            if (a * e - b * d) % q:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, PAdicMatrix):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):  # fn_equal keys its merge on (center, level, modulation, ...)
        if self._hash is None:
            self._hash = hash((self.den, self.nums))
        return self._hash

    def __repr__(self):
        return "PAdicMatrix(%s)" % (
            [[str(e) for e in row] for row in self.entries],)


def trace_parts(b: PAdicMatrix, x: PAdicMatrix) -> tuple[int, int]:
    """tr(b x) as (num, den), unreduced: one integer dot product over b.den x.den."""
    n, u, v = b.n, b.nums, x.nums
    return (sum([u[i * n + k] * v[k * n + i] for i in range(n) for k in range(n)]),
            b.den * x.den)


def trace_pairing(b: PAdicMatrix, x: PAdicMatrix) -> Fraction:
    """tr(b x) as an exact rational."""
    return Fraction(*trace_parts(b, x))
