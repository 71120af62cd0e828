"""Laurent polynomials and rational functions in the formal variable T.

T stands for q^(-s/2), so |x|^s = q^(-vs) contributes T^(2v) and
half-integer exponents of q^(-s) are integer powers of T.  Coefficients
are exact scalars (cyclotomic, possibly extended by sqrt(q)).  Both kinds
are stored canonically, so equality compares coefficients before arithmetic.
"""

from __future__ import annotations

from .scalars import as_scalar, scalar_inverse, scalar_is_zero


class LaurentPoly:
    """Finite sum of c_e * T^e with exact scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if not scalar_is_zero(c):
                    self.coeffs[int(e)] = as_scalar(c)

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def low_degree(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = c1 * c2
                out[e] = out[e] + prod if e in out else prod
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPoly":
        return LaurentPoly({k + e: c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        # no coefficient is stored at 0, so equal polys have one support and
        # equal coefficients on it, compared by the scalars' own ==
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs)))

    def format(self, var: str) -> str:
        """The terms (c)*var^e by increasing e, or "0"."""
        if not self.coeffs:
            return "0"
        return " + ".join("(%r)*%s^%d" % (c, var, e) for e, c in sorted(self.coeffs.items()))

    def __repr__(self):
        return self.format("T")

    def trailing(self):
        return self.coeffs[self.low_degree()]


def _dense(a: LaurentPoly) -> list:
    """The coefficients of an ordinary poly by degree, None for 0."""
    return [a.coeffs.get(e) for e in range(a.degree() + 1)] if a.coeffs else []


def _reduce_mod(r: list, b: list) -> dict:
    """r mod the dense b (top entry nonzero), in place in r, and the quotient as
    {degree: coefficient}.  A cancelled entry goes back to None, as LaurentPoly
    drops a zero, so each coefficient comes from the operands of the sparse long
    division and prints the same (a QuadExt stays one only where it was one)."""
    db, inv = len(b) - 1, scalar_inverse(b[-1])
    low = [(j, c) for j, c in enumerate(b[:-1]) if c is not None]
    q = {}
    for e in range(len(r) - 1 - db, -1, -1):
        if r[e + db] is not None:
            qe = q[e] = r[e + db] * inv
            for j, bc in low:
                t = qe * bc
                v = -t if r[e + j] is None else r[e + j] - t
                r[e + j] = None if scalar_is_zero(v) else v
    del r[db:]
    return q


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder for ordinary (non-negative-degree) polys."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = _dense(a)
    q = _reduce_mod(r, _dense(b))
    return LaurentPoly(q), LaurentPoly({e: c for e, c in enumerate(r) if c is not None})


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of a and b, both given with lowest degree 0: Euclid on dense lists,
    each remainder cut to its nonzero span (shifted to lowest degree 0)."""
    a, b = _dense(a), _dense(b)
    while b:
        _reduce_mod(a, b)
        nz = [i for i, c in enumerate(a) if c is not None]
        a, b = b, a[nz[0]:nz[-1] + 1] if nz else []
    return LaurentPoly({e: c for e, c in enumerate(a) if c is not None})


class RationalFunctionT:
    """Exact rational function num/den in T, with residue cardinality q.

    Canonical form: num/den gcd-reduced, den shifted to lowest degree 0 and
    normalized so its trailing coefficient is 1.
    """

    __slots__ = ("num", "den", "q")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, q: int):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.q = q
        if num.is_zero():
            num, den = LaurentPoly(), LaurentPoly.const(1)
        else:
            shift_n, shift_d = num.low_degree(), den.low_degree()
            num = num.shift(-shift_n)
            den = den.shift(-shift_d)
            g = _poly_gcd(num, den)
            if g.degree() > 0:
                num, _ = _poly_divmod(num, g)
                den, _ = _poly_divmod(den, g)
            num = num.shift(shift_n - shift_d)
        # trailing-coefficient normalization of the denominator
        tin = scalar_inverse(den.trailing())
        self.num = num * tin
        self.den = den * tin

    @staticmethod
    def coprime(num: LaurentPoly, den: LaurentPoly, q: int) -> "RationalFunctionT":
        """Trusted constructor for a num and a nonzero den with no common factor:
        the canonical form of __init__ with no gcd, only the shift of den to lowest
        degree 0 and the normalization of its trailing coefficient to 1."""
        lo, tin = den.low_degree(), scalar_inverse(den.trailing())
        out = object.__new__(RationalFunctionT)
        out.num, out.den, out.q = num.shift(-lo) * tin, den.shift(-lo) * tin, q
        return out

    @staticmethod
    def from_poly(pnum: LaurentPoly, q: int) -> "RationalFunctionT":
        return RationalFunctionT(pnum, LaurentPoly.const(1), q)

    @staticmethod
    def const(c, q: int) -> "RationalFunctionT":
        return RationalFunctionT.from_poly(LaurentPoly.const(c), q)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunctionT(self.num * other.den + other.num * self.den,
                                 self.den * other.den, self.q)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunctionT(-self.num, self.den, self.q)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunctionT(self.num * other.num, self.den * other.den, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunctionT(self.num * other.den, self.den * other.num, self.q)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other) -> "RationalFunctionT":
        if isinstance(other, RationalFunctionT):
            if other.q != self.q:
                raise ValueError("mixed base q")
            return other
        return RationalFunctionT.from_poly(LaurentPoly.const(as_scalar(other)), self.q)

    def equals(self, other) -> bool:
        """Exact equality: canonical forms first, then cross-multiplication.

        Canonical num and den (coprime, den at lowest degree 0 with trailing
        coefficient 1) are unique, so equal functions of one q (_coerce checks
        it) have equal coefficients.  Other forms cross-multiply: a form that
        missed canonicalization costs time, never a wrong answer."""
        other = self._coerce(other)
        if self.num == other.num and self.den == other.den:
            return True
        return (self.num * other.den - other.num * self.den).is_zero()

    def __eq__(self, other):
        if isinstance(other, RationalFunctionT):
            return self.q == other.q and self.equals(other)
        try:
            return self.equals(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        # a constant equals (and so must hash like) the scalar it holds;
        # the canonical form gives a constant the denominator 1
        if len(self.den.coeffs) == 1 and self.num.coeffs.keys() <= {0}:
            return hash(self.num.coeffs.get(0, 0))
        return hash((self.q, self.num, self.den))

    def twisted(self, factor, w: int) -> "RationalFunctionT":
        """The image under T^(w k) -> factor(k) T^(w k), for a function of T^w.

        With factor(0) = 1 and factor(j + k) = factor(j) factor(k) this is a ring
        automorphism that fixes every T^0 coefficient: it keeps num and den coprime
        and the denominator's trailing 1, so the result is canonical as built,
        with no gcd and no normalization.
        """
        def twist(poly):
            out = LaurentPoly()
            out.coeffs = {e: c * factor(e // w) if e else c for e, c in poly.coeffs.items()}
            return out

        out = object.__new__(RationalFunctionT)
        out.num, out.den, out.q = twist(self.num), twist(self.den), self.q
        return out

    def is_monomial(self) -> bool:
        return len(self.num.coeffs) == 1 and len(self.den.coeffs) == 1

    def serialize(self):
        def ser(poly):
            return {str(e): repr(c) for e, c in sorted(poly.coeffs.items())}
        return {"num": ser(self.num), "den": ser(self.den), "base_q": self.q}

    def __repr__(self):
        return "(%r) / (%r)  [q=%d]" % (self.num, self.den, self.q)


def ratfun_equal(r1: RationalFunctionT, r2: RationalFunctionT) -> bool:
    if r1.q != r2.q:
        raise ValueError("mixed base q")
    return r1.equals(r2)
