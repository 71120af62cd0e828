"""Schwartz-Bruhat functions on M_n(Q_p): modulated coset indicators.

A term represents x -> coeff * psi(tr(b x)) * 1[x in a + p^k M_n(Z_p)].
The class is closed under the matrix Fourier transform
Phi^(x) = int Phi(y) psi(tr(xy)) dy, which maps a term to a single term:
translations become modulations and vice versa, and a level-k indicator
picks up the factor q^(-k n^2).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .padic import PAdicContext, PAdicMatrix, psi_value, trace_pairing
from .scalars import (CyclotomicNumber, as_scalar, root_of_unity_sum, scalar_conjugate,
                      scalar_is_zero)


class SchwartzTerm:
    __slots__ = ("coeff", "center", "level", "modulation")

    def __init__(self, coeff, center: PAdicMatrix, level: int, modulation: PAdicMatrix):
        self.coeff = coeff
        self.center = center
        self.level = level
        self.modulation = modulation

    @property
    def n(self) -> int:
        return self.center.n

    def __repr__(self):
        return "Term(%r, center=%r, level=%d, mod=%r)" % (
            self.coeff, self.center, self.level, self.modulation)


class SchwartzBruhatFn:
    """Finite combination of modulated coset indicators on M_n(Q_p)."""

    def __init__(self, n: int, ctx: PAdicContext, terms=()):
        self.n = n
        self.ctx = ctx
        self.terms = [t for t in terms if not scalar_is_zero(t.coeff)]

    # -- constructors --------------------------------------------------

    @staticmethod
    def indicator(n: int, ctx: PAdicContext, center=None, level: int = 0,
                  modulation=None, coeff=1) -> "SchwartzBruhatFn":
        center = center if center is not None else PAdicMatrix.zero(n)
        modulation = modulation if modulation is not None else PAdicMatrix.zero(n)
        return SchwartzBruhatFn(n, ctx, [SchwartzTerm(as_scalar(coeff, ctx.p),
                                                      center, level, modulation)])

    @staticmethod
    def unit_ball(n: int, ctx: PAdicContext) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn.indicator(n, ctx)

    @staticmethod
    def scaled_ball(n: int, ctx: PAdicContext, k: int) -> "SchwartzBruhatFn":
        """Indicator of p^k M_n(Z_p)."""
        return SchwartzBruhatFn.indicator(n, ctx, level=k)

    @staticmethod
    def shifted_ball(n: int, ctx: PAdicContext, a, k: int) -> "SchwartzBruhatFn":
        """Indicator of a*Id + p^k M_n(Z_p)."""
        return SchwartzBruhatFn.indicator(n, ctx, center=PAdicMatrix.scalar(n, a), level=k)

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "SchwartzBruhatFn") -> "SchwartzBruhatFn":
        if self.n != other.n or self.ctx.p != other.ctx.p:
            raise ValueError("mixed sizes or contexts")
        return SchwartzBruhatFn(self.n, self.ctx, self.terms + other.terms)

    def scale(self, c) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn(self.n, self.ctx,
                                [SchwartzTerm(t.coeff * c, t.center, t.level, t.modulation)
                                 for t in self.terms])

    def __sub__(self, other: "SchwartzBruhatFn") -> "SchwartzBruhatFn":
        return self + other.scale(-1)

    # -- pointwise -----------------------------------------------------

    def evaluate(self, x: PAdicMatrix):
        p = self.ctx.p
        total = as_scalar(0, p)
        for t in self.terms:
            if x.in_coset(t.center, t.level, p):
                total = total + t.coeff * psi_value(trace_pairing(t.modulation, x), self.ctx)
        return total

    # -- structure queries ---------------------------------------------

    def support_min_valuation(self):
        """m with support contained in p^(-m) M_n(Z_p) (entries have v >= -m)."""
        m = 0
        for t in self.terms:
            mv = min(t.center.min_valuation(self.ctx.p), t.level)
            m = max(m, -int(mv) if mv != float("inf") else -t.level)
        return m

    def det_valuation_bound(self):
        """Lower bound for v(det x) on the support: -n * support_min_valuation."""
        return -self.n * self.support_min_valuation()

    # -- operators -----------------------------------------------------

    def fourier(self) -> "SchwartzBruhatFn":
        """Exact term-by-term transform; fourier(fourier(f)) = reflect(f)."""
        p = self.ctx.p
        n2 = self.n * self.n
        out = []
        for t in self.terms:
            vol = Fraction(p) ** (-t.level * n2)
            phase = psi_value(trace_pairing(t.modulation, t.center), self.ctx)
            out.append(SchwartzTerm(t.coeff * phase * vol,
                                    -t.modulation, -t.level, t.center))
        return SchwartzBruhatFn(self.n, self.ctx, out)

    def reflect(self) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn(self.n, self.ctx,
                                [SchwartzTerm(t.coeff, -t.center, t.level, -t.modulation)
                                 for t in self.terms])

    def inner_product(self, other: "SchwartzBruhatFn"):
        """Exact <f, g> = int f(x) conj(g(x)) dx by pairwise closed forms."""
        if self.n != other.n or self.ctx.p != other.ctx.p:
            raise ValueError("mixed sizes or contexts")
        p = self.ctx.p
        n2 = self.n * self.n
        total = as_scalar(0, p)
        other_terms = [(t, scalar_conjugate(t.coeff)) for t in other.terms]
        for s in self.terms:
            for t, t_coeff_bar in other_terms:
                # coset intersection
                if s.level >= t.level:
                    inner, outer = s, t
                else:
                    inner, outer = t, s
                if not inner.center.in_coset(outer.center, outer.level, p):
                    continue
                a, k = inner.center, inner.level
                b = s.modulation - t.modulation
                # int_{a + p^k M} psi(tr(b x)) dx vanishes unless p^k b is integral
                if b.min_valuation(p) + k < 0:
                    continue
                val = s.coeff * t_coeff_bar \
                    * psi_value(trace_pairing(b, a), self.ctx) * Fraction(p) ** (-k * n2)
                total = total + val
        return total

    def norm_sq(self):
        return self.inner_product(self)

    def is_zero_fn(self) -> bool:
        """Exact function equality with 0 via positivity of the L^2 norm."""
        return scalar_is_zero(self.norm_sq())

    def fn_equal(self, other: "SchwartzBruhatFn") -> bool:
        return (self - other).is_zero_fn()

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        def frac(x):
            return str(Fraction(x))

        def mat(m):
            return [[frac(e) for e in row] for row in m.entries]

        terms = []
        for t in self.terms:
            c = t.coeff
            if not isinstance(c, CyclotomicNumber):
                c = as_scalar(c, self.ctx.p)
            terms.append({
                "coeff": {"level": c.m, "coeffs": [frac(x) for x in c.coeffs]},
                "center": mat(t.center),
                "level": t.level,
                "modulation": mat(t.modulation),
            })
        return json.dumps({"n": self.n, "p": self.ctx.p, "terms": terms})

    @staticmethod
    def from_json(doc: str) -> "SchwartzBruhatFn":
        data = json.loads(doc) if isinstance(doc, str) else doc
        n = int(data["n"])
        ctx = PAdicContext(int(data["p"]))
        terms = []
        for t in data["terms"]:
            c = root_of_unity_sum(ctx.p, int(t["coeff"]["level"]),
                                  [Fraction(x) for x in t["coeff"]["coeffs"]])
            center = PAdicMatrix([[Fraction(e) for e in row] for row in t["center"]])
            modulation = PAdicMatrix([[Fraction(e) for e in row] for row in t["modulation"]])
            terms.append(SchwartzTerm(c, center, int(t["level"]), modulation))
        return SchwartzBruhatFn(n, ctx, terms)

    def __repr__(self):
        return "SchwartzBruhatFn(n=%d, p=%d, %d terms)" % (self.n, self.ctx.p, len(self.terms))
