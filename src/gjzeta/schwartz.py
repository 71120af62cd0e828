"""Schwartz-Bruhat functions on M_n(Q_p): modulated coset indicators.

A term represents x -> coeff * psi(tr(b x)) * 1[x in a + p^k M_n(Z_p)], with
coeff a CyclotomicNumber.  The class is closed under the matrix Fourier
transform Phi^(x) = int Phi(y) psi(tr(xy)) dy, which maps a term to a single
term: translations become modulations and vice versa, and a level-k indicator
picks up the factor q^(-k n^2).  A psi value zeta_{p^m}^a is kept as its
integer exponent (m, a) and applied by shifting exponents (m = 0 costs
nothing); an inner product adds every term pair into one exponent vector and
reduces it once.  The pairing tr(b a) and the coset and integrality tests run
on integers.  A matrix keeps its negation, so F(F(f)) and reflect(f) share
their centres and modulations and fn_equal merges them by identity.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .padic import PAdicContext, PAdicMatrix, psi_exponent, trace_pairing
from .scalars import as_scalar, root_of_unity_sum, scalar_conjugate, scalar_is_zero


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

    def _check_space(self, other: "SchwartzBruhatFn"):
        if self.n != other.n or self.ctx.p != other.ctx.p:
            raise ValueError("mixed sizes or contexts")

    def __add__(self, other: "SchwartzBruhatFn") -> "SchwartzBruhatFn":
        self._check_space(other)
        return SchwartzBruhatFn(self.n, self.ctx, self.terms + other.terms)

    def scale(self, c) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn(self.n, self.ctx,
                                [SchwartzTerm(t.coeff * c, t.center, t.level, t.modulation)
                                 for t in self.terms])

    def __sub__(self, other: "SchwartzBruhatFn") -> "SchwartzBruhatFn":
        return self + other.scale(-1)

    # -- structure queries ---------------------------------------------

    def det_valuation_bound(self):
        """Lower bound -n m for v(det x) on the support, which lies in
        p^(-m) M_n(Z_p) (every entry has v >= -m)."""
        p = self.ctx.p
        return -self.n * max([0] + [-min(t.center.min_valuation(p), t.level)
                                    for t in self.terms])

    # -- operators -----------------------------------------------------

    def fourier(self) -> "SchwartzBruhatFn":
        """Exact term-by-term transform; fourier(fourier(f)) = reflect(f)."""
        p = self.ctx.p
        n2 = self.n * self.n
        out = []
        for t in self.terms:
            vol = Fraction(p) ** (-t.level * n2)
            phase = psi_exponent(trace_pairing(t.modulation, t.center), self.ctx)
            out.append(SchwartzTerm((t.coeff * vol).times_root(*phase),
                                    -t.modulation, -t.level, t.center))
        return SchwartzBruhatFn(self.n, self.ctx, out)

    def reflect(self) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn(self.n, self.ctx,
                                [SchwartzTerm(t.coeff, -t.center, t.level, -t.modulation)
                                 for t in self.terms])

    def inner_product(self, other: "SchwartzBruhatFn"):
        """Exact <f, g> = int f(x) conj(g(x)) dx by pairwise closed forms.

        A surviving pair adds s.coeff * conj(t.coeff) * p^(-k n^2) * zeta_{p^m}^a;
        every pair goes into one exponent vector at the highest level seen,
        which is reduced once."""
        self._check_space(other)
        p = self.ctx.p
        n2 = self.n * self.n
        other_terms = [(t, scalar_conjugate(t.coeff)) for t in other.terms]
        pairs = []
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
                if not b.in_level(-k, p):
                    continue
                pairs.append((s.coeff, t_coeff_bar, Fraction(p) ** (-k * n2),
                              *psi_exponent(trace_pairing(b, a), self.ctx)))
        top = max([0] + [max(x.m, y.m, m) for x, y, _, m, _ in pairs])
        order = p ** top
        vec = [Fraction(0)] * order
        for x, y, vol, m, a in pairs:
            sx, sy, shift = p ** (top - x.m), p ** (top - y.m), a * p ** (top - m)
            ys = [(j * sy, c) for j, c in enumerate(y.coeffs) if c]
            for i, c in enumerate(x.coeffs):
                if c:
                    c *= vol
                    e = i * sx + shift
                    for f, d in ys:
                        vec[(e + f) % order] += c * d
        return root_of_unity_sum(p, top, vec)

    def fn_equal(self, other: "SchwartzBruhatFn") -> bool:
        """Exact function equality via positivity of the L^2 norm of the difference.

        Terms of self - other sharing (center, level, modulation) are multiples
        of one function, so merging them keeps the function; if all cancel it is
        0.  For f^^ against reflect(f) they do: psi(tr(ba)) psi(-tr(ab)) = 1.
        """
        self._check_space(other)
        merged = {}
        for t, c in [(t, t.coeff) for t in self.terms] + [(t, -t.coeff) for t in other.terms]:
            key = (t.center, t.level, t.modulation)
            merged[key] = merged[key] + c if key in merged else c
        diff = SchwartzBruhatFn(self.n, self.ctx, [SchwartzTerm(c, *key)
                                                   for key, c in merged.items()])
        return not diff.terms or scalar_is_zero(diff.inner_product(diff))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        def frac(x):
            return str(Fraction(x))

        def mat(m):
            return [[frac(e) for e in row] for row in m.entries]

        terms = []
        for t in self.terms:
            terms.append({
                "coeff": {"level": t.coeff.m, "coeffs": [frac(x) for x in t.coeff.coeffs]},
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
