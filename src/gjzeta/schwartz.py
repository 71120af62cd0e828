"""Schwartz-Bruhat functions on M_n(Q_p): modulated coset indicators.

A term represents x -> base * p^scale * zeta^phase * psi(tr(b x)) *
1[x in a + p^k M_n(Z_p)]: base is a CyclotomicNumber of the function's own
prime (a rational takes p when the function is built), scale an integer and
phase = (m, a), zeta_{p^m}^a in psi_exponent's form.  The matrix Fourier
transform Phi^(x) = int Phi(y) psi(tr(xy)) dy maps a term to one term:
translations become modulations and vice versa, and a level-k indicator picks
up p^(-k n^2).  Both factors are monomials, so a transform only adds to scale
and phase; coeff builds the full value when read.  An inner product folds the
scales and phases into each pair's p-power and psi exponent and scatters the
bases of every pair into one exponent vector, reduced once.  Coset and
integrality tests and tr(b a) run on integers.  A matrix keeps its negation, so
F(F(f)) and reflect(f) share centres, modulations, scales and phases, and
fn_equal merges them by identity.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .padic import PAdicContext, PAdicMatrix, _phase_add, psi_exponent, trace_pairing
from .scalars import (CyclotomicNumber, as_scalar, root_of_unity_sum, scalar_conjugate,
                      scalar_is_zero)


def json_int(x) -> int:
    """int(x) for a JSON integer or integer string; a float or bool is refused, not truncated."""
    if isinstance(x, (bool, float)):
        raise TypeError("expected an integer, got %r" % (x,))
    return int(x)


def _in_field(c, p: int):
    """c as a number of p's own tower: a rational (an int, a Fraction or a
    level-0 number of any prime) takes p, so a psi phase applied to it is a
    power of zeta_{p^m}; a number of another prime at level >= 1 is an error."""
    if isinstance(c, CyclotomicNumber):
        if c.p == p:
            return c
        if c.m:
            raise ValueError("coefficient %r does not lie in the tower of p = %d" % (c, p))
        c = c.coeffs[0]
    return as_scalar(c, p)


class SchwartzTerm:
    """x -> base * p^scale * zeta_{p^m}^a * psi(tr(modulation x)) *
    1[x in center + p^level M_n(Z_p)], with phase = (m, a)."""
    __slots__ = ("base", "center", "level", "modulation", "scale", "phase")

    def __init__(self, base, center: PAdicMatrix, level: int, modulation: PAdicMatrix,
                 scale: int = 0, phase: tuple = (0, 0)):
        self.base = base
        self.center = center
        self.level = level
        self.modulation = modulation
        self.scale = scale
        self.phase = phase

    @property
    def coeff(self):
        """The full coefficient base * p^scale * zeta_{p^m}^a, built on each read."""
        c = self.base * Fraction(self.base.p) ** self.scale if self.scale else self.base
        return c.times_root(*self.phase) if self.phase[0] else c

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
        self.terms = []
        for t in terms:
            c = _in_field(t.base, ctx.p)
            if not c.is_zero():
                self.terms.append(t if c is t.base else SchwartzTerm(
                    c, t.center, t.level, t.modulation, t.scale, t.phase))

    # -- constructors --------------------------------------------------

    @staticmethod
    def indicator(n: int, ctx: PAdicContext, center=None, level: int = 0,
                  modulation=None, coeff=1) -> "SchwartzBruhatFn":
        center = center if center is not None else PAdicMatrix.zero(n)
        modulation = modulation if modulation is not None else PAdicMatrix.zero(n)
        return SchwartzBruhatFn(n, ctx, [SchwartzTerm(coeff, center, level, modulation)])

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
                                [SchwartzTerm(t.base * c, t.center, t.level, t.modulation,
                                              t.scale, t.phase) for t in self.terms])

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
        return SchwartzBruhatFn(self.n, self.ctx, [SchwartzTerm(
            t.base, -t.modulation, -t.level, t.center, t.scale - t.level * n2,
            _phase_add(p, t.phase, psi_exponent(trace_pairing(t.modulation, t.center),
                                                self.ctx)))
            for t in self.terms])

    def reflect(self) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn(self.n, self.ctx,
                                [SchwartzTerm(t.base, -t.center, t.level, -t.modulation,
                                              t.scale, t.phase) for t in self.terms])

    def inner_product(self, other: "SchwartzBruhatFn"):
        """Exact <f, g> = int f(x) conj(g(x)) dx by pairwise closed forms.

        A surviving pair adds s.base * conj(t.base) * p^(s.scale + t.scale - k n^2)
        * zeta_{p^m}^a, with the phase s.phase - t.phase folded into psi's;
        every pair goes into one exponent vector at the highest level seen,
        which is reduced once."""
        self._check_space(other)
        p = self.ctx.p
        n2 = self.n * self.n
        other_terms = [(t, scalar_conjugate(t.base), (t.phase[0], -t.phase[1]))
                       for t in other.terms]
        pairs = []
        for s in self.terms:
            for t, t_base_bar, t_phase_bar in other_terms:
                # coset intersection
                if s.level >= t.level:
                    inner, outer = s, t
                else:
                    inner, outer = t, s
                if not inner.center.in_coset(outer.center, outer.level, p):
                    continue
                a, k = inner.center, inner.level
                # int_{a + p^k M} psi(tr(b x)) dx, b = s.mod - t.mod, vanishes
                # unless p^k b is integral
                if not s.modulation.in_coset(t.modulation, -k, p):
                    continue
                tr = trace_pairing(s.modulation, a) - trace_pairing(t.modulation, a)
                phase = _phase_add(p, _phase_add(p, s.phase, t_phase_bar),
                                   psi_exponent(tr, self.ctx))
                pairs.append((s.base, t_base_bar,
                              Fraction(p) ** (s.scale + t.scale - k * n2), *phase))
        top = max([0] + [max(x.m, y.m, m) for x, y, _, m, _ in pairs])
        order = p ** top
        vec = [Fraction(0)] * order
        for x, y, vol, m, a in pairs:
            shift = a * p ** (top - m)
            ys = y._terms(top)
            for i, c in x._terms(top):
                c *= vol
                for j, d in ys:
                    vec[(i + j + shift) % order] += c * d
        return root_of_unity_sum(p, top, vec)

    def fn_equal(self, other: "SchwartzBruhatFn") -> bool:
        """Exact function equality via positivity of the L^2 norm of the difference.

        Terms of self - other sharing (center, level, modulation, scale, phase)
        are multiples of one function, so merging their bases keeps it; if all
        cancel it is 0.  For f^^ against reflect(f) they do: the scales sum to 0
        and psi(tr(ba)) psi(-tr(ab)) = 1.  Unmerged terms are left to the norm.
        """
        self._check_space(other)
        merged = {}
        for t, c in [(t, t.base) for t in self.terms] + [(t, -t.base) for t in other.terms]:
            key = (t.center, t.level, t.modulation, t.scale, t.phase)
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
        n = json_int(data["n"])
        ctx = PAdicContext(json_int(data["p"]))
        terms = []
        for t in data["terms"]:
            c = root_of_unity_sum(ctx.p, json_int(t["coeff"]["level"]),
                                  [Fraction(x) for x in t["coeff"]["coeffs"]])
            center = PAdicMatrix([[Fraction(e) for e in row] for row in t["center"]])
            modulation = PAdicMatrix([[Fraction(e) for e in row] for row in t["modulation"]])
            terms.append(SchwartzTerm(c, center, json_int(t["level"]), modulation))
        return SchwartzBruhatFn(n, ctx, terms)

    def __repr__(self):
        return "SchwartzBruhatFn(n=%d, p=%d, %d terms)" % (self.n, self.ctx.p, len(self.terms))
