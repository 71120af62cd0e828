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
bases' stored integer numerators, over one common denominator, into one exponent
vector, reduced once.  Coset and integrality tests and tr(b a) run on
the matrices' integer numerators and denominators, so no entry is a Fraction.
A matrix keeps its negation, so F(F(f)) and reflect(f) share bases, centres,
modulations, scales and phases, and fn_equal finds them equal term by term,
with no scalar arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import attrgetter

from .padic import PAdicContext, PAdicMatrix, _phase_add, psi_parts, trace_parts
from .scalars import (CyclotomicNumber, _fold, _make, as_scalar, root_of_unity_sum,
                      scalar_conjugate, scalar_is_zero)


# a root zeta_{p^m} or a Phi file's level-m coefficient is built as a length-p^m
# vector, and a character mod p^c lists its p^c residues; a larger p^m or p^c is refused
MAX_ROOT_ORDER = 2 ** 12


def json_exact(x, kind=int):
    """kind(x), int or Fraction, of a JSON integer or string; a float or bool is refused."""
    if isinstance(x, (bool, float)):
        raise TypeError("expected an exact %s, got %r" % (kind.__name__, x))
    return kind(x)


def _in_field(c, p: int):
    """c as a number of p's own tower: a rational (an int, a Fraction or a
    level-0 number of any prime) takes p, so a psi phase applied to it is a
    power of zeta_{p^m}; a number of another prime at level >= 1 is an error."""
    if isinstance(c, CyclotomicNumber):
        if c.p == p:
            return c
        if c.m:
            raise ValueError("coefficient %r does not lie in the tower of p = %d" % (c, p))
        return CyclotomicNumber._of(p, 0, c.nums, c.den)
    return as_scalar(c, p)


def _slot_sum(p: int, top: int, vec: list, den: int):
    """sum_e vec[e] / den * zeta_{p^top}^e in canonical form."""
    return _make(p, top, _fold(p, top, vec), den)


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
            if t.center.n != n or t.modulation.n != n:
                raise ValueError("a term's centre and modulation must be %d x %d" % (n, n))
            c = _in_field(t.base, ctx.p)
            if not c.is_zero():
                self.terms.append(t if c is t.base else SchwartzTerm(
                    c, t.center, t.level, t.modulation, t.scale, t.phase))

    @classmethod
    def _trusted(cls, n: int, ctx: PAdicContext, terms: list) -> "SchwartzBruhatFn":
        """A function whose terms already have nonzero bases in ctx's field, as a
        transform's and a reflection's do: no term is checked again."""
        fn = cls.__new__(cls)
        fn.n, fn.ctx, fn.terms = n, ctx, terms
        return fn

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
        """n min over the terms of min(v(C), L), 0 for no term: every entry of
        C + p^L M_n(Z_p) has v >= min(v(C), L), so v(det x) >= n times it."""
        p = self.ctx.p
        return self.n * min([min(t.center.min_valuation(p), t.level) for t in self.terms],
                            default=0)

    # -- operators -----------------------------------------------------

    def fourier(self) -> "SchwartzBruhatFn":
        """Exact term-by-term transform; fourier(fourier(f)) = reflect(f)."""
        p = self.ctx.p
        n2 = self.n * self.n
        return SchwartzBruhatFn._trusted(self.n, self.ctx, [SchwartzTerm(
            t.base, -t.modulation, -t.level, t.center, t.scale - t.level * n2,
            _phase_add(p, t.phase, psi_parts(*trace_parts(t.modulation, t.center), p)))
            for t in self.terms])

    def reflect(self) -> "SchwartzBruhatFn":
        return SchwartzBruhatFn._trusted(self.n, self.ctx,
                                         [SchwartzTerm(t.base, -t.center, t.level,
                                                       -t.modulation, t.scale, t.phase)
                                          for t in self.terms])

    def inner_product(self, other: "SchwartzBruhatFn"):
        """Exact <f, g> = int f(x) conj(g(x)) dx by pairwise closed forms.

        A surviving pair adds s.base * conj(t.base) * p^(s.scale + t.scale - k n^2)
        * zeta_{p^m}^a, with the phase s.phase - t.phase folded into psi's.  Each
        base is read as its stored integer numerators over its one denominator,
        and every pair goes into one integer exponent vector, over the pairs'
        common denominator, at the highest level seen, reduced once."""
        self._check_space(other)
        p = self.ctx.p
        n2 = self.n * self.n
        other_terms = [(t, scalar_conjugate(t.base), (t.phase[0], -t.phase[1]))
                       for t in other.terms]
        pairs = []
        for s in self.terms:
            x = s.base
            for t, y, t_phase_bar in other_terms:
                # coset intersection
                inner, outer = (s, t) if s.level >= t.level else (t, s)
                if not inner.center.in_coset(outer.center, outer.level, p):
                    continue
                a, k = inner.center, inner.level
                # int_{a + p^k M} psi(tr(b x)) dx, b = s.mod - t.mod, vanishes
                # unless p^k b is integral
                if not s.modulation.in_coset(t.modulation, -k, p):
                    continue
                u, du = trace_parts(s.modulation, a)
                v, dv = trace_parts(t.modulation, a)
                phase = _phase_add(p, _phase_add(p, s.phase, t_phase_bar),
                                   psi_parts(u * dv - v * du, du * dv, p))
                e = s.scale + t.scale - k * n2  # the volume p^e
                pairs.append((x, y, p ** max(e, 0), x.den * y.den * p ** max(-e, 0), *phase))
        top = max([0] + [max(x.m, y.m, m) for x, y, _, _, m, _ in pairs])
        den = lcm(*[d for _, _, _, d, _, _ in pairs])
        order = p ** top
        vec = [0] * order
        for x, y, vol, d, m, a in pairs:
            vol *= den // d
            shift, xstep, ystep = a * p ** (top - m), p ** (top - x.m), p ** (top - y.m)
            ys = [(j * ystep, b) for j, b in enumerate(y.nums) if b]
            for i, c in enumerate(x.nums):
                if c:
                    i, c = i * xstep + shift, c * vol
                    for j, b in ys:
                        vec[(i + j) % order] += c * b
        return _slot_sum(p, top, vec, den)

    def fn_equal(self, other: "SchwartzBruhatFn") -> bool:
        """Exact function equality via positivity of the L^2 norm of the difference.

        Two term lists that agree term by term (equal bases, centres and
        modulations, the same level, scale and phase) sum the same functions,
        so they are equal with no arithmetic; f^^ against reflect(f) always
        agrees so: the scales sum to 0 and psi(tr(ba)) psi(-tr(ab)) = 1.
        Otherwise terms of self - other sharing (center, level, modulation,
        scale, phase) are multiples of one function, so merging their bases
        keeps it; if all cancel it is 0.  Unmerged terms are left to the norm.
        """
        self._check_space(other)
        parts = attrgetter("base", "center", "level", "modulation", "scale", "phase")
        if list(map(parts, self.terms)) == list(map(parts, other.terms)):
            return True
        merged = {}
        for t, c in [(t, t.base) for t in self.terms] + [(t, -t.base) for t in other.terms]:
            key = (t.center, t.level, t.modulation, t.scale, t.phase)
            merged[key] = merged[key] + c if key in merged else c
        diff = SchwartzBruhatFn(self.n, self.ctx, [SchwartzTerm(c, *key)
                                                   for key, c in merged.items()])
        return not diff.terms or scalar_is_zero(diff.inner_product(diff))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        def mat(m):
            return [[str(e) for e in row] for row in m.entries]

        terms = [{"coeff": {"level": c.m, "coeffs": [str(Fraction(x)) for x in c.coeffs]},
                  "center": mat(t.center), "level": t.level, "modulation": mat(t.modulation)}
                 for t, c in ((t, t.coeff) for t in self.terms)]
        return json.dumps({"n": self.n, "p": self.ctx.p, "terms": terms})

    @staticmethod
    def from_json(doc: str) -> "SchwartzBruhatFn":
        data = json.loads(doc) if isinstance(doc, str) else doc
        n = json_exact(data["n"])
        ctx = PAdicContext(json_exact(data["p"]))
        terms = []
        for t in data["terms"]:
            m = json_exact(t["coeff"]["level"])
            if ctx.p ** min(m, 13) > MAX_ROOT_ORDER:  # refused before any vector is built
                raise ValueError("root order %d^%d exceeds %d" % (ctx.p, m, MAX_ROOT_ORDER))
            c = root_of_unity_sum(ctx.p, m, [json_exact(x, Fraction)
                                             for x in t["coeff"]["coeffs"]])
            center, modulation = (PAdicMatrix([[json_exact(e, Fraction) for e in row]
                                               for row in t[key]])
                                  for key in ("center", "modulation"))
            terms.append(SchwartzTerm(c, center, json_exact(t["level"]), modulation))
        return SchwartzBruhatFn(n, ctx, terms)

    def __repr__(self):
        return "SchwartzBruhatFn(n=%d, p=%d, %d terms)" % (self.n, self.ctx.p, len(self.terms))
