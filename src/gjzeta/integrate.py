"""Exact integration over multiplicative shells of GL_n(Q_p).

The measure is d^x g = |det g|^(-n) dg with the additive dg normalized by
vol(M_n(Z_p)) = 1; shell k is {v(det g) = k}.  Every integrand handled here
has the shape psi(tr(B g)) * chi(unit part of det g) restricted to a coset
of p^L M_n(Z_p), which covers Schwartz-Bruhat terms and the truncated
distribution kernels alike.

Two evaluation paths, the same for every n:
  * zero-centered coset with scalar modulation: closed forms in Gauss sums,
    which visit and count no cell;
  * every other coset, and every coset under force_enumeration: recursive
    residue-cell refinement with an exact resolution rule, bounded by a hard
    cell budget.
The refinement adds the sign of chi(u) = sign * zeta_{p^c}^a into one integer
histogram per level at the phase e p^(T-m) + a p^(T-c) of psi * chi,
T = max(m, c), reduced by one root_of_unity_sum.  It counts every cell, bins
the children of a last split from a census of their residues, and is the
independent check of the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import add, mul

from .errors import BudgetExceeded
from .padic import (INFINITE, PAdicContext, PAdicMatrix, flat_det, mod_int,
                    valuation)
from .ratfun import LaurentPoly, RationalFunctionT
from .recurrence import detect_recurrence
from .scalars import as_scalar, root_of_unity_sum

# a shell series takes K_EXTRA shells beyond the 2 r_max + confirm that rationalize reads
K_EXTRA = 2


class IntegrationConfig:
    """Certification and budget knobs; a kernel shell's truncation is proven, not set.

    r_max/confirm: recurrence order bound and confirmation window for
    rationalization (r_max defaults to n at the call site).
    hard_budget: max refinement cells counted per integral, the census-binned children
    of last splits included, though those are never built.
    force_enumeration: send every shell, at every n, to the refinement, the
    independent check of the closed forms.
    """
    # a constant; read by perfbench/tracer.py (_count_truncations) and tests/test_truncation.py
    m_start = 0

    def __init__(self, *, r_max=0, confirm=3, hard_budget=10 ** 7, force_enumeration=False):
        self.r_max, self.confirm = r_max, confirm
        self.hard_budget, self.force_enumeration = hard_budget, force_enumeration


# name and signature kept because perfbench/tracer.py wraps it
def parallel_map(fn, items, threads: int = 1):
    """Order-preserving serial map; `threads` is ignored."""
    return [fn(x) for x in items]


def term_shell_integral(ctx: PAdicContext, k: int, center: PAdicMatrix,
                        level: int, modulation: PAdicMatrix,
                        config: IntegrationConfig, unit_char=None, stats=None):
    """int over {v(det g) = k} cap (center + p^level M) of
    psi(tr(modulation g)) chi(det g / p^k) d^x g."""
    c = modulation.entries[0][0]
    if (not config.force_enumeration
            and all(e == (c if i == j else 0)
                    for i, row in enumerate(modulation.entries) for j, e in enumerate(row))
            and center.min_valuation(ctx.p) >= level):
        return _shell_hermite(ctx, center.n, k, level, c, unit_char)
    return _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats)


# name kept because perfbench/tracer.py wraps it to count cells per path
def _bump(stats, key, amount=1):
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


# -- closed forms: zero-centered cosets with scalar modulation -----------

# name kept because perfbench/tracer.py wraps it
def _shell_n1(p, b, unit_char):
    """g = int_{Z_p^x} chi(x) psi(b x) dx for f >= 1 and a psi level -v(b) <= f: the
    units r mod p^f, each adding its chi sign at its phase of psi * chi, over p^f."""
    M = p ** unit_char.conductor_exp
    w = mod_int(b * M, M)  # psi(b r) = zeta_{p^f}^(w r)
    hist = [0] * M
    for r, (s, e) in unit_char.phases.items():
        hist[(w * r + e) % M] += s
    return root_of_unity_sum(p, unit_char.conductor_exp, hist) * Fraction(1, M)


# wrapped by perfbench/tracer.py (kernels.gl2_histogram), never called; ROADMAP item 1 deletes it
def gl2_histogram(*args):
    raise NotImplementedError("the engine has no count kernel")


# perfbench/tracer.py reads its cache_info() (always 0/0); ROADMAP item 1 deletes it
_gl2_hist_cached = lru_cache(maxsize=1)(gl2_histogram)


def _shell_hermite(ctx, n, k, level, c, unit_char):
    """Zero-centered coset p^level M_n, modulation c * Id, any n, in closed form.

    g = p^level H leaves v(det H) = k' = k - n*level and psi(cH tr H), with
    cH = c p^level = w / p^mc (w a unit).  Write H = kappa b, kappa in GL_n(Z_p),
    b upper triangular with diagonal t_j = p^(a_j) u_j: d^x H = d kappa d_r b /
    (1 - 1/p)^n, d_r b = prod_{i<j} db_ij prod_j p^((j-1) a_j) d^x t_j.  Each
    b_ij (i < j) runs over Z_p in psi(cH kappa_ji b_ij), whose integral is 1 if
    kappa_ji = 0 mod p^mc and 0 otherwise: only kappa in B_0(p^mc) survive.  There
    (kappa_11, ..., kappa_nn, det) mod (p^mc, ..., p^mc, p^f) is a homomorphism
    with the image of (x_1, ..., x_n, x_1...x_n) on units, so the u_j-integrals split:
      shell = vol * sum_{a_1+...+a_n=k'} p^(sum_j (j-1) a_j) prod_j gamma(min(a_j, mc)),
    vol = vol(B_0(p^mc)) = (1 - 1/p)^n p^(-mc n(n-1)/2) (prod_{i<=n} (1 - p^-i) at mc = 0),
    gamma(t) = int_{Z_p^x} chi(x) psi(cH p^t x) dx / (1 - 1/p).  Its psi level is
    l = mc - t, and gamma = 0 for l > max(1, f), f = conductor_exp (x = x0 +
    p^(l-1) y: chi(x) sees x0 alone, sum_y zeta_p^(w y) = 0), and for l < f (x -> x u,
    u = 1 mod p^l with chi(u) != 1).
      * f = 0, mc = 0: gamma = 1, and the sum is the Gaussian binomial
        [k'+n-1 choose n-1]_p, so shell = (p^n - 1) p^(-n(n+1)/2) prod_{i<n} (p^(k'+i) - 1).
      * f = 0, mc >= 1: gamma(mc) = 1, gamma(mc - 1) = -1/(p - 1) (Ramanujan sums)
        and 0 below.  Factor j of the generating function in x^(a_j) is
        p^((j-1)(mc-1)) x^(mc-1) (p^j x - 1) / ((p - 1)(1 - p^(j-1) x)), and the
        product telescopes to (-1)^n (1 - p^n x) / (1 - x).  With K = k' - n(mc - 1),
        shell = (-1)^n p^(-n(n+1)/2) * (0 if K < 0, 1 if K = 0, 1 - p^n if K > 0).
      * f >= 1: only a_j = t0 = mc - f survives, so shell = 0 unless t0 >= 0 and
        k' = n t0, and then g^n p^(-f n(n-1)/2) with g = _shell_n1(p, cH p^t0, chi).
    """
    p = ctx.p
    f = unit_char.conductor_exp if unit_char else 0
    kp = k - n * level
    if kp < 0:
        return as_scalar(0, p)
    cH = Fraction(c) * Fraction(p) ** level
    mc = max(0, -valuation(cH, p))
    if f:
        if mc < f or kp != n * (mc - f):
            return as_scalar(0, p)
        return _shell_n1(p, cH * p ** (mc - f), unit_char) ** n * Fraction(
            1, p ** (f * n * (n - 1) // 2))
    if mc == 0:
        return as_scalar(Fraction((p ** n - 1) * prod(p ** (kp + i) - 1 for i in range(1, n)),
                                  p ** (n * (n + 1) // 2)), p)
    K = kp - n * (mc - 1)
    return as_scalar(Fraction((-1) ** n * (0 if K < 0 else 1 if K == 0 else 1 - p ** n),
                              p ** (n * (n + 1) // 2)), p)


_shell_n2_hermite = _shell_hermite  # name kept because perfbench/tracer.py wraps it


# -- generic recursive refinement ---------------------------------------

def _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats):
    """Residue-cell refinement on integer matrices after scaling to M_n(Z_p).

    A cell is (flat integer entries mod p^j, j).  Resolution: if
    v(det a) < j the det valuation is constant on the cell; it is resolved
    once j also certifies the psi phase and the det unit residue.  If
    v(det a) >= j every point has v(det) >= j, so the cell is dead once
    j > k'.  Otherwise split into p^(n^2) children at level j+1.  Resolved
    cells add their chi sign at (j, phase of psi * chi) and each level j is
    reduced once.

    Last splits are binned without visiting their children.  Let
    R = k' + max(1, cu) and let (a, j) split with j >= max(1, mpsi - 1, R - 1),
    so j >= k' and j + 1 >= max(mpsi, k' + cu).  A child c = a + p^j t then
    ends at level j + 1: if v(det c) = k' <= j it is resolved, since j + 1
    certifies psi and the unit residue; otherwise v(det c) != k' and it is
    dropped, or v(det c) >= j + 1 > k' and it is dead.  So its fate and bin
    are read from det c mod p^R and the psi exponent tr(C a) + p^j tr(C t).
    det is multilinear in the columns, so det c = det a + p^j tr(adj(a) t)
    mod p^(2j), and R <= j + 1 <= 2j: det c mod p^R depends on t, det a mod
    p^R and a mod p^(R-j) only.  The census of the p^(n^2) children, signed
    counts by phase offset (p^j tr(C t) plus the chi phase), is built once per key
    (j, det a mod p^R, a mod p^(R-j)) from one representative and added at
    a's own psi exponent.  The children are still counted as cells, and the
    budget trips exactly when the per-child loop would, at budget + 1.
    """
    p = ctx.p
    n = center.n
    n2 = n * n
    cu, phases = (unit_char.conductor_exp, unit_char.phases) if unit_char else (0, {0: (1, 0)})
    mv = center.min_valuation(p)
    m = max(0, -level, 0 if mv is INFINITE else -min(0, int(mv)))
    kp = k + n * m
    if kp < 0:
        return as_scalar(0, p)
    pm = Fraction(p) ** m
    Lp = level + m
    # integer representative of the scaled center mod p^Lp (denominators
    # prime to p are inverted modularly)
    A = tuple(mod_int(e * pm, p ** max(Lp, 0)) for row in center.entries for e in row)
    C = tuple(e / pm for row in modulation.entries for e in row)
    cv = min((valuation(c, p) for c in C if c != 0), default=INFINITE)
    mpsi = 0 if cv is INFINITE else max(0, -int(cv))
    P, T = p ** mpsi, max(mpsi, cu)
    PT, pcu = p ** T, p ** cu
    # psi(tr(C a)) = zeta_{p^T}^(sum(Cint * a)) for an integral flat cell a
    Cint = tuple(mod_int(C[l * n + i] * P, P) * p ** (T - mpsi)
                 for i in range(n) for l in range(n))
    chi = {u: (s, e * p ** (T - cu)) for u, (s, e) in phases.items()}  # at level T
    prefactor = Fraction(p) ** (n * k + m * n2)
    budget = config.hard_budget
    visited = 0
    hists = {}  # j -> signed cell count per phase of psi * chi at level T
    R = kp + max(1, cu)
    j_last = max(1, mpsi - 1, R - 1)
    pR, pk, children = p ** R, p ** kp, p ** n2
    census = {}  # (j, det a mod p^R, a mod p^(R-j)) -> (phase offset, signed count)s
    stack = [(A, max(Lp, 0))]
    while stack:
        a, j = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceeded("refinement exceeded %d cells" % budget,
                                 shell=k, truncation=m, cells=visited)
        det = flat_det(a, n)
        if det != 0:
            dv = 0
            d = det
            while d % p == 0:
                d //= p
                dv += 1
        else:
            dv = j  # only "v >= j" is known
        if det != 0 and dv < j:
            if dv != kp:
                continue
            if j >= mpsi and j >= dv + cu:
                if j not in hists:
                    hists[j] = [0] * PT
                s, e = chi[d % pcu]
                hists[j][(sum(map(mul, Cint, a)) + e) % PT] += s
                continue
        elif kp < j:
            continue
        if j < j_last:
            if visited + len(stack) + children > budget:  # each pushed cell is counted
                raise BudgetExceeded("refinement exceeded %d cells" % budget,
                                     shell=k, truncation=m, cells=budget + 1)
            stack.extend((tuple(map(add, a, off)), j + 1) for off in _offsets(n2, p, j))
            continue
        visited += children
        if visited > budget:
            raise BudgetExceeded("refinement exceeded %d cells" % budget,
                                 shell=k, truncation=m, cells=budget + 1)
        pa = p ** max(0, R - j)
        key = (j, det % pR, tuple(x % pa for x in a))
        bins = census.get(key)
        if bins is None:
            counts = {}
            for off in _offsets(n2, p, j):
                dc = flat_det(tuple(map(add, a, off)), n)
                if dc % pk == 0 and dc // pk % p:
                    s, e = chi[dc // pk % pcu]
                    b = (sum(map(mul, Cint, off)) + e) % PT
                    counts[b] = counts.get(b, 0) + s
            bins = census[key] = tuple(counts.items())
        if bins:
            if j + 1 not in hists:
                hists[j + 1] = [0] * PT
            hist = hists[j + 1]
            e0 = sum(map(mul, Cint, a))
            for e, c in bins:
                hist[(e0 + e) % PT] += c
    _bump(stats, "cells", visited)
    total = as_scalar(0, p)
    for j, hist in hists.items():
        total = total + root_of_unity_sum(p, T, hist) * Fraction(1, p ** (j * n2))
    return total * prefactor


@lru_cache(maxsize=32)
def _offsets(n2: int, p: int, j: int):
    """The p^n2 child offsets of a level-j cell: digit vectors times p^j."""
    pj = p ** j
    return tuple(tuple(pj * t for t in digits) for digits in product(range(p), repeat=n2))


# -- whole-function and stabilized integrals ----------------------------

def schwartz_shell_integral(phi, k: int, config: IntegrationConfig,
                            unit_char=None, stats=None):
    """int_{v(det g)=k} Phi(g) chi(det g / p^k) d^x g for a Schwartz-Bruhat Phi."""
    ctx = phi.ctx
    vals = parallel_map(
        lambda t: t.coeff * term_shell_integral(ctx, k, t.center, t.level,
                                                t.modulation, config, unit_char, stats),
        phi.terms)
    total = as_scalar(0, ctx.p)
    for v in vals:
        total = total + v
    return total


def stabilized_shell_integral(ctx: PAdicContext, n: int, k: int,
                              modulation: PAdicMatrix, config: IntegrationConfig,
                              unit_char=None, stats=None):
    """int_{v(det g)=k} psi(tr(eps g)) chi(det g / p^k) d^x g, modulation eps Id
    with eps a unit, as (value, m): one evaluation on p^(-m) M_n(Z_p) at the
    proven exact truncation point m = m*.

    n = 1: the shell p^k Z_p^x is compact and inside p^(-m) Z_p once m >= -k,
    so m* = max(0, -k).  n >= 2: _shell_hermite at level -m has mc = m, k' = k + n m
    and w = eps, and for m >= max(1, f) its closed forms are free of m: f = 0 reads
    K = k' - n(m - 1) = k + n only, and f >= 1 is nonzero only at k' = n(m - f), i.e.
    k = -n f, with a value free of m.  So m* = max(1, f, ceil(-k/n)), which also reaches
    the shell.  A truncated integral does not depend on its path: force_enumeration uses m*.
    No cap: the spectral window k >= -(n(f + 1) + 2) keeps m* <= f + 3.
    """
    f = unit_char.conductor_exp if unit_char else 0
    m = max(0, -k) if n == 1 else max(1, f, -(k // n))
    return term_shell_integral(ctx, k, PAdicMatrix.zero(n), -m, modulation, config,
                               unit_char, stats), m


# -- rationalization ----------------------------------------------------

# name and signature kept because perfbench/tracer.py wraps it
def rationalize(seq, k0: int, weight: int, q: int, r_max: int,
                confirm: int) -> RationalFunctionT:
    """Exact rational function from shell entries.

    seq[i] is the coefficient of T^(weight*(k0+i)); the tail must satisfy a
    linear recurrence of order <= r_max, certified on `confirm` extra terms.
    Callers pass untwisted shells, so Berlekamp-Massey runs in their own field,
    and twist the result once (RationalFunctionT.twisted, a ring automorphism).
    """
    coeffs, s = detect_recurrence(seq, r_max, confirm)
    head = LaurentPoly({weight * (k0 + i): seq[i] for i in range(s)})
    den = LaurentPoly.const(1)
    for i, ci in enumerate(coeffs, start=1):
        den = den - LaurentPoly({weight * i: ci})
    tail = LaurentPoly()
    for jj in range(len(coeffs)):
        e = seq[s + jj]
        for i in range(1, jj + 1):
            e = e - coeffs[i - 1] * seq[s + jj - i]
        tail = tail + LaurentPoly({weight * (k0 + s + jj): e})
    return RationalFunctionT(head * den + tail, den, q)

