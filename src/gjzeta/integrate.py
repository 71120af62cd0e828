"""Exact integration over multiplicative shells of GL_n(Q_p).

The measure is d^x g = |det g|^(-n) dg with the additive dg normalized by
vol(M_n(Z_p)) = 1; shell k is {v(det g) = k}.  Every integrand handled here
has the shape psi(tr(B g)) * chi(unit part of det g) restricted to a coset
of p^L M_n(Z_p), which covers Schwartz-Bruhat terms and the truncated
distribution kernels alike.

Three evaluation paths, the same for every n, chosen per term from the centre C
mod p^L and the modulation B mod p^(-L) (_shell_path):
  * C = 0, B = c Id: the generating function of the Hermite count, in Gauss sums
    (_series_hermite), with no cell;
  * C = a Id with v(a) < L, B = 0, every built-in shifted ball among them: one
    monomial, at k = n v(a) (_series_scalar_centre), with no cell;
  * every other coset, and every coset under force_enumeration: recursive
    residue-cell refinement with an exact resolution rule, bounded by a hard
    cell budget.
The Fourier transform (C, L, B) -> (-B, -L, C) swaps the first two classes, so a
term is closed form exactly when its transform is.  A closed form is one shell
series, a numerator over prod_{j<J} (1 - p^j x): schwartz_series sums a Phi's over one
denominator, and a single shell is its x^k coefficient (_coefficient).
The refinement adds the sign of chi(u) = sign * zeta_{p^c}^a into one sparse
{phase: count} histogram per level at the phase e p^(T-m) + a p^(T-c) of
psi * chi, T = max(m, c), reduced by one root_of_unity_sum at the least level
holding its phases.  It counts every cell, expands each split's subtree once
per key (level, cell mod p^(R-j), det mod p^R) and adds a recurring key's cells
and counts times its multiplicity, and is the independent check of the closed
forms.
"""

from __future__ import annotations

from fractions import Fraction
from collections import Counter
from functools import lru_cache
from itertools import product, repeat
from math import gcd, prod
from operator import add, mul

from .errors import BudgetExceeded
from .padic import (INFINITE, PAdicContext, PAdicMatrix, flat_cofactors, flat_det, in_level,
                    int_valuation, mod_int, psi_exponent, valuation)
from .ratfun import LaurentPoly, RationalFunctionT
from .recurrence import detect_recurrence
from .scalars import as_scalar, root_of_unity_sum

# a sampled shell series (a Phi with a refined term) takes K_EXTRA shells before the
# 2 r_max + confirm that Berlekamp-Massey fits and checks; they lie in the head, whose
# residuals are num's low terms (rationalize)
K_EXTRA = 2


class IntegrationConfig:
    """Certification and budget knobs; a kernel shell's truncation is proven, not set.

    r_max/confirm: recurrence order bound and confirmation window for
    rationalizing the sampled zeta integral of a Phi with a refined term (r_max
    defaults to n at the call site); a generating function reads neither.
    hard_budget: max refinement cells counted per integral, the cells under a
    memoized subtree included each time its key recurs, though those are never built.
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


def _scalar_mod(m: PAdicMatrix, level: int, p: int):
    """c = m_11 when m is in c Id + p^level M_n(Z_p), else None; an exact entry costs one ==."""
    c = m.entries[0][0]
    for i, row in enumerate(m.entries):
        for j, e in enumerate(row):
            if e != (c if i == j else 0) and not in_level(e - c if i == j else e, level, p):
                return None
    return c


def _shell_path(ctx: PAdicContext, center: PAdicMatrix, level: int,
                modulation: PAdicMatrix, config: IntegrationConfig):
    """The closed-form shell series of one modulated coset, unit_char -> (num, J), or None
    when it is refined; chosen from C mod p^L, which fixes the coset, and B mod p^(-L).  On
    the coset, B + p^(-L) Y gives psi(tr(B g)) psi(p^(-L) tr(Y C)), 1 when C = 0 mod p^L.
    With C = a Id and B = c Id in those classes (a, c the (1, 1) entries), a = 0 takes
    Hermite with c, and c = 0 the scalar centre with a and the written B.  Any representative
    gives the same value: Hermite reads c only through c p^L mod Z_p; the scalar centre reads
    a through v(a) < L, fixed on the class, u_a mod p^f, fixed as f <= L - v(a), and
    psi(a tr B), which moves by an integer, since p^L B is integral."""
    if config.force_enumeration:
        return None
    p, n = ctx.p, center.n
    a = _scalar_mod(center, level, p)
    c = None if a is None else _scalar_mod(modulation, -level, p)
    if c is not None and in_level(a, level, p):
        return lambda unit_char: _series_hermite(ctx, n, level, c, unit_char)
    if c is not None and in_level(c, -level, p):
        return lambda unit_char: _series_scalar_centre(ctx, n, level, a, modulation, unit_char)
    return None


def term_shell_integral(ctx: PAdicContext, k: int, center: PAdicMatrix,
                        level: int, modulation: PAdicMatrix,
                        config: IntegrationConfig, unit_char=None, stats=None):
    """int over {v(det g) = k} cap (center + p^level M) of psi(tr(modulation g))
    chi(det g / p^k) d^x g: the x^k coefficient of a closed-form series, or the refinement."""
    series = _shell_path(ctx, center, level, modulation, config)
    if series is None:
        return _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats)
    return _coefficient(ctx.p, k, *series(unit_char))


def _coefficient(p, k, num, J):
    """The x^k coefficient of num / prod_{j<J} (1 - p^j x).  By the q-binomial theorem it is
    sum_{i<=k} num_i [k-i+J-1 choose J-1]_p, with [m+J-1 choose J-1]_p = prod_{0<j<J}
    (p^(m+j) - 1) / (p^j - 1): 1 at J = 1, and [k = i] at J = 0, where the denominator is 1."""
    terms = [v * Fraction(prod(p ** (k - i + j) - 1 for j in range(1, J)),
                          prod(p ** j - 1 for j in range(1, J))) if J > 1 else v
             for i, v in num.items() if i == k or J and i < k]
    return sum(terms[1:], terms[0]) if terms else as_scalar(0, p)


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


def _series_hermite(ctx, n, level, c, unit_char):
    """The shell series sum_k I_k x^k of the zero-centred coset p^level M_n(Z_p) under c Id,
    any n, as (num, J): num a {k: coefficient} dict over the denominator prod_{j<J} (1 - p^j x).

    g = p^level H leaves v(det H) = k' = k - n*level and psi(cH tr H), with
    cH = c p^level = w / p^mc (w a unit).  Write H = kappa b, kappa in GL_n(Z_p),
    b upper triangular with diagonal t_j = p^(a_j) u_j: d^x H = d kappa d_r b /
    (1 - 1/p)^n, d_r b = prod_{i<j} db_ij prod_j p^((j-1) a_j) d^x t_j.  Each
    b_ij (i < j) runs over Z_p in psi(cH kappa_ji b_ij), whose integral is 1 if
    kappa_ji = 0 mod p^mc and 0 otherwise: only kappa in B_0(p^mc) survive.  There
    (kappa_11, ..., kappa_nn, det) mod (p^mc, ..., p^mc, p^f) is a homomorphism
    with the image of (x_1, ..., x_n, x_1...x_n) on units, so the u_j-integrals split:
      I_k = vol * sum_{a_1+...+a_n=k'} p^(sum_j (j-1) a_j) prod_j gamma(min(a_j, mc)),
    vol = vol(B_0(p^mc)) = (1 - 1/p)^n p^(-mc n(n-1)/2) (prod_{i<=n} (1 - p^-i) at mc = 0),
    gamma(t) = int_{Z_p^x} chi(x) psi(cH p^t x) dx / (1 - 1/p).  The sum over compositions
    is the x^k' coefficient of prod_j G_j(x), G_j(x) = sum_(a>=0) p^((j-1) a) gamma(min(a, mc))
    x^a, so the series is vol x^(n level) prod_j G_j(x).  gamma's psi level is l = mc - t, and
    gamma = 0 for l > max(1, f), f = conductor_exp (x = x0 + p^(l-1) y: chi(x) sees x0
    alone, sum_y zeta_p^(w y) = 0), and for l < f (x -> x u, u = 1 mod p^l with chi(u) != 1).
      * f = 0, mc = 0: gamma = 1 and G_j = 1 / (1 - p^(j-1) x), so num = vol x^(n level)
        with vol = prod_{i<=n} (p^i - 1) / p^(n(n+1)/2), and J = n.
      * f = 0, mc >= 1: gamma(mc) = 1, gamma(mc - 1) = -1/(p - 1) (Ramanujan sums) and 0
        below, so G_j = p^((j-1)(mc-1)) x^(mc-1) (p^j x - 1) / ((p - 1)(1 - p^(j-1) x)), and
        the product telescopes to (-1)^n (1 - p^n x) / (1 - x) times p^((mc-1) n(n-1)/2)
        x^(n(mc-1)) / (p - 1)^n.  With vol, the series is s x^k0 (1 - p^n x) / (1 - x),
        s = (-1)^n p^(-n(n+1)/2), k0 = n (level + mc - 1): num = s x^k0 - p^n s x^(k0+1), J = 1.
      * f >= 1: only a_j = t0 = mc - f survives, so G_j = p^((j-1) t0) gamma(t0) x^t0 when
        t0 >= 0, and the series is 0 otherwise; with vol it is the one monomial
        g^n p^(-f n(n-1)/2) x^(n (level + t0)), g = _shell_n1(p, cH p^t0, chi), and J = 0.
    """
    p = ctx.p
    f = unit_char.conductor_exp if unit_char else 0
    cH = Fraction(c) * Fraction(p) ** level
    mc = max(0, -valuation(cH, p))
    if f:
        return ({n * (level + mc - f): _shell_n1(p, cH * p ** (mc - f), unit_char) ** n
                 * Fraction(1, p ** (f * n * (n - 1) // 2))} if mc >= f else {}), 0
    d = p ** (n * (n + 1) // 2)
    if mc == 0:
        return {n * level: as_scalar(Fraction(prod(p ** i - 1 for i in range(1, n + 1)), d), p)}, n
    s, k0 = as_scalar(Fraction((-1) ** n, d), p), n * (level + mc - 1)
    return {k0: s, k0 + 1: s * -p ** n}, 1


_shell_n2_hermite = _series_hermite  # name kept because perfbench/tracer.py wraps it


def _series_scalar_centre(ctx, n, level, a, modulation, unit_char):
    """The shell series of a Id + p^level M_n(Z_p), v(a) < level, under B, p^level B integral.

    Write g = a (1 + Y): Y = a^(-1) p^level X is uniform on p^e M_n(Z_p), e = level -
    v(a) >= 1.  psi(tr(B g)) = psi(a tr B), since tr(B p^level X) is in Z_p.  det(1 + Y)
    is 1 mod p^e, a unit, so v(det g) = n v(a) and chi(det g / p^k) = chi(u_a)^n
    chi(det(1 + Y)) with u_a = a p^(-v(a)).  det(1 + Y) is affine in Y_11 with the
    unit coefficient det of the minor of 1 + Y, so for fixed other entries it runs
    Haar-uniformly over 1 + p^e Z_p: chi(det(1 + Y)) integrates to 1 when chi is 1
    there (f <= e) and to 0 otherwise.  With vol(coset) = p^(-level n^2) and
    |det g|^(-n) = p^(n^2 v(a)), the one shell k = n v(a) is
    psi(a tr B) chi(u_a)^n p^(n^2 (v(a) - level)) when f <= e, and the series is 0 otherwise.
    """
    p = ctx.p
    va = valuation(a, p)
    f = unit_char.conductor_exp if unit_char else 0
    if f > level - va:
        return {}, 0
    value = as_scalar(Fraction(p) ** (n * n * (va - level)), p)
    if f:
        s, e = unit_char.phases[mod_int(a / Fraction(p) ** va, p ** f)]
        value = value.times_root(f, n * e) * s ** n
    return {n * va: value.times_root(*psi_exponent(a * modulation.trace(), ctx))}, 0


# -- generic recursive refinement ---------------------------------------

def _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats):
    """Residue-cell refinement on integer matrices after scaling to M_n(Z_p).

    A cell is (flat integer entries mod p^j, j).  Resolution: if
    v(det a) < j the det valuation is constant on the cell; it is resolved
    once j also certifies the psi phase and the det unit residue.  If
    v(det a) >= j every point has v(det) >= j, so the cell is dead once
    j > k'.  Otherwise it splits into p^(n^2) children a + p^j t, t a digit
    vector.  Resolved cells add their chi sign at phase b of psi * chi in level
    j's {b: count} dict, reduced once at level T - s, where p^s divides every phase.

    With R = k' + max(1, cu), the subtree of a split (a, j), its cells and their
    signed counts by level and by phase relative to a's psi exponent sum
    Cint_l a_l, depends only on the key (j, a mod p^(R-j), det a mod p^R):
      * a fate reads det mod p^R alone: v(det) <= k' < R is exact there, and so is
        the unit residue mod p^cu (k' + cu <= R); if v(det) > k' it splits iff j <= k';
      * det(a + p^j X) = sum_r p^(jr) (sum of (n-r)-minors of a times r-minors of X)
        reads a, mod p^R, through det a mod p^R and, for r >= 1, its minors mod
        p^(R-jr), so through a mod p^(R-j), which fixes a child's a mod p^(R-j-1);
      * psi(tr C(a + p^j X)) = psi(tr C a) psi(p^j tr C X): a child's phase offset
        p^j M(t), M(t) = sum Cint_l t_l, is free of a;
    and by induction on depth so is every descendant's fate, key and offset.  The
    walk is depth first and expands each key once; a split's children are grouped
    by (key, offset), and a recurring key adds its subtree's cells and counts
    times its multiplicity.  Where 2j >= R the terms r >= 2 vanish: det(a + p^j t)
    = det a + p^j L(t) mod p^R, L(t) = sum L_l t_l with L_l = det(a + e_l) - det a
    the signed (n-1)-minors (det is affine in each entry), and a child keeps a mod
    p^(R-j-1) and so its cofactors.  There the key is (j, multiset of (L_l mod
    p^(R-j), Cint_l mod p^(T-j)), det a mod p^R), and the groups count the t by
    (L(t) mod p^(R-j), M(t) mod p^(T-j)), one coordinate at a time, once per key.
    Elsewhere a child's det is det a + det(a' + p^j t) - det a' mod p^R for the
    key's a', expanded along the first row, in which det is linear.  A cell is
    counted when it is made (the root, a split's p^(n^2) children before they are
    grouped), so the budget trips before a split builds its children, at budget + 1
    as a per-cell count would, and the memo holds at most budget / p^(n^2) keys.
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

    def count(cells):
        nonlocal visited
        visited += cells
        if visited > budget:
            raise BudgetExceeded("refinement exceeded %d cells" % budget,
                                 shell=k, truncation=m, cells=budget + 1)
    R = kp + max(1, cu)
    pR, children, low = p ** R, p ** n2, p ** (n2 - n)
    first_row = [tuple(int(i == l) for i in range(n)) for l in range(n)]  # its unit rows

    @lru_cache(maxsize=None)  # local to the call
    def pairs_of(j, a):
        """a's sorted (L_l mod p^(R-j), Cint_l mod p^(T-j)) pairs."""
        pa, pM = p ** max(0, R - j), p ** max(0, T - j)
        return tuple(sorted((cof % pa, w % pM) for cof, w in zip(flat_cofactors(a, n), Cint)))

    # census: (j, pairs) -> (the children's pairs, grouped children); lower: (j, lower rows
    # of a) -> (rows mod p^(R-j-1), first-row cofactors) per lower-row digit vector;
    # level_phases: j -> each offset's psi phase; memo: key -> (cells, {level: {phase: count}})
    census, lower, level_phases, memo = {}, {}, {}, {}

    def expand(j, a, D):
        """Count the children of the split (a, j), det D mod p^R and a its pairs where
        2j >= R, else a mod p^(R-j), and group them in a frame [key, (child a, child D,
        offset, multiplicity)s, cells, {level: {phase: signed count}}, the (offset,
        multiplicity) of the child being expanded]."""
        count(children)
        pj, pc = p ** j, p ** max(0, R - j - 1)
        if 2 * j >= R:
            if (j, a) not in census:
                pa, pM = p ** max(0, R - j), p ** max(0, T - j)
                ways = {(0, 0): 1}  # (L(t) mod pa, M(t) mod pM) -> number of vectors t
                for cof, wt in a:
                    step = {}
                    for (x, y), w in ways.items():
                        for t in range(p):
                            xy = ((x + t * cof) % pa, (y + t * wt) % pM)
                            step[xy] = step.get(xy, 0) + w
                    ways = step
                census[j, a] = (tuple(sorted((cof % pc, wt % max(1, pM // p)) for cof, wt in a)),
                                [(pj * x, pj * y % PT, w) for (x, y), w in ways.items()])
            c, ways = census[j, a]
            groups = [(c, (D + x) % pR, y, w) for x, y, w in ways]
        else:
            # offsets[::low] are the first-row digit vectors and offsets[:low] the lower-row
            # ones, the fastest-varying; det is linear in the first row, with cofactors
            # read from the lower rows
            offsets = _offsets(n2, p, j)
            if j not in level_phases:
                level_phases[j] = [sum(map(mul, Cint, off)) % PT for off in offsets]
            if (j, a[n:]) not in lower:
                lower[j, a[n:]] = [(tuple(x % pc for x in rows),
                                    [flat_det(e + rows, n) for e in first_row])
                                   for rows in (tuple(map(add, a[n:], off[n:]))
                                                for off in offsets[:low])]
            bottoms, cofs = zip(*lower[j, a[n:]])
            base = D - sum(map(mul, a, cofs[0]))  # det a - det a' mod p^R
            dets, digits = [[base + sum(map(mul, a, c)) for c in cofs]], range(0, p * pj, pj)
            for col in zip(*cofs):  # first-row digits, slowest first, as in `offsets`
                dets = [[d + t * c for d, c in zip(ds, col)] for ds in dets for t in digits]
            dets = [d % pR for ds in dets for d in ds]
            if pc > pj:  # p^j t shows mod pc: every child has its own key
                tops = [tuple((x + y) % pc for x, y in zip(a[:n], f)) for f in offsets[::low]]
                groups = zip([t + b for t in tops for b in bottoms], dets, level_phases[j],
                             repeat(1))
            else:
                c = tuple(x % pc for x in a)
                groups = [(c, d, e, w)
                          for (d, e), w in Counter(zip(dets, level_phases[j])).items()]
        return [(j, a, D), iter(groups), children, {}, None]

    def merge(frame, sub, offset, w):
        frame[2] += sub[0] * w
        for j, hist in sub[1].items():
            into = frame[3].setdefault(j, {})
            for e, c in hist.items():
                b = (e + offset) % PT
                into[b] = into.get(b, 0) + c * w

    count(1)  # the root
    j0 = max(Lp, 0)
    a = tuple(x % p ** max(0, R - j0) for x in A)
    root = (pairs_of(j0, a) if 2 * j0 - 2 >= R else a, flat_det(A, n) % pR,
            sum(map(mul, Cint, A)) % PT, 1)
    stack = [[(j0 - 1,), iter([root]), 0, {}, None]]  # the root as the one child of a frame
    while stack:
        top = stack[-1]
        j = top[0][0] + 1
        for a, D, offset, w in top[1]:
            v = int_valuation(D, p) if D else R  # det mod p^R fixes the fate
            if v >= j and kp < j or v < j and v != kp:
                continue  # dead, or dropped
            if v < j and j >= mpsi and j >= kp + cu:  # resolved
                s, e = chi[D // p ** v % pcu]
                hist = top[3].setdefault(j, {})
                b = (offset + e) % PT
                hist[b] = hist.get(b, 0) + s * w
                continue
            if 2 * j - 2 < R <= 2 * j:  # the first level where det is affine in t
                a = pairs_of(j, a)
            sub = memo.get((j, a, D))
            if sub is None:
                top[4] = offset, w
                stack.append(expand(j, a, D))
                break
            count(sub[0] * w)
            merge(top, sub, offset, w)
        else:
            stack.pop()
            sub = memo[top[0]] = top[2], top[3]
            if stack:
                offset, w = stack[-1][4]
                count(sub[0] * (w - 1))
                merge(stack[-1], sub, offset, w)
    _bump(stats, "cells", visited)
    total = as_scalar(0, p)
    for j, hist in top[3].items():
        g = gcd(PT, *hist)  # p^s divides every phase: reduce at level T - s
        vec = [0] * (PT // g)
        for e, c in hist.items():
            vec[e // g] += c
        total = total + root_of_unity_sum(p, T - int_valuation(g, p), vec) * Fraction(
            1, p ** (j * n2))
    return total * prefactor


@lru_cache(maxsize=32)
def _offsets(n2: int, p: int, j: int):
    """The p^n2 child offsets of a level-j cell: digit vectors times p^j."""
    pj = p ** j
    return tuple(tuple(pj * t for t in digits) for digits in product(range(p), repeat=n2))


# -- whole-function and stabilized integrals ----------------------------

def schwartz_shell_integral(phi, ks, config: IntegrationConfig,
                            unit_char=None, stats=None):
    """[int_{v(det g)=k} Phi(g) chi(det g / p^k) d^x g for k in ks] for a Schwartz-Bruhat
    Phi: a closed-form term's series is built once and read at each k (_coefficient), and a
    refined term is refined at each k."""
    ctx = phi.ctx
    fns = [_shell_path(ctx, t.center, t.level, t.modulation, config) for t in phi.terms]
    terms = [(t, fn and fn(unit_char)) for t, fn in zip(phi.terms, fns)]

    def shell(k):
        total = as_scalar(0, ctx.p)
        for t, series in terms:
            total = total + t.coeff * (_coefficient(ctx.p, k, *series) if series else
                                       _shell_generic(ctx, k, t.center, t.level, t.modulation,
                                                      config, unit_char, stats))
        return total
    return parallel_map(shell, ks)


def schwartz_series(phi, weight: int, config: IntegrationConfig, unit_char=None):
    """The untwisted shell series sum_k I_k x^k of a Schwartz-Bruhat Phi, x = T^weight, as
    LaurentPolys (num, den) in T, or None when a term is refined (every term under
    force_enumeration).  Each term's generating function (_shell_path) has the denominator
    prod_{j<J_t} (1 - p^j x), a head of den = prod_{j<J} (1 - p^j x), J = max J_t, so num
    sums coeff * num_t * prod_{J_t<=j<J} (1 - p^j x) over the terms, with no division."""
    fns = [_shell_path(phi.ctx, t.center, t.level, t.modulation, config) for t in phi.terms]
    if None in fns:
        return None
    parts = [(t.coeff, *fn(unit_char)) for t, fn in zip(phi.terms, fns)]
    factors = [LaurentPoly({0: 1, weight: -phi.ctx.p ** j})
               for j in range(max([j for _, _, j in parts], default=0))]
    num = LaurentPoly()
    for coeff, part, j in parts:
        term = LaurentPoly({weight * k: coeff * v for k, v in part.items()})
        for factor in factors[j:]:
            term = term * factor
        num = num + term
    den = LaurentPoly.const(1)
    for factor in factors:
        den = den * factor
    return num, den


def stabilized_shell_integral(ctx: PAdicContext, n: int, k: int,
                              modulation: PAdicMatrix, config: IntegrationConfig,
                              unit_char=None, stats=None):
    """int_{v(det g)=k} psi(tr(eps g)) chi(det g / p^k) d^x g, modulation eps Id
    with eps a unit, as (value, m): one evaluation on p^(-m) M_n(Z_p) at the
    proven exact truncation point m = m*.

    n = 1: the shell p^k Z_p^x is compact and inside p^(-m) Z_p once m >= -k,
    so m* = max(0, -k).  n >= 2: the coset is _series_hermite's at level -m, with mc = m,
    and for m >= max(1, f) its series is free of m: at f = 0 its mc >= 1 case,
    s x^(-n) (1 - p^n x) / (1 - x), k0 = n (-m + m - 1) = -n; at f >= 1 its one monomial
    at x^(-n f), with g read at cH p^(m-f) = eps p^(-f).  So m* = max(1, f, ceil(-k/n)),
    which also reaches the shell.  A truncated integral does not depend on its path:
    force_enumeration uses m*.
    No cap: the spectral action reads only shells -n and 1 - n, or -n f, so m* <= max(1, f).
    """
    f = unit_char.conductor_exp if unit_char else 0
    m = max(0, -k) if n == 1 else max(1, f, -(k // n))
    return term_shell_integral(ctx, k, PAdicMatrix.zero(n), -m, modulation, config,
                               unit_char, stats), m


# -- rationalization ----------------------------------------------------

# name kept because perfbench/tracer.py wraps it
def rationalize(seq, k0: int, weight: int, q: int, r_max: int,
                confirm: int) -> RationalFunctionT:
    """Exact rational function from shell entries, canonical as built.

    seq[i] is the coefficient of T^(weight*(k0+i)); the tail must satisfy a
    linear recurrence of order <= r_max, certified on `confirm` extra terms.
    Callers pass untwisted shells, so Berlekamp-Massey runs in their own field,
    and twist the result once (RationalFunctionT.twisted, a ring automorphism).
    With den = 1 - sum_i c_i T^(weight i), T^(weight (k0 + t)) has coefficient
    e_t = s_t - sum_{i <= min(t, L)} c_i s_(t-i) in seq * den: detect_recurrence's
    head below ws + L, ws = len(seq) - 2 r_max - confirm, and 0 from there on.

    num and den are coprime, so no gcd is taken (RationalFunctionT.coprime).  In
    x = T^weight, den(x) has den(0) = 1 and degree <= L, num = x^k0 N(x) with
    deg N < ws + L, and the series N / den is seq: it agrees below ws + L, and both
    follow the recurrence from ws + L on.  BM fits the window of 2 r_max terms from
    ws and returns its least order L.  Suppose g divides N and den with
    deg g = d >= 1 (g(0) != 0, as den(0) = 1).  Then (N / g) / (den / g) is the
    same series, and den / g, of degree <= L - d, gives a recurrence of order L - d
    that holds for every t > deg(N / g), so from ws + L - d: it generates the whole
    fit window, against the minimality of L.  So N and den are coprime in K[x],
    hence num and den in K[x, 1/x] (Bezout), hence in K[T, 1/T].
    """
    coeffs, head = detect_recurrence(seq, r_max, confirm)
    den = LaurentPoly({0: 1, **{weight * i: -ci for i, ci in enumerate(coeffs, start=1)}})
    num = LaurentPoly({weight * (k0 + t): e for t, e in enumerate(head)})
    return RationalFunctionT.coprime(num, den, q)
