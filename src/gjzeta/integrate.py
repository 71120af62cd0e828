"""Exact integration over multiplicative shells of GL_n(Q_p).

The measure is d^x g = |det g|^(-n) dg with the additive dg normalized by
vol(M_n(Z_p)) = 1; shell k is {v(det g) = k}.  Every integrand handled here
has the shape psi(tr(B g)) * chi(unit part of det g) restricted to a coset
of p^L M_n(Z_p), which covers Schwartz-Bruhat terms and the truncated
distribution kernels alike.

Three evaluation paths, the same for every n, chosen once per term of a series:
  * zero-centered coset with scalar modulation: closed forms in Gauss sums,
    which visit and count no cell;
  * scalar-centered coset a Id + p^L M_n(Z_p) with v(a) < L and p^L times the
    modulation integral, every built-in shifted ball among them: one closed-form
    term, at k = n v(a), with no cell;
  * every other coset, and every coset under force_enumeration: recursive
    residue-cell refinement with an exact resolution rule, bounded by a hard
    cell budget.
The refinement adds the sign of chi(u) = sign * zeta_{p^c}^a into one sparse
{phase: count} histogram per level at the phase e p^(T-m) + a p^(T-c) of
psi * chi, T = max(m, c), reduced by one root_of_unity_sum at the least level
holding its phases.  It counts every cell, bins the children of a last split
by counting their digits over two linear forms, and is the independent check
of the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from operator import add, mul

from .errors import BudgetExceeded
from .padic import (INFINITE, PAdicContext, PAdicMatrix, flat_det, int_valuation,
                    mod_int, psi_exponent, valuation)
from .ratfun import LaurentPoly, RationalFunctionT
from .recurrence import detect_recurrence
from .scalars import as_scalar, root_of_unity_sum

# a shell series takes K_EXTRA shells before the 2 r_max + confirm that Berlekamp-Massey
# fits and checks; they lie in the head, whose residuals are num's low terms (rationalize)
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


def _scalar_of(m: PAdicMatrix):
    """c when m = c Id, else None."""
    c = m.entries[0][0]
    if all(e == (c if i == j else 0) for i, row in enumerate(m.entries) for j, e in enumerate(row)):
        return c
    return None


def _shell_path(ctx: PAdicContext, center: PAdicMatrix, level: int,
                modulation: PAdicMatrix, config: IntegrationConfig):
    """The evaluator (k, unit_char, stats) -> shell k of one modulated coset.  The
    path depends on the coset and the modulation alone, so a series chooses it once."""
    if not config.force_enumeration:
        p, n = ctx.p, center.n
        c = _scalar_of(modulation)
        if c is not None and center.in_level(level, p):
            return lambda k, unit_char, stats: _shell_hermite(ctx, n, k, level, c, unit_char)
        a = _scalar_of(center)
        if a and valuation(a, p) < level and modulation.in_level(-level, p):
            return lambda k, unit_char, stats: _shell_scalar_centre(
                ctx, n, k, level, a, modulation, unit_char)
    return lambda k, unit_char, stats: _shell_generic(ctx, k, center, level, modulation,
                                                      config, unit_char, stats)


def term_shell_integral(ctx: PAdicContext, k: int, center: PAdicMatrix,
                        level: int, modulation: PAdicMatrix,
                        config: IntegrationConfig, unit_char=None, stats=None):
    """int over {v(det g) = k} cap (center + p^level M) of
    psi(tr(modulation g)) chi(det g / p^k) d^x g."""
    return _shell_path(ctx, center, level, modulation, config)(k, unit_char, stats)


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


def _shell_scalar_centre(ctx, n, k, level, a, modulation, unit_char):
    """Scalar-centred coset a Id + p^level M_n(Z_p), v(a) < level, and a modulation B
    with p^level B integral, in closed form.

    Write g = a (1 + Y): Y = a^(-1) p^level X is uniform on p^e M_n(Z_p), e = level -
    v(a) >= 1.  psi(tr(B g)) = psi(a tr B), since tr(B p^level X) is in Z_p.  det(1 + Y)
    is 1 mod p^e, a unit, so v(det g) = n v(a) and chi(det g / p^k) = chi(u_a)^n
    chi(det(1 + Y)) with u_a = a p^(-v(a)).  det(1 + Y) is affine in Y_11 with the
    unit coefficient det of the minor of 1 + Y, so for fixed other entries it runs
    Haar-uniformly over 1 + p^e Z_p: chi(det(1 + Y)) integrates to 1 when chi is 1
    there (f <= e) and to 0 otherwise.  With vol(coset) = p^(-level n^2) and
    |det g|^(-n) = p^(n^2 v(a)):
      shell = psi(a tr B) chi(u_a)^n p^(n^2 (v(a) - level)) if k = n v(a) and f <= e,
    and 0 otherwise.
    """
    p = ctx.p
    va = valuation(a, p)
    f = unit_char.conductor_exp if unit_char else 0
    if k != n * va or f > level - va:
        return as_scalar(0, p)
    value = as_scalar(Fraction(p) ** (n * n * (va - level)), p)
    if f:
        s, e = unit_char.phases[mod_int(a / Fraction(p) ** va, p ** f)]
        value = value.times_root(f, n * e) * s ** n
    return value.times_root(*psi_exponent(a * modulation.trace(), ctx))


# -- generic recursive refinement ---------------------------------------

def _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats):
    """Residue-cell refinement on integer matrices after scaling to M_n(Z_p).

    A cell is (flat integer entries mod p^j, j).  Resolution: if
    v(det a) < j the det valuation is constant on the cell; it is resolved
    once j also certifies the psi phase and the det unit residue.  If
    v(det a) >= j every point has v(det) >= j, so the cell is dead once
    j > k'.  Otherwise split into p^(n^2) children at level j+1.  Resolved
    cells add their chi sign at phase b of psi * chi in level j's {b: count}
    dict, reduced once at level T - s, where p^s divides every phase.

    Last splits are binned without visiting their children.  Let
    R = k' + max(1, cu) and let (a, j) split with j >= max(1, mpsi - 1, R - 1),
    so j >= k', j + 1 >= max(mpsi, k' + cu), R - j <= 1 and T - j <= 1 (as
    cu <= R - k').  A child c = a + p^j t, t a digit vector, then ends at
    level j + 1: if v(det c) = k' <= j it is resolved, since j + 1 certifies
    psi and the unit residue; otherwise v(det c) != k' and it is dropped, or
    v(det c) >= j + 1 > k' and it is dead.  So its fate and bin are read from
    det c mod p^R and the psi exponent sum Cint_l a_l + p^j M(t), M(t) =
    sum Cint_l t_l.
    det is affine in each entry: det(a + x e_l) = det a + x L_l with the
    cofactor L_l = det(a + e_l) - det a, and every other term of det c has a
    factor p^(2j).  So det c = det a + p^j L(t) mod p^(2j), L(t) = sum L_l t_l,
    and R <= j + 1 <= 2j: det c mod p^R depends on L(t) mod p^(R-j), and
    p^j M(t) mod p^T on M(t) mod p^(T-j), each a residue mod 1 or p.  The
    census counts the p^(n^2) vectors t by that pair one coordinate at a time
    (O(n^2 p^3)), reads each pair's fate, chi sign and bin as its children
    would, and keeps the signed counts by phase offset.  L mod p^(R-j) depends
    on a mod p^(R-j) only, so it is built once per key (j, det a mod p^R,
    a mod p^(R-j)) and added at a's own psi exponent.  A cell is counted when it
    is made (the root, each pushed or binned child), so the budget trips before a
    split builds or bins its children, at budget + 1, as a per-cell count would.
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
    hists = {}  # j -> signed cell count per phase of psi * chi at level T
    R = kp + max(1, cu)
    j_last = max(1, mpsi - 1, R - 1)
    pR, pk, children = p ** R, p ** kp, p ** n2
    census = {}  # (j, det a mod p^R, a mod p^(R-j)) -> (phase offset, signed count)s
    count(1)  # the root
    stack = [(A, max(Lp, 0))]
    while stack:
        a, j = stack.pop()
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
                hist = hists.setdefault(j, {})
                s, e = chi[d % pcu]
                b = (sum(map(mul, Cint, a)) + e) % PT
                hist[b] = hist.get(b, 0) + s
                continue
        elif kp < j:
            continue
        count(children)
        if j < j_last:
            stack.extend((tuple(map(add, a, off)), j + 1) for off in _offsets(n2, p, j))
            continue
        pa = p ** max(0, R - j)
        key = (j, det % pR, tuple(x % pa for x in a))
        bins = census.get(key)
        if bins is None:
            pj, pM = p ** j, p ** max(0, T - j)
            ways = {(0, 0): 1}  # (L(t) mod pa, M(t) mod pM) -> number of digit vectors t
            for l in range(n2):
                cof = 0 if pa == 1 else (flat_det(a[:l] + (a[l] + 1,) + a[l + 1:], n) - det) % pa
                step = {}
                for (x, y), w in ways.items():
                    for t in range(p):
                        xy = ((x + t * cof) % pa, (y + t * Cint[l]) % pM)
                        step[xy] = step.get(xy, 0) + w
                ways = step
            counts = {}
            for (x, y), w in ways.items():
                dc = (det + pj * x) % pR
                if dc % pk == 0 and dc // pk % p:
                    s, e = chi[dc // pk % pcu]
                    b = (pj * y + e) % PT
                    counts[b] = counts.get(b, 0) + s * w
            bins = census[key] = tuple(counts.items())
        if bins:
            hist = hists.setdefault(j + 1, {})
            e0 = sum(map(mul, Cint, a))
            for e, c in bins:
                b = (e0 + e) % PT
                hist[b] = hist.get(b, 0) + c
    _bump(stats, "cells", visited)
    total = as_scalar(0, p)
    for j, hist in hists.items():
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
    """[int_{v(det g)=k} Phi(g) chi(det g / p^k) d^x g for k in ks] for a
    Schwartz-Bruhat Phi, with each term's path chosen once for the series."""
    ctx = phi.ctx
    paths = [(t.coeff, _shell_path(ctx, t.center, t.level, t.modulation, config))
             for t in phi.terms]

    def shell(k):
        total = as_scalar(0, ctx.p)
        for coeff, path in paths:
            total = total + coeff * path(k, unit_char, stats)
        return total
    return parallel_map(shell, ks)


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
