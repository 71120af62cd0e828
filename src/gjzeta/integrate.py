"""Exact integration over multiplicative shells of GL_n(Q_p).

The measure is d^x g = |det g|^(-n) dg with the additive dg normalized by
vol(M_n(Z_p)) = 1; shell k is {v(det g) = k}.  Every integrand handled here
has the shape psi(tr(B g)) * chi(unit part of det g) restricted to a coset
of p^L M_n(Z_p), which covers Schwartz-Bruhat terms and the truncated
distribution kernels alike.

Three evaluation paths:
  * n = 1: direct unit enumeration at the certified constancy level;
  * any n, zero-centered coset with scalar modulation: sums of Gauss-sum products;
  * generic: recursive residue-cell refinement with an exact resolution
    rule, bounded by a hard cell budget.
The n = 1 and generic paths count cells in python integers by (det unit
residue, psi exponent) and reduce once per shell (_phase_sum); the generic
one visits every cell and is the independent check of the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from operator import add, mul

# read only by perfbench/tracer.py (kernels.* metrics); ROADMAP item 1 deletes it
from ._kernels import gl2_histogram
from .errors import BudgetExceeded, NoStabilization
from .padic import INFINITE, PAdicContext, PAdicMatrix, valuation
from .ratfun import LaurentPoly, RationalFunctionT
from .recurrence import detect_recurrence
from .scalars import as_scalar, root_of_unity_sum, scalar_is_zero

@dataclass
class IntegrationConfig:
    """Truncation, certification, and budget knobs.

    m_*: truncation-ball growth for non-compact distribution integrals.
    r_max/confirm: recurrence order bound and confirmation window for
    rationalization (r_max defaults to n at the call site).
    hard_budget: max refinement cells per integral.
    """
    m_start: int = 0
    m_max: int = 8
    m_confirm: int = 2
    k_extra: int = 2
    r_max: int = 0
    confirm: int = 3
    hard_budget: int = 10 ** 7
    force_enumeration: bool = False


# name and signature kept because perfbench/tracer.py wraps it
def parallel_map(fn, items, threads: int = 1):
    """Order-preserving serial map; `threads` is ignored."""
    return [fn(x) for x in items]


def term_shell_integral(ctx: PAdicContext, k: int, center: PAdicMatrix,
                        level: int, modulation: PAdicMatrix,
                        config: IntegrationConfig, unit_char=None, stats=None):
    """int over {v(det g) = k} cap (center + p^level M) of
    psi(tr(modulation g)) chi(det g / p^k) d^x g."""
    n = center.n
    if n == 1:
        return _shell_n1(ctx, k, center, level, modulation, unit_char, stats)
    c = modulation.entries[0][0]
    if (not config.force_enumeration and modulation == PAdicMatrix.scalar(n, c)
            and center.in_coset(PAdicMatrix.zero(n), level, ctx.p)):
        return _shell_hermite(ctx, n, k, level, c, unit_char, stats)
    return _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats)


# name kept because perfbench/tracer.py wraps it to count cells per path
def _bump(stats, key, amount=1):
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


# -- n = 1 and Hermite: integer phase histograms ------------------------

def _phase_sum(p, m, hist, chi_table):
    """sum over det residues u of chi(u) * sum_e hist[u][e] zeta_{p^m}^e."""
    total = as_scalar(0, p)
    for u, row in enumerate(hist):
        if any(row):
            total = total + root_of_unity_sum(p, m, row) * chi_table.get(u, 1)
    return total


def _shell_n1(ctx, k, center, level, modulation, unit_char, stats):
    """Units r mod p^j, x = p^k r, counted by (r mod p^cu, psi exponent)."""
    p = ctx.p
    cu, chi_table = (unit_char.conductor_exp, unit_char.table) if unit_char else (0, {})
    a = center.entries[0][0]
    b = modulation.entries[0][0]
    vb = valuation(b, p)
    m = 0 if vb is INFINITE else max(0, -(k + vb))
    j = max(1, cu, level - k, m)
    pk = Fraction(p) ** k
    M = p ** m
    w = _mod_int(b * pk * M, M)  # psi(b p^k r) = zeta_{p^m}^(w r)
    hist = [[0] * M for _ in range(p ** cu)]
    for r in range(p ** j):
        if r % p and valuation(pk * r - a, p) >= level:
            hist[r % p ** cu][w * r % M] += 1
    _bump(stats, "cells", p ** j - p ** (j - 1))
    return _phase_sum(p, m, hist, chi_table) * Fraction(1, p ** j)


# read only by perfbench/tracer.py (kernels.* metrics); ROADMAP item 1 deletes it
@lru_cache(maxsize=32)
def _gl2_hist_cached(p, J, m1, cu):
    # at most 10^7 bins; the int64 counts, and their sums, stay below p^(4J)
    if p ** (2 * m1 + cu) > 10 ** 7 or p ** (4 * J) >= 2 ** 63:
        raise BudgetExceeded("histogram of p^%d bins at level %d exceeds the kernel budget"
                             % (2 * m1 + cu, J))
    return gl2_histogram(p, J, m1, cu)


def _shell_hermite(ctx, n, k, level, c, unit_char, stats):
    """Zero-centered coset p^level M_n, modulation c * Id, any n.

    g = p^level H leaves v(det H) = k' = k - n*level and psi(cH tr H), with
    cH = c p^level = w / p^mc (w a unit).  Write H = kappa b, kappa in GL_n(Z_p),
    b upper triangular with diagonal t_j = p^(a_j) u_j: d^x H = d kappa d_r b /
    (1 - 1/p)^n, d_r b = prod_{i<j} db_ij prod_j p^((j-1) a_j) d^x t_j.  Each
    b_ij (i < j) runs over Z_p in psi(cH kappa_ji b_ij), whose integral is 1 if
    kappa_ji = 0 mod p^mc and 0 otherwise: only kappa in B_0(p^mc) survive.  There
    (kappa_11, ..., kappa_nn, det) mod (p^mc, ..., p^mc, p^cu) is a homomorphism
    with the image of (x_1, ..., x_n, x_1...x_n) on units mod p^L, L = max(mc, cu),
    so the u_j-integrals split into G(b) = sum_{x in (Z/p^L)^x} chi(x) zeta_{p^mc}^(b x):
      shell = vol(B_0(p^mc)) / phi(p^L)^n
              * sum_{a_1+...+a_n=k'} p^(sum_j (j-1) a_j) prod_j G(w p^(a_j)).
    G(w p^a) depends on min(a, mc) only.  For unramified chi it is the Ramanujan sum:
    phi(p^mc) at a >= mc, -p^(mc-1) at a = mc - 1, else 0.  For ramified chi it is 0
    when mc - a > cu: with x = x0 + p^(mc-a-1) y, chi(x) and the unit test see x0
    alone, and sum_y zeta_p^(w y) = 0.
    """
    p = ctx.p
    cu = unit_char.conductor_exp if unit_char else 0
    kp = k - n * level
    if kp < 0:
        return as_scalar(0, p)
    cH = Fraction(c) * Fraction(p) ** level
    mc = max(0, -valuation(cH, p))
    M1, MU, PL = p ** mc, p ** cu, p ** max(mc, cu)
    if cu:  # p^L times the n = 1 integral of chi(x) psi(cH p^t x) over Z_p^x
        G = [0 if mc - t > cu else PL * _shell_n1(ctx, 0, PAdicMatrix([[0]]), 0,
             PAdicMatrix([[cH * p ** t]]), unit_char, None) for t in range(mc + 1)]
    else:
        G = [M1 - M1 // p if t == mc else -(M1 // p) if t == mc - 1 else 0
             for t in range(mc + 1)]
    if n == 2:  # legacy count, pending ROADMAP item 6: M1 per det residue for each of
        D = min(kp + 1, mc)  # the sum_{d <= k'} (1 + max(0, M1 - p^d)) g21 the b-sum leaves
        _bump(stats, "cells",
              M1 * (MU - MU // p) * (kp + 1 + D * M1 - (p ** D - 1) // (p - 1)))
    live = tuple(t for t in range(mc + 1) if not scalar_is_zero(G[t]))
    total = sum(prod(G[t] for t in key) * weight
                for key, weight in _hermite_weights(p, n, kp, mc, live))
    # vol(B_0(p^mc)) is (1 - 1/p)^n p^(-mc n(n-1)/2), and prod_{i<=n} (1 - p^-i) at mc = 0
    vol = (Fraction((p - 1) ** n, p ** (n + mc * n * (n - 1) // 2)) if mc else
           Fraction(prod(p ** i - 1 for i in range(1, n + 1)), p ** (n * (n + 1) // 2)))
    return as_scalar(total * (vol / (PL - PL // p) ** n), p)


_shell_n2_hermite = _shell_hermite  # name kept because perfbench/tracer.py wraps it


@lru_cache(maxsize=256)
def _hermite_weights(p, n, kp, mc, live):
    """Sum of p^(sum_j (j-1) a_j) over a_1 + ... + a_n = k' per live (min(a_j, mc))_j."""
    parts = [a for a in range(kp + 1) if min(a, mc) in live]
    weights = {}
    for head in product(parts, repeat=n - 1):
        last = kp - sum(head)
        if last >= 0 and min(last, mc) in live:
            a = head + (last,)
            key = tuple(min(x, mc) for x in a)
            weights[key] = weights.get(key, 0) + p ** sum(j * x for j, x in enumerate(a))
    return tuple(weights.items())


# -- generic recursive refinement ---------------------------------------

def _mod_int(x: Fraction, modulus: int) -> int:
    """Integer representative of a p-integral rational mod p^j."""
    x = Fraction(x)
    if modulus <= 1:
        return 0
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _int_det(a, n: int) -> int:
    """Determinant of a flat integer tuple, cofactor expansion (n is small)."""
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
        total += (-1) ** col * a[col] * _int_det(sub, n - 1)
    return total


def _shell_generic(ctx, k, center, level, modulation, config, unit_char, stats):
    """Residue-cell refinement on integer matrices after scaling to M_n(Z_p).

    A cell is (flat integer entries mod p^j, j).  Resolution: if
    v(det a) < j the det valuation is constant on the cell; it is resolved
    once j also certifies the psi phase and the det unit residue.  If
    v(det a) >= j every point has v(det) >= j, so the cell is dead once
    j > k'.  Otherwise split into p^(n^2) children at level j+1.  Resolved
    cells are counted by (j, det unit residue, psi exponent) and each level
    j is reduced once (_phase_sum).
    """
    p = ctx.p
    n = center.n
    n2 = n * n
    cu = unit_char.conductor_exp if unit_char else 0
    mv = center.min_valuation(p)
    m = max(0, -level, 0 if mv is INFINITE else -min(0, int(mv)))
    kp = k + n * m
    if kp < 0:
        return as_scalar(0, p)
    pm = Fraction(p) ** m
    Lp = level + m
    # integer representative of the scaled center mod p^Lp (denominators
    # prime to p are inverted modularly)
    A = tuple(_mod_int(e * pm, p ** max(Lp, 0)) for row in center.entries for e in row)
    C = tuple(e / pm for row in modulation.entries for e in row)
    cv = min((valuation(c, p) for c in C if c != 0), default=INFINITE)
    mpsi = 0 if cv is INFINITE else max(0, -int(cv))
    P = p ** mpsi
    # psi(tr(C a)) = zeta_P^(sum(Cint * a)) for an integral flat cell a
    Cint = tuple(_mod_int(C[l * n + i] * P, P) for i in range(n) for l in range(n))
    pcu = p ** cu
    chi_table = ({u: unit_char.unit_value(u) for u in range(pcu) if pcu == 1 or u % p}
                 if unit_char else {})
    prefactor = Fraction(p) ** (n * k + m * n2)
    budget = config.hard_budget
    visited = 0
    hists = {}  # j -> [det residue][psi exponent] cell count
    stack = [(A, max(Lp, 0))]
    while stack:
        a, j = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceeded("refinement exceeded %d cells" % budget,
                                 shell=k, truncation=m, cells=visited)
        det = _int_det(a, n)
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
                    hists[j] = [[0] * P for _ in range(pcu)]
                hists[j][d % pcu][sum(map(mul, Cint, a)) % P] += 1
                continue
        elif kp < j:
            continue
        stack.extend((tuple(map(add, a, off)), j + 1) for off in _offsets(n2, p, j))
    _bump(stats, "cells", visited)
    total = as_scalar(0, p)
    for j, hist in hists.items():
        total = total + _phase_sum(p, mpsi, hist, chi_table) * Fraction(1, p ** (j * n2))
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
    """int_{v(det g)=k} psi(tr(modulation g)) chi(det g / p^k) d^x g.

    The domain is not compact; truncate to p^(-m) M_n(Z_p) and grow m until
    m_confirm consecutive truncations agree exactly.  Returns (value, m).
    """
    center = PAdicMatrix.zero(n)
    prev = None
    agree = 0
    for m in range(config.m_start, config.m_max + 1):
        val = term_shell_integral(ctx, k, center, -m, modulation, config,
                                  unit_char, stats)
        if prev is not None and scalar_is_zero(val - prev):
            agree += 1
            if agree >= config.m_confirm:
                return val, m
        else:
            agree = 0
        prev = val
    raise NoStabilization("shell %d did not stabilize by truncation m = %d"
                          % (k, config.m_max))


# -- rationalization ----------------------------------------------------

def rationalize(seq, k0: int, weight: int, q: int, r_max: int,
                confirm: int) -> RationalFunctionT:
    """Exact rational function from shell entries.

    seq[i] is the coefficient of T^(weight*(k0+i)); the tail must satisfy a
    linear recurrence of order <= r_max, certified on `confirm` extra terms.
    """
    rec = detect_recurrence(seq, r_max, confirm)
    s = rec.start
    r = rec.order
    head = LaurentPoly({weight * (k0 + i): seq[i] for i in range(s)})
    den = LaurentPoly.const(1)
    for i, ci in enumerate(rec.coeffs, start=1):
        den = den - LaurentPoly({weight * i: ci})
    tail = LaurentPoly()
    for jj in range(r):
        e = seq[s + jj]
        for i in range(1, jj + 1):
            e = e - rec.coeffs[i - 1] * seq[s + jj - i]
        tail = tail + LaurentPoly({weight * (k0 + s + jj): e})
    return RationalFunctionT(head * den + tail, den, q)
