"""The n = 1 and Hermite shell paths against scalar-accumulating references.

The references below add one exact cyclotomic value per cell, sum the
Hermite off-diagonal entry as a geometric ratio (with an inverse) and bin the
Hermite gamma cells with their own sweep over all of M_2(Z/p^J); the engine
counts the same cells by (det residue, psi exponent) and reduces once.
Results must agree exactly, including for characters with non-rational values.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from gjzeta.integrate import _shell_n1, _shell_n2_hermite
from gjzeta.padic import INFINITE, PAdicContext, PAdicMatrix, psi_value, valuation
from gjzeta.scalars import as_scalar, root_of_unity
from gjzeta.zeta import MultiplicativeCharacter


def _unit_values(unit_char):
    if unit_char is None:
        return 0, None
    return unit_char.conductor_exp, unit_char.unit_value


def shell_n1_reference(ctx, k, center, level, modulation, unit_char, stats):
    p = ctx.p
    cu, chi = _unit_values(unit_char)
    a = center.entries[0][0]
    b = modulation.entries[0][0]
    vb = valuation(b, p)
    j = max(1, cu, level - k)
    if vb is not INFINITE:
        j = max(j, -(k + vb))
    pk = Fraction(p) ** k
    pcu = p ** cu
    total = as_scalar(0, p)
    for r in range(p ** j):
        if r % p == 0:
            continue
        stats["cells"] = stats.get("cells", 0) + 1
        x = pk * r
        if valuation(x - a, p) < level:
            continue
        val = psi_value(b * x, ctx)
        if chi is not None:
            val = chi(r % pcu) * val
        total = total + val
    return total * Fraction(1, p ** j)


@lru_cache(maxsize=None)
def gl2_histogram_sweep(p, J, m1, cu):
    """counts[g11 % p^m1, g21 % p^m1, g22 % p^m1, det % p^cu] over all
    g in M_2(Z/p^J) with det(g) a unit."""
    q = p ** J
    mmod = p ** m1
    umod = p ** cu
    counts = np.zeros((mmod, mmod, mmod, umod), dtype=np.int64)
    r = np.arange(q, dtype=np.int64)
    g21 = r[None, :]
    prod = (r[:, None] * g21) % q  # g12 * g21
    g21s = np.broadcast_to(g21 % mmod, prod.shape)
    for g11 in range(q):
        for g22 in range(q):
            det = (g11 * g22 - prod) % q
            unit = (det % p) != 0
            idx = g21s[unit] * umod + det[unit] % umod
            sub = np.bincount(idx, minlength=mmod * umod).reshape(mmod, umod)
            counts[g11 % mmod, :, g22 % mmod, :] += sub
    return counts


def geometric_char_sum_reference(w, N, ctx):
    """sum_{b=0}^{N-1} psi(w b) as (psi(w N) - 1) / (psi(w) - 1)."""
    p = ctx.p
    if N == 1 or w == 0 or valuation(w, p) >= 0:
        return as_scalar(N, p)
    zN = psi_value(w * N, ctx)
    one = as_scalar(1, p)
    if (zN - one).is_zero():
        return as_scalar(0, p)
    return (zN - one) * (psi_value(w, ctx) - one).inverse()


def shell_n2_hermite_reference(ctx, k, level, c, unit_char, stats):
    p = ctx.p
    cu, chi = _unit_values(unit_char)
    kp = k - 2 * level
    if kp < 0:
        return as_scalar(0, p)
    cH = Fraction(c) * Fraction(p) ** level
    vc = valuation(cH, p)
    mc = 0 if vc is INFINITE else max(0, -int(vc))
    J = max(1, cu, mc)
    counts = gl2_histogram_sweep(p, J, mc, cu)
    M1 = p ** mc
    MU = p ** cu
    psi_tab = [psi_value(cH * t, ctx) for t in range(M1)]
    chi_tab = {u: (chi(u) if chi is not None else as_scalar(1, p))
               for u in range(MU) if MU == 1 or u % p != 0}
    total = as_scalar(0, p)
    i11g, i22g = np.meshgrid(np.arange(M1), np.arange(M1), indexing="ij")
    for a in range(kp + 1):
        d = kp - a
        tkey = ((i11g * pow(p, a, M1) if a < mc else np.zeros_like(i11g))
                + (i22g * pow(p, d, M1) if d < mc else np.zeros_like(i22g))) % M1
        for i21 in range(M1):
            if i21 == 0:
                bsum = as_scalar(p ** d, p)
            else:
                v21 = 0
                r = i21
                while r % p == 0:
                    r //= p
                    v21 += 1
                if v21 >= mc - d:
                    continue
                bsum = geometric_char_sum_reference(cH * i21, p ** d, ctx)
            for u, chival in chi_tab.items():
                acc = np.zeros(M1, dtype=np.int64)
                np.add.at(acc, tkey.ravel(), counts[:, i21, :, u].ravel())
                stats["cells"] = stats.get("cells", 0) + M1
                sub = as_scalar(0, p)
                for t in range(M1):
                    if acc[t]:
                        sub = sub + psi_tab[t] * int(acc[t])
                total = total + sub * bsum * chival
    return total * Fraction(1, p ** (4 * J))


def _characters(p):
    """Trivial (None and explicit), unramified, quadratic, and one character
    whose values are not rational."""
    zeta = {2: MultiplicativeCharacter.from_generators(
                2, 4, {15: -1, 5: root_of_unity(2, 2, 1)}),
            3: MultiplicativeCharacter.from_generators(
                3, 2, {2: -root_of_unity(3, 1, 1)}),
            5: MultiplicativeCharacter.from_generators(
                5, 2, {2: root_of_unity(5, 1, 1)})}[p]
    return [None, MultiplicativeCharacter.trivial(p),
            MultiplicativeCharacter.unramified(p, Fraction(1, p)),
            MultiplicativeCharacter.quadratic_ramified(p), zeta]


def _same(got, want, got_stats, want_stats):
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert got_stats == want_stats


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("level", [-2, -1, 0, 1])
def test_n1_matches_reference(p, level):
    ctx = PAdicContext(p)
    centers = [Fraction(1), Fraction(p - 1, p), Fraction(p + 1) * p]
    modulations = [Fraction(1, p), Fraction(p + 2, p ** 2), Fraction(3)]
    for chi in _characters(p):
        for a in centers:
            for b in modulations:
                for k in range(-1, 3):
                    center = PAdicMatrix([[a]])
                    mod = PAdicMatrix([[b]])
                    got_stats, want_stats = {}, {}
                    got = _shell_n1(ctx, k, center, level, mod, chi, got_stats)
                    want = shell_n1_reference(ctx, k, center, level, mod, chi, want_stats)
                    _same(got, want, got_stats, want_stats)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c_exp", [0, 1, 2])
@pytest.mark.parametrize("level", [-1, 0, 1])
def test_hermite_matches_reference(p, c_exp, level):
    ctx = PAdicContext(p)
    c = Fraction(1, p ** c_exp)
    for chi in _characters(p):
        for kp in range(-1, 3):
            k = kp + 2 * level
            got_stats, want_stats = {}, {}
            got = _shell_n2_hermite(ctx, k, level, c, chi, got_stats)
            want = shell_n2_hermite_reference(ctx, k, level, c, chi, want_stats)
            _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))


def test_hermite_zero_modulation_matches_reference():
    ctx = PAdicContext(3)
    chi = _characters(3)[-1]
    for k in range(0, 4):
        got_stats, want_stats = {}, {}
        got = _shell_n2_hermite(ctx, k, 0, Fraction(0), chi, got_stats)
        want = shell_n2_hermite_reference(ctx, k, 0, Fraction(0), chi, want_stats)
        _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))



def test_hermite_p5_matches_reference():
    ctx = PAdicContext(5)
    for chi in _characters(5):
        for k in range(-1, 3):
            got_stats, want_stats = {}, {}
            got = _shell_n2_hermite(ctx, k, 0, Fraction(1, 5), chi, got_stats)
            want = shell_n2_hermite_reference(ctx, k, 0, Fraction(1, 5), chi, want_stats)
            _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))
