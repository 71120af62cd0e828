"""The three shell paths against scalar-accumulating references.

The references below add one exact cyclotomic value per cell, sum the
Hermite off-diagonal entry as a geometric ratio (with an inverse) and bin the
Hermite gamma cells with their own sweep over all of M_2(Z/p^J); the engine
counts the same cells by (det residue, psi exponent) and reduces once.
Results must agree exactly, including for characters with non-rational values.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from gjzeta import integrate
from gjzeta.errors import BudgetExceeded
from gjzeta.integrate import (IntegrationConfig, _int_det, _mod_int, _shell_generic,
                              _shell_hermite, _shell_n1)
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


def shell_generic_reference(ctx, k, center, level, modulation, config, unit_char, stats):
    """Residue-cell refinement adding psi(tr(C a)) chi(det unit) p^(-j n^2)
    for each resolved cell."""
    p = ctx.p
    n = center.n
    n2 = n * n
    cu, chi = _unit_values(unit_char)
    mv = center.min_valuation(p)
    m = max(0, -level, 0 if mv is INFINITE else -min(0, int(mv)))
    kp = k + n * m
    if kp < 0:
        return as_scalar(0, p)
    pm = Fraction(p) ** m
    Lp = level + m
    A = tuple(_mod_int(e * pm, p ** max(Lp, 0)) for row in center.entries for e in row)
    C = tuple(e / pm for row in modulation.entries for e in row)
    cv = min((valuation(c, p) for c in C if c != 0), default=INFINITE)
    mpsi = 0 if cv is INFINITE else max(0, -int(cv))
    pcu = p ** cu
    digits = list(product(range(p), repeat=n2))
    visited = 0
    total = as_scalar(0, p)
    stack = [(A, max(Lp, 0))]
    while stack:
        a, j = stack.pop()
        visited += 1
        if visited > config.hard_budget:
            raise BudgetExceeded("refinement exceeded %d cells" % config.hard_budget,
                                 shell=k, truncation=m, cells=visited)
        det = _int_det(a, n)
        dv, d = j, det  # a zero det only says "v >= j"
        if det != 0:
            dv = 0
            while d % p == 0:
                d //= p
                dv += 1
        if det != 0 and dv < j:
            if dv != kp:
                continue
            if j >= mpsi and j >= dv + cu:
                tr = sum(C[i * n + l] * a[l * n + i] for i in range(n) for l in range(n))
                val = psi_value(tr, ctx)
                if chi is not None:
                    val = chi(d % pcu if pcu > 1 else 0) * val
                total = total + val * Fraction(1, p ** (j * n2))
                continue
        elif kp < j:
            continue
        for t in digits:
            stack.append((tuple(x + p ** j * y for x, y in zip(a, t)), j + 1))
    stats["cells"] = stats.get("cells", 0) + visited
    return total * Fraction(p) ** (n * k + m * n2)


def _characters(p):
    """Trivial (None and explicit), unramified, quadratic, and one character
    whose values are not rational."""
    zeta = {2: MultiplicativeCharacter.from_generators(
                2, 4, {15: -1, 5: root_of_unity(2, 2, 1)}),
            3: MultiplicativeCharacter.from_generators(
                3, 2, {2: -root_of_unity(3, 1, 1)}),
            5: MultiplicativeCharacter.from_generators(
                5, 2, {2: root_of_unity(5, 1, 1)}),
            7: MultiplicativeCharacter.from_generators(
                7, 2, {3: root_of_unity(7, 1, 1)})}[p]
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
            got = _shell_hermite(ctx, 2, k, level, c, chi, got_stats)
            want = shell_n2_hermite_reference(ctx, k, level, c, chi, want_stats)
            _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))


def test_hermite_zero_modulation_matches_reference():
    ctx = PAdicContext(3)
    chi = _characters(3)[-1]
    for k in range(0, 4):
        got_stats, want_stats = {}, {}
        got = _shell_hermite(ctx, 2, k, 0, Fraction(0), chi, got_stats)
        want = shell_n2_hermite_reference(ctx, k, 0, Fraction(0), chi, want_stats)
        _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))



def test_hermite_p5_matches_reference():
    ctx = PAdicContext(5)
    for chi in _characters(5):
        for k in range(-1, 3):
            got_stats, want_stats = {}, {}
            got = _shell_hermite(ctx, 2, k, 0, Fraction(1, 5), chi, got_stats)
            want = shell_n2_hermite_reference(ctx, k, 0, Fraction(1, 5), chi, want_stats)
            _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))


# (c, level) with mc = max(0, -v(c) - level) <= 2: the reference adds one
# cyclotomic value per (a, g21, det residue, exponent), too slow above that
_HERMITE_P57_SHELLS = [(Fraction(0), 0), (Fraction(1), 0), (Fraction(1), -1),
                       (Fraction(1, 7), 0), (Fraction(2, 25), 1), (Fraction(3), 1),
                       (Fraction(1, 25), 0)]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("c, level", _HERMITE_P57_SHELLS)
def test_hermite_p5_p7_matches_reference(p, c, level):
    ctx = PAdicContext(p)
    for chi in _characters(p):
        for kp in range(-1, 3):
            k = kp + 2 * level
            got_stats, want_stats = {}, {}
            got = _shell_hermite(ctx, 2, k, level, c, chi, got_stats)
            want = shell_n2_hermite_reference(ctx, k, level, c, chi, want_stats)
            _same(got, want, got_stats.get("cells", 0), want_stats.get("cells", 0))


def test_hermite_never_builds_the_count_kernel(monkeypatch):
    def kernel(*args):
        raise AssertionError("count kernel built on the Hermite path")
    monkeypatch.setattr(integrate, "_gl2_hist_cached", kernel)
    monkeypatch.setattr(integrate, "gl2_histogram", kernel)
    for p in (2, 3, 5, 7):
        ctx = PAdicContext(p)
        for chi in _characters(p):
            for c_exp in range(3):
                for level in (-1, 0, 1):
                    for kp in range(-1, 4):
                        _shell_hermite(ctx, 2, kp + 2 * level, level,
                                       Fraction(1, p ** c_exp), chi, {})


def _generic_characters(p):
    """None, the quadratic character, and at p = 3 the conductor-2 one with
    chi(2) = -zeta_3."""
    chars = _characters(p)
    return [chars[0], chars[3]] + ([chars[4]] if p == 3 else [])


def _generic_same(p, k, center, level, modulation, chi, budget=10 ** 7):
    ctx = PAdicContext(p)
    config = IntegrationConfig(hard_budget=budget)
    got_stats, want_stats = {}, {}
    try:
        want = shell_generic_reference(ctx, k, center, level, modulation, config,
                                       chi, want_stats)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as got:
            _shell_generic(ctx, k, center, level, modulation, config, chi, got_stats)
        assert ((got.value.shell, got.value.truncation, got.value.cells)
                == (exc.shell, exc.truncation, exc.cells))
        return None
    got = _shell_generic(ctx, k, center, level, modulation, config, chi, got_stats)
    _same(got, want, got_stats, want_stats)
    return got


@pytest.mark.parametrize("p", [2, 3])
def test_generic_n1_matches_reference(p):
    centers = [Fraction(0), Fraction(1), Fraction(p - 1, p)]
    modulations = [Fraction(0), Fraction(1, p), Fraction(p + 2, p ** 2)]
    for chi in _generic_characters(p):
        for a in centers:
            for b in modulations:
                for level in (-1, 0, 1):
                    for k in range(-1, 3):
                        _generic_same(p, k, PAdicMatrix([[a]]), level,
                                      PAdicMatrix([[b]]), chi)


@pytest.mark.parametrize("p", [2, 3])
def test_generic_n2_matches_reference(p):
    q = Fraction(1, p)
    # (center, level, shells): zero, non-integral, and integral but not
    # transpose-invariant cosets
    cosets = [(PAdicMatrix.zero(2), 0, (0, 1)), (PAdicMatrix([[q, q], [0, 0]]), 0, (-1, 0)),
              (PAdicMatrix([[1, 1], [0, p]]), 1, (1, 2))]
    modulations = [PAdicMatrix.zero(2), PAdicMatrix.scalar(2, q),
                   PAdicMatrix([[q, 1], [2 * q, 0]])]
    for chi in _generic_characters(p):
        for center, level, ks in cosets:
            for mod in modulations:
                for k in ks:
                    if chi is not None and chi.conductor_exp > 1 and k == ks[-1]:
                        continue  # over 10^5 reference cells for each such shell
                    _generic_same(p, k, center, level, mod, chi)


def test_generic_budget_matches_reference():
    # 142,723 cells unbounded: both sides stop at the same cell
    chi = _generic_characters(3)[-1]
    assert _generic_same(3, 1, PAdicMatrix.zero(2), 0, PAdicMatrix.scalar(2, Fraction(1, 3)),
                         chi, budget=500) is None


@pytest.mark.parametrize("k, volume", [(0, Fraction(21, 64)), (1, Fraction(147, 64))])
def test_generic_n3_unit_ball_matches_reference(k, volume):
    assert _generic_same(2, k, PAdicMatrix.zero(3), 0, PAdicMatrix.zero(3), None) == volume


# -- the Hermite path at n = 1 and n = 3 --------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_hermite_n1_matches_n1_path(p):
    ctx = PAdicContext(p)
    zero = PAdicMatrix([[0]])
    for chi in _characters(p):
        for c in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(p + 2, p ** 3)):
            for level in (-1, 0, 1):
                for k in range(-2, 4):
                    want = _shell_n1(ctx, k, zero, level, PAdicMatrix([[c]]), chi, None)
                    got = _shell_hermite(ctx, 1, k, level, c, chi, None)
                    assert got == want and hash(got) == hash(want)


# (p, character index in _characters, c, k, level): k' = k - 3*level <= 1,
# and a generic refinement of at most ~10^5 cells each
_HERMITE_N3_SHELLS = [(3, 0, Fraction(1, 3), 0, 0), (3, 3, Fraction(1, 3), 0, 0),
                      (3, 2, Fraction(1), 0, 0), (2, 3, Fraction(3, 4), 0, 0),
                      (2, 0, Fraction(1, 2), 1, 0), (2, 2, Fraction(1), -2, -1)]


@pytest.mark.parametrize("p, chi_index, c, k, level", _HERMITE_N3_SHELLS)
def test_hermite_n3_matches_generic(p, chi_index, c, k, level):
    ctx = PAdicContext(p)
    chi = _characters(p)[chi_index]
    want = _shell_generic(ctx, k, PAdicMatrix.zero(3), level, PAdicMatrix.scalar(3, c),
                          IntegrationConfig(), chi, {})
    got = _shell_hermite(ctx, 3, k, level, c, chi, {})
    assert got == want and hash(got) == hash(want)


def test_ramified_gauss_sums_stay_at_the_conductor(monkeypatch):
    # G(w p^t) vanishes once mc - t > cu, so no n = 1 enumeration runs at a
    # psi level above max(1, cu)
    levels = []
    shell_n1 = integrate._shell_n1

    def spy(ctx, k, center, level, modulation, unit_char, stats):
        levels.append(-valuation(modulation.entries[0][0], ctx.p))
        return shell_n1(ctx, k, center, level, modulation, unit_char, stats)

    monkeypatch.setattr(integrate, "_shell_n1", spy)
    ctx = PAdicContext(11)
    chi = MultiplicativeCharacter.quadratic_ramified(11)
    for mc in range(5):
        for kp in range(4):
            _shell_hermite(ctx, 2, kp, 0, Fraction(1, 11 ** mc), chi, {})
    assert levels and max(levels) <= max(1, chi.conductor_exp)
