"""The shell paths against scalar-accumulating references.

The references below add one exact cyclotomic value per cell, sum the
Hermite off-diagonal entry as a geometric ratio (with an inverse) and bin the
Hermite gamma cells with their own sweep over all of M_2(Z/p^J); the engine
counts the same cells by (det residue, psi exponent) and reduces once.
Results must agree exactly, including for characters with non-rational values.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt, prod
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gjzeta import integrate
from gjzeta.errors import BudgetExceeded
from gjzeta.integrate import (IntegrationConfig, _shell_generic, _shell_hermite, _shell_n1,
                              term_shell_integral)
from gjzeta.padic import (INFINITE, PAdicContext, PAdicMatrix, flat_det, int_valuation,
                          mod_int, psi_value, valuation)
from gjzeta.scalars import as_scalar, root_of_unity, root_of_unity_sum
from gjzeta.schwartz import SchwartzBruhatFn, SchwartzTerm
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
    A = tuple(mod_int(e * pm, p ** max(Lp, 0)) for row in center.entries for e in row)
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
        det = flat_det(a, n)
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
    zeta = {2: MultiplicativeCharacter(
                2, 4, {15: -1, 5: root_of_unity(2, 2, 1)}),
            3: MultiplicativeCharacter(
                3, 2, {2: -root_of_unity(3, 1, 1)}),
            5: MultiplicativeCharacter(
                5, 2, {2: root_of_unity(5, 1, 1)}),
            7: MultiplicativeCharacter(
                7, 2, {3: root_of_unity(7, 1, 1)})}[p]
    return [None, MultiplicativeCharacter.trivial(p),
            MultiplicativeCharacter.unramified(p, Fraction(1, p)),
            MultiplicativeCharacter.quadratic_ramified(p), zeta]


def _same(got, want, got_stats=None, want_stats=None):
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert got_stats == want_stats


def _n1_same(ctx, k, center, level, mod, chi):
    """term_shell_integral at n = 1, on its own route and forced to the
    refinement, against the unit enumeration."""
    want = shell_n1_reference(ctx, k, center, level, mod, chi, {})
    for force in (False, True):
        config = IntegrationConfig(force_enumeration=force)
        _same(term_shell_integral(ctx, k, center, level, mod, config, chi), want)


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
                    _n1_same(ctx, k, PAdicMatrix([[a]]), level, PAdicMatrix([[b]]), chi)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n1_whole_coset_shells_match_reference(p):
    # v(a) >= level makes a + p^level Z_p the zero-centered coset of the closed
    # forms, and v(a) < level leaves it to the refinement; k < level or k >= level
    ctx = PAdicContext(p)
    closed = refined = 0
    for chi in _characters(p):
        for a in (Fraction(0), Fraction(p ** 2), Fraction(p), Fraction(1), Fraction(1, p)):
            for level in (-1, 0, 1, 2):
                closed += valuation(a, p) >= level
                refined += valuation(a, p) < level
                for k in (-1, 0, 1, 2, 3):
                    for b in (Fraction(0), Fraction(1, p), Fraction(3)):
                        _n1_same(ctx, k, PAdicMatrix([[a]]), level, PAdicMatrix([[b]]), chi)
    assert closed and refined


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n1_deep_shells_match_reference(p):
    # a psi level m > max(1, cu, level - k) makes the sum vanish
    ctx = PAdicContext(p)
    vanishing = 0
    for chi in _characters(p):
        cu = chi.conductor_exp if chi else 0
        for level in (-8, 0, 1):
            for b in (Fraction(1), Fraction(p + 2, p ** 2)):
                for k in range(-cu - 4, 0):
                    m = -(k + valuation(b, p))
                    if p ** max(1, cu, level - k, m) > 300:
                        continue
                    vanishing += m > max(1, cu, level - k)
                    _n1_same(ctx, k, PAdicMatrix([[Fraction(p - 1, p)]]), level,
                             PAdicMatrix([[b]]), chi)
    assert vanishing


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("c_exp", [0, 1, 2])
@pytest.mark.parametrize("level", [-1, 0, 1])
def test_hermite_matches_reference(p, c_exp, level):
    ctx = PAdicContext(p)
    c = Fraction(1, p ** c_exp)
    for chi in _characters(p):
        for kp in range(-1, 3):
            k = kp + 2 * level
            got = _shell_hermite(ctx, 2, k, level, c, chi)
            _same(got, shell_n2_hermite_reference(ctx, k, level, c, chi, {}))


def test_hermite_zero_modulation_matches_reference():
    ctx = PAdicContext(3)
    chi = _characters(3)[-1]
    for k in range(0, 4):
        got = _shell_hermite(ctx, 2, k, 0, Fraction(0), chi)
        _same(got, shell_n2_hermite_reference(ctx, k, 0, Fraction(0), chi, {}))



def test_hermite_p5_matches_reference():
    ctx = PAdicContext(5)
    for chi in _characters(5):
        for k in range(-1, 3):
            got = _shell_hermite(ctx, 2, k, 0, Fraction(1, 5), chi)
            _same(got, shell_n2_hermite_reference(ctx, k, 0, Fraction(1, 5), chi, {}))


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
            got = _shell_hermite(ctx, 2, k, level, c, chi)
            _same(got, shell_n2_hermite_reference(ctx, k, level, c, chi, {}))


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
                                       Fraction(1, p ** c_exp), chi)


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


# -- last splits and memoized subtrees ----------------------------------

@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (3, 1)])
def test_generic_last_split_at_kprime_matches_reference(p, k):
    # zero modulation, trivial or quadratic chi: a cell with v(det) >= k'
    # at j = k' >= 1 makes the last split (p = 2's quadratic chi, cu = 2, at j = k' + 1)
    chars = _characters(p)
    for chi in (chars[0], chars[3]):
        for mod in (PAdicMatrix.zero(2), PAdicMatrix.scalar(2, 1)):
            _generic_same(p, k, PAdicMatrix.zero(2), 0, mod, chi)


def test_generic_last_split_past_kprime_from_the_psi_level():
    # center Id at level 1: det is a unit, k' = 0, but psi needs j = 3, so
    # the 81 splits at j = 2 are the last
    chars = _characters(3)
    mod = PAdicMatrix([[0, Fraction(1, 27)], [Fraction(1, 9), 0]])
    for chi in (chars[0], chars[3]):
        _generic_same(3, 0, PAdicMatrix.scalar(2, 1), 1, mod, chi)


def test_generic_last_split_past_kprime_from_the_conductor():
    # chi of conductor exponent 2 needs j = k' + 2: the last split is at k' + 1
    chi = _characters(3)[4]
    for center, level in ((PAdicMatrix.zero(2), 0), (PAdicMatrix.scalar(2, 1), 1)):
        for mod in (PAdicMatrix.zero(2), PAdicMatrix([[Fraction(1, 3), 0], [1, 0]])):
            _generic_same(3, 0, center, level, mod, chi)


def test_generic_n3_last_split_matches_reference():
    mod = PAdicMatrix([[0, Fraction(1, 4), 0], [0, 0, Fraction(1, 2)], [Fraction(1, 2), 0, 1]])
    for chi in (None, _characters(2)[3]):
        _generic_same(2, 0, PAdicMatrix.scalar(3, 1), 1, mod, chi)


def test_generic_budget_inside_a_last_split_matches_reference():
    # k' = 0 with the conductor-2 chi: the root and its 81 children, then each
    # of the 48 children with a unit det splits last into 81 cells (3,970 in
    # all); each budget below lands strictly inside one of those splits
    chi = _characters(3)[4]
    for budget in range(100, 3970, 397):
        assert _generic_same(3, 0, PAdicMatrix.zero(2), 0, PAdicMatrix.zero(2), chi,
                             budget=budget) is None


def _count_determinants(monkeypatch):
    calls = []
    flat_det_ = integrate.flat_det

    def counted(a, n):
        calls.append(n)
        return flat_det_(a, n)

    monkeypatch.setattr(integrate, "flat_det", counted)
    return calls


def test_generic_last_splits_read_few_determinants(monkeypatch):
    # the p = 3, k' = 2 cross-check shell: 79,300 cells from 1 + 33 expansions
    # where det is not affine in the digits (n per lower-row digit vector, once
    # per lower rows) and one cofactor multiset per first affine key tuple
    calls = _count_determinants(monkeypatch)
    stats = {}
    value = _shell_generic(PAdicContext(3), 2, PAdicMatrix.zero(2), 0, PAdicMatrix.scalar(2, 1),
                           IntegrationConfig(), None, stats)
    assert value == Fraction(208, 27) and stats == {"cells": 79300}
    assert len(calls) < 79300 // 200  # 346; a census per last split read 3,151


@pytest.mark.parametrize("p, k, level, c, value, cells", [
    (2, 3, 0, Fraction(1), Fraction(45, 8), 13361),
    (2, 3, 0, Fraction(1, 2), Fraction(-3, 8), 13361),
    (2, 1, -1, Fraction(1), Fraction(-3, 8), 13361),
    (3, 2, 0, Fraction(1), Fraction(208, 27), 79300)])
def test_cross_check_shells_keep_their_values_and_cells(p, k, level, c, value, cells):
    # the enumerate workload's Hermite-against-refinement cross-checks: the
    # refinement's value and cell count, whatever reads the cofactors
    stats = {}
    got = term_shell_integral(PAdicContext(p), k, PAdicMatrix.zero(2), level,
                              PAdicMatrix.scalar(2, c),
                              IntegrationConfig(force_enumeration=True), None, stats)
    assert got == value and stats == {"cells": cells}
    assert term_shell_integral(PAdicContext(p), k, PAdicMatrix.zero(2), level,
                               PAdicMatrix.scalar(2, c), IntegrationConfig()) == value


def test_d12_transform_trips_the_budget_reading_few_determinants(monkeypatch):
    # gamma --p 3 --n 2 on the coset diag(1, 2) + 3 M_2(Z_3) exits 2: shell 2 of its
    # transform (centre 0, level -1, modulation diag(1, 2)) counts 59,403,862 cells,
    # and a cell-by-cell walk gives the same count and -8/27
    ctx = PAdicContext(3)
    phi = SchwartzBruhatFn(2, ctx, [SchwartzTerm(1, PAdicMatrix([[1, 0], [0, 2]]), 1,
                                                 PAdicMatrix.zero(2))])
    (t,) = phi.fourier().terms
    calls = _count_determinants(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        term_shell_integral(ctx, 2, t.center, t.level, t.modulation, IntegrationConfig(),
                            None, {})
    assert (exc.value.shell, exc.value.truncation, exc.value.cells) == (2, 1, 10 ** 7 + 1)
    assert len(calls) < 2000  # a determinant per child read 370,450
    stats = {}
    assert term_shell_integral(ctx, 2, t.center, t.level, t.modulation,
                               IntegrationConfig(hard_budget=10 ** 8), None,
                               stats) == Fraction(-8, 27)
    assert stats == {"cells": 59403862}


def last_split_by_children(p, k, a, j, C, chi):
    """The shell of the one cell (a, j) when it splits last, one determinant per
    child: a child with v(det) = k adds chi's sign at its psi * chi phase."""
    n2 = len(a)
    n = isqrt(n2)
    cu, phases = (chi.conductor_exp, chi.phases) if chi else (0, {0: (1, 0)})
    mpsi = max([0] + [-valuation(c, p) for c in C if c])
    T = max(mpsi, cu)
    # psi(tr(C g)) = zeta_{p^T}^(sum w_q g_q), the flat g_q = g[l][i] paired with C[i][l]
    w = [mod_int(C[q % n * n + q // n] * p ** mpsi, p ** mpsi) * p ** (T - mpsi)
         for q in range(n2)]
    hist = [0] * p ** T
    for t in product(range(p), repeat=n2):
        child = tuple(x + p ** j * y for x, y in zip(a, t))
        d = flat_det(child, n)
        if d == 0 or int_valuation(d, p) != k:
            continue
        s, e = phases[d // p ** k % p ** cu]
        hist[(sum(map(mul, w, child)) + e * p ** (T - cu)) % p ** T] += s
    return root_of_unity_sum(p, T, hist) * Fraction(p) ** (n * k) / p ** ((j + 1) * n2)


@st.composite
def _last_split_cells(draw):
    p, n = draw(st.sampled_from([(p, n) for p in (2, 3, 5) for n in (1, 2, 3)
                                 if p ** (n * n) <= 3 ** 9]))
    j = draw(st.integers(1, 2))
    a = tuple(draw(st.integers(0, p ** j - 1)) for _ in range(n * n))
    entry = st.builds(lambda x, e: Fraction(x, p ** e), st.integers(-4, 4), st.integers(0, j + 1))
    if draw(st.booleans()):  # scalar
        c = draw(entry)
        C = tuple(c if i % (n + 1) == 0 else 0 for i in range(n * n))
    else:
        C = tuple(draw(entry) for _ in range(n * n))
    chi = draw(st.sampled_from([c for c in _characters(p) if c is None or c.conductor_exp <= 2]))
    return p, n, j, a, C, chi


@settings(max_examples=40, deadline=None)
@given(_last_split_cells())
def test_last_split_linear_count_matches_the_children(case):
    # the root cell (a, j) at level j: k is the one shell it can feed, and it
    # must split last (j >= max(1, mpsi - 1, R - 1), R = k + max(1, cu))
    p, n, j, a, C, chi = case
    cu = chi.conductor_exp if chi else 0
    mpsi = max([0] + [-valuation(c, p) for c in C if c])
    d = flat_det(a, n)
    v = int_valuation(d, p) if d and int_valuation(d, p) < j else j
    assume(not (v < j and j >= mpsi and j >= v + cu))  # resolved at the root
    assume(j >= max(1, mpsi - 1, v + max(1, cu) - 1))
    center, modulation = (PAdicMatrix([list(flat[i * n:(i + 1) * n]) for i in range(n)])
                          for flat in (a, C))
    stats = {}
    got = _shell_generic(PAdicContext(p), v, center, j, modulation, IntegrationConfig(), chi,
                         stats)
    _same(got, last_split_by_children(p, v, a, j, C, chi))
    assert stats == {"cells": 1 + p ** (n * n)}


def _guard_offsets(monkeypatch, budget):
    """Fail, without building them, on a request for more children than the budget."""
    offsets = integrate._offsets

    def guarded(n2, p, j):
        assert p ** n2 <= budget, "built %d^%d children under a budget of %d" % (p, n2, budget)
        return offsets(n2, p, j)
    monkeypatch.setattr(integrate, "_offsets", guarded)


# n = 3, p = 7: the root splits into 7^9 children one level above its last split
_WIDE_SPLIT = PAdicMatrix([[0, Fraction(1, 49), 0], [Fraction(1, 7), 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("budget", [1, 1000, 10 ** 7])
def test_generic_budget_checked_before_a_split_is_built(monkeypatch, budget):
    # the 7^9 child offsets were built before the budget saw them: a MemoryError
    _guard_offsets(monkeypatch, budget)
    with pytest.raises(BudgetExceeded) as exc:
        _shell_generic(PAdicContext(7), 0, PAdicMatrix.zero(3), 0, _WIDE_SPLIT,
                       IntegrationConfig(hard_budget=budget), None, {})
    assert (exc.value.shell, exc.value.truncation, exc.value.cells) == (0, 0, budget + 1)


@st.composite
def _generic_cosets(draw):
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]))

    def matrix(low):
        entry = st.builds(lambda a, e: Fraction(a) * Fraction(p) ** e,
                          st.integers(-4, 4), st.integers(low, 1))
        return PAdicMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    center = draw(st.sampled_from([PAdicMatrix.zero(n), PAdicMatrix.scalar(n, 1), None]))
    if center is None:
        center = matrix(draw(st.integers(-1, 0)))
    modulation = draw(st.sampled_from([PAdicMatrix.zero(n), None]))
    if modulation is None:
        modulation = matrix(draw(st.integers(-3, 0)))
    return (p, draw(st.integers(-1, 2)), center, draw(st.integers(-1, 1)), modulation,
            draw(st.sampled_from(_characters(p))),
            draw(st.one_of(st.just(2 * 10 ** 4), st.integers(20, 2 * 10 ** 4))))


@settings(max_examples=40, deadline=None)
@given(_generic_cosets())
def test_generic_matches_reference_on_random_cosets(case):
    p, k, center, level, modulation, chi, budget = case
    _generic_same(p, k, center, level, modulation, chi, budget=budget)


# -- the Hermite path at n = 1 and n = 3 --------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_hermite_n1_matches_n1_path(p):
    ctx = PAdicContext(p)
    zero = PAdicMatrix([[0]])
    for chi in _characters(p):
        for c in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(p + 2, p ** 3)):
            for level in (-1, 0, 1):
                for k in range(-2, 4):
                    _n1_same(ctx, k, zero, level, PAdicMatrix([[c]]), chi)


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
    got = _shell_hermite(ctx, 3, k, level, c, chi)
    assert got == want and hash(got) == hash(want)


def test_ramified_gauss_sums_stay_at_the_conductor(monkeypatch):
    # G(w p^t) vanishes off psi level f, so _shell_n1 only ever sums at the true
    # conductor, also for the quadratic chi written mod 11^2 (f = 1 < cu = 2)
    levels = []
    shell_n1 = integrate._shell_n1

    def spy(p, b, unit_char):
        levels.append(-valuation(b, p))
        return shell_n1(p, b, unit_char)

    monkeypatch.setattr(integrate, "_shell_n1", spy)
    ctx = PAdicContext(11)
    chi = MultiplicativeCharacter.quadratic_ramified(11)
    written = MultiplicativeCharacter(11, 2, {2: -1})
    for unit_char in (chi, written):
        for mc in range(5):
            for kp in range(4):
                _shell_hermite(ctx, 2, kp, 0, Fraction(1, 11 ** mc), unit_char)
    # each character has its nonzero shells at (mc, k') = (1, 0) and (2, 2)
    assert len(levels) == 4 and set(levels) == {1}


@st.composite
def _random_characters(draw, primes=(2, 3, 5), c_max=3):
    """A character mod p^c, c <= c_max, with a sign and a p-power root drawn on
    generators of the units mod p^c (2 for odd p; -1 and 5 for p = 2).  Its
    true conductor is often below c: an imprimitive table."""
    p, c = draw(st.sampled_from(primes)), draw(st.integers(0, c_max))
    sign, gens = st.sampled_from([1, -1]), {}
    if p == 2 and c >= 2:
        gens[2 ** c - 1] = draw(sign)
    if p == 2 and c >= 3:
        gens[5] = root_of_unity(2, c, 4 * draw(st.integers(0, 2 ** (c - 2) - 1)))
    if p > 2 and c:
        gens[2] = draw(sign) * root_of_unity(p, c, p * draw(st.integers(0, p ** (c - 1) - 1)))
    return MultiplicativeCharacter(p, c, gens)


@settings(max_examples=30, deadline=None)
@given(_random_characters())
def test_gauss_sum_cache_matches_a_fresh_enumeration(chi):
    # g = int_{Z_p^x} chi(x) psi(b x) dx at every psi level l <= cu
    p, cu = chi.p, chi.conductor_exp
    assume(cu >= 1)
    ctx, zero = PAdicContext(p), PAdicMatrix([[0]])
    for l in range(cu + 1):
        for w in sorted({1, 2, p + 1, -1 % p ** l} if l else {0}):
            b = Fraction(w, p ** l)
            _same(_shell_n1(p, b, chi),
                  shell_n1_reference(ctx, 0, zero, 0, PAdicMatrix([[b]]), chi, {}))
        # and the definition, p^-cu sum_{x in (Z/p^cu)^x} chi(x) zeta_{p^l}^x, at w = 1
        assert p ** cu * _shell_n1(p, Fraction(1, p ** l), chi) == sum(
            chi.unit_value(x) * root_of_unity(p, l, x) for x in range(p ** cu) if x % p)


# -- the scalar-centre closed form against the refinement ----------------

@st.composite
def _scalar_centred_cosets(draw):
    """(p, n, k, a, level, modulation, chi) with v(a) < level, p^level modulation
    integral (scalar, zero or not, or a full matrix) and chi of conductor <= 2."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3 if p == 2 else 2))
    unit = st.integers(1, p ** 3).filter(lambda u: u % p)
    va = draw(st.integers(-2, 3 - n))  # the refinement splits to depth about n v(a)
    a = Fraction(draw(unit), draw(unit)) * Fraction(p) ** va * draw(st.sampled_from([1, -1]))
    level = va + draw(st.integers(1, 3))
    k = n * va + draw(st.sampled_from([0, 0, 0, -1, 1]))
    entry = st.builds(lambda x, u: Fraction(x, u) / Fraction(p) ** level,
                      st.integers(-p, p), unit)
    kind = draw(st.sampled_from(["zero", "scalar", "matrix"]))
    if kind == "zero":
        modulation = PAdicMatrix.zero(n)
    elif kind == "scalar":
        modulation = PAdicMatrix.scalar(n, draw(entry))
    else:
        modulation = PAdicMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    chi = draw(_random_characters(primes=(p,), c_max=2))
    return p, n, k, a, level, modulation, chi


@settings(max_examples=60, deadline=None)
@given(_scalar_centred_cosets())
def test_scalar_centre_closed_form_matches_the_refinement(case):
    p, n, k, a, level, modulation, chi = case
    ctx, center = PAdicContext(p), PAdicMatrix.scalar(n, a)

    def refused(*args):
        raise AssertionError("a scalar-centred coset reached the refinement")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate, "_shell_generic", refused)
        got = term_shell_integral(ctx, k, center, level, modulation, IntegrationConfig(), chi)
    want = term_shell_integral(ctx, k, center, level, modulation,
                               IntegrationConfig(force_enumeration=True), chi)
    _same(got, want)


# -- the Hermite closed forms against the composition sum they replace ----

_UNIT_INTEGRALS = {}


def _unit_integral(p, b, unit_char):
    """int_{Z_p^x} chi(x) psi(b x) dx by the unit enumeration, kept per (b, chi's phases)."""
    key = (p, b) + ((unit_char.conductor_exp, frozenset(unit_char.phases.items()))
                    if unit_char else ())
    if key not in _UNIT_INTEGRALS:
        _UNIT_INTEGRALS[key] = shell_n1_reference(
            PAdicContext(p), 0, PAdicMatrix([[0]]), 0, PAdicMatrix([[b]]), unit_char, {})
    return _UNIT_INTEGRALS[key]


def shell_hermite_reference(ctx, n, k, level, c, unit_char):
    """vol(B_0(p^mc)) sum_{a_1+...+a_n=k'} p^(sum_j (j-1) a_j) prod_j gamma(min(a_j, mc)),
    with gamma(t) = int_{Z_p^x} chi(x) psi(cH p^t x) dx / (1 - 1/p) from the unit
    enumeration: the sum over compositions that _shell_hermite puts in closed form."""
    p = ctx.p
    kp = k - n * level
    if kp < 0:
        return as_scalar(0, p)
    cH = Fraction(c) * Fraction(p) ** level
    vc = valuation(cH, p)
    mc = 0 if vc is INFINITE else max(0, -int(vc))
    gamma = [_unit_integral(p, cH * p ** t, unit_char) * Fraction(p, p - 1)
             for t in range(mc + 1)]
    total = as_scalar(0, p)
    for head in product(range(kp + 1), repeat=n - 1):
        a = head + (kp - sum(head),)
        if a[-1] >= 0:
            term = as_scalar(p ** sum(j * x for j, x in enumerate(a)), p)
            for x in a:
                term = term * gamma[min(x, mc)]
            total = total + term
    vol = (Fraction((p - 1) ** n, p ** (n + mc * n * (n - 1) // 2)) if mc else
           Fraction(prod(p ** i - 1 for i in range(1, n + 1)), p ** (n * (n + 1) // 2)))
    return total * vol


def _closed_form_characters(p):
    """Every kind the closed forms tell apart: trivial (None and explicit), unramified
    with a rational and a root-of-unity chi(p), quadratic, true conductor 2 (4 at
    p = 2) and 3, the quadratic written one level up (kept at its f), and 1 on units mod p^2."""
    chars = _characters(p)
    quadratic = chars[3]
    c = quadratic.conductor_exp + 1
    gen = {2: 5, 3: 2, 5: 2}[p]
    f3 = (MultiplicativeCharacter(2, 3, {5: -1, 7: 1}) if p == 2 else
          MultiplicativeCharacter(p, 3, {gen: root_of_unity(p, 2, 1)}))
    return chars + [
        MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1)), f3,
        MultiplicativeCharacter(p, c, {u: quadratic.unit_value(u) for u in range(p ** c) if u % p}),
        MultiplicativeCharacter(p, 2, {u: 1 for u in range(p ** 2) if u % p})]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hermite_closed_forms_match_the_composition_sum(n, p):
    ctx = PAdicContext(p)
    chars = _closed_form_characters(p)
    assert sorted({chi.conductor_exp for chi in chars[1:]}) == (
        [0, 1, 2, 3] if p > 2 else [0, 2, 3, 4])
    for chi in chars + [chars[-3].inverse()]:
        for c in (Fraction(0), Fraction(1), Fraction(1, p), Fraction(p + 2, p ** 3)):
            for level in (-1, 0, 1):
                for kp in sorted({-1, 0, 1, 2, n, 2 * n} if n < 4 else {-1, 0, 1, n}):
                    k = kp + n * level
                    got = _shell_hermite(ctx, n, k, level, c, chi)
                    want = shell_hermite_reference(ctx, n, k, level, c, chi)
                    assert got == want and repr(got) == repr(want)
