"""The proven truncation point of a kernel shell against an agreement loop.

`stabilized_shell_integral` evaluates shell k of psi(tr(eps g)) chi(det g / p^k)
d^x g once, at a truncation p^(-m) M_n(Z_p) that its docstring proves exact.
The reference here is the rule it replaced: grow m from the first truncation
that reaches the shell until two consecutive truncations agree with the one
before them.  The proven value must equal the loop's, at an m no larger.
"""

import copy

import pytest

from gjzeta import integrate
from gjzeta.distributions import _zero_window
from gjzeta.integrate import (K_EXTRA, IntegrationConfig, stabilized_shell_integral,
                              term_shell_integral)
from gjzeta.padic import PAdicContext, PAdicMatrix
from gjzeta.scalars import root_of_unity, scalar_is_zero
from gjzeta.zeta import MultiplicativeCharacter

AGREEMENTS = 2
M_SCAN = 8  # the loop's last truncation


def agreement_loop(ctx, n, k, modulation, config, chi):
    """(value, m) where truncations m - 2, m - 1 and m first agree."""
    center = PAdicMatrix.zero(n)
    prev, agree = None, 0
    for m in range(max(config.m_start, -(k // n)), M_SCAN + 1):
        val = term_shell_integral(ctx, k, center, -m, modulation, config, chi)
        if prev is not None and scalar_is_zero(val - prev):
            agree += 1
            if agree >= AGREEMENTS:
                return val, m
        else:
            agree = 0
        prev = val
    raise AssertionError("shell %d: no agreement by m = %d" % (k, M_SCAN))


def conductor2(p):
    """chi of conductor exponent 2 with chi(3) = zeta_p (3 generates (Z/p^2)^x)."""
    return MultiplicativeCharacter(p, 2, {3: root_of_unity(p, 1, 1)})


def imprimitive(p):
    """The quadratic chi of conductor exponent 1, tabled mod p^2."""
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    return MultiplicativeCharacter(p, 2, {u: chi.unit_value(u) for u in range(p * p) if u % p})


CHARS = {
    "trivial": MultiplicativeCharacter.trivial,
    "unramified": lambda p: MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1)),
    "quadratic": MultiplicativeCharacter.quadratic_ramified,
    "conductor2": conductor2,
    "imprimitive": imprimitive,
}

CASES = ([(p, n, name) for p in (2, 3) for n in (1, 2, 3)
          for name in ("trivial", "unramified", "quadratic")]
         + [(7, n, "conductor2") for n in (1, 2)] + [(3, n, "imprimitive") for n in (1, 2, 3)])


def shells(n, chi, config):
    """Every shell a spectral action of this n and kernel character reads."""
    k_high = 2 * n + config.confirm + K_EXTRA
    return range(-_zero_window(n, chi.conductor_exp), k_high + 1)


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("p, n, name", CASES, ids=["p%d-n%d-%s" % c for c in CASES])
def test_proven_truncation_matches_agreement_loop(p, n, name, eps):
    ctx = PAdicContext(p)
    chi = CHARS[name](p)
    config = IntegrationConfig()
    mod = PAdicMatrix.scalar(n, eps)
    for k in shells(n, chi, config):
        ref, m_ref = agreement_loop(ctx, n, k, mod, config, chi)
        val, m = stabilized_shell_integral(ctx, n, k, mod, config, chi)
        assert scalar_is_zero(val - ref), (k, val, ref)
        assert m <= m_ref, (k, m, m_ref)


@pytest.mark.parametrize("k", [-2, -1])
def test_forced_enumeration_matches_agreement_loop(k):
    ctx = PAdicContext(2)
    config = IntegrationConfig(force_enumeration=True)
    mod = PAdicMatrix.scalar(2, 1)
    chi = MultiplicativeCharacter.trivial(2)
    ref, m_ref = agreement_loop(ctx, 2, k, mod, config, chi)
    val, m = stabilized_shell_integral(ctx, 2, k, mod, config, chi)
    assert scalar_is_zero(val - ref) and m <= m_ref


@pytest.mark.parametrize("n, k, force", [(1, -3, False), (1, 2, False), (2, -5, False),
                                         (2, 4, False), (3, 0, False), (2, -2, True)])
def test_each_call_evaluates_one_truncation(n, k, force, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])  # the level -m
        return term_shell_integral(*args, **kwargs)

    monkeypatch.setattr(integrate, "term_shell_integral", counted)
    config = IntegrationConfig(force_enumeration=force)
    _, m = stabilized_shell_integral(PAdicContext(2), n, k, PAdicMatrix.scalar(n, 1), config,
                                     MultiplicativeCharacter.quadratic_ramified(2))
    assert calls == [-m]


def as_written(chi, c):
    """chi with its table lifted to the units mod p^c, c above its true conductor f:
    the table as an imprimitive character is written, for the refinement to read."""
    p, f = chi.p, chi.conductor_exp
    written = copy.copy(chi)
    written.conductor_exp = c
    written.phases = {u: (s, a * p ** (c - f)) for u in range(p ** c) if u % p
                      for s, a in [chi.phases[u % p ** f]]}
    return written


@pytest.mark.parametrize("k", [-4, -3, -2, -1, 0])
def test_imprimitive_table_truncates_at_its_true_conductor(k):
    # the quadratic chi tabled mod 3^2 (c = 2) keeps f = 1, so n = 2 shells stop at
    # m* = max(1, f, ceil(-k/2)): one below max(1, c, ...) for k >= -2, where shell
    # -2 = -n f is the nonzero one.  The value matches the refinement of the table as
    # written mod 3^2, at m* and, where its budget allows (k <= -2), at c's truncation
    ctx, n, chi = PAdicContext(3), 2, imprimitive(3)
    assert chi.conductor_exp == 1
    mod = PAdicMatrix.scalar(n, 1)
    val, m = stabilized_shell_integral(ctx, n, k, mod, IntegrationConfig(), chi)
    assert m == max(1, -(k // n))
    forced, written = IntegrationConfig(force_enumeration=True), as_written(chi, 2)
    for mm in {m, max(m, 2)} if k <= -2 else {m}:
        ref = term_shell_integral(ctx, k, PAdicMatrix.zero(n), -mm, mod, forced, written)
        assert scalar_is_zero(val - ref), (k, mm)
