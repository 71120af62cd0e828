"""Shell-integral oracles and cross-checks between evaluation paths.

The closed-form volumes used as oracles:
  * n = 1, shell k of Z_p under d^x: vol = 1 - 1/p for every k >= 0;
  * n = 1, int_{v=k} psi(x) d^x x = 1-1/p (k>=0), -1/p (k=-1), 0 (k<=-2);
  * n = 2, shell k of M_2(Z_p) under d^x g = |det|^(-2) dg:
    vol = sigma(p^k) (1 - 1/p)(1 - 1/p^2) with sigma the divisor sum
    (from the Hermite-form count of index-p^k lattices).
"""

from fractions import Fraction

import pytest

from gjzeta import integrate
from gjzeta.errors import BudgetExceeded
from gjzeta.integrate import (IntegrationConfig, stabilized_shell_integral,
                              term_shell_integral)
from gjzeta.padic import PAdicContext, PAdicMatrix
from gjzeta.scalars import root_of_unity, scalar_is_zero
from gjzeta.zeta import MultiplicativeCharacter


def shell(p, n, k, center=None, level=0, modulation=None, chi=None, **cfg):
    ctx = PAdicContext(p)
    center = center if center is not None else PAdicMatrix.zero(n)
    modulation = modulation if modulation is not None else PAdicMatrix.zero(n)
    return term_shell_integral(ctx, k, center, level, modulation,
                               IntegrationConfig(**cfg), chi)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_n1_shell_volumes(p):
    for k in range(0, 4):
        assert shell(p, 1, k) == Fraction(p - 1, p)
    assert scalar_is_zero(shell(p, 1, -1))


@pytest.mark.parametrize("p", [2, 3])
def test_n1_psi_shells(p):
    mod = PAdicMatrix([[1]])
    assert shell(p, 1, 0, level=-3, modulation=mod) == Fraction(p - 1, p)
    assert shell(p, 1, -1, level=-3, modulation=mod) == Fraction(-1, p)
    assert scalar_is_zero(shell(p, 1, -2, level=-3, modulation=mod))
    assert scalar_is_zero(shell(p, 1, -3, level=-3, modulation=mod))


@pytest.mark.parametrize("p, ks", [
    pytest.param(2, range(0, 4), id="2"),
    pytest.param(3, range(0, 4), id="3"),
    # large shells: the Hermite weights p^d no longer fit in 64 bits
    pytest.param(2, (61, 70), id="2-large"),
    pytest.param(3, (45,), id="3-large")])
def test_n2_shell_volumes_divisor_sum(p, ks):
    w = Fraction((p - 1), p) * Fraction(p * p - 1, p * p)
    for k in ks:
        sigma = sum(p ** d for d in range(k + 1))
        assert shell(p, 2, k) == sigma * w


def test_n2_hermite_agrees_with_refinement():
    # same integrand through the fast path and the generic refinement path
    for p in (2, 3):
        for c in (Fraction(1), Fraction(1, p)):
            for level in (0, -1):
                for k in range(2 * level, 2 * level + 3):
                    fast = shell(p, 2, k, level=level,
                                 modulation=PAdicMatrix.scalar(2, c))
                    slow = shell(p, 2, k, level=level,
                                 modulation=PAdicMatrix.scalar(2, c),
                                 force_enumeration=True)
                    assert scalar_is_zero(fast - slow), (p, c, level, k)


def test_n2_hermite_agrees_with_refinement_ramified_char():
    p = 2
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    for k in (0, 1, 2):
        fast = shell(p, 2, k, modulation=PAdicMatrix.scalar(2, Fraction(1, 2)),
                     chi=chi)
        slow = shell(p, 2, k, modulation=PAdicMatrix.scalar(2, Fraction(1, 2)),
                     chi=chi, force_enumeration=True)
        assert scalar_is_zero(fast - slow), k


def test_nonscalar_modulation_uses_generic_path():
    # off-diagonal modulation cannot take the Hermite fast path; the result
    # must still match the scalar case by symmetry when conjugate
    p = 2
    b = PAdicMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    val = shell(p, 2, 0, modulation=b)
    # compare against an explicit enumeration with the same integrand
    ref = shell(p, 2, 0, modulation=b, force_enumeration=True)
    assert scalar_is_zero(val - ref)


@pytest.mark.parametrize("center, modulation, route", [
    (PAdicMatrix([[2, 0], [4, 2]]), PAdicMatrix.scalar(2, Fraction(1, 2)), "hermite"),
    (PAdicMatrix.zero(2), PAdicMatrix.scalar(2, Fraction(1, 2)), "hermite"),
    (PAdicMatrix([[2, 0], [1, 2]]), PAdicMatrix.scalar(2, Fraction(1, 2)), "generic"),
    (PAdicMatrix.zero(2), PAdicMatrix([[Fraction(1, 2), 0], [0, 1]]), "generic"),
    (PAdicMatrix.zero(2), PAdicMatrix([[1, 1], [0, 1]]), "generic")])
def test_hermite_route_needs_scalar_modulation_and_center_in_the_lattice(
        center, modulation, route, monkeypatch):
    # at level 1: the center must lie in 2 M_2(Z_2), the modulation must be c * Id
    taken = []
    for name in ("hermite", "generic"):
        monkeypatch.setattr(integrate, "_shell_" + name,
                            lambda *args, name=name: taken.append(name) or 0)
    shell(2, 2, 2, center=center, level=1, modulation=modulation)
    assert taken == [route]


@pytest.mark.parametrize("force, route", [(False, "hermite"), (True, "generic")])
def test_n1_routes_like_every_n(force, route, monkeypatch):
    # n = 1 has no path of its own: force_enumeration sends the shell to the refinement
    taken = []
    for name in ("hermite", "generic"):
        monkeypatch.setattr(integrate, "_shell_" + name,
                            lambda *args, name=name: taken.append(name) or 0)
    shell(3, 1, 0, level=-1, modulation=PAdicMatrix([[1]]), force_enumeration=force)
    assert taken == [route]


def test_hard_budget_raises():
    with pytest.raises(BudgetExceeded):
        shell(2, 2, 4, modulation=PAdicMatrix([[0, 1], [Fraction(1, 4), 0]]),
              level=-1, hard_budget=50)


def test_stabilized_integral_n1():
    ctx = PAdicContext(2)
    cfg = IntegrationConfig()
    # int_{v=k} psi(x) d^x x over all of Q_p: stabilizes to the compact answer
    val, m = stabilized_shell_integral(ctx, 1, 0, PAdicMatrix([[1]]), cfg)
    assert val == Fraction(1, 2)
    val, m = stabilized_shell_integral(ctx, 1, -1, PAdicMatrix([[1]]), cfg)
    assert val == Fraction(-1, 2)
    val, m = stabilized_shell_integral(ctx, 1, -2, PAdicMatrix([[1]]), cfg)
    assert scalar_is_zero(val)


def test_high_conductor_shell_needs_no_truncation_cap():
    # chi(5) = zeta_{2^8} has true conductor 2^10, so shell k = -10 = -n f is the nonzero
    # one and m* = max(0, -k) = 10, past the old default cap m_max = 8
    ctx = PAdicContext(2)
    chi = MultiplicativeCharacter(2, 10, {5: root_of_unity(2, 8, 1), 1023: 1})
    mod = PAdicMatrix([[1]])
    val, m = stabilized_shell_integral(ctx, 1, -10, mod, IntegrationConfig(), chi)
    assert m == 10 and not scalar_is_zero(val)
    ref = term_shell_integral(ctx, -10, PAdicMatrix.zero(1), -10, mod,
                              IntegrationConfig(force_enumeration=True), chi)
    assert scalar_is_zero(val - ref)
