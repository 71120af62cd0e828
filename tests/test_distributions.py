"""Twisted-distribution calculus and its spectral action."""

import time
from fractions import Fraction

import pytest

from gjzeta.distributions import (DIRECT, INVERSE, TwistedDistribution,
                                  closed_form_inverse, cstar_gamma, det_twist,
                                  gj_delta, spectral_action, tilde,
                                  verify_bk_identity, verify_inverse_weak,
                                  verify_relation)
from gjzeta.errors import BudgetExceeded, Singular
from gjzeta.integrate import IntegrationConfig
from gjzeta.padic import PAdicContext, PAdicMatrix
from gjzeta.ratfun import ratfun_equal
from gjzeta.scalars import root_of_unity
from gjzeta.schwartz import SchwartzBruhatFn
from gjzeta.zeta import MultiplicativeCharacter, gamma_factor


def test_tuple_calculus():
    d = cstar_gamma(3)
    assert d.alpha == 2
    assert tilde(tilde(d)) == d
    assert closed_form_inverse(closed_form_inverse(d)) == d
    assert det_twist(d, 2).alpha == 3
    inv = closed_form_inverse(d)
    assert inv.mode == DIRECT
    assert inv.alpha2 == 2 * 3 - (3 + 1)
    assert inv.epsilon == -1


def test_relation_all_n():
    for n in range(1, 9):
        assert verify_relation(n)["verdict"] == "PASS"


def test_spectral_action_matches_tate_gamma():
    # the generating distribution acts by the gamma factor (n = 1)
    p = 2
    chi = MultiplicativeCharacter.trivial(p)
    x = PAdicMatrix([[1]])
    act = spectral_action(gj_delta(1), chi, x)
    g = gamma_factor(SchwartzBruhatFn.unit_ball(1, PAdicContext(p)), chi)
    assert ratfun_equal(act, g.value)


def test_spectral_action_sample_point_invariance():
    p = 3
    chi = MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1))
    acts = [spectral_action(gj_delta(1), chi, PAdicMatrix([[x]]))
            for x in (1, p, Fraction(1, p))]
    assert ratfun_equal(acts[0], acts[1])
    assert ratfun_equal(acts[0], acts[2])


def test_spectral_action_singular_x():
    chi = MultiplicativeCharacter.trivial(2)
    with pytest.raises(Singular):
        spectral_action(gj_delta(1), chi, PAdicMatrix([[0]]))


def test_bk_identity_report_n1():
    p = 2
    ctx = PAdicContext(p)
    chi = MultiplicativeCharacter.quadratic_ramified(p)
    phis = [SchwartzBruhatFn.shifted_ball(1, ctx, 1, 2)]
    xs = [PAdicMatrix([[1]]), PAdicMatrix([[2]]), PAdicMatrix([[Fraction(1, 2)]])]
    rep = verify_bk_identity(chi, 1, phis, xs)
    assert rep["verdict"] == "PASS"
    assert rep["windows"]["k_range"]
    assert rep["cells_enumerated"] > 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("alpha2", [1, 2, 3])
def test_weak_inverse_n1(p, alpha2):
    d = TwistedDistribution(1, alpha2, -1, INVERSE)
    chis = [MultiplicativeCharacter.trivial(p),
            MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1))]
    rep = verify_inverse_weak(d, chis)
    assert rep["verdict"] == "PASS"


def test_weak_inverse_ramified_char():
    d = TwistedDistribution(1, 1, -1, INVERSE)
    rep = verify_inverse_weak(d, [MultiplicativeCharacter.quadratic_ramified(2)])
    assert rep["verdict"] == "PASS"


def test_weak_inverse_requires_inverse_mode():
    with pytest.raises(ValueError):
        verify_inverse_weak(gj_delta(1), [MultiplicativeCharacter.trivial(2)])


def test_spectral_action_thread_invariance():
    p = 2
    chi = MultiplicativeCharacter.trivial(p)
    x = PAdicMatrix.identity(1)
    a = spectral_action(gj_delta(1), chi, x, IntegrationConfig(threads=1))
    b = spectral_action(gj_delta(1), chi, x, IntegrationConfig(threads=4))
    assert a.serialize() == b.serialize()


def test_environment_does_not_override_explicit_budget(monkeypatch):
    # the budget set on the config must survive the per-shell config copies
    monkeypatch.setenv("GJZETA_HARD_BUDGET", "5")
    cfg = IntegrationConfig(hard_budget=7, force_enumeration=True)
    with pytest.raises(BudgetExceeded, match="exceeded 7 cells"):
        spectral_action(gj_delta(2), MultiplicativeCharacter.trivial(2),
                        PAdicMatrix.identity(2), cfg)


class _YieldingStats(dict):
    """A stats dict that lets other threads run between a read and the
    write that follows it, which exposes an unguarded read-modify-write."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


def test_cell_count_is_thread_safe():
    cells = []
    for threads in (1, 4):
        stats = _YieldingStats()
        spectral_action(gj_delta(1), MultiplicativeCharacter.trivial(2),
                        PAdicMatrix.identity(1), IntegrationConfig(threads=threads),
                        stats)
        cells.append(stats["cells"])
    assert cells[0] == cells[1]


@pytest.mark.parametrize("order", [1, -1])
def test_windows_cover_every_spectral_action_call(order):
    # each chi's calls widen the windows; the first call no longer fixes them
    chis = [MultiplicativeCharacter.trivial(3), MultiplicativeCharacter.quadratic_ramified(3)]
    rep = verify_inverse_weak(tilde(cstar_gamma(1)), chis[::order])
    assert rep["verdict"] == "PASS"
    assert rep["windows"] == {"k_range": [-4, 7], "m_range": [2, 6]}
    assert rep["cells_enumerated"] == 828
