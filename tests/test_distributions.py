"""Twisted-distribution calculus and its spectral action."""

from fractions import Fraction

import pytest

from gjzeta import distributions
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
    # the verify-bk sample points for n = 1 and n = 2 give one canonical form
    p = 3
    chi = MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1))
    for n, xs in ((1, [[[1]], [[p]], [[Fraction(1, p)]]]),
                  (2, [[[1, 0], [0, 1]], [[1, 0], [0, 2]], [[0, 1], [2, 0]]])):
        acts = [spectral_action(gj_delta(n), chi, PAdicMatrix(x)) for x in xs]
        for act in acts[1:]:
            assert ratfun_equal(acts[0], act)
            assert act.serialize() == acts[0].serialize()


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
    # the action's shells are closed forms: the cells are the shifted ball's refinement
    assert rep["cells_enumerated"] == 7


def test_bk_identity_evaluates_the_spectral_action_once(monkeypatch):
    # the action does not depend on x: three sample points, one evaluation
    calls = []
    real = distributions.spectral_action
    monkeypatch.setattr(distributions, "spectral_action",
                        lambda *args: calls.append(args) or real(*args))
    p = 3
    chi = MultiplicativeCharacter.unramified(p, root_of_unity(p, 1, 1))
    xs = [PAdicMatrix([[1]]), PAdicMatrix([[p]]), PAdicMatrix([[Fraction(1, p)]])]
    rep = verify_bk_identity(chi, 1, [SchwartzBruhatFn.unit_ball(1, PAdicContext(p))], xs)
    assert rep["verdict"] == "PASS" and rep["parameters"]["x_count"] == 3
    assert len(calls) == 1


@pytest.mark.parametrize("bad, error", [(PAdicMatrix([[0]]), Singular),
                                        (PAdicMatrix.identity(2), ValueError)])
@pytest.mark.parametrize("where", [1, 2])
def test_bk_identity_checks_every_sample_point(bad, error, where):
    chi = MultiplicativeCharacter.trivial(2)
    xs = [PAdicMatrix([[1]]), PAdicMatrix([[2]]), PAdicMatrix([[Fraction(1, 2)]])]
    xs[where] = bad
    with pytest.raises(error):
        verify_bk_identity(chi, 1, [SchwartzBruhatFn.unit_ball(1, PAdicContext(2))], xs)


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


def test_empty_lists_are_not_a_pass():
    # an empty Phi or character list used to return PASS with nothing compared
    chi = MultiplicativeCharacter.trivial(2)
    with pytest.raises(ValueError):
        verify_bk_identity(chi, 1, [], [PAdicMatrix([[1]])])
    with pytest.raises(ValueError):
        verify_inverse_weak(tilde(cstar_gamma(1)), [])


def test_environment_does_not_override_explicit_budget(monkeypatch):
    # the budget set on the config must survive the per-shell config copies
    monkeypatch.setenv("GJZETA_HARD_BUDGET", "5")
    cfg = IntegrationConfig(hard_budget=7, force_enumeration=True)
    with pytest.raises(BudgetExceeded, match="exceeded 7 cells"):
        spectral_action(gj_delta(2), MultiplicativeCharacter.trivial(2),
                        PAdicMatrix.identity(2), cfg)


@pytest.mark.parametrize("order", [1, -1])
def test_windows_cover_every_spectral_action_call(order):
    # each chi's calls widen the windows; the first call no longer fixes them
    chis = [MultiplicativeCharacter.trivial(3), MultiplicativeCharacter.quadratic_ramified(3)]
    rep = verify_inverse_weak(tilde(cstar_gamma(1)), chis[::order])
    assert rep["verdict"] == "PASS"
    # one evaluation per shell, at m* = max(0, -k), twice per chi (the action and
    # its inverse), over k in [-3, 7] and [-4, 7]; each is a closed form, with no cell
    assert rep["windows"] == {"k_range": [-4, 7], "m_range": [0, 4]}
    assert rep["cells_enumerated"] == 0
