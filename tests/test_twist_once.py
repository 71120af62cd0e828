"""Rationalizing untwisted shell series and twisting the result once.

The references below twist every shell entry before Berlekamp-Massey, as the
engine once did.  The engine's values must equal them coefficient by coefficient,
and serialize byte for byte the same wherever the twist is cyclotomic.  A formal
sqrt(q) (p = 3 mod 4, odd 2 alpha) keeps the form its arithmetic gave it: a
coefficient twisted per entry may print "(1) + (0)*sqrt(3)" where the engine's
prints "1", with the same value.
"""

import json
from fractions import Fraction

import pytest

from gjzeta.cli import main
from gjzeta.distributions import (DIRECT, INVERSE, TwistedDistribution,
                                  closed_form_inverse, spectral_action)
from gjzeta.integrate import (K_EXTRA, IntegrationConfig, rationalize,
                              schwartz_shell_integral, stabilized_shell_integral)
from gjzeta.padic import PAdicContext, PAdicMatrix
from gjzeta.scalars import sqrt_q_power
from gjzeta.schwartz import SchwartzBruhatFn
from gjzeta.zeta import MultiplicativeCharacter, zeta_integral

PRIMES = (2, 3, 5, 7, 11)


def characters(p):
    return {"trivial": MultiplicativeCharacter.trivial(p),
            "unramified:2": MultiplicativeCharacter.unramified(p, 2),
            "unramified:-1": MultiplicativeCharacter.unramified(p, -1),
            "quadratic": MultiplicativeCharacter.quadratic_ramified(p)}


def spectral_action_twisted_entries(d, chi):
    """spectral_action with chi(p)^k q^(-k alpha) applied to each shell entry."""
    config = IntegrationConfig()
    n, p = d.n, chi.p
    kchi = chi.inverse() if d.mode == DIRECT else chi
    k_low = -(n * (kchi.conductor_exp + 1) + 2)
    k_high = 2 * n + config.confirm + K_EXTRA
    eps = PAdicMatrix.scalar(n, d.epsilon)
    seq = [stabilized_shell_integral(PAdicContext(p), n, k, eps, config, kchi, {})[0]
           * kchi.value_at_p ** k * sqrt_q_power(p, -k * d.alpha2)
           for k in range(k_low, k_high + 1)]
    return rationalize(seq, k_low, -2 if d.mode == DIRECT else 2, p, n, config.confirm)


def zeta_integral_twisted_entries(phi, chi, dual_weight=False):
    """zeta_integral with chi(p)^k (and q^(-nk) when dual) applied to each entry."""
    config = IntegrationConfig()
    n, p = phi.n, phi.ctx.p
    k_min = phi.det_valuation_bound()
    ks = range(k_min, k_min + 2 * n + config.confirm + K_EXTRA)
    seq = []
    for k, shell in zip(ks, schwartz_shell_integral(phi, ks, config, chi, {})):
        entry = shell * chi.value_at_p ** k
        if dual_weight:
            entry = entry * Fraction(p) ** (-n * k)
        seq.append(entry)
    return rationalize(seq, k_min, -2 if dual_weight else 2, p, n, config.confirm)


def assert_same_value(got, want, where):
    """Equal coefficients on the same exponents, in numerator and denominator."""
    assert got == want, where
    for a, b in ((got.num, want.num), (got.den, want.den)):
        assert a.coeffs.keys() == b.coeffs.keys() and a == b, where


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_action_serializes_as_with_twisted_entries(p, n):
    x = PAdicMatrix.identity(n)
    for name, chi in characters(p).items():
        for alpha2 in range(1, 6):
            cyclotomic = p % 4 != 3 or alpha2 % 2 == 0
            for mode in (DIRECT, INVERSE):
                d = TwistedDistribution(n, alpha2, +1, mode)
                got = spectral_action(d, chi, x)
                want = spectral_action_twisted_entries(d, chi)
                assert_same_value(got, want, (name, alpha2, mode))
                if cyclotomic:
                    assert got.serialize() == want.serialize(), (name, alpha2, mode)
            # the products verify_inverse_weak reports
            d = TwistedDistribution(n, alpha2, +1, INVERSE)
            inv = closed_form_inverse(d)
            got = spectral_action(d, chi, x) * spectral_action(inv, chi, x)
            want = (spectral_action_twisted_entries(d, chi)
                    * spectral_action_twisted_entries(inv, chi))
            assert got.serialize() == want.serialize(), (name, alpha2)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_zeta_integral_serializes_as_with_twisted_entries(p, n):
    ctx = PAdicContext(p)
    phis = [SchwartzBruhatFn.unit_ball(n, ctx), SchwartzBruhatFn.scaled_ball(n, ctx, 1)]
    if n == 1:
        phis.append(SchwartzBruhatFn.shifted_ball(n, ctx, 1, 1))
    for name, chi in characters(p).items():
        for i, phi in enumerate(phis):
            got = zeta_integral(phi, chi).value
            assert got.serialize() == zeta_integral_twisted_entries(phi, chi).serialize(), (
                name, i)
            hat, inv = phi.fourier(), chi.inverse()
            got = zeta_integral(hat, inv, dual_weight=True).value
            want = zeta_integral_twisted_entries(hat, inv, dual_weight=True)
            assert got.serialize() == want.serialize(), (name, i, "dual")


def test_quadext_product_keeps_its_formal_form(tmp_path):
    # sqrt(3) is a formal QuadExt, and the product of the two twisted actions
    # keeps the form its arithmetic gives it
    out = tmp_path / "r.json"
    assert main(["verify-inverse", "--p", "3", "--n", "1", "--alpha2", "1",
                 "--char", "quadratic", "--out", str(out)]) == 0
    products = json.loads(out.read_text())["results"]["products"]
    assert products == [{"base_q": 3, "den": {"0": "1"}, "num": {"0": "(1) + (0)*sqrt(3)"}}]
