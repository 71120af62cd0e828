"""The engine's gamma against Godement-Jacquet multiplicativity.

gamma(s, chi o det) = prod_{i<n} gamma_Tate(s - i, chi): the engine's
measure d^x g = |det g|^(-n) dg shifts the Godement-Jacquet s by (n-1)/2,
so the shifts are integral and gamma_Tate(s - i) is gamma_Tate with
T^2 -> q^i T^2.  gamma_Tate is built here from L(s, chi), L(1 - s, chi^-1)
and eps(s, chi) = chi(p)^c g(chi^-1) q^(-cs), g the Gauss sum over
(Z/p^c)^x; the engine's n = 1 gamma is not the reference.
"""

from fractions import Fraction

import pytest

from gjzeta.padic import PAdicContext
from gjzeta.ratfun import LaurentPoly, RationalFunctionT
from gjzeta.scalars import as_scalar, root_of_unity, scalar_inverse
from gjzeta.schwartz import SchwartzBruhatFn
from gjzeta.zeta import MultiplicativeCharacter, gamma_factor


def gauss_sum(chi):
    """g(chi^-1) = sum over u in (Z/p^c)^x of chi(u)^-1 zeta_{p^c}^u."""
    p, c = chi.p, chi.conductor_exp
    total = as_scalar(0, p)
    for u in range(1, p ** c):
        if u % p:
            chi_u = as_scalar(chi.unit_value(u), p)
            total = total + scalar_inverse(chi_u) * root_of_unity(p, c, u)
    return total


def gamma_tate(chi, i):
    """gamma_Tate(s - i, chi) = eps(s - i, chi) L(1 - s + i, chi^-1) / L(s - i, chi)
    as a rational function of T = q^(-s/2)."""
    p, c = chi.p, chi.conductor_exp
    a = as_scalar(chi.value_at_p, p)
    one = as_scalar(1, p)
    if c:  # both L-factors are 1
        eps = a ** c * gauss_sum(chi) * Fraction(p) ** (i * c)
        return RationalFunctionT(LaurentPoly({2 * c: eps}), LaurentPoly.const(one), p)
    # L(s - i, chi) = 1 / (1 - a q^i T^2), L(1 - s + i, chi^-1) = 1 / (1 - a^-1 q^(-1-i) T^-2)
    dual = scalar_inverse(a) * Fraction(1, p ** (i + 1))
    return RationalFunctionT(LaurentPoly({0: one, 2: -a * Fraction(p) ** i}),
                             LaurentPoly({0: one, -2: -dual}), p)


def gj_gamma(chi, n):
    out = gamma_tate(chi, 0)
    for i in range(1, n):
        out = out * gamma_tate(chi, i)
    return out


def _phis(n, p, kind):
    ctx = PAdicContext(p)
    if kind != "quadratic":  # a shifted ball takes the generic path: p^(n^2) children a cell
        return [SchwartzBruhatFn.unit_ball(n, ctx), SchwartzBruhatFn.scaled_ball(n, ctx, 1),
                SchwartzBruhatFn.shifted_ball(n, ctx, 1, 1)][:2 if n > 3 else 3]
    k = 2 if p == 2 else 1  # the shifted ball must see the conductor
    return [SchwartzBruhatFn.shifted_ball(n, ctx, 1, k),
            SchwartzBruhatFn.shifted_ball(n, ctx, 1, k + 1)]


def _character(p, kind):
    if kind == "trivial":
        return MultiplicativeCharacter.trivial(p)
    if kind == "quadratic":
        return MultiplicativeCharacter.quadratic_ramified(p)
    value_at_p = Fraction(1, p) if kind == "chi(p)=1/p" else Fraction(-1)
    return MultiplicativeCharacter.unramified(p, value_at_p)


@pytest.mark.parametrize("n, p, kind", [
    (n, p, kind) for n in range(1, 7) for p in (2, 3, 5, 7)
    for kind in ("trivial", "chi(p)=1/p", "chi(p)=-1", "quadratic")
    if n <= 3 or kind != "quadratic"])
def test_gamma_is_product_of_tate_gammas(n, p, kind):
    chi = _character(p, kind)
    want = gj_gamma(chi, n)
    for phi in _phis(n, p, kind):
        assert gamma_factor(phi, chi).value == want


def test_oracle_closed_forms():
    """The two n = 3 values worked out by hand."""
    # p = 2, trivial: -64 T^6 (1 - T^2) / (1 - 8 T^2)
    one = as_scalar(1, 2)
    want = RationalFunctionT(LaurentPoly({6: one * -64, 8: one * 64}),
                             LaurentPoly({0: one, 2: one * -8}), 2)
    assert gj_gamma(MultiplicativeCharacter.trivial(2), 3) == want
    # p = 3, quadratic: (1 + 2 zeta_3)^3 27 T^6 = (-81 - 162 zeta_3) T^6
    quadratic = MultiplicativeCharacter.quadratic_ramified(3)
    g = as_scalar(1, 3) + root_of_unity(3, 1, 1) * 2
    assert gauss_sum(quadratic) == g
    want = RationalFunctionT(LaurentPoly({6: g * g * g * 27}),
                             LaurentPoly.const(as_scalar(1, 3)), 3)
    assert gj_gamma(quadratic, 3) == want


@pytest.mark.parametrize("p, gen", [(5, 2), (7, 3)])
@pytest.mark.parametrize("n", [1, 2])
def test_gamma_conductor_two(n, p, gen):
    # chi(gen) = zeta_p on a primitive root mod p^2: order p, primitive mod p^2.
    # At n = 2 the shifted balls go through the generic refinement.
    chi = MultiplicativeCharacter(p, 2, {gen: root_of_unity(p, 1, 1)})
    want = gj_gamma(chi, n)
    for k in (2, 3):
        phi = SchwartzBruhatFn.shifted_ball(n, PAdicContext(p), 1, k)
        assert gamma_factor(phi, chi).value == want
