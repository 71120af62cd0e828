"""Twisted-distribution calculus on GL_n(Q_p) and its spectral action.

A TwistedDistribution is |det g|^alpha psi(tr(eps * g^kappa)) d^x g with
kappa = +1 (DIRECT) or -1 (INVERSE).  The calculus (tilde, det-twist,
closed-form convolution inverse) is exact tuple algebra; the spectral
action on the coefficient family chi(det)|det|^s is a rational function of
T = q^(-s/2), the sum over kernel shells

    DIRECT  (alpha, eps):  sum_k I_k(eps, chi^-1) chi^-1(p)^k q^(-k alpha) T^(-2k)
    INVERSE (alpha, eps):  sum_k J_k(eps, chi)    chi(p)^k    q^(-k alpha) T^(+2k)

with I_k, J_k the unit-part shell integrals of psi(tr(eps g)), each exact at one truncation.
The untwisted series sum_k I_k T^(-2k) (or J_k T^(2k)) is a proven generating function
read off one or two shells (spectral_action), in the field of the shells (Q for trivial
and unramified chi), and chi^(+-1)(p)^k q^(-k alpha) is applied once, to the
finished rational function (RationalFunctionT.twisted).  That holds when
sqrt(q) is a formal QuadExt (p = 3 mod 4 and odd 2 alpha) too: the shells stay
in Q or Q(zeta_{p^f}), and only the twisted coefficients carry sqrt(q).
In INVERSE mode the substitution h = g^(-1) (d^x g inversion-invariant)
carries the |det|^alpha weight along with the kernel variable; this is the
unique reading under which the convolution-inverse pair multiplies to 1 on
every twisted coefficient (it reduces to the Tate functional equation
rho(sigma) * rho~(n - sigma) = 1).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import Singular
from .integrate import IntegrationConfig, stabilized_shell_integral
from .padic import PAdicContext, PAdicMatrix
from .ratfun import LaurentPoly, RationalFunctionT, ratfun_equal
from .scalars import sqrt_q_power
from .zeta import MultiplicativeCharacter, gamma_factor

DIRECT = "direct"
INVERSE = "inverse"


class TwistedDistribution(namedtuple("TwistedDistribution", "n alpha2 epsilon mode")):
    """|det g|^alpha psi(tr(epsilon g^kappa)) d^x g; alpha2 stores 2*alpha."""
    __slots__ = ()

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.alpha2, 2)

    def __repr__(self):
        return "TwistedDistribution(n=%d, alpha=%s, eps=%+d, %s)" % (
            self.n, self.alpha, self.epsilon, self.mode)


def gj_delta(n: int) -> TwistedDistribution:
    """The gamma-generating distribution |det g|^n psi(tr g) d^x g."""
    return TwistedDistribution(n, 2 * n, +1, DIRECT)


def cstar_gamma(n: int) -> TwistedDistribution:
    """The normalizing distribution |det g|^((n+1)/2) psi(tr(g^-1)) d^x g."""
    return TwistedDistribution(n, n + 1, +1, INVERSE)


def tilde(d: TwistedDistribution) -> TwistedDistribution:
    """u(g) d^x g -> u(-g) d^x g: flips the sign inside the trace."""
    return d._replace(epsilon=-d.epsilon)


def closed_form_inverse(d: TwistedDistribution) -> TwistedDistribution:
    """Convolution inverse in closed form:
    (alpha, eps, INVERSE) <-> (n - alpha, -eps, DIRECT)."""
    mode = DIRECT if d.mode == INVERSE else INVERSE
    return TwistedDistribution(d.n, 2 * d.n - d.alpha2, -d.epsilon, mode)


def det_twist(d: TwistedDistribution, beta2: int) -> TwistedDistribution:
    """Multiply by |det|^beta (beta2 = 2*beta): alpha -> alpha + beta."""
    return d._replace(alpha2=d.alpha2 + beta2)


def verify_relation(n: int) -> dict:
    """det_twist(closed_form_inverse(tilde(cstar_gamma(n))), (n+1)/2) must equal
    gj_delta(n) as an exact tuple identity; returns verify-relation's row for n."""
    lhs = det_twist(closed_form_inverse(tilde(cstar_gamma(n))), n + 1)
    rhs = gj_delta(n)
    return {"n": n, "verdict": "PASS" if lhs == rhs else "FAIL",
            "lhs": repr(lhs), "rhs": repr(rhs)}


# -- spectral action ----------------------------------------------------

def _check_sample_point(n: int, x: PAdicMatrix) -> None:
    if x.n != n:
        raise ValueError("sample point has wrong size")
    if x.det() == 0:
        raise Singular("sample point x is not invertible")


def spectral_action(d: TwistedDistribution, chi: MultiplicativeCharacter,
                    x: PAdicMatrix, config: IntegrationConfig | None = None,
                    stats=None) -> RationalFunctionT:
    """The rational function by which D acts on chi(det)|det|^s at x:
    (D * chi(det)|det|^s)(x) / (chi(det x)|det x|^s).  It does not depend
    on x, which is only checked for its size and invertibility.

    The untwisted series sum_k I_k x^k, x = T^w (w = -2 DIRECT, +2 INVERSE), is read off
    one or two shells: stabilized_shell_integral's I_k is read off _series_hermite at level
    -m*, mc = m*.  At n >= 2, m* >= max(1, f): for f = 0 its mc >= 1 case s x^(-n) (1 - p^n x)
    / (1 - x) gives I_k = 0 for k < -n and I_k = s1 = (1 - p^n) s for k >= 1 - n; for f >= 1
    its one monomial is at x^(-n f).  At n = 1, m* = max(0, -k) gives the same, the mc = 0
    value (p - 1) / p at k >= 0 being s1 = (1 - p) s, s = -1/p.  So
      f = 0:  num = I_(-n) x^(-n) + (s1 - I_(-n)) x^(1-n), den = 1 - x, coprime as
              num(1) = s1 = (-1)^n p^(-n(n+1)/2) (1 - p^n) != 0;
      f >= 1: num = I_(-nf) x^(-nf), den = 1.
    Through stabilized_shell_integral, force_enumeration refines these shells under the
    budget, and stats' k_range and m_range widen to them and their m*."""
    config = config or IntegrationConfig()
    n = d.n
    p = chi.p
    ctx = PAdicContext(p)
    _check_sample_point(n, x)
    if stats is None:
        stats = {}
    # kernel character: chi^(-1) in DIRECT mode, chi in INVERSE mode
    kchi = chi.inverse() if d.mode == DIRECT else chi
    f = kchi.conductor_exp
    eps_mod = PAdicMatrix.scalar(n, d.epsilon)
    ks = [-n * f] if f else [-n, 1 - n]
    results = [stabilized_shell_integral(ctx, n, k, eps_mod, config, kchi, stats) for k in ks]
    s = [v for v, _ in results]
    w = -2 if d.mode == DIRECT else 2
    if f:
        num, den = LaurentPoly({w * ks[0]: s[0]}), LaurentPoly.const(1)
    else:
        num, den = LaurentPoly({w * -n: s[0], w * (1 - n): s[1] - s[0]}), LaurentPoly({0: 1, w: -1})
    value = RationalFunctionT.coprime(num, den, p).twisted(
        lambda k: kchi.value_at_p ** k * sqrt_q_power(p, -k * d.alpha2), w)
    # the windows cover every call that shares these stats
    ms = [m for _, m in results]
    for key, lo, hi in (("m_range", min(ms), max(ms)), ("k_range", ks[0], ks[-1])):
        old = stats.get(key, (lo, hi))
        stats[key] = (min(old[0], lo), max(old[1], hi))
    return value


# -- verification reports ----------------------------------------------
# each returns the report body the CLI writes: parameters, verdict, results,
# windows (the k and m* ranges of every spectral action run) and cells_enumerated

def verify_bk_identity(chi: MultiplicativeCharacter, n: int, phi_list,
                       x_list, config: IntegrationConfig | None = None) -> dict:
    """spectral_action(gj_delta(n), chi, x) must equal gamma_factor(chi, Phi) for
    every sample point x and every Phi; it does not depend on x, so it runs once.
    The cells of both sides are counted."""
    if not (phi_list and x_list):
        raise ValueError("the identity needs at least one Phi and one sample point")
    for x in x_list:
        _check_sample_point(n, x)
    config = config or IntegrationConfig()
    stats = {}
    spectral = spectral_action(gj_delta(n), chi, x_list[0], config, stats)
    gammas = [gamma_factor(phi, chi, config) for phi in phi_list]
    return {
        "parameters": {"n": n, "p": chi.p, "conductor_exp": chi.conductor_exp,
                       "x_count": len(x_list), "phi_count": len(phi_list)},
        "verdict": "PASS" if all(ratfun_equal(g.value, spectral) for g in gammas) else "FAIL",
        "results": {"claim": "Braverman-Kazhdan generating identity",
                    "lhs": spectral.serialize(), "rhs": gammas[0].value.serialize()},
        "windows": {k: list(stats[k]) for k in ("k_range", "m_range")},
        "cells_enumerated": stats.get("cells", 0) + sum(g.cells for g in gammas)}


def verify_inverse_weak(d: TwistedDistribution, chi_list,
                        config: IntegrationConfig | None = None) -> dict:
    """spectral_action(D) * spectral_action(closed_form_inverse(D)) = 1."""
    config = config or IntegrationConfig()
    if d.mode != INVERSE:
        raise ValueError("weak inverse check expects an INVERSE-mode distribution")
    if not chi_list:
        raise ValueError("weak inverse check needs at least one character")
    stats = {}
    inv = closed_form_inverse(d)
    x = PAdicMatrix.identity(d.n)
    products = [spectral_action(d, chi, x, config, stats)
                * spectral_action(inv, chi, x, config, stats) for chi in chi_list]
    return {
        "parameters": {"n": d.n, "alpha2": d.alpha2, "epsilon": d.epsilon,
                       "chi_count": len(chi_list), "p": chi_list[0].p},
        "verdict": "PASS" if all(prod == 1 for prod in products) else "FAIL",
        "results": {"claim": "weak convolution inverse",
                    "products": [prod.serialize() for prod in products], "target": "1"},
        "windows": {k: list(stats[k]) for k in ("k_range", "m_range")},
        "cells_enumerated": stats.get("cells", 0)}
