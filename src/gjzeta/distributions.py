"""Twisted-distribution calculus on GL_n(Q_p) and its spectral action.

A TwistedDistribution is |det g|^alpha psi(tr(eps * g^kappa)) d^x g with
kappa = +1 (DIRECT) or -1 (INVERSE).  The calculus (tilde, det-twist,
closed-form convolution inverse) is exact tuple algebra; the spectral
action on the coefficient family chi(det)|det|^s is a rational function of
T = q^(-s/2), computed by regularized shell sums:

    DIRECT  (alpha, eps):  sum_k I_k(eps, chi^-1) chi^-1(p)^k q^(-k alpha) T^(-2k)
    INVERSE (alpha, eps):  sum_k J_k(eps, chi)    chi(p)^k    q^(-k alpha) T^(+2k)

with I_k, J_k the unit-part shell integrals of psi(tr(eps g)), each exact at one truncation.
The series sum_k I_k T^(-2k) (or J_k T^(2k)) is rationalized untwisted, so
Berlekamp-Massey and its residuals run over the field of the shells (Q for trivial
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

from .errors import InfiniteLowerSupport, Singular
from .integrate import (K_EXTRA, IntegrationConfig, parallel_map, rationalize,
                        stabilized_shell_integral)
from .padic import PAdicContext, PAdicMatrix
from .ratfun import RationalFunctionT, ratfun_equal
from .scalars import scalar_is_zero, sqrt_q_power
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
    """det_twist(closed_form_inverse(tilde(cstar_gamma(n))), (n+1)/2)
    must equal gj_delta(n) as an exact tuple identity."""
    lhs = det_twist(closed_form_inverse(tilde(cstar_gamma(n))), n + 1)
    rhs = gj_delta(n)
    return {
        "claim": "normalizing-distribution relation",
        "parameters": {"n": n},
        "verdict": "PASS" if lhs == rhs else "FAIL",
        "lhs": repr(lhs),
        "rhs": repr(rhs),
        "windows": {},
        "cells_enumerated": 0,
    }


# -- spectral action ----------------------------------------------------

def _zero_window(n: int, conductor_exp: int) -> int:
    """Shells k < -window have vanishing kernel integrals."""
    return n * (conductor_exp + 1) + 2


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
    on x, which is only checked for its size and invertibility."""
    config = config or IntegrationConfig()
    n = d.n
    p = chi.p
    ctx = PAdicContext(p)
    _check_sample_point(n, x)
    if stats is None:
        stats = {}
    # kernel character: chi^(-1) in DIRECT mode, chi in INVERSE mode
    kchi = chi.inverse() if d.mode == DIRECT else chi
    eps_mod = PAdicMatrix.scalar(n, d.epsilon)
    window = _zero_window(n, kchi.conductor_exp)
    k_low = -window
    r_max = config.r_max or n
    k_high = 2 * r_max + config.confirm + K_EXTRA

    results = parallel_map(
        lambda k: stabilized_shell_integral(ctx, n, k, eps_mod, config, kchi, stats),
        range(k_low, k_high + 1))
    seq = [val for val, _ in results]
    # certify the dead zone below the window
    if not (scalar_is_zero(seq[0]) and scalar_is_zero(seq[1])):
        raise InfiniteLowerSupport(
            "kernel shells still nonzero at the lower window edge k=%d" % k_low)
    weight = -2 if d.mode == DIRECT else 2
    value = rationalize(seq, k_low, weight, p, r_max, config.confirm).twisted(
        lambda k: kchi.value_at_p ** k * sqrt_q_power(p, -k * d.alpha2), weight)
    # the windows cover every call that shares these stats
    ms = [m for _, m in results]
    for key, lo, hi in (("m_range", min(ms), max(ms)), ("k_range", k_low, k_high)):
        old = stats.get(key, (lo, hi))
        stats[key] = (min(old[0], lo), max(old[1], hi))
    return value


# -- verification reports ----------------------------------------------

def _report(claim, parameters, verdict, lhs, rhs, stats):
    return {
        "claim": claim,
        "parameters": parameters,
        "verdict": verdict,
        "lhs": lhs,
        "rhs": rhs,
        "windows": {"k_range": list(stats.get("k_range", ())),
                    "m_range": list(stats.get("m_range", ()))},
        "cells_enumerated": stats.get("cells", 0),
    }


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
    stats["cells"] = stats.get("cells", 0) + sum(g.cells for g in gammas)
    ok = all(ratfun_equal(g.value, spectral) for g in gammas)
    return _report(
        "Braverman-Kazhdan generating identity",
        {"n": n, "p": chi.p, "conductor_exp": chi.conductor_exp,
         "x_count": len(x_list), "phi_count": len(phi_list)},
        "PASS" if ok else "FAIL",
        spectral.serialize(),
        gammas[0].value.serialize(),
        stats)


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
    ok = True
    products = []
    for chi in chi_list:
        a = spectral_action(d, chi, x, config, stats)
        b = spectral_action(inv, chi, x, config, stats)
        prod = a * b
        products.append(prod.serialize())
        ok = ok and prod == 1
    return _report(
        "weak convolution inverse",
        {"n": d.n, "alpha2": d.alpha2, "epsilon": d.epsilon,
         "chi_count": len(chi_list),
         "p": chi_list[0].p},
        "PASS" if ok else "FAIL",
        products,
        "1",
        stats)
