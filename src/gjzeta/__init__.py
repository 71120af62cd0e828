"""Exact Godement-Jacquet zeta integrals and gamma factors on GL_n(Q_p),
with a numeric real-place companion and a batch verification CLI."""

from .distributions import (DIRECT, INVERSE, TwistedDistribution,
                            closed_form_inverse, cstar_gamma, det_twist,
                            gj_delta, spectral_action, tilde,
                            verify_bk_identity, verify_inverse_weak,
                            verify_relation)
from .errors import (AllDegenerate, BudgetExceeded, EngineError, NearZeroDenominator,
                     NoRecurrence, Singular, ToleranceNotMet, ZeroDenominator)
from .integrate import IntegrationConfig, rationalize, schwartz_shell_integral
from .padic import PAdicContext, PAdicMatrix, psi_value, valuation
from .ratfun import LaurentPoly, RationalFunctionT, ratfun_equal
from .scalars import (CyclotomicNumber, QuadExt, as_scalar, embed_complex,
                      root_of_unity, sqrt_q, sqrt_q_power)
from .schwartz import SchwartzBruhatFn
from .zeta import (GammaResult, MultiplicativeCharacter, ZetaResult,
                   dual_gamma_factor, gamma_factor, phi_independence_check,
                   zeta_integral)

__version__ = "0.1.0"


def __getattr__(name):  # the real place loads mpmath, so its names load on first use
    if name in ("RealCharacter", "RealSchwartzFn", "fourier_real", "gamma_oracle",
                "gamma_real", "zeta_real"):
        from . import archimedean
        return getattr(archimedean, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
