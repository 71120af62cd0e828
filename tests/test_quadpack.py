"""quadpack.qagie against scipy.integrate.quad, float for float.

scipy's quad on (-inf, inf) runs the reference QUADPACK dqagie.  The port must
return the same (value, abserr, last, ier), compared bit for bit (float.hex,
so a signed zero counts), on the real place's integrands and on synthetic ones
that reach the branches a passing arch-gamma never takes: dqelg's
extrapolation, the subdivision limit, and the roundoff, bad-integrand and
divergence flags.
"""

import cmath
import math
import warnings

import mpmath
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from gjzeta import quadpack
from gjzeta.archimedean import (ABS_TOL, MAX_SUBDIVISIONS, REL_TOL, RealCharacter,
                                RealSchwartzFn, fourier_real, to_complex)

REAL_PLACE_TOLS = (ABS_TOL / 4, REL_TOL / 4, MAX_SUBDIVISIONS)

# quad reports ier > 0 only as its message
MESSAGES = {"The maximum number of subdivisions": 1, "The occurrence of roundoff": 2,
            "Extremely bad integrand behavior": 3, "The algorithm does not converge": 4,
            "The integral is probably divergent": 5}


def scipy_qagi(f, epsabs, epsrel, limit):
    """(value, abserr, last, ier) of scipy's quad over (-inf, inf)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        out = quad(f, -math.inf, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit,
                   full_output=1)
    ier = 0 if len(out) == 3 else next(v for k, v in MESSAGES.items()
                                       if out[3].startswith(k))
    return out[0], out[1], out[2]["last"], ier


def ported(f, epsabs, epsrel, limit):
    """qagie on the real and on the imaginary part of the complex integrand f."""
    def folded(a, b, ts):  # qk15i's integrand: f(t) + f(-t) at the nodes of (a, b)
        return [f(t) + f(-t) for t in ts]
    return tuple(quadpack.qagie(lambda a, b: quadpack.qk15i(folded, a, b)[part],
                                epsabs, epsrel, limit) for part in (0, 1))


def bits(out):
    return tuple(x.hex() if isinstance(x, float) else x for x in out)


def assert_same_as_scipy(re_f, im_f, tols):
    ours = ported(lambda t: complex(re_f(t), im_f(t)), *tols)
    assert [bits(o) for o in ours] == [bits(scipy_qagi(g, *tols)) for g in (re_f, im_f)]
    return ours


# -- the real place's integrands ----------------------------------------------

def real_place_integrand(phi, chi, s):
    """zeta_real's integrand, Phi evaluated at x and -x on its own."""
    coeffs = [to_complex(c) for c in reversed(phi.coeffs)]
    sp = complex(s) + 1j * float(chi.imaginary_twist)
    sign = -1.0 if chi.sign_exponent % 2 else 1.0

    def phi_at(x):
        px = 0j
        for c in coeffs:
            px = px * x + c
        return px * float(mpmath.exp(-mpmath.pi * x * x))

    def f(t):
        if t > 4.0:
            return 0j
        x = math.exp(t)
        val = phi_at(x) + sign * phi_at(-x)
        return val * cmath.exp(t * sp) if val != 0 else 0j
    return f


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_COEFFS = st.lists(st.one_of(_RATIONALS, st.tuples(_RATIONALS, _RATIONALS)),
                   min_size=1, max_size=7)
_S = st.builds(complex, st.floats(0.05, 0.95), st.floats(-2, 2))


# no shrinking: each example is a few hundred mpmath Gaussians, and a failing
# example is already small
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_COEFFS, st.integers(0, 1), st.fractions(-2, 2, max_denominator=6), _S,
       st.booleans())
def test_real_place_integrands_match_scipy(coeffs, delta, tau, s, transformed):
    # degree <= 6, any chi and s, and the transform side Z(Phi^, 1 - s, chi^-1)
    # that gamma_real integrates: both parts, bit for bit, at the real place's tolerances
    phi, chi = RealSchwartzFn.hermite_multiple(coeffs), RealCharacter(delta, tau)
    if transformed:
        phi, chi, s = fourier_real(phi), chi.inverse(), 1 - s
    f = real_place_integrand(phi, chi, s)
    assert_same_as_scipy(lambda t: f(t).real, lambda t: f(t).imag, REAL_PLACE_TOLS)


# -- synthetic integrands -----------------------------------------------------

def slow_decay(p):  # (1 + |t|)^-p: an x^(p-2) end-point singularity, extrapolated
    return lambda t: (1.0 + abs(t)) ** -p


def singular_at(c, p):  # |t - c|^-p
    return lambda t: abs(t - c) ** -p if t != c else 0.0


def principal_value(c):  # e^-|t| / (t - c): subdivision down to machine precision
    return lambda t: math.exp(-abs(t)) / (t - c) if t != c else 0.0


def oscillating(w):
    return lambda t: math.cos(w * t) / (1.0 + t * t)


def gaussian(t):
    return math.exp(-t * t)


SYNTHETIC = {
    "decay": st.builds(slow_decay, st.sampled_from([0.5, 1.0, 1.1, 1.5, 1.75, 2.0, 2.5, 3.0])),
    "singular": st.builds(singular_at, st.sampled_from([-2.2, 0.3, 1.0, 1.7]),
                          st.sampled_from([0.5, 0.9, 1.0])),
    "principal value": st.builds(principal_value, st.sampled_from([-2.2, 0.05, 1 / 3])),
    "oscillating": st.builds(oscillating, st.sampled_from([1.0, 7.0, 30.0, 100.0])),
    "gaussian": st.just(gaussian),
}
TOLS = st.sampled_from([REAL_PLACE_TOLS, (1e-14, 1e-14, 50), (0.0, 1e-12, 10),
                        (1e-8, 0.0, 3), (0.0, 2e-14, 500), (1e-300, 1e-15, 500),
                        (1e-10, 1e-10, 1)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(*SYNTHETIC.values()), st.one_of(*SYNTHETIC.values()), TOLS)
def test_synthetic_integrands_match_scipy(re_f, im_f, tols):
    assert_same_as_scipy(re_f, im_f, tols)


# each case: the integrand, the tolerances, and the ier (and last, where it
# pins a branch) that the real part must end with
BRANCHES = {
    "success": (slow_decay(1.5), (0.0, 2e-14, 500), 0, None),
    "rule exact at once, roundoff": (slow_decay(2.0), (1e-14, 1e-14, 50), 2, 1),
    "limit 1": (gaussian, (1e-10, 1e-10, 1), 1, 1),
    "subdivision limit": (singular_at(1.7, 1.0), REAL_PLACE_TOLS, 1, 200),
    "bad integrand behaviour": (principal_value(-2.2), (1e-300, 1e-15, 500), 3, 102),
    "extrapolation does not converge": (slow_decay(1.1), (1e-300, 1e-15, 500), 4, 27),
    "probably divergent": (slow_decay(0.5), REAL_PLACE_TOLS, 5, 6),
    # reaches dqelg's exit for three table entries equal to machine accuracy
    "extrapolation table converged": (slow_decay(1.75), (1e-300, 1e-15, 500), 4, 21),
}


@pytest.mark.parametrize("name", BRANCHES)
def test_every_branch_matches_scipy(name, monkeypatch):
    f, tols, ier, last = BRANCHES[name]
    extrapolations = []

    def counted_qelg(*args):
        extrapolations.append(args[0])
        return qelg(*args)
    qelg = quadpack.qelg
    monkeypatch.setattr(quadpack, "qelg", counted_qelg)
    (_, _, used, code), _ = assert_same_as_scipy(f, gaussian, tols)
    assert code == ier and (last is None or used == last)
    if ier in (0, 4):  # these two end after extrapolating
        assert extrapolations


def test_invalid_tolerances_are_ier_6():
    # scipy refuses them before dqagie reports 6
    assert quadpack.qagie(lambda a, b: (0.0, 0.0, 0.0, 0.0), 0.0, 1e-15, 50) == (0.0, 0.0, 0, 6)
    with pytest.raises(ValueError):
        scipy_qagi(gaussian, 0.0, 1e-15, 50)


def test_constants_are_the_full_precision_values():
    # the 16-digit data value of xgk(4) is another double, one ulp below
    assert quadpack.XGK[3] == 0.741531185599394439863864773280788
    assert quadpack.XGK[3] != 0.7415311855993944
    # the 15-point rule integrates x^k exactly for k <= 22, and the Gauss weights sum to 2
    with mpmath.workdps(40):
        for k in range(0, 23, 2):
            total = (mpmath.mpf(quadpack.WGK[7]) * (k == 0)
                     + sum(2 * mpmath.mpf(w) * mpmath.mpf(x) ** k
                           for x, w in zip(quadpack.XGK[:7], quadpack.WGK[:7])))
            assert abs(total - mpmath.mpf(2) / (k + 1)) < 1e-15
    assert abs(math.fsum(quadpack.WG[:7]) * 2 + quadpack.WG[7] - 2) < 1e-15
