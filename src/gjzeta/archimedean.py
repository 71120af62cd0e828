"""Numeric verification of the n = 1 real case.

Test functions are P(x) exp(-pi x^2) with P polynomial over Q(i)[pi, 1/pi];
this class is closed under the real Fourier transform (psi(x) = e^{2 pi i x})
with exactly representable coefficients.  Q(i)[pi, 1/pi] needs no class of
its own: a coefficient is a LaurentPoly in pi over the scalar tower's
Q(zeta_4) = Q(i) (p = 2, m = 2).  Zeta integrals are adaptive
quadratures; gamma factors are checked against a Gamma-function oracle.

The quadrature is QUADPACK's QAGI, ported to Python in `quadpack`, with the
same floats as scipy.integrate.quad, so the real place loads neither scipy nor
numpy.  Both quadrature passes share one rule evaluation per interval, and every
s reads each node's Phi part from one bounded table (see zeta_real); the
Gaussian stays an mpmath evaluation, so every arch-gamma row is bit-identical
to evaluating Phi at x and -x on its own (`evaluate_reference` in
tests/test_archimedean.py).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

import mpmath

from .errors import NearZeroDenominator, ToleranceNotMet
from .quadpack import qagie, qk15i
from .ratfun import LaurentPoly
from .scalars import root_of_unity

ZETA4 = root_of_unity(2, 2, 1)  # i: a coefficient re + im i of Q(zeta_4) = Q(i)


def to_complex(c: LaurentPoly) -> complex:
    """The float value of c at pi = float(mpmath.pi).

    Each term is re + im i times pi^e in double precision, summed in the order
    of c.coeffs, the order that LaurentPoly's arithmetic fills it; every
    quadrature float depends on that order.
    """
    total = 0j
    for e, z in c.coeffs.items():
        re, im = z.coeffs if z.m else (z.coeffs[0], 0)
        total += complex(float(re) + 1j * float(im)) * float(mpmath.pi) ** e
    return total


class RealSchwartzFn:
    """x -> P(x) exp(-pi x^2), the coefficients of P in Q(i)[pi, 1/pi]."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1].is_zero():
            self.coeffs.pop()

    @staticmethod
    def gaussian() -> "RealSchwartzFn":
        return RealSchwartzFn([LaurentPoly.const(1)])

    @staticmethod
    def hermite_multiple(poly_coeffs) -> "RealSchwartzFn":
        """P(x) exp(-pi x^2) for rational (or (re, im) pair) coefficients."""
        out = []
        for c in poly_coeffs:
            if not isinstance(c, LaurentPoly):
                re, im = c if isinstance(c, tuple) else (c, 0)
                c = LaurentPoly.const(ZETA4 * Fraction(im) + Fraction(re))
            out.append(c)
        return RealSchwartzFn(out)

    def __add__(self, other: "RealSchwartzFn") -> "RealSchwartzFn":
        return RealSchwartzFn([a + b for a, b in zip_longest(self.coeffs, other.coeffs,
                                                             fillvalue=LaurentPoly())])

    def __sub__(self, other):
        return self + RealSchwartzFn([-c for c in other.coeffs])

    def reflect(self) -> "RealSchwartzFn":
        return RealSchwartzFn([(-c if i % 2 else c) for i, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        if not isinstance(other, RealSchwartzFn):
            return NotImplemented
        return (self - other).coeffs == []

    @functools.cached_property
    def hat(self) -> "RealSchwartzFn":
        """fourier_real(self), built on the first read and kept."""
        return fourier_real(self)

    def __repr__(self):
        return "RealSchwartzFn([%s])" % ", ".join(c.format("pi") for c in self.coeffs)


def fourier_real(phi: RealSchwartzFn) -> RealSchwartzFn:
    """Closed-form Fourier transform with psi(x) = exp(2 pi i x).

    The Gaussian G is self-dual; F(x f) = F(f)' / (2 pi i) gives the
    transform of x^k G by recursion on polynomial factors Q_k with
    F(x^k G) = Q_k G, Q_k = (Q_{k-1}' - 2 pi x Q_{k-1}) / (2 pi i).
    """
    # Q_0 = 1, ..., Q_deg: polynomials in x, each coefficient in Q(i)[pi, 1/pi]
    q_prev = [LaurentPoly.const(1)]
    q_list = [q_prev]
    inv_2pii = LaurentPoly({-1: ZETA4 * Fraction(-1, 2)})  # 1/(2 pi i) = (-i/2) pi^-1
    two_pi = LaurentPoly({1: 2})
    for _ in range(len(phi.coeffs) - 1):
        dq = RealSchwartzFn([q_prev[i] * i for i in range(1, len(q_prev))])
        shifted = RealSchwartzFn([LaurentPoly()] + [-(two_pi * c) for c in q_prev])
        q_prev = [inv_2pii * c for c in (dq + shifted).coeffs]
        q_list.append(q_prev)
    out = RealSchwartzFn([])
    for ck, qk in zip(phi.coeffs, q_list):
        out = out + RealSchwartzFn([ck * qi for qi in qk])
    return out


class RealCharacter(namedtuple("RealCharacter", "sign_exponent imaginary_twist",
                               defaults=(0, Fraction(0)))):
    """sign(x)^delta * |x|^(i tau) on R^x."""
    __slots__ = ()

    def inverse(self) -> "RealCharacter":
        return RealCharacter(self.sign_exponent, -self.imaginary_twist)


# quadrature tolerances and the default arch-gamma grid
ABS_TOL = 1e-10
REL_TOL = 1e-9
MAX_SUBDIVISIONS = 200
S_GRID = (0.3, 0.5, 0.7, 0.5 + 0.25j, 0.4 - 0.1j)


@functools.lru_cache(maxsize=4096)
def _gaussian_node(t: float, prec: int) -> tuple[float, float]:
    """(x, exp(-pi x^2)) at x = e^t, the Gaussian at mpmath precision prec.

    The tables of Phi and Phi^ share it; the precision is part of the key so a
    caller inside mpmath.workdps is never served a value of another precision.
    """
    x = math.exp(t)
    return x, float(mpmath.exp(-mpmath.pi * x * x))


TABLE_NODES = 2048  # nodes a table stores; later ones are computed, not stored


@functools.lru_cache(maxsize=32)
def _integrand_table(coeffs: tuple, sign: float, prec: int) -> dict:
    """t -> [Phi(x) + sign Phi(-x)] exp(-pi x^2) at x = e^t, filled by zeta_real;
    QAGI bisects dyadically, so the same t come back for every s and call."""
    return {}


def zeta_real(phi: RealSchwartzFn, chi: RealCharacter, s: complex) -> complex:
    """Z(Phi, s, chi) = int_{R^x} Phi(x) chi(x) |x|^s dx/|x| by quadrature.

    Fold to (0, inf) with the sign character and substitute x = e^t, which
    removes both endpoint singularities: the integrand becomes
    [Phi(e^t) +- Phi(-e^t)] e^{t(s + i tau)} over t in (-inf, inf).

    The real and imaginary parts are two QAGI passes (`quadpack.qagie`) over
    the same integrand.  The 15-point rule runs once per interval for both
    parts (`quadpack.qk15i`), and the second pass reads it from a dict local
    to the call.  [Phi(e^t) +- Phi(-e^t)] exp(-pi e^{2t}) does not depend on s
    or tau, so it is read from a table kept across calls (`_integrand_table`).
    Phi(x) and Phi(-x) share the Gaussian, an mpmath evaluation cached per
    node and precision (`_gaussian_node`): the float expressions are those of
    `evaluate_reference` in tests/test_archimedean.py, so every value is
    bit-identical to evaluating Phi at x and -x separately, and to
    scipy.integrate.quad's QAGI on the same integrand.
    """
    delta = chi.sign_exponent % 2
    sp = complex(s) + 1j * float(chi.imaginary_twist)
    sign = 1.0 if delta == 0 else -1.0
    coeffs = tuple([to_complex(c) for c in reversed(phi.coeffs)])
    prec = mpmath.mp.prec
    table = _integrand_table(coeffs, sign, prec)
    rules = {}  # (a, b) -> the 15-point rule's real and imaginary parts on (a, b)

    def folded(t: float) -> complex:
        val = table.get(t)
        if val is None:
            # exp(-pi e^{2t}) underflows to exactly 0 well before e^{t Re s}
            # can overflow; short-circuit so the dead region stays finite
            val = 0j
            if t <= 4.0:
                x, gauss = _gaussian_node(t, prec)
                px = pmx = 0j
                for c in coeffs:
                    px = px * x + c
                    pmx = pmx * -x + c
                val = px * gauss + sign * (pmx * gauss)
            if len(table) < TABLE_NODES:
                table[t] = val
        if val == 0:
            return 0j
        return val * cmath.exp(t * sp)

    def real_rule(a: float, b: float):  # no pass visits an interval twice
        both = rules[(a, b)] = qk15i(folded, a, b)
        return both[0]

    def imag_rule(a: float, b: float):
        both = rules.get((a, b))
        return (both or qk15i(folded, a, b))[1]

    re_val, re_err, _, _ = qagie(real_rule, ABS_TOL / 4, REL_TOL / 4, MAX_SUBDIVISIONS)
    im_val, im_err, _, _ = qagie(imag_rule, ABS_TOL / 4, REL_TOL / 4, MAX_SUBDIVISIONS)
    total = complex(re_val, im_val)
    err = re_err + im_err
    if err > max(ABS_TOL, REL_TOL * abs(total)):
        raise ToleranceNotMet("quadrature error %.3e exceeds tolerance" % err)
    return total


def gamma_real(chi: RealCharacter, s: complex, phi: RealSchwartzFn) -> complex:
    """gamma(s, chi) = Z(Phi^, 1-s, chi^(-1)) / Z(Phi, s, chi); Phi^ is phi.hat,
    built once per Phi however many s it serves."""
    den = zeta_real(phi, chi, s)
    num = zeta_real(phi.hat, chi.inverse(), 1 - complex(s))
    if abs(den) < 1e-6 * max(1.0, abs(num)):
        raise NearZeroDenominator("Z(Phi, s, chi) too close to zero at s=%s" % s)
    return num / den


def gamma_oracle(chi: RealCharacter, s: complex, digits: int = 20) -> complex:
    """Gamma-quotient oracle: i^delta pi^(s'-1/2) G((1-s'+d)/2) / G((s'+d)/2)
    with s' = s + i tau; uses an external high-precision Gamma evaluator."""
    d = chi.sign_exponent % 2
    with mpmath.workdps(digits + 10):
        sp = mpmath.mpc(s) + 1j * mpmath.mpf(float(chi.imaginary_twist))
        val = (1j ** d) * mpmath.pi ** (sp - mpmath.mpf(1) / 2) \
            * mpmath.gamma((1 - sp + d) / 2) / mpmath.gamma((sp + d) / 2)
        return complex(val)
