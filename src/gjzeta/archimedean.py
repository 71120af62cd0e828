"""Numeric verification of the n = 1 real case.

Test functions are P(x) exp(-pi x^2) with P polynomial over Q(i)[pi, 1/pi];
this class is closed under the real Fourier transform (psi(x) = e^{2 pi i x})
with exactly representable coefficients.  Zeta integrals are adaptive
quadratures; gamma factors are checked against a Gamma-function oracle.

Both quadrature passes share one evaluation per node (see zeta_real); the
Gaussian stays an mpmath evaluation (cached per node and precision), so every
arch-gamma row is bit-identical to evaluating Phi at x and -x on its own
(`evaluate_reference` in tests/test_archimedean.py).  scipy is imported by
zeta_real on first use, so the p-adic engine never loads it.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from fractions import Fraction

import mpmath

from .errors import NearZeroDenominator, ToleranceNotMet


class PiCoeff:
    """Element of Q(i)[pi, 1/pi]: {pi exponent: (re, im) rational pair}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for e, (re, im) in terms.items():
                re, im = Fraction(re), Fraction(im)
                if re or im:
                    self.terms[int(e)] = (re, im)

    @staticmethod
    def const(re, im=0) -> "PiCoeff":
        return PiCoeff({0: (re, im)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PiCoeff") -> "PiCoeff":
        out = dict(self.terms)
        for e, (re, im) in other.terms.items():
            r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (r0 + re, i0 + im)
        return PiCoeff(out)

    def __neg__(self) -> "PiCoeff":
        return PiCoeff({e: (-re, -im) for e, (re, im) in self.terms.items()})

    def __sub__(self, other: "PiCoeff") -> "PiCoeff":
        return self + (-other)

    def __mul__(self, other: "PiCoeff") -> "PiCoeff":
        out = {}
        for e1, (a, b) in self.terms.items():
            for e2, (c, d) in other.terms.items():
                e = e1 + e2
                r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
                out[e] = (r0 + a * c - b * d, i0 + a * d + b * c)
        return PiCoeff(out)

    def scale(self, re, im=0, pi_exp: int = 0) -> "PiCoeff":
        return self * PiCoeff({pi_exp: (re, im)})

    def __eq__(self, other):
        if not isinstance(other, PiCoeff):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def to_complex(self) -> complex:
        total = 0j
        for e, (re, im) in self.terms.items():
            total += complex(float(re) + 1j * float(im)) * float(mpmath.pi) ** e
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s%+si)*pi^%d" % (re, im, e)
                          for e, (re, im) in sorted(self.terms.items()))


class RealSchwartzFn:
    """x -> P(x) exp(-pi x^2) with PiCoeff coefficients of P."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        while self.coeffs and self.coeffs[-1].is_zero():
            self.coeffs.pop()

    @staticmethod
    def gaussian() -> "RealSchwartzFn":
        return RealSchwartzFn([PiCoeff.const(1)])

    @staticmethod
    def hermite_multiple(poly_coeffs) -> "RealSchwartzFn":
        """P(x) exp(-pi x^2) for rational (or (re, im) pair) coefficients."""
        out = []
        for c in poly_coeffs:
            if isinstance(c, PiCoeff):
                out.append(c)
            elif isinstance(c, tuple):
                out.append(PiCoeff.const(*c))
            else:
                out.append(PiCoeff.const(c))
        return RealSchwartzFn(out)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "RealSchwartzFn") -> "RealSchwartzFn":
        k = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(k):
            a = self.coeffs[i] if i < len(self.coeffs) else PiCoeff()
            b = other.coeffs[i] if i < len(other.coeffs) else PiCoeff()
            out.append(a + b)
        return RealSchwartzFn(out)

    def __sub__(self, other):
        return self + RealSchwartzFn([-c for c in other.coeffs])

    def reflect(self) -> "RealSchwartzFn":
        return RealSchwartzFn([(-c if i % 2 else c) for i, c in enumerate(self.coeffs)])

    def __eq__(self, other):
        if not isinstance(other, RealSchwartzFn):
            return NotImplemented
        return (self - other).coeffs == []

    def __repr__(self):
        return "RealSchwartzFn(degree=%d)" % self.degree


def fourier_real(phi: RealSchwartzFn) -> RealSchwartzFn:
    """Closed-form Fourier transform with psi(x) = exp(2 pi i x).

    The Gaussian G is self-dual; F(x f) = F(f)' / (2 pi i) gives the
    transform of x^k G by recursion on polynomial factors Q_k with
    F(x^k G) = Q_k G, Q_k = (Q_{k-1}' - 2 pi x Q_{k-1}) / (2 pi i).
    """
    # precompute Q_k up to the needed degree; Q_k is a polynomial in x
    # with PiCoeff coefficients
    deg = phi.degree
    q_prev = [PiCoeff.const(1)]  # Q_0 = 1
    q_list = [q_prev]
    # 1/(2 pi i) = (-i/2) pi^-1
    inv_2pii = PiCoeff({-1: (Fraction(0), Fraction(-1, 2))})
    two_pi = PiCoeff({1: (Fraction(2), Fraction(0))})
    for _ in range(deg):
        # derivative of Q_{k-1}
        dq = [q_prev[i].scale(i) for i in range(1, len(q_prev))]
        # -2 pi x Q_{k-1}
        shifted = [PiCoeff()] + [(-(two_pi * c)) for c in q_prev]
        k = max(len(dq), len(shifted))
        q_new = []
        for i in range(k):
            a = dq[i] if i < len(dq) else PiCoeff()
            b = shifted[i] if i < len(shifted) else PiCoeff()
            q_new.append(inv_2pii * (a + b))
        q_prev = q_new
        q_list.append(q_new)
    out = [PiCoeff() for _ in range(deg + 1)]
    for k, ck in enumerate(phi.coeffs):
        for i, qi in enumerate(q_list[k]):
            out[i] = out[i] + ck * qi
    return RealSchwartzFn(out)


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

    QUADPACK revisits the same nodes for every s and for both zeta_real
    calls of a gamma; the precision is part of the key so a caller inside
    mpmath.workdps is never served a value computed at another precision.
    """
    x = math.exp(t)
    return x, float(mpmath.exp(-mpmath.pi * x * x))


def zeta_real(phi: RealSchwartzFn, chi: RealCharacter, s: complex) -> complex:
    """Z(Phi, s, chi) = int_{R^x} Phi(x) chi(x) |x|^s dx/|x| by quadrature.

    Fold to (0, inf) with the sign character and substitute x = e^t, which
    removes both endpoint singularities: the integrand becomes
    [Phi(e^t) +- Phi(-e^t)] e^{t(s + i tau)} over t in (-inf, inf).

    The real and imaginary parts are two `quad` passes over the same
    integrand, so each node t is evaluated once and shared between them.
    Phi(x) and Phi(-x) share the Gaussian exp(-pi x^2), an mpmath
    evaluation cached across calls (`_gaussian_node`): the float expressions
    are those of `evaluate_reference` in tests/test_archimedean.py, so every
    value is bit-identical to evaluating Phi at x and -x separately.
    """
    from scipy.integrate import quad

    delta = chi.sign_exponent % 2
    sp = complex(s) + 1j * float(chi.imaginary_twist)
    sign = 1.0 if delta == 0 else -1.0
    coeffs = [c.to_complex() for c in reversed(phi.coeffs)]
    prec = mpmath.mp.prec
    nodes = {}

    def folded(t: float) -> complex:
        # exp(-pi e^{2t}) underflows to exactly 0 well before e^{t Re s}
        # can overflow; short-circuit so the dead region stays finite
        if t > 4.0:
            return 0j
        x, gauss = _gaussian_node(t, prec)
        px = pmx = 0j
        for c in coeffs:
            px = px * x + c
            pmx = pmx * -x + c
        val = px * gauss + sign * (pmx * gauss)
        if val == 0:
            return 0j
        return val * cmath.exp(t * sp)

    def integrand(t: float) -> complex:
        val = nodes.get(t)
        if val is None:
            val = nodes[t] = folded(t)
        return val

    def part(fn):
        return quad(fn, -float("inf"), float("inf"),
                    epsabs=ABS_TOL / 4, epsrel=REL_TOL / 4, limit=MAX_SUBDIVISIONS)

    re_val, re_err = part(lambda t: integrand(t).real)
    im_val, im_err = part(lambda t: integrand(t).imag)
    total = complex(re_val, im_val)
    err = re_err + im_err
    if err > max(ABS_TOL, REL_TOL * abs(total)):
        raise ToleranceNotMet("quadrature error %.3e exceeds tolerance" % err)
    return total


def gamma_real(chi: RealCharacter, s: complex, phi: RealSchwartzFn) -> complex:
    """gamma(s, chi) = Z(Phi^, 1-s, chi^(-1)) / Z(Phi, s, chi)."""
    den = zeta_real(phi, chi, s)
    num = zeta_real(fourier_real(phi), chi.inverse(), 1 - complex(s))
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
