"""The real place against Tate's closed form, with no scipy and no numpy.

For Phi(x) = x^k exp(-pi x^2) and chi = sign^delta |.|^(i tau), s' = s + i tau,
Tate's thesis gives

    Z(Phi, s, chi) = pi^(-(s'+k)/2) Gamma((s'+k)/2)   if k + delta is even,
                   = 0                                 otherwise,

since the folded integrand 2 x^(s'+k-1) exp(-pi x^2) over (0, inf) is Euler's
integral under x^2 = u/pi.  A Phi of the real place is a sum of such terms
with coefficients in Q(i)[pi, 1/pi], so its zeta integral is exact here, at 40
digits.  That checks the quadrature of zeta_real against its own tolerance,
and the closed-form transform fourier_real against gamma_oracle's Gamma
quotient, with no quadrature at all.
"""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings, strategies as st

from gjzeta.archimedean import (ABS_TOL, REL_TOL, RealCharacter, RealSchwartzFn, gamma_oracle,
                                zeta_real)

DIGITS = 40


def _mp(c):
    """A coefficient of Q(i)[pi, 1/pi] (a LaurentPoly in pi over Q(zeta_4)) at
    the working precision."""
    total = mpmath.mpc(0)
    for e, z in c.coeffs.items():
        re, im = z.coeffs if z.m else (z.coeffs[0], Fraction(0))
        total += mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                            mpmath.mpf(im.numerator) / im.denominator) * mpmath.pi ** e
    return total


def tate_terms(phi, chi, s):
    """The terms c_k pi^(-(s'+k)/2) Gamma((s'+k)/2) of Z(Phi, s, chi) with
    k + delta even, at the working precision."""
    delta = chi.sign_exponent % 2
    sp = mpmath.mpc(s) + 1j * mpmath.mpf(chi.imaginary_twist.numerator) \
        / chi.imaginary_twist.denominator
    return [_mp(c) * mpmath.pi ** (-(sp + k) / 2) * mpmath.gamma((sp + k) / 2)
            for k, c in enumerate(phi.coeffs) if (k + delta) % 2 == 0]


_ratios = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_phis = st.lists(st.tuples(_ratios, _ratios), min_size=1, max_size=5).map(
    RealSchwartzFn.hermite_multiple)
_chars = st.builds(RealCharacter, st.integers(0, 1),
                   st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 2)]))
_strip = st.builds(complex, st.floats(0.2, 0.8), st.floats(-1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(_phis, _chars, _strip, st.booleans())
def test_zeta_real_is_within_its_tolerance_of_the_exact_integral(phi, chi, s, hat):
    if hat:  # coefficients with powers of pi, and the dual side of gamma_real
        phi, chi, s = phi.hat, chi.inverse(), 1 - s
    assume(phi.coeffs)
    with mpmath.workdps(DIGITS):
        exact = complex(mpmath.fsum(tate_terms(phi, chi, s)))
    got = zeta_real(phi, chi, s)
    assert abs(got - exact) <= max(ABS_TOL, REL_TOL * abs(exact))


@settings(max_examples=60, deadline=None)
@given(_phis, _chars, _strip)
def test_exact_transform_gives_the_gamma_quotient(phi, chi, s):
    # gamma = Z(Phi^, 1 - s, chi^-1) / Z(Phi, s, chi) for every Phi: with both
    # integrals in closed form, only fourier_real stands between Phi and gamma
    with mpmath.workdps(DIGITS):
        terms = tate_terms(phi, chi, s)
        den = mpmath.fsum(terms)
        # no Phi whose integral nearly cancels: the quotient stays at full precision
        assume(terms and abs(den) > 1e-3 * max(abs(t) for t in terms))
        num = mpmath.fsum(tate_terms(phi.hat, chi.inverse(), 1 - s))
        got = complex(num / den)
    want = gamma_oracle(chi, s, digits=30)
    assert abs(got - want) <= 1e-12 * abs(want)
