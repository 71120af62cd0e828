"""Numeric real-place module: exact Fourier layer and quadrature engine."""

import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.integrate import quad

from gjzeta import archimedean, quadpack
from gjzeta.archimedean import (ABS_TOL, MAX_SUBDIVISIONS, REL_TOL, S_GRID, TABLE_NODES,
                                RealCharacter, RealSchwartzFn, _gaussian_node,
                                _integrand_table, fourier_real, gamma_oracle,
                                gamma_real, zeta_real)
from gjzeta.errors import NearZeroDenominator, ToleranceNotMet

GAUSS = RealSchwartzFn.gaussian()
TRIV = RealCharacter()
SGN = RealCharacter(1)


def test_package_serves_real_place_names_lazily():
    # gjzeta loads archimedean, and with it mpmath, only when one of its names is read
    import gjzeta
    from gjzeta import RealCharacter as character, gamma_real as gamma, zeta_real as zeta
    assert (zeta, gamma, character) == (zeta_real, gamma_real, RealCharacter)
    with pytest.raises(AttributeError, match="no_such_name"):
        gjzeta.no_such_name


def test_gaussian_self_dual():
    assert fourier_real(GAUSS) == GAUSS


def test_first_hermite_transform():
    # F(x G) = i x G under psi(x) = exp(2 pi i x)
    xg = RealSchwartzFn.hermite_multiple([0, 1])
    assert fourier_real(xg) == RealSchwartzFn.hermite_multiple([(0, 0), (0, 1)])


def test_double_transform_is_reflection_exact():
    phi = RealSchwartzFn.hermite_multiple(
        [1, Fraction(-2, 3), (0, 1), 0, 3, Fraction(1, 5), Fraction(1, 2)])
    assert fourier_real(fourier_real(phi)) == phi.reflect()


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_COEFFS = st.lists(st.one_of(_RATIONALS, st.tuples(_RATIONALS, _RATIONALS)),
                   min_size=1, max_size=7)


@settings(max_examples=40, deadline=None)
@given(_COEFFS, _COEFFS)
def test_fourier_laws_on_random_coefficients(a, b):
    # degree <= 6, rational and (re, im) coefficients: F F phi = reflect(phi), F additive
    phi, chi = RealSchwartzFn.hermite_multiple(a), RealSchwartzFn.hermite_multiple(b)
    assert fourier_real(fourier_real(phi)) == phi.reflect()
    assert fourier_real(phi + chi) == fourier_real(phi) + fourier_real(chi)


def test_pointwise_inversion_numeric():
    phi = RealSchwartzFn.hermite_multiple([1, 2, (0, 1), 0, 3, 0, Fraction(1, 2)])
    ff = fourier_real(fourier_real(phi))
    for x in (0.0, 0.7, -0.7, 1.3, -1.3):
        assert abs(evaluate_reference(ff, x) - evaluate_reference(phi, -x)) < 1e-10


def test_zeta_gaussian_at_two():
    import math
    assert abs(zeta_real(GAUSS, TRIV, 2.0) - 1 / math.pi) < 1e-9


def test_gamma_at_half_is_one():
    assert abs(gamma_real(TRIV, 0.5, GAUSS) - 1) < 1e-9


def test_gamma_matches_oracle():
    for s in (0.3, 0.7, 0.4 + 0.2j):
        assert abs(gamma_real(TRIV, s, GAUSS) - gamma_oracle(TRIV, s)) < 1e-6


def test_sign_character_and_twist():
    for chi in (SGN, RealCharacter(0, Fraction(1, 3)), RealCharacter(1, Fraction(-1, 2))):
        phi = RealSchwartzFn.hermite_multiple([1, 1])
        for s in (0.4 + 0.1j, 0.6):
            assert abs(gamma_real(chi, s, phi) - gamma_oracle(chi, s)) < 1e-6


def test_phi_independence():
    phis = [RealSchwartzFn.hermite_multiple([1, 1]),
            RealSchwartzFn.hermite_multiple([2, 0, 1]),
            RealSchwartzFn.hermite_multiple([1, 3, 0, 1])]
    s = 0.4 + 0.1j
    vals = [gamma_real(TRIV, s, phi) for phi in phis]
    assert max(abs(v - vals[0]) for v in vals) < 1e-6


def test_duality_product():
    for chi in (TRIV, SGN, RealCharacter(1, Fraction(1, 4))):
        phi = RealSchwartzFn.hermite_multiple([1, 1])
        a = gamma_real(chi, 0.37, phi)
        b = gamma_real(chi.inverse(), 1 - 0.37, fourier_real(phi))
        assert abs(a * b - (-1) ** chi.sign_exponent) < 1e-6


def test_degenerate_phi_near_zero_denominator():
    # an even function against the sign character gives Z identically 0
    with pytest.raises(NearZeroDenominator):
        gamma_real(SGN, 0.5, RealSchwartzFn.hermite_multiple([2, 0, 1]))


@pytest.mark.parametrize("phi, s", [(RealSchwartzFn.hermite_multiple([1, 1]), 1e-10),
                                    (fourier_real(RealSchwartzFn.hermite_multiple([1, 1])),
                                     1 - 0.999999999)],
                         ids=["Z(Phi, 1e-10)", "Z(Phi^, 1 - 0.999999999)"])
def test_zeta_real_near_the_pole_is_tolerance_not_met(phi, s):
    # one QAGI pass ends with ier 5, "probably divergent", under an error
    # estimate within tolerance; the value it returned was taken as the integral
    with pytest.raises(ToleranceNotMet, match="ier 5"):
        zeta_real(phi, TRIV, s)


def test_quadrature_is_deterministic():
    phi = RealSchwartzFn.hermite_multiple([1, 2, 3])
    a = zeta_real(phi, TRIV, 0.45 + 0.2j)
    b = zeta_real(phi, TRIV, 0.45 + 0.2j)
    assert a == b


def test_repr_prints_coefficients_in_pi():
    phi = RealSchwartzFn.hermite_multiple([Fraction(1, 2), (Fraction(1, 4), 1)])
    assert repr(phi) == "RealSchwartzFn([(1/2)*pi^0, (1/4*z4^0 + 1*z4^1)*pi^0])"
    # F(x^2 G) = (1/(2 pi) - x^2) G
    assert repr(fourier_real(RealSchwartzFn.hermite_multiple([0, 0, 1]))) == \
        "RealSchwartzFn([(1/2)*pi^-1, 0, (-1)*pi^0])"
    assert repr(phi.coeffs[0]) == "(1/2)*T^0"  # a bare LaurentPoly keeps T


def test_gamma_real_builds_the_transform_once(monkeypatch):
    calls = []

    def counted(phi):
        calls.append(phi)
        return fourier_real(phi)
    monkeypatch.setattr(archimedean, "fourier_real", counted)
    phi = RealSchwartzFn.hermite_multiple([1, 1])
    values = [gamma_real(TRIV, s, phi) for s in S_GRID]
    assert len(S_GRID) == 5 and calls == [phi]
    fresh = RealSchwartzFn.hermite_multiple([1, 1])
    assert values == [zeta_real(fourier_real(fresh), TRIV, 1 - complex(s))
                      / zeta_real(fresh, TRIV, s) for s in S_GRID]


# -- the Gaussian node cache and the integrand tables ------------------------

def _table_key(phi, chi):
    coeffs = tuple(archimedean.to_complex(c) for c in reversed(phi.coeffs))
    return coeffs, 1.0 - 2 * (chi.sign_exponent % 2), mpmath.mp.prec


def test_gaussian_cache_is_bounded():
    maxsize = _gaussian_node.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_integrand_tables_are_bounded(monkeypatch):
    maxsize = _integrand_table.cache_info().maxsize
    assert maxsize is not None and maxsize > 0 and TABLE_NODES >= 30
    # a table holds the 30 nodes t and -t of each interval it stores; past its
    # cap it stores nothing more and serves the same values
    phi = RealSchwartzFn.hermite_multiple([1, 2, (0, 1)])
    grid = (0.45 + 0.2j, 0.3)
    _integrand_table.cache_clear()
    full = [zeta_real(phi, SGN, s) for s in grid]
    table = _integrand_table(*_table_key(phi, SGN))
    assert 3 < len(table) <= TABLE_NODES // 30
    assert all(len(nodes) == 15 and all(len(node) == 4 for node in nodes)
               for nodes in table.values())
    _integrand_table.cache_clear()
    monkeypatch.setattr(archimedean, "TABLE_NODES", 100)
    assert [zeta_real(phi, SGN, s) for s in grid] == full
    assert len(_integrand_table(*_table_key(phi, SGN))) == 3


def test_rule_geometry_cache_is_bounded():
    maxsize = quadpack.rule_geometry.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_zeta_real_cold_equals_warm():
    # cold: no table, no rule geometry and no Gaussian; warm: every interval's
    # nodes and values read from the caches
    phi = RealSchwartzFn.hermite_multiple([1, 2, (0, 1)])
    chi = RealCharacter(1, Fraction(1, 3))
    _integrand_table.cache_clear()
    quadpack.rule_geometry.cache_clear()
    _gaussian_node.cache_clear()
    cold = zeta_real(phi, chi, 0.45 + 0.2j)
    table = _integrand_table(*_table_key(phi, chi))
    hits, intervals = _integrand_table.cache_info().hits, len(table)
    gauss = _gaussian_node.cache_info()
    geometry = quadpack.rule_geometry.cache_info()
    warm = zeta_real(phi, chi, 0.45 + 0.2j)
    assert _integrand_table.cache_info().hits == hits + 1 and len(table) == intervals
    assert _gaussian_node.cache_info() == gauss  # no node was computed again
    assert quadpack.rule_geometry.cache_info().misses == geometry.misses
    assert warm == cold


def test_integrand_tables_key_on_precision():
    # zeta_real under workdps reads no table filled at the default precision
    _integrand_table.cache_clear()
    default = zeta_real(GAUSS, TRIV, 0.5)
    key = _table_key(GAUSS, TRIV)
    hits = _integrand_table.cache_info().hits
    with mpmath.workdps(30):
        precise = zeta_real(GAUSS, TRIV, 0.5)
        precise_key = _table_key(GAUSS, TRIV)
    assert _integrand_table.cache_info().hits == hits
    assert precise_key[2] != key[2]
    shared = _integrand_table(*key).keys() & _integrand_table(*precise_key).keys()
    assert shared and any(_integrand_table(*key)[ab] != _integrand_table(*precise_key)[ab]
                          for ab in shared)
    assert abs(precise - default) < 1e-9


def test_gaussian_cache_keys_on_precision():
    _gaussian_node.cache_clear()
    default = _gaussian_node(1.0, mpmath.mp.prec)
    with mpmath.workdps(30):
        precise = _gaussian_node(1.0, mpmath.mp.prec)
    assert precise[0] == default[0] and precise[1] != default[1]
    # zeta_real under workdps reads no entry made at the default precision
    _gaussian_node.cache_clear()
    zeta_real(GAUSS, TRIV, 0.5)
    hits = _gaussian_node.cache_info().hits
    with mpmath.workdps(30):
        zeta_real(GAUSS, TRIV, 0.5)
    assert _gaussian_node.cache_info().hits == hits


# -- the quadrature against a plain reference -------------------------------
#
# zeta_reference is the straightforward quadrature: Phi evaluated at x and -x
# on its own, coefficient by coefficient, and each pass of scipy's quad calling
# the integrand afresh.  zeta_real shares nodes, the Gaussian and each
# interval's rule, on the in-tree QAGI port; the results must be equal as
# floats, not merely close.

def coefficient_reference(c):
    """A coefficient of Q(i)[pi, 1/pi] as a complex, term by term in stored order."""
    total = 0j
    for e, z in c.coeffs.items():
        re, im = (z.coeffs[0], 0) if z.m == 0 else z.coeffs
        total += complex(float(re) + 1j * float(im)) * float(mpmath.pi) ** e
    return total


def evaluate_reference(phi, x):
    px = 0j
    for c in reversed(phi.coeffs):
        px = px * x + coefficient_reference(c)
    return px * float(mpmath.exp(-mpmath.pi * x * x))


def zeta_reference(phi, chi, s):
    delta = chi.sign_exponent % 2
    sp = complex(s) + 1j * float(chi.imaginary_twist)
    sign = 1.0 if delta == 0 else -1.0

    def integrand(t):
        if t > 4.0:
            return 0j
        x = math.exp(t)
        val = evaluate_reference(phi, x) + sign * evaluate_reference(phi, -x)
        if val == 0:
            return 0j
        return val * cmath.exp(t * sp)

    def part(fn):
        return quad(fn, -float("inf"), float("inf"),
                    epsabs=ABS_TOL / 4, epsrel=REL_TOL / 4, limit=MAX_SUBDIVISIONS)

    re_val, re_err = part(lambda t: integrand(t).real)
    im_val, im_err = part(lambda t: integrand(t).imag)
    total = complex(re_val, im_val)
    if re_err + im_err > max(ABS_TOL, REL_TOL * abs(total)):
        return None  # over tolerance
    return total


# one Phi of each degree 1..6, with complex coefficients from degree 2 on
REFERENCE_PHIS = [
    [1, 1],
    [2, 0, (0, 1)],
    [1, 3, 0, 1],
    [1, Fraction(-2, 3), (0, 1), 0, 3],
    [Fraction(1, 2), (1, 1), 0, (0, -2), 1, Fraction(1, 7)],
    [1, 2, (0, 1), 0, 3, 0, Fraction(1, 2)],
]
# the s values of the benchmark's arch-gamma grids, then the default grid
BENCHMARK_S = [complex(x) for grid in ("0.3,0.6+0.2j,0.45-0.15j",
                                       "0.35,0.55,0.65+0.1j",
                                       "0.4,0.5+0.25j,0.7",
                                       "0.25+0.1j,0.5,0.6-0.2j")
               for x in grid.split(",")]
REFERENCE_S = BENCHMARK_S + [complex(s) for s in S_GRID
                             if complex(s) not in BENCHMARK_S]


@pytest.mark.parametrize("coeffs", REFERENCE_PHIS,
                         ids=["degree%d" % (len(c) - 1) for c in REFERENCE_PHIS])
def test_zeta_real_equals_reference_quadrature(coeffs):
    phi = RealSchwartzFn.hermite_multiple(coeffs)
    for delta in (0, 1):
        for tau in (Fraction(0), Fraction(1, 3), Fraction(-1, 2)):
            chi = RealCharacter(delta, tau)
            for s in REFERENCE_S:
                assert zeta_real(phi, chi, s) == zeta_reference(phi, chi, s)


def _bits(z):
    return z.real.hex(), z.imag.hex()


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


# no shrinking: each example is a few hundred mpmath Gaussians, and a failing
# example is already small
@settings(max_examples=20, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.lists(st.one_of(_RATIONALS, st.tuples(_RATIONALS, _RATIONALS)), min_size=1, max_size=7),
       st.integers(0, 1), st.integers(-3, 3).map(lambda k: Fraction(k, 4)),
       st.builds(complex, st.floats(0.05, 0.95), st.floats(-0.5, 0.5)))
def test_zeta_real_equals_reference_on_random_inputs(coeffs, delta, tau, s):
    # degree <= 6, once warm, reading the tables and rule geometry that earlier
    # examples left at other s and Phi, and once with every cache cleared
    phi, chi = RealSchwartzFn.hermite_multiple(coeffs), RealCharacter(delta, tau)
    expected = zeta_reference(phi, chi, s)
    for cold in (False, True):
        if cold:
            _integrand_table.cache_clear()
            quadpack.rule_geometry.cache_clear()
            _gaussian_node.cache_clear()
        if expected is None:
            with pytest.raises(ToleranceNotMet):
                zeta_real(phi, chi, s)
        else:
            assert _bits(zeta_real(phi, chi, s)) == _bits(expected)
