"""Godement-Jacquet zeta integrals and gamma factors on GL_n(Q_p).

Z(Phi, s, chi) = int_{GL_n} Phi(g) chi(det g) |det g|^s d^x g is computed
shell by shell; each shell entry is an exact scalar and the shell series is
an exact rational function in T = q^(-s/2) (weight T^2 per unit of det
valuation).  The gamma factor is the ratio of the dual integral
Z(Phi^, n - s, chi^(-1)) to Z(Phi, s, chi), with the dual series expanded
in T^(-2) from fresh shell integrals of the Fourier transform.  The untwisted
shell series is rationalized and chi(p)^k (times q^(-nk) on the dual side) is
applied once, to the rational function (RationalFunctionT.twisted), as in
distributions.spectral_action.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import AllDegenerate, ZeroDenominator
from .integrate import K_EXTRA, IntegrationConfig, rationalize, schwartz_shell_integral
from .scalars import CyclotomicNumber, as_scalar, root_of_unity, scalar_is_zero


class MultiplicativeCharacter:
    """Character of Q_p^x: integer phases on the units mod p^c, and chi(p).

    c = conductor_exp is the true conductor, whatever level c' >= c the table is written
    at.  chi(u) = sign * zeta_{p^c}^a for (sign, a) = phases[u mod p^c] (u = 0 is the
    one class when c = 0).  At p = 2 with c >= 1, -1 is zeta^(2^(c-1)) and every
    sign is 1, so equal values have equal phases.  The input table gives scalars
    on all units or on generators of them; value_at_p is any nonzero scalar.
    """

    def __init__(self, p: int, conductor_exp: int, table, value_at_p=1):
        if conductor_exp < 0:
            raise ValueError("conductor exponent %d is negative" % conductor_exp)
        pc = p ** conductor_exp
        given = {int(u) % pc: _phase(p, conductor_exp, v) for u, v in table.items()}
        # chi(1) = 1 and chi(u g) = chi(u) chi(g) for reached u, given g: a homomorphism
        phases, frontier = {1 % pc: (1, 0)}, [1 % pc]
        while frontier:
            u = frontier.pop()
            s, a = phases[u]
            for g, (sg, ag) in given.items():
                w, v = u * g % pc, (s * sg, (a + ag) % pc)
                if w not in phases:
                    frontier.append(w)
                if phases.setdefault(w, v) != v:
                    raise ValueError("table is not a character of the units mod p^%d"
                                     % conductor_exp)
        if sorted(phases) != [u for u in range(pc) if u % p or pc == 1]:
            raise ValueError("table must generate the units mod p^%d" % conductor_exp)
        # the true conductor: least f with chi = 1 on the units = 1 mod p^f (0: 1 on units).
        # Each value is +-(a p^(f-1)-th root), so p^(c-f) | a, at p = 2 too (-1 = zeta^(2^(c-1)))
        f = next(f for f in range(conductor_exp + 1) if all(
            v == (1, 0) for u, v in phases.items() if u % p ** f == 1 % p ** f))
        self.p, self.conductor_exp, self.phases = p, f, {
            u % p ** f: (s, a // p ** (conductor_exp - f)) for u, (s, a) in phases.items()}
        self.value_at_p = as_scalar(value_at_p, p)
        if scalar_is_zero(self.value_at_p):
            raise ValueError("a character takes no zero value")

    # -- constructors --------------------------------------------------

    @staticmethod
    def trivial(p: int) -> "MultiplicativeCharacter":
        return MultiplicativeCharacter(p, 0, {}, 1)

    @staticmethod
    def unramified(p: int, value_at_p) -> "MultiplicativeCharacter":
        return MultiplicativeCharacter(p, 0, {}, value_at_p)

    @staticmethod
    def quadratic_ramified(p: int, value_at_p=1) -> "MultiplicativeCharacter":
        """The quadratic ramified character: Legendre symbol mod p for odd p,
        the character mod 4 (conductor exponent 2) for p = 2."""
        if p == 2:
            return MultiplicativeCharacter(2, 2, {1: 1, 3: -1}, value_at_p)
        table = {u: 1 if pow(u, (p - 1) // 2, p) == 1 else -1 for u in range(1, p)}
        return MultiplicativeCharacter(p, 1, table, value_at_p)

    # -- evaluation ----------------------------------------------------

    @property
    def is_ramified(self) -> bool:
        return self.conductor_exp > 0

    def unit_value(self, u: int):
        s, a = self.phases[u % self.p ** self.conductor_exp]
        return root_of_unity(self.p, self.conductor_exp, a) * s

    def inverse(self) -> "MultiplicativeCharacter":
        """chi^(-1): negated phases and one scalar inverse, of chi(p)."""
        inv, M = object.__new__(MultiplicativeCharacter), self.p ** self.conductor_exp
        inv.p, inv.conductor_exp = self.p, self.conductor_exp
        inv.phases = {u: (s, -a % M) for u, (s, a) in self.phases.items()}
        inv.value_at_p = self.value_at_p.inverse()
        return inv

    def value_at_minus_one(self):
        return self.unit_value(-1)

    def __repr__(self):
        return "MultiplicativeCharacter(p=%d, c=%d, chi(p)=%r)" % (
            self.p, self.conductor_exp, self.value_at_p)


def _phase(p: int, c: int, value):
    """(sign, a) with value = sign * zeta_{p^c}^a.  In the power basis of its least
    level m, zeta^a is e_a for a < phi(p^m) and -(e_r + e_(r + p^(m-1)) + ...) for
    a = phi(p^m) + r, so the first nonzero coefficient names a."""
    v = as_scalar(value, p)
    if isinstance(v, CyclotomicNumber) and (v.m == 0 or v.p == p) and v.m <= c:
        j, x = next(((j, x) for j, x in enumerate(v.coeffs) if x), (0, 0))
        for s, a in ((x, j), (-x, j + len(v.coeffs))):
            if s in (1, -1) and root_of_unity(p, v.m, a) * int(s) == v:
                a *= p ** (c - v.m)
                if p == 2 and c and s < 0:  # -1 = zeta_{2^c}^(2^(c-1))
                    return 1, (a + 2 ** (c - 1)) % 2 ** c
                return int(s), a % p ** c
    raise ValueError("%r is not a root of unity of level <= %d, so not a character value"
                     % (value, c))


def phi_fingerprint(phi) -> str:
    import hashlib  # only a degenerate Phi's warning needs it: CLI start-up skips it
    return hashlib.sha256(phi.to_json().encode()).hexdigest()[:16]


# value: RationalFunctionT; k_range: (first, last) shell; stats: the cells counted
ZetaResult = namedtuple("ZetaResult", "value k_range stats")


def zeta_integral(phi, chi: MultiplicativeCharacter,
                  config: IntegrationConfig | None = None,
                  dual_weight: bool = False) -> ZetaResult:
    """Exact Z(Phi, s, chi compose det) as a rational function in T.

    With dual_weight=True the series is expanded at the reflected argument
    n - s (each shell k weighted by q^(-nk) T^(-2k) instead of T^(2k)),
    which is how the numerator of the gamma factor is assembled.
    """
    config = config or IntegrationConfig()
    n = phi.n
    p = phi.ctx.p
    r_max = config.r_max or n
    k_min = phi.det_valuation_bound()
    count = 2 * r_max + config.confirm + K_EXTRA
    stats = {}
    seq = [schwartz_shell_integral(phi, k, config, chi, stats)
           for k in range(k_min, k_min + count)]

    def factor(k):
        c = chi.value_at_p ** k
        return c * Fraction(p) ** (-n * k) if dual_weight else c

    weight = -2 if dual_weight else 2
    value = rationalize(seq, k_min, weight, p, r_max, config.confirm).twisted(factor, weight)
    return ZetaResult(value=value, k_range=(k_min, k_min + count - 1), stats=stats)


class GammaResult(namedtuple("GammaResult", "value num den")):  # num.value / den.value
    __slots__ = ()

    @property
    def cells(self) -> int:
        """Refinement cells of both zeta integrals."""
        return self.num.stats.get("cells", 0) + self.den.stats.get("cells", 0)


def gamma_factor(phi, chi: MultiplicativeCharacter,
                 config: IntegrationConfig | None = None) -> GammaResult:
    """gamma(s, chi) = Z(Phi^, n - s, chi^(-1)) / Z(Phi, s, chi)."""
    den = zeta_integral(phi, chi, config)
    if den.value.is_zero():
        raise ZeroDenominator("Z(Phi, s, chi) vanishes identically for this Phi")
    num = zeta_integral(phi.fourier(), chi.inverse(), config, dual_weight=True)
    return GammaResult(value=num.value / den.value, num=num, den=den)


def dual_gamma_factor(phi, chi: MultiplicativeCharacter,
                      config: IntegrationConfig | None = None) -> GammaResult:
    """gamma(n - s, contragredient) computed from the same Phi:
    Z(reflect Phi, s, chi) / Z(Phi^, n - s, chi^(-1))."""
    den = zeta_integral(phi.fourier(), chi.inverse(), config, dual_weight=True)
    if den.value.is_zero():
        raise ZeroDenominator("Z(Phi^, n - s, chi^(-1)) vanishes identically")
    num = zeta_integral(phi.reflect(), chi, config)
    return GammaResult(value=num.value / den.value, num=num, den=den)


def phi_independence_check(phis, chi: MultiplicativeCharacter,
                           config: IntegrationConfig | None = None, stats=None):
    """gamma factors from several Phi must coincide.

    Returns (all_equal, gamma, warnings); Phi with identically vanishing
    Z are skipped as degenerate.  AllDegenerate if none survives.  The
    cells of every nondegenerate Phi's zeta integrals are added to stats.
    """
    gammas = []
    warnings = []
    for phi in phis:
        try:
            g = gamma_factor(phi, chi, config)
        except ZeroDenominator:
            warnings.append("degenerate Phi %s skipped" % phi_fingerprint(phi))
            continue
        gammas.append(g)
        if stats is not None:
            stats["cells"] = stats.get("cells", 0) + g.cells
    if not gammas:
        raise AllDegenerate("every Phi produced a vanishing zeta integral")
    if len(gammas) == 1:
        warnings.append("only one nondegenerate Phi; independence is vacuous")
    first = gammas[0].value
    ok = all(g.value == first for g in gammas[1:])
    return ok, gammas[0], warnings
