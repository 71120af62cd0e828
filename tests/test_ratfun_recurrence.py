"""Rational functions in T and exact recurrence detection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gjzeta.errors import NoRecurrence
from gjzeta.ratfun import LaurentPoly, RationalFunctionT, _poly_divmod, _poly_gcd, ratfun_equal
from gjzeta.recurrence import berlekamp_massey, detect_recurrence
from gjzeta.integrate import K_EXTRA, rationalize
from gjzeta.scalars import (as_scalar, root_of_unity, root_of_unity_sum, scalar_inverse,
                            scalar_is_zero)


def rf(num, den, q=2):
    return RationalFunctionT(LaurentPoly({e: as_scalar(c) for e, c in num.items()}),
                             LaurentPoly({e: as_scalar(c) for e, c in den.items()}), q)


def series_coefficients(r, k0, count, step=1):
    """a_k for k0 <= k < k0 + count in the expansion r = sum_{k >= k0} a_k T^(step k);
    r must be a function of T^step whose denominator has a nonzero constant term."""
    if any(e % step for e in (*r.num.coeffs, *r.den.coeffs)):
        raise ValueError("not a function of T^%d" % step)
    num = {e // step: c for e, c in r.num.coeffs.items()}
    den = {e // step: c for e, c in r.den.coeffs.items()}
    d0 = den.pop(0, None)
    if d0 is None or scalar_is_zero(d0):
        raise ValueError("denominator not invertible as a power series")
    inv0, a = scalar_inverse(d0), {}
    for k in range(k0, k0 + count):
        acc = num.get(k, 0)
        for j, c in den.items():
            if k - j in a:
                acc = acc - c * a[k - j]
        a[k] = acc * inv0
    return list(a.values())


def test_reduction_to_canonical_form():
    # (T^2 - T^4) / (1 - T^2) == T^2
    r = rf({2: 1, 4: -1}, {0: 1, 2: -1})
    assert r == rf({2: 1}, {0: 1})
    assert r.is_monomial()


def test_equality_by_cross_multiplication():
    a = rf({0: 1, 2: -1}, {0: 1, 2: Fraction(-1, 2)})
    b = rf({0: 2, 2: -2}, {0: 2, 2: -1})
    assert ratfun_equal(a, b)
    assert a == b
    assert not (a == rf({0: 1}, {0: 1}))


def test_mixed_base_q_rejected():
    with pytest.raises(ValueError):
        ratfun_equal(rf({0: 1}, {0: 1}, 2), rf({0: 1}, {0: 1}, 3))


def test_arithmetic_and_scalar_coercion():
    a = rf({2: 1}, {0: 1, 2: -1})
    assert a + 1 == rf({0: 1}, {0: 1, 2: -1})
    assert (a / a) == 1
    assert a - a == rf({0: 0}, {0: 1})
    z = root_of_unity(2, 2, 1)  # i
    assert (z * rf({0: 1}, {0: 1})) * (z * rf({0: 1}, {0: 1})) == -1


def test_series_coefficients_geometric():
    # 1 / (1 - c T^2) = sum c^k T^(2k)
    c = Fraction(1, 3)
    r = rf({0: 1}, {0: 1, 2: -c}, 3)
    coeffs = series_coefficients(r, 0, 6, step=2)
    assert [x == c ** k for k, x in enumerate(coeffs)] == [True] * 6


def test_serialize_roundtrip_shape():
    r = rf({-2: 1, 0: -1}, {0: 1, 2: Fraction(1, 2)})
    doc = r.serialize()
    assert doc["base_q"] == 2
    assert set(doc) == {"num", "den", "base_q"}
    assert all(isinstance(k, str) for k in doc["num"])
    # Fraction coefficients serialize like the equal cyclotomic ones
    one = LaurentPoly({0: Fraction(1)})
    assert RationalFunctionT(one, one, 3).serialize()["num"] == {"0": "1"}


def test_berlekamp_massey_fibonacci():
    seq = [Fraction(x) for x in (1, 1, 2, 3, 5, 8, 13, 21)]
    assert berlekamp_massey(seq) == [1, 1]


def test_detect_recurrence_with_head():
    # junk head then geometric tail
    seq = [Fraction(7), Fraction(-2)] + [Fraction(5) * Fraction(1, 2) ** k
                                         for k in range(10)]
    coeffs, head = detect_recurrence(seq, r_max=2, confirm=3)
    assert coeffs == [Fraction(1, 2)]
    # the residuals below ws + L = 5 + 1: seq is the series of (7 - 11/2 x + 6 x^2) / (1 - x/2)
    assert head == [7, Fraction(-11, 2), 6, 0, 0, 0]


def test_detect_recurrence_zero_tail():
    seq = [Fraction(1), Fraction(2)] + [Fraction(0)] * 8
    assert detect_recurrence(seq, r_max=2, confirm=3)[0] == []


def test_no_recurrence_raises():
    seq = [Fraction(k * k * k) for k in range(12)]  # order-4 recurrence
    with pytest.raises(NoRecurrence):
        detect_recurrence(seq, r_max=2, confirm=3)


def test_rationalize_recovers_closed_form():
    # entries a_k = (1 - 1/p) for k >= 0 at weight 2: (1-1/p) / (1 - T^2)
    p = 3
    seq = [as_scalar(Fraction(p - 1, p), p) for _ in range(8)]
    r = rationalize(seq, 0, 2, p, r_max=1, confirm=3)
    assert r == rf({0: Fraction(2, 3)}, {0: 1, 2: -1}, 3)


def test_rationalize_negative_weight():
    # dual-side expansion in T^-2
    p = 2
    seq = [as_scalar(Fraction(1, 2) ** k, p) for k in range(8)]
    r = rationalize(seq, 0, -2, p, r_max=1, confirm=3)
    # sum (1/2)^k T^(-2k) = 1 / (1 - (1/2) T^-2)
    assert r == rf({0: 1}, {0: 1, -2: Fraction(-1, 2)})


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


# -- canonical form and hashing (hypothesis) --------------------------------

# rationals and elements of Q(zeta_9)
_scalars = st.one_of(_small, st.lists(_small, min_size=6, max_size=6).map(
    lambda cs: root_of_unity_sum(3, 2, cs)))
_polys = st.dictionaries(st.integers(-3, 3), _scalars, max_size=3).map(LaurentPoly)
_nonzero_polys = _polys.filter(lambda f: not f.is_zero())


def _canonical_parts(r):
    return (r.q, r.num.coeffs, r.den.coeffs, repr(r))


@settings(max_examples=40, deadline=None)
@given(_polys, _nonzero_polys)
def test_canonical_form_is_idempotent(num, den):
    r = RationalFunctionT(num, den, 3)
    assert _canonical_parts(RationalFunctionT(r.num, r.den, 3)) == _canonical_parts(r)


@settings(max_examples=40, deadline=None)
@given(_polys, _nonzero_polys, _nonzero_polys, _polys, _nonzero_polys)
def test_equal_rational_functions_hash_equal(num, den, f, num2, den2):
    a = RationalFunctionT(num, den, 3)
    b = RationalFunctionT(num * f, den * f, 3)  # the same function, unreduced
    c = RationalFunctionT(num2, den2, 3)
    assert a == b
    for x, y in ((a, b), (a, c)):
        if x == y:
            assert hash(x) == hash(y)


@settings(max_examples=40, deadline=None)
@given(_polys, _nonzero_polys, st.integers(-4, 4), st.integers(-4, 4))
def test_canonical_form_ignores_monomial_shifts(num, den, i, j):
    # num T^i / den T^j is num T^(i-j) / den, whatever the shifts
    shifted = RationalFunctionT(num.shift(i), den.shift(j), 3)
    assert shifted.serialize() == RationalFunctionT(num.shift(i - j), den, 3).serialize()


@pytest.mark.parametrize("w", [1, 2, -2])
@settings(max_examples=40, deadline=None)
@given(_polys, _nonzero_polys, _scalars.filter(lambda c: not scalar_is_zero(c)))
def test_twist_keeps_the_canonical_form(w, num, den, c):
    # a function of T^w, twisted by T^(w k) -> c^k T^(w k)
    def stretch(f):
        return LaurentPoly({e * abs(w): x for e, x in f.coeffs.items()})

    def twist(f, c):
        return LaurentPoly({e: x * c ** (e // w) for e, x in f.coeffs.items()})

    r = RationalFunctionT(stretch(num), stretch(den), 3)
    twisted = r.twisted(lambda k: c ** k, w)
    assert twisted.serialize() == RationalFunctionT(twist(r.num, c), twist(r.den, c),
                                                    3).serialize()
    assert twisted.twisted(lambda k: c ** -k, w).serialize() == r.serialize()


def test_constant_hashes_like_the_scalar_it_equals():
    for c in (1, 0, Fraction(-2, 3), root_of_unity(3, 2, 4), root_of_unity(3, 2, 4) * 0):
        r = RationalFunctionT.const(c, 3)
        assert r == c
        assert hash(r) == hash(c)
        assert len({r, c}) == 1
    # constants over different q collide in hash but stay distinct
    assert len({RationalFunctionT.const(1, 2), RationalFunctionT.const(1, 3)}) == 2


@settings(max_examples=40, deadline=None)
@given(_scalars, _nonzero_polys)
def test_scalar_equal_rational_functions_hash_equal(c, f):
    r = RationalFunctionT(f * LaurentPoly.const(c), f, 3)  # c, unreduced
    assert r == c
    assert hash(r) == hash(c)


# -- Berlekamp-Massey recovery (hypothesis) ---------------------------------


@st.composite
def _recurrent_sequences(draw):
    """A head of arbitrary terms, then 7..10 terms of a random recurrence of
    order <= 2, over Q or Q(zeta_9)."""
    if draw(st.booleans()):
        scalar = _small
    else:
        scalar = st.lists(_small, min_size=6, max_size=6).map(
            lambda cs: root_of_unity_sum(3, 2, cs))
    order = draw(st.integers(0, 2))
    coeffs = draw(st.lists(scalar, min_size=order, max_size=order))
    head = draw(st.lists(scalar, max_size=3))
    tail = draw(st.lists(scalar, min_size=order, max_size=order))
    length = draw(st.integers(7, 10))
    while len(tail) < length:
        tail.append(sum((c * tail[-i] for i, c in enumerate(coeffs, start=1)),
                        start=as_scalar(0, 3)))
    return head + tail


@settings(max_examples=60, deadline=None)
@given(_recurrent_sequences(), st.integers(-2, 2), st.sampled_from([1, 2]))
def test_berlekamp_massey_recovers_random_recurrences(seq, k0, weight):
    coeffs, head = detect_recurrence(seq, 2, 3)
    assert len(coeffs) <= 2
    for k in range(len(head), len(seq)):
        assert sum((c * seq[k - i] for i, c in enumerate(coeffs, start=1)),
                   start=as_scalar(0, 3)) == seq[k]
    r = rationalize(seq, k0, weight, 3, 2, 3)
    assert series_coefficients(r, k0, len(seq), step=weight) == seq


# -- one residual pass against the (coeffs, start) algorithm (hypothesis) ----

def _rationalize_reference(seq, k0, weight, q, r_max, confirm):
    """rationalize as it was built on (coeffs, start): Berlekamp-Massey, the confirm
    window checked by prediction, the zero-tail shortcut, start walked leftward while
    the recurrence holds, and a numerator loop of its own below start."""
    def predict(coeffs, k):
        return sum((c * seq[k - i] for i, c in enumerate(coeffs, start=1)), start=Fraction(0))

    if all(scalar_is_zero(s) for s in seq[-(r_max + confirm):]):
        coeffs, start = [], len(seq) - (r_max + confirm)
    else:
        coeffs = berlekamp_massey(seq[len(seq) - (2 * r_max + confirm):len(seq) - confirm])
        order = len(coeffs)
        if order > r_max:
            raise NoRecurrence("minimal order %d exceeds r_max=%d" % (order, r_max))
        for k in range(len(seq) - confirm, len(seq)):
            if not scalar_is_zero(predict(coeffs, k) - seq[k]):
                raise NoRecurrence("confirm window mismatch at index %d" % k)
        start = len(seq) - (2 * r_max + confirm) + order
        while start > order and scalar_is_zero(predict(coeffs, start - 1) - seq[start - 1]):
            start -= 1
    den = LaurentPoly({0: 1, **{weight * i: -ci for i, ci in enumerate(coeffs, start=1)}})
    num = {}
    for t in range(start):
        e = seq[t]
        for i in range(1, min(t, len(coeffs)) + 1):
            e = e - coeffs[i - 1] * seq[t - i]
        num[weight * (k0 + t)] = e
    return RationalFunctionT.coprime(LaurentPoly(num), den, q)


@st.composite
def _rationalize_inputs(draw):
    """(seq, r_max, confirm), len(seq) = 2 r_max + confirm + extra, of one kind:
    a recurrence of order <= r_max + 1 after a head that may run past K_EXTRA into
    the fit window; a nonzero head then at least r_max + confirm zeros; all zeros;
    or arbitrary entries, mostly not recurrent."""
    scalar = draw(st.sampled_from([_small, st.lists(_small, min_size=6, max_size=6).map(
        lambda cs: root_of_unity_sum(3, 2, cs))]))
    r_max, confirm, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(
        st.integers(0, K_EXTRA + 2))
    length = 2 * r_max + confirm + extra
    kind = draw(st.sampled_from(["recurrent", "zero_tail", "zero", "arbitrary"]))
    if kind == "zero":
        return [as_scalar(0, 3)] * length, r_max, confirm
    if kind == "arbitrary":
        return draw(st.lists(scalar, min_size=length, max_size=length)), r_max, confirm
    if kind == "zero_tail":
        zeros = draw(st.integers(r_max + confirm, length - 1))
        head = draw(st.lists(scalar, min_size=length - zeros, max_size=length - zeros).filter(
            lambda h: not scalar_is_zero(h[-1])))
        return head + [as_scalar(0, 3)] * zeros, r_max, confirm
    order = draw(st.integers(0, r_max + 1))
    coeffs = draw(st.lists(scalar, min_size=order, max_size=order))
    head = draw(st.lists(scalar, max_size=min(length - order, K_EXTRA + r_max + 1)))
    tail = draw(st.lists(scalar, min_size=order, max_size=order))
    while len(head) + len(tail) < length:
        tail.append(sum((c * tail[-i] for i, c in enumerate(coeffs, start=1)),
                        start=as_scalar(0, 3)))
    return head + tail, r_max, confirm


@settings(max_examples=200, deadline=None)
@given(_rationalize_inputs(), st.integers(-2, 2), st.sampled_from([1, 2, -2]))
def test_rationalize_matches_the_reference(case, k0, weight):
    seq, r_max, confirm = case
    try:
        want = _rationalize_reference(seq, k0, weight, 3, r_max, confirm)
    except NoRecurrence as exc:
        with pytest.raises(NoRecurrence) as got:
            rationalize(seq, k0, weight, 3, r_max, confirm)
        assert str(got.value) == str(exc)
        return
    assert rationalize(seq, k0, weight, 3, r_max, confirm).serialize() == want.serialize()


# -- rationalize without a gcd, and the dense division (hypothesis) ----------

def _times(f, g):
    """The product of two coefficient lists."""
    out = [as_scalar(0, 3)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def _planted_series(draw):
    """(seq, k0, weight, num, den, r_max): seq is the expansion of x^k0 num / den in
    x = T^weight, where num starts with zeros and num and den may share a factor."""
    num = [as_scalar(0, 3)] * draw(st.integers(0, 3)) + draw(
        st.lists(_scalars, min_size=1, max_size=3).filter(lambda c: not scalar_is_zero(c[-1])))
    den = [as_scalar(1, 3)] + draw(st.lists(_scalars, max_size=2))
    factor = [as_scalar(1, 3)] + draw(st.lists(_scalars, max_size=2))
    num, den = _times(num, factor), _times(den, factor)
    r_max = max(1, len(den) - 1)
    seq = []
    for t in range(len(num) + 2 * r_max + 3):
        acc = num[t] if t < len(num) else as_scalar(0, 3)
        for i in range(1, min(t, len(den) - 1) + 1):
            acc = acc - den[i] * seq[t - i]
        seq.append(acc)
    return (seq, draw(st.integers(-2, 2)), draw(st.sampled_from([2, -2])), num, den, r_max)


@settings(max_examples=60, deadline=None)
@given(_planted_series())
def test_rationalize_is_the_gcd_reduced_form(case):
    seq, k0, weight, num, den, r_max = case
    gcd_path = RationalFunctionT(
        LaurentPoly({weight * (k0 + t): c for t, c in enumerate(num)}),
        LaurentPoly({weight * i: c for i, c in enumerate(den)}), 3)
    assert rationalize(seq, k0, weight, 3, r_max, 3).serialize() == gcd_path.serialize()


def test_rationalize_takes_no_gcd(monkeypatch):
    from gjzeta import ratfun
    from gjzeta.distributions import gj_delta, spectral_action
    from gjzeta.padic import PAdicContext, PAdicMatrix
    from gjzeta.schwartz import SchwartzBruhatFn
    from gjzeta.zeta import MultiplicativeCharacter, zeta_integral

    def no_gcd(a, b):
        raise AssertionError("rationalize took a gcd")
    monkeypatch.setattr(ratfun, "_poly_gcd", no_gcd)
    seq = [as_scalar(0, 3)] * 2 + [as_scalar(Fraction(2, 3) ** k, 3) for k in range(8)]
    for weight in (2, -2):
        assert not rationalize(seq, -1, weight, 3, 2, 3).is_zero()
    ctx = PAdicContext(3)
    for chi in (MultiplicativeCharacter.trivial(3), MultiplicativeCharacter.quadratic_ramified(3)):
        for phi in (SchwartzBruhatFn.shifted_ball(2, ctx, 1, 1), SchwartzBruhatFn.unit_ball(2, ctx)):
            zeta_integral(phi, chi)
            zeta_integral(phi.fourier(), chi.inverse(), dual_weight=True)
        spectral_action(gj_delta(2), chi, PAdicMatrix.identity(2))


# Q and Q(zeta_8)
_scalars8 = st.one_of(_small, st.lists(_small, min_size=4, max_size=4).map(
    lambda cs: root_of_unity_sum(2, 3, cs)))
_ordinary8 = st.dictionaries(st.integers(0, 5), _scalars8, max_size=5).map(LaurentPoly)


@settings(max_examples=60, deadline=None)
@given(_ordinary8, _ordinary8.filter(lambda f: not f.is_zero()))
def test_poly_divmod_is_division_with_remainder(a, b):
    q, r = _poly_divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree() < b.degree()
    assert q.is_zero() or q.low_degree() >= 0
    # the gcd divides both
    g = _poly_gcd(a.shift(-a.low_degree()), b.shift(-b.low_degree()))
    assert _poly_divmod(b.shift(-b.low_degree()), g)[1].is_zero()
    assert a.is_zero() or _poly_divmod(a.shift(-a.low_degree()), g)[1].is_zero()
