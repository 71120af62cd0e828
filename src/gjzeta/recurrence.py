"""Minimal linear recurrence detection over an exact field (Berlekamp-Massey).

Zeta-integral shell tails satisfy linear recurrences of order <= n; this
module recovers them exactly and certifies them on a confirmation window.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NoRecurrence
from .scalars import scalar_inverse, scalar_is_zero


def berlekamp_massey(seq):
    """Shortest LFSR coefficients c_1..c_L with s_i = sum_j c_j s_{i-j}.

    Plain Berlekamp-Massey over a field of exact scalars.
    """
    c = [1]
    b = [1]
    L = 0
    m = 1
    d_prev = 1
    for i, s_i in enumerate(seq):
        d = s_i
        for j in range(1, L + 1):
            d = d + c[j] * seq[i - j]
        if scalar_is_zero(d):
            m += 1
            continue
        factor = d * scalar_inverse(d_prev)
        c_new = list(c) + [0] * max(0, len(b) + m - len(c))
        for j, bj in enumerate(b):
            c_new[j + m] = c_new[j + m] - factor * bj
        if 2 * L <= i:
            b = list(c)
            L = i + 1 - L
            d_prev = d
            m = 1
        else:
            m += 1
        c = c_new
    return [-cj for cj in c[1:L + 1]]


def _predict(coeffs, seq, k):
    """sum_i coeffs[i-1] * seq[k-i], the recurrence's value at index k."""
    return sum((c * seq[k - i] for i, c in enumerate(coeffs, start=1)), start=Fraction(0))


def detect_recurrence(seq, r_max: int, confirm: int):
    """Minimal-order recurrence of the tail of seq, exact, as (coeffs, start):
    seq[k] = sum_i coeffs[i-1] * seq[k-i] for every k >= start, so its order
    is len(coeffs).  The start is pushed as far left as the recurrence holds.

    Fits on the window preceding the last `confirm` entries and verifies the
    prediction on those entries.  Raises NoRecurrence if no recurrence of
    order <= r_max fits with the confirm margin.
    """
    if len(seq) < 2 * r_max + confirm:
        raise ValueError("need at least 2*r_max + confirm terms")
    if all(scalar_is_zero(s) for s in seq[-(r_max + confirm):]):
        return [], len(seq) - (r_max + confirm)
    fit = seq[len(seq) - (2 * r_max + confirm):len(seq) - confirm]
    coeffs = berlekamp_massey(fit)
    order = len(coeffs)
    if order > r_max:
        raise NoRecurrence("minimal order %d exceeds r_max=%d" % (order, r_max))
    for k in range(len(seq) - confirm, len(seq)):
        if not scalar_is_zero(_predict(coeffs, seq, k) - seq[k]):
            raise NoRecurrence("confirm window mismatch at index %d" % k)
    # extend validity as far left as it holds, to shorten the literal head
    start = len(seq) - (2 * r_max + confirm) + order
    while start > order and scalar_is_zero(_predict(coeffs, seq, start - 1) - seq[start - 1]):
        start -= 1
    return coeffs, start
