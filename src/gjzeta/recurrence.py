"""Minimal linear recurrence detection over an exact field (Berlekamp-Massey).

Zeta-integral shell tails satisfy linear recurrences of order <= n; this
module recovers them exactly and certifies them on a confirmation window.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class Recurrence:
    """Tail recurrence e_k = sum_i coeffs[i-1] * e_{k-i} valid for k >= start."""
    order: int
    coeffs: list
    start: int

    def predict(self, entries, k):
        return sum((self.coeffs[i - 1] * entries[k - i] for i in range(1, self.order + 1)),
                   start=Fraction(0))


def detect_recurrence(seq, r_max: int, confirm: int):
    """Minimal-order recurrence of the tail of seq, exact.

    Fits on the window preceding the last `confirm` entries and verifies the
    prediction on those entries.  Raises NoRecurrence if no recurrence of
    order <= r_max fits with the confirm margin.
    """
    if len(seq) < 2 * r_max + confirm:
        raise ValueError("need at least 2*r_max + confirm terms")
    if all(scalar_is_zero(s) for s in seq[-(r_max + confirm):]):
        return Recurrence(order=0, coeffs=[], start=len(seq) - (r_max + confirm))
    fit = seq[len(seq) - (2 * r_max + confirm):len(seq) - confirm]
    coeffs = berlekamp_massey(fit)
    if len(coeffs) > r_max:
        raise NoRecurrence("minimal order %d exceeds r_max=%d" % (len(coeffs), r_max))
    order = len(coeffs)
    rec = Recurrence(order=order, coeffs=coeffs, start=len(seq) - (2 * r_max + confirm) + order)
    # confirm window
    for k in range(len(seq) - confirm, len(seq)):
        pred = rec.predict(seq, k)
        if not scalar_is_zero(pred - seq[k]):
            raise NoRecurrence("confirm window mismatch at index %d" % k)
    # extend validity as far left as it holds, to shorten the literal head
    start = rec.start
    while start - 1 >= order:
        k = start - 1
        pred = rec.predict(seq, k)
        if scalar_is_zero(pred - seq[k]):
            start = k
        else:
            break
    rec.start = start
    return rec
