"""Minimal linear recurrence detection over an exact field (Berlekamp-Massey).

Zeta-integral shell tails satisfy linear recurrences of order <= n; this
module recovers them exactly and certifies them on a confirmation window.
"""

from __future__ import annotations

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


def detect_recurrence(seq, r_max: int, confirm: int):
    """Minimal-order recurrence of the tail of seq, exact, as (coeffs, head).

    Berlekamp-Massey fits the 2 r_max entries from ws = len(seq) - 2 r_max - confirm.
    The residual e_t = seq[t] - sum_{i <= min(t, L)} coeffs[i-1] seq[t-i], L = len(coeffs),
    is checked to vanish on the last `confirm` entries; it vanishes where the fit
    holds, from ws + L on, and head = [e_t for t < ws + L].  Raises NoRecurrence if no
    recurrence of order <= r_max fits with the confirm margin.
    """
    ws = len(seq) - (2 * r_max + confirm)
    if ws < 0:
        raise ValueError("need at least 2*r_max + confirm terms")
    coeffs = berlekamp_massey(seq[ws:len(seq) - confirm])
    order = len(coeffs)
    if order > r_max:
        raise NoRecurrence("minimal order %d exceeds r_max=%d" % (order, r_max))

    def residual(t):
        e = seq[t]
        for i, c in enumerate(coeffs[:t], start=1):
            e = e - c * seq[t - i]
        return e
    for k in range(len(seq) - confirm, len(seq)):
        if not scalar_is_zero(residual(k)):
            raise NoRecurrence("confirm window mismatch at index %d" % k)
    return coeffs, [residual(t) for t in range(ws + order)]
