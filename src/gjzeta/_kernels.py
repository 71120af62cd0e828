"""Integer-enumeration kernel for the n = 2 Hermite-orbit path.

The exact layer reduces a residue-cell sweep to counting integer matrices
mod p^J by small invariants (entry residues and det unit); the histogram is
then combined with exact cyclotomic weights, so the fast path loses no
exactness.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def gl2_histogram(p: int, J: int, m1: int, cu: int) -> np.ndarray:
    """counts[g11 % p^m1, g21 % p^m1, g22 % p^m1, det % p^cu] over
    g in M_2(Z/p^J) with det(g) a unit."""
    if m1 > J or cu > J:
        raise ValueError("bin moduli cannot exceed the enumeration level")
    q = p ** J
    mmod = p ** m1
    umod = p ** cu
    counts = np.zeros((mmod, mmod, mmod, umod), dtype=np.int64)
    r = np.arange(q, dtype=np.int64)
    # det = g11*g22 - g12*g21 mod p^J; loop the two trace entries,
    # vectorize over (g12, g21)
    g12 = r[:, None]
    g21 = r[None, :]
    prod = (g12 * g21) % q
    for g11 in range(q):
        for g22 in range(q):
            det = (g11 * g22 - prod) % q
            unit = (det % p) != 0
            dets = det[unit] % umod
            g21s = g21 % mmod
            g21sel = np.broadcast_to(g21s, det.shape)[unit]
            idx = (g21sel * umod + dets).ravel()
            sub = np.bincount(idx, minlength=mmod * umod).reshape(mmod, umod)
            counts[g11 % mmod, :, g22 % mmod, :] += sub
    return counts
