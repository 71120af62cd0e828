"""Closed-form count kernel for the n = 2 Hermite-orbit path.

Exact counts from a group-theoretic argument, no matrix enumerated.  Read
only by perfbench/ and tests/test_kernels.py; ROADMAP item 1 deletes it.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def gl2_histogram(p: int, J: int, m1: int, cu: int) -> np.ndarray:
    """counts[g11 % p^m1, g22 % p^m1, det % p^cu] over g in M_2(Z/p^J)
    with g21 = 0 mod p^m1 and det(g) a unit.

    On this group, Gamma_0(p^m1) mod p^J, the bin map is a homomorphism
    (g21 = 0 mod p^m1 makes g11, g22 mod p^m1 multiplicative and det = g11
    g22 mod p^m1), so each bin of its image holds |group| / |image| matrices.
    The image is every unit triple (x, y, u) with xy = u mod p^min(m1, cu).
    """
    if m1 > J or cu > J:
        raise ValueError("bin moduli cannot exceed the enumeration level")
    r = np.arange(p ** m1)
    u = np.arange(p ** cu)
    low = p ** min(m1, cu)
    image = (np.outer(r, r) % low)[:, :, None] == u % low
    if cu:
        image &= u % p != 0
    if m1:  # g11, g22 units, g12 free, g21 in p^m1 Z/p^J
        image &= np.outer(r % p != 0, r % p != 0)[:, :, None]
        order = (p ** J - p ** (J - 1)) ** 2 * p ** (2 * J - m1)
    else:  # |GL_2(Z/p^J)|
        order = p ** (4 * J - 3) * (p - 1) * (p * p - 1)
    return image * np.int64(order // np.count_nonzero(image))
