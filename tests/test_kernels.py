"""The gl2 histogram kernel against a plain-Python count of the same cells."""

import numpy as np
import pytest

from gjzeta._kernels import gl2_histogram


def gl2_histogram_loops(p, J, m1, cu):
    """counts[g11, g21, g22 mod p^m1, det mod p^cu] over M_2(Z/p^J), unit det."""
    q = p ** J
    mmod = p ** m1
    umod = p ** cu
    counts = np.zeros((mmod, mmod, mmod, umod), dtype=np.int64)
    for g11 in range(q):
        for g12 in range(q):
            for g21 in range(q):
                for g22 in range(q):
                    det = (g11 * g22 - g12 * g21) % q
                    if det % p != 0:
                        counts[g11 % mmod, g21 % mmod, g22 % mmod, det % umod] += 1
    return counts


@pytest.mark.parametrize("p, J, m1, cu", [(2, 2, 1, 1), (2, 3, 2, 2),
                                          (3, 1, 1, 1), (3, 2, 1, 2),
                                          (3, 2, 0, 0)])
def test_gl2_histogram_matches_loops(p, J, m1, cu):
    got = gl2_histogram(p, J, m1, cu)
    want = gl2_histogram_loops(p, J, m1, cu)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m1, cu", [(2, 1), (1, 2)])
def test_gl2_histogram_rejects_bins_finer_than_level(m1, cu):
    with pytest.raises(ValueError, match="bin moduli"):
        gl2_histogram(2, 1, m1, cu)
