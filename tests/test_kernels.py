"""The gl2 count kernel against a plain-Python count of the same cells."""

import numpy as np
import pytest

from gjzeta import integrate
from gjzeta._kernels import gl2_histogram
from gjzeta.errors import BudgetExceeded


def gl2_histogram_loops(p, J, m1, cu):
    """counts[g11, g22 mod p^m1, det mod p^cu] over M_2(Z/p^J) with
    g21 = 0 mod p^m1 and unit det."""
    q = p ** J
    mmod = p ** m1
    umod = p ** cu
    counts = np.zeros((mmod, mmod, umod), dtype=np.int64)
    for g11 in range(q):
        for g12 in range(q):
            for g21 in range(0, q, mmod):
                for g22 in range(q):
                    det = (g11 * g22 - g12 * g21) % q
                    if det % p != 0:
                        counts[g11 % mmod, g22 % mmod, det % umod] += 1
    return counts


@pytest.mark.parametrize("p, J, m1, cu", [(2, 2, 1, 1), (2, 3, 2, 2),
                                          (3, 1, 1, 1), (3, 2, 1, 2),
                                          (3, 2, 0, 0), (2, 4, 1, 2),
                                          (2, 3, 0, 1), (3, 3, 1, 1),
                                          (5, 1, 1, 1), (5, 2, 1, 2),
                                          (5, 2, 2, 0), (5, 2, 0, 1)])
def test_gl2_histogram_matches_loops(p, J, m1, cu):
    got = gl2_histogram(p, J, m1, cu)
    want = gl2_histogram_loops(p, J, m1, cu)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m1, cu", [(2, 1), (1, 2)])
def test_gl2_histogram_rejects_bins_finer_than_level(m1, cu):
    with pytest.raises(ValueError, match="bin moduli"):
        gl2_histogram(2, 1, m1, cu)


@pytest.mark.parametrize("p, J, m1, cu", [(11, 4, 4, 0),    # 11^8 bins
                                          (2, 16, 0, 16)])  # 2^64 > int64
def test_budget_stops_before_building(p, J, m1, cu, monkeypatch):
    def build(*args):
        raise AssertionError("kernel called past the budget")
    monkeypatch.setattr(integrate, "gl2_histogram", build)
    with pytest.raises(BudgetExceeded, match="bins"):
        integrate._gl2_hist_cached(p, J, m1, cu)


def test_counts_exact_at_int64_edge():
    counts = integrate._gl2_hist_cached(2, 15, 0, 15)
    assert counts.sum() == 2 ** (4 * 15 - 3) * 3  # |GL_2(Z/2^15)|
