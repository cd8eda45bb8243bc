import numpy as np
import pytest

from hstarcat.numcore import (
    DEFAULT_TOL,
    InputError,
    Tolerance,
    RANK_CUT,
    row_space,
    unitarity_defect,
    worst,
)
from solve_reference import null_space


def test_tolerance_bound():
    # one eps is both the absolute and the relative part of a bound
    t = Tolerance(1e-6)
    assert t.bound() == pytest.approx(2e-6)
    assert t.bound(100.0) == pytest.approx(1e-6 + 1e-4)
    assert t.bound(-3.0) == 1e-6 + 1e-6 * 3.0
    with pytest.raises(InputError):
        Tolerance(-1.0)


def test_tolerance_rejects_nan_and_infinity_at_construction():
    # nan < 0 is false, and an infinite eps bounds every finite residual
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            Tolerance(bad)


# null_space is the test-side solve's (solve_reference), the reference for
# the hom spaces that the package reads off the adjunction
def test_null_space_rank_deficient():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    b = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    m = a @ b  # 6 x 5 of rank 3
    ns = null_space(m)
    assert ns.shape == (5, 2)
    assert np.linalg.norm(ns.conj().T @ ns - np.eye(2)) < 1e-10
    assert np.linalg.norm(m @ ns) < 1e-10


def test_null_space_roundoff_matrix_is_all_kernel():
    # a purely relative cut would call this full rank and return nothing
    rng = np.random.default_rng(6)
    m = 1e-13 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    ns = null_space(m)
    assert ns.shape == (3, 3)
    assert np.linalg.norm(ns.conj().T @ ns - np.eye(3)) < 1e-10


def test_row_space_of_a_roundoff_matrix_is_empty():
    # the cut is absolute for small matrices: a purely relative one would
    # call this full rank and return three rows of noise
    rng = np.random.default_rng(6)
    m = 1e-13 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    assert row_space(m).shape == (0, 3)


def _full_svd_kernel(m):
    """The kernel by a full SVD, the reference for null_space."""
    _, s, vh = np.linalg.svd(m)
    return vh[int((s > RANK_CUT * max(1.0, s[0] if s.size else 0.0)).sum()):].conj().T


@pytest.mark.parametrize(
    "rows,cols,rank",
    [(9, 4, 2), (9, 4, 4), (3, 7, 3), (3, 7, 1), (5, 5, 3), (5, 5, 0), (0, 4, 0), (4, 0, 0)],
    ids=["tall", "tall_full_rank", "wide", "wide_deficient", "square", "square_zero", "no_rows", "no_cols"],
)
def test_null_space_matches_the_full_svd_kernel(rows, cols, rank):
    rng = np.random.default_rng(rows * 10 + cols + rank)
    a = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    b = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    m = a @ b
    ns, ref = null_space(m), _full_svd_kernel(m)
    assert ns.shape == ref.shape == (cols, cols - rank)
    # the kernel, not its basis, is fixed: compare the projectors onto it
    assert np.abs(ns @ ns.conj().T - ref @ ref.conj().T).max(initial=0.0) < 1e-10
    assert np.abs(ns.conj().T @ ns - np.eye(cols - rank)).max(initial=0.0) < 1e-10


def test_row_space_spans_the_rows_with_combinations_of_them():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    m = a @ b  # six rows spanning a plane of C^5
    rs = row_space(m)
    assert rs.shape == (2, 5)
    assert np.linalg.norm(rs @ rs.conj().T - np.eye(2)) < 1e-10
    # every row of m lies in the span of rs, and every row of rs in the span of m
    assert np.linalg.norm(m - m @ rs.conj().T @ rs) < 1e-10
    coeffs, *_ = np.linalg.lstsq(m.T, rs.T, rcond=None)
    assert np.linalg.norm(m.T @ coeffs - rs.T) < 1e-10
    assert row_space(np.zeros((3, 4))).shape == (0, 4)


def test_unitarity_defect():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert unitarity_defect(q) < 1e-12
    assert unitarity_defect(2 * q) == pytest.approx(3 * 2, rel=1e-10)
    assert DEFAULT_TOL.bound() == pytest.approx(2e-9)


def test_worst_keeps_nan_and_the_first_maximum():
    nan = float("nan")
    assert worst([]) == 0.0
    assert worst([0.5, 2.0, 1.0]) == 2.0
    # Python's max keeps or drops a NaN by its position; worst never drops it
    assert max(0.0, nan, 1.0) == 1.0
    for values in ([nan, 1.0], [1.0, nan], [0.0, 2.0, nan, 3.0]):
        assert np.isnan(worst(values))
    assert np.isnan(worst(iter([1.0, nan])))
    # equal maxima: the first is returned as it is, like max(0.0, ...)
    assert type(worst([np.float64(0.0)])) is float
    assert type(worst([np.float64(1.0), 1.0])) is np.float64


def test_unitarity_defect_of_nan_matrix_is_nan():
    m = np.eye(2)
    m[1, 1] = np.nan
    assert np.isnan(unitarity_defect(m))
