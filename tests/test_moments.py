import numpy as np
import pytest

from energydisc import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParameter,
    NotPSD,
    analytic_moments,
    estimate_moments,
    expected_quadratic,
)
from energydisc.moments import _check_psd, _merge, _MomentSum
from energydisc.spectral import sym_eig
from helpers import max_abs, random_psd, random_symmetric


def test_estimate_two_points():
    summary = estimate_moments([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(summary.mean, [2.0, 3.0])
    np.testing.assert_allclose(summary.correlation, [[5.0, 7.0], [7.0, 10.0]])
    np.testing.assert_allclose(summary.covariance, [[1.0, 1.0], [1.0, 1.0]])
    assert summary.count == 2
    assert summary.dim == 2


def test_estimate_single_point():
    summary = estimate_moments([[2.0, 0.0]])
    np.testing.assert_allclose(summary.mean, [2.0, 0.0])
    np.testing.assert_allclose(summary.correlation, [[4.0, 0.0], [0.0, 0.0]])
    assert max_abs(summary.covariance) <= 1e-12


def test_estimate_rejects_empty():
    with pytest.raises(EmptyDataset):
        estimate_moments(np.empty((0, 3)))


def test_estimate_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        estimate_moments([[1.0, 2.0], [1.0]])


def test_estimate_rejects_samples_of_more_than_two_axes():
    with pytest.raises(DimensionMismatch, match="equal-length vectors"):
        estimate_moments(np.zeros((2, 3, 4)))


def test_estimate_decomposition_identity():
    # correlation = covariance + outer(mean, mean), exactly with the 1/N
    # estimators used here
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, 40))
        x = rng.standard_normal((count, n)) * rng.uniform(0.1, 5.0)
        s = estimate_moments(x)
        recon = s.covariance + np.outer(s.mean, s.mean)
        assert max_abs(recon - s.correlation) <= 1e-12 * (1.0 + max_abs(s.correlation))
        np.testing.assert_allclose(s.mean, x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(s.correlation, x.T @ x / count, atol=1e-10)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_estimate_correlation_matches_extended_precision(offset):
    # K is derived as R + m m^T; compare it with x^T x / N summed in
    # long double from the same float64 samples, also far from the origin
    rng = np.random.default_rng(43)
    n = 6
    x = offset * rng.uniform(-1.0, 1.0, n) + rng.standard_normal((400, n)) * 2.0
    s = estimate_moments(x)
    xl = x.astype(np.longdouble)
    reference = xl.T @ xl / x.shape[0]
    err = np.max(np.abs(s.correlation.astype(np.longdouble) - reference))
    assert err <= 1e-13 * np.max(np.abs(reference))


def test_estimate_matrices_are_symmetric():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((17, 5))
    s = estimate_moments(x)
    assert max_abs(s.correlation - s.correlation.T) == 0.0
    assert max_abs(s.covariance - s.covariance.T) == 0.0


def test_analytic_shifted_identity():
    summary = analytic_moments([1.0, 0.0], np.eye(2))
    np.testing.assert_allclose(summary.correlation, [[2.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(summary.covariance, np.eye(2))
    assert summary.count == 0


def test_analytic_rejects_indefinite_covariance():
    with pytest.raises(NotPSD):
        analytic_moments([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_analytic_rejects_mismatched_mean():
    with pytest.raises(DimensionMismatch):
        analytic_moments([1.0, 0.0, 0.0], np.eye(2))


def test_analytic_rejects_zero_dimension():
    with pytest.raises(DimensionMismatch, match="at least 1"):
        analytic_moments([], np.zeros((0, 0)))


def test_expected_quadratic_examples():
    s = analytic_moments([0.0, 0.0], [[2.0, 0.0], [0.0, 3.0]])
    assert expected_quadratic(np.eye(2), s.correlation) == pytest.approx(5.0)
    assert expected_quadratic(np.diag([1.0, 0.0]), s.correlation) == pytest.approx(2.0)


def test_expected_quadratic_matches_sample_average():
    # E <Ax, x> over the empirical distribution equals tr(K A) exactly
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        x = rng.standard_normal((int(rng.integers(1, 30)), n))
        a = random_symmetric(rng, n)
        k = estimate_moments(x).correlation
        direct = float(np.mean(np.einsum("ij,jk,ik->i", x, a, x)))
        assert abs(expected_quadratic(a, k) - direct) <= 1e-10 * (1.0 + abs(direct))


def test_expected_quadratic_refuses_an_energy_beyond_the_float_range():
    with pytest.raises(InvalidParameter, match="overflows a float"):
        expected_quadratic([[1e200, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]])


def test_expected_quadratic_shape_check():
    with pytest.raises(DimensionMismatch):
        expected_quadratic(np.eye(2), np.eye(3))


def test_expected_quadratic_linear_in_matrix():
    rng = np.random.default_rng(21)
    k = random_psd(rng, 4)
    a = random_symmetric(rng, 4)
    b = random_symmetric(rng, 4)
    lhs = expected_quadratic(a + b, k)
    rhs = expected_quadratic(a, k) + expected_quadratic(b, k)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_analytic_moments_take_the_largest_finite_covariance():
    # the PSD tolerance scales with the trace, which overflows as a plain sum
    big = 1.7976931348623157e308
    summary = analytic_moments([0.0, 0.0], np.diag([big, big]))
    np.testing.assert_array_equal(summary.covariance, np.diag([big, big]))
    with pytest.raises(NotPSD):
        analytic_moments([0.0, 0.0], [[big, 0.0], [0.0, -big]])


def _m2(x):
    centered = x - x.mean(axis=0)
    return centered.T @ centered


def test_merge_keeps_the_first_block_and_merges_the_next():
    rng = np.random.default_rng(14)
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((7, 3)) + 2.0
    first = _merge(0, None, None, 5, a.mean(axis=0), _m2(a))
    assert first[0] == 5
    np.testing.assert_array_equal(first[1], a.mean(axis=0))
    np.testing.assert_array_equal(first[2], _m2(a))
    count, mean, m2 = _merge(*first, 7, b.mean(axis=0), _m2(b))
    whole = np.vstack([a, b])
    assert count == 12
    np.testing.assert_allclose(mean, whole.mean(axis=0), rtol=1e-14)
    np.testing.assert_allclose(m2, _m2(whole), rtol=1e-13, atol=1e-13)
    # a scalar M2 merges as the diagonal of the matrix M2 does, bit for bit
    for j in range(3):
        scalar = _merge(5, first[1][j], first[2][j, j], 7, b.mean(axis=0)[j], _m2(b)[j, j])
        assert scalar == (12, mean[j], m2[j, j])


def test_check_psd_returns_its_eigendecomposition():
    cov = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    values, vectors = _check_psd(cov)
    want = sym_eig(cov)
    np.testing.assert_array_equal(values, want.eigenvalues)
    np.testing.assert_array_equal(vectors, want.eigenvectors)
    with pytest.raises(NotPSD, match=r"^covariance has eigenvalue -1\.0$"):
        _check_psd(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("rows", [
    [[1e200, 0.0], [1e200, 1.0]],  # the rank-one split m m^T
    [[1e300, 0.0], [-1e300, 1.0]],  # the scatter
    [[1.7e308, 0.0], [1.7e308, 1.0]],  # the mean's sum
])
def test_estimate_moments_names_an_overflow(rows):
    with pytest.raises(InvalidParameter, match="^class moments overflow"):
        estimate_moments(rows)


def test_moment_sum_names_an_overflow_in_the_merge():
    total = _MomentSum()
    total.add(np.array([[1e300, 0.0]]))
    with pytest.raises(InvalidParameter, match="^class moments overflow"):
        total.add(np.array([[-1e300, 0.0]]))


def test_analytic_moments_name_an_overflow_in_the_split():
    with pytest.raises(InvalidParameter, match="^class moments overflow"):
        analytic_moments([1e200, 0.0], np.eye(2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_analytic_moments_refuse_a_mean_that_is_not_finite(value):
    with pytest.raises(InvalidParameter, match="^class mean must be finite$"):
        analytic_moments([value, 0.0], np.eye(2))
