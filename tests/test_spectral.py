import numpy as np
import pytest

from energydisc import (
    DimensionMismatch,
    InvalidMatrix,
    LabeledDataset,
    Projector,
    analytic_moments,
    complement,
    expected_quadratic,
    gen_example1,
    identity_projector,
    projector_from_basis,
    sym_eig,
    sym_matrix,
    zero_projector,
)
from helpers import jacobi_eig, max_abs, random_projector, random_psd, random_symmetric

RT2 = np.sqrt(2.0)


def assert_valid_decomposition(m, decomp):
    values, vectors = decomp
    n = m.shape[0]
    assert max_abs(vectors.T @ vectors - np.eye(n)) <= 1e-10
    recon = vectors @ np.diag(values) @ vectors.T
    assert max_abs(recon - m) <= 1e-9 * (1.0 + max_abs(m))
    assert np.all(np.diff(values) <= 0.0)


def test_sym_matrix_symmetrizes():
    m = sym_matrix([[1.0, 2.0], [0.0, 3.0]])
    np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 3.0]])


def test_sym_matrix_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        sym_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix):
        sym_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_sym_matrix_rejects_nonsquare():
    with pytest.raises(InvalidMatrix):
        sym_matrix([[1.0, 2.0, 3.0]])


def test_sym_matrix_returns_a_symmetric_input_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)  # the least subnormal, which halving loses
    m = np.array([[1.7976931348623157e308, -0.0, tiny],
                  [-0.0, 0.1, -3.0],
                  [tiny, -3.0, -1e308]])
    out = sym_matrix(m)
    assert out.tobytes() == m.tobytes()
    assert out is not m


def test_sym_matrix_averages_an_asymmetric_input_without_overflow():
    big = 1.7976931348623157e308
    out = sym_matrix([[big, big], [big / 2.0, -big]])
    np.testing.assert_array_equal(out, [[big, 0.75 * big], [0.75 * big, -big]])
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 16):
        m = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
        assert sym_matrix(m).tobytes() == ((m + m.T) / 2.0).tobytes()


@pytest.mark.parametrize("bad", [[[1, 2], [3]], [["a"]]])
@pytest.mark.parametrize("call, error", [
    (sym_matrix, InvalidMatrix),
    (sym_eig, InvalidMatrix),
    (lambda bad: Projector(bad, 1), InvalidMatrix),
    (lambda bad: analytic_moments([0.0, 0.0], bad), InvalidMatrix),
    (lambda bad: gen_example1(2, [1.0, 0.0], [0.0, 1.0], bad, 1, 0), InvalidMatrix),
    (lambda bad: expected_quadratic(bad, np.eye(2)), InvalidMatrix),
    (lambda bad: expected_quadratic(np.eye(2), bad), InvalidMatrix),
    (lambda bad: LabeledDataset([1, 2], bad), DimensionMismatch),
], ids=["sym_matrix", "sym_eig", "Projector", "analytic_moments", "gen_example1",
        "expected_quadratic_a", "expected_quadratic_k", "LabeledDataset"])
def test_unconvertible_matrices_raise_typed_errors(call, error, bad):
    with pytest.raises(error):
        call(bad)


def test_eig_already_diagonal():
    values, vectors = sym_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(values, [3.0, 1.0])
    np.testing.assert_allclose(vectors, np.eye(2))


def test_eig_exchange_matrix():
    # characteristic polynomial l^2 - 1 = 0; worked by hand
    values, vectors = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(values, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(vectors[:, 0], [1 / RT2, 1 / RT2], atol=1e-14)
    np.testing.assert_allclose(vectors[:, 1], [1 / RT2, -1 / RT2], atol=1e-14)


def test_eig_identity_invariants_only():
    m = np.eye(3)
    decomp = sym_eig(m)
    np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])
    assert_valid_decomposition(m, decomp)


def test_eig_sign_convention_deterministic():
    rng = np.random.default_rng(7)
    m = random_symmetric(rng, 5)
    first = sym_eig(m)
    second = sym_eig(m.copy())
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(5):
        lead = np.nonzero(np.abs(first.eigenvectors[:, j]) > 1e-12)[0][0]
        assert first.eigenvectors[lead, j] > 0.0


def test_eig_random_matrices_match_jacobi():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = random_symmetric(rng, n)
        decomp = sym_eig(m)
        assert_valid_decomposition(m, decomp)
        reference = jacobi_eig(m).eigenvalues
        np.testing.assert_allclose(decomp.eigenvalues, reference, atol=1e-10)


@pytest.mark.parametrize("n, count", [(16, 4), (64, 2)])
def test_eig_and_positive_projector_match_jacobi_at_larger_n(n, count):
    # the classifier's operator: a prior-weighted difference of two PSD
    # operators, whose positive eigenspace is P_1
    rng = np.random.default_rng(n)
    for _ in range(count):
        p1 = float(rng.uniform(0.1, 0.9))
        m = p1 * random_psd(rng, n) - (1.0 - p1) * random_psd(rng, n)
        decomp = sym_eig(m)
        assert_valid_decomposition(m, decomp)
        ref_values, ref_vectors = jacobi_eig(m)
        np.testing.assert_allclose(decomp.eigenvalues, ref_values, atol=1e-10)
        positive = decomp.eigenvalues > 0.0
        assert np.array_equal(positive, ref_values > 0.0)
        proj = projector_from_basis(list(decomp.eigenvectors[:, positive].T), dim=n)
        ref = ref_vectors[:, positive] @ ref_vectors[:, positive].T
        assert proj.rank == int(np.count_nonzero(positive))
        assert max_abs(proj.matrix - ref) <= 1e-10


def test_projector_from_axis_vector():
    p = projector_from_basis([np.array([1.0, 0.0])])
    np.testing.assert_allclose(p.matrix, [[1.0, 0.0], [0.0, 0.0]])
    assert p.rank == 1


def test_projector_from_diagonal_vector():
    # u = (1,1)/sqrt 2, so u u^T has all entries 1/2
    p = projector_from_basis([np.array([1.0, 1.0])])
    np.testing.assert_allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert p.rank == 1


def test_projector_from_empty_basis():
    p = projector_from_basis([], dim=2)
    np.testing.assert_allclose(p.matrix, np.zeros((2, 2)))
    assert p.rank == 0


def test_projector_empty_basis_needs_dim():
    with pytest.raises(DimensionMismatch):
        projector_from_basis([])


def test_projector_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        projector_from_basis([np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])


def test_projector_drops_dependent_vectors():
    p = projector_from_basis(
        [np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 1.0])]
    )
    assert p.rank == 2
    np.testing.assert_allclose(p.matrix, np.eye(2), atol=1e-12)


def test_projector_random_bases_satisfy_invariants():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        count = int(rng.integers(0, n + 2))
        vecs = [rng.standard_normal(n) for _ in range(count)]
        if count >= 2 and rng.random() < 0.5:
            vecs.append(vecs[0] * rng.uniform(-2, 2) + vecs[1] * rng.uniform(-2, 2))
        p = projector_from_basis(vecs, dim=n)
        assert max_abs(p.matrix @ p.matrix - p.matrix) <= 1e-9
        assert abs(np.trace(p.matrix) - p.rank) <= 1e-8
        values = sym_eig(p.matrix).eigenvalues
        assert np.all(np.minimum(np.abs(values), np.abs(values - 1.0)) <= 1e-8)


def test_projector_constructor_rejects_non_idempotent():
    with pytest.raises(InvalidMatrix):
        Projector(np.array([[0.5, 0.0], [0.0, 0.5]]), 1)


def test_projector_constructor_rejects_oblique_projection():
    # idempotent with trace 1, but not symmetric: (0, 1) is orthogonal to
    # its range, yet this matrix would give it membership 1
    with pytest.raises(InvalidMatrix):
        Projector(np.array([[1.0, 1.0], [0.0, 0.0]]), 1)
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 16):
        for rank in range(n + 1):
            p = random_projector(rng, n, rank)
            assert Projector(p.matrix, rank).rank == rank


def test_projector_constructor_rank_is_a_whole_number():
    p = Projector(np.diag([1.0, 0.0]), 1.0)
    assert p.rank == 1 and p.basis.shape == (2, 1)
    with pytest.raises(InvalidMatrix):
        Projector(np.diag([1.0, 0.0]), 1.0 + 1e-9)


def test_projector_constructor_rejects_a_trace_other_than_rank():
    with pytest.raises(InvalidMatrix, match="trace does not match rank"):
        Projector(np.diag([1.0, 0.0]), 2)


def test_projector_from_basis_rejects_a_conflicting_dim():
    with pytest.raises(DimensionMismatch, match="dim=3"):
        projector_from_basis([np.array([1.0, 0.0])], dim=3)


def test_projector_constructor_rejects_nan():
    with pytest.raises(InvalidMatrix):
        Projector(np.full((2, 2), np.nan), 1)


def test_projector_constructor_takes_a_list_and_stores_an_array():
    p = Projector([[1.0, 0.0], [0.0, 0.0]], 1)
    assert isinstance(p.matrix, np.ndarray)
    np.testing.assert_array_equal(p.matrix, [[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(p.basis, [[1.0], [0.0]])


@pytest.mark.parametrize("matrix", [np.eye(2, 3), np.diag([1.0, np.inf])])
def test_projector_constructor_refuses_what_the_gate_refuses(matrix):
    with pytest.raises(InvalidMatrix):
        Projector(matrix, 1)


def test_projector_constructor_takes_the_basis_of_sym_eig():
    rng = np.random.default_rng(43)
    for n in (1, 3, 8):
        for rank in range(n + 1):
            m = random_projector(rng, n, rank).matrix
            p = Projector(m, rank)
            assert p.basis.tobytes() == sym_eig(m).eigenvectors[:, :rank].tobytes()
            assert p.matrix.tobytes() == m.tobytes()


def test_projector_repr():
    assert repr(projector_from_basis([np.array([1.0, 0.0, 0.0])])) == \
        "Projector(dim=3, rank=1)"
    assert repr(zero_projector(2)) == "Projector(dim=2, rank=0)"


def test_projector_from_basis_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        projector_from_basis([np.array([np.nan, 1.0])])


def test_eig_solver_failure_is_invalid_matrix(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(InvalidMatrix):
        sym_eig(np.eye(2))


def test_complement_examples():
    p = Projector(np.diag([1.0, 0.0]), 1)
    np.testing.assert_allclose(complement(p).matrix, np.diag([0.0, 1.0]))
    np.testing.assert_allclose(complement(zero_projector(3)).matrix, np.eye(3))
    half = projector_from_basis([np.array([1.0, 1.0])])
    np.testing.assert_allclose(
        complement(half).matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
    )


def test_complement_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        assert max_abs(complement(complement(p)).matrix - p.matrix) <= 1e-12
        assert complement(p).rank == n - p.rank


def test_identity_projector():
    p = identity_projector(4)
    assert p.rank == 4
    np.testing.assert_allclose(p.matrix, np.eye(4))
