"""Dense symmetric eigendecomposition and orthogonal projectors.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh) with
a fixed order and sign convention. A projector is stored as its
orthonormal basis U (n-by-k), so P = U U^T, rank k = the column count
and the matrix is derived on demand. Bases come from the decomposition
that defines the subspace: a rank-revealing SVD of a spanning set, the
eigenvectors of a fit, or a complete QR for the complement. Projectors
double as propositions of the projection lattice (see
:mod:`energydisc.logic`).
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix

# Idempotency / trace-rank slack accepted by the Projector constructor;
# the orthonormality slack of a stored basis.
_PROJ_ATOL = 1e-9
_RANK_ATOL = 1e-8

# First eigenvector component larger than this (in absolute value) is
# forced positive, making the decomposition deterministic.
_SIGN_EPS = 1e-12


def _float_array(entries: Iterable) -> np.ndarray:
    """A new float array of the entries; InvalidMatrix if they are ragged
    or not real numbers."""
    try:
        return np.array(entries, dtype=float)
    except (ValueError, TypeError) as exc:
        raise InvalidMatrix("matrix must be a rectangular array of real numbers") from exc


def _vectors(x) -> np.ndarray:
    """`x` as a float array; DimensionMismatch if its rows are ragged or not numbers."""
    try:
        return np.asarray(x, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch("vectors must be rows of numbers of one length") from exc


def _pow2_scaled(x: np.ndarray, top, bits: int = 0):
    """(x * 2^-e, e) for the power of two that brings `top` into
    [2^(bits-1), 2^bits): `top` is the largest |entry| of x, or of each row
    with a kept axis, which gives one e per row. e is 0 for a zero `top`.
    The scaling is exact while the entries stay normal floats."""
    e = np.frexp(top)[1] - bits
    return np.ldexp(x, -e), e


def sym_matrix(entries: Iterable) -> np.ndarray:
    """Build an n-by-n real symmetric matrix.

    The input is symmetrized as M/2 + M^T/2, so callers may pass a
    matrix that is symmetric only up to roundoff; halving first keeps
    the sum finite for every finite input. An exactly symmetric input
    comes back unchanged, bit for bit.

    Raises:
        InvalidMatrix: input that is not a rectangular array of real
            numbers, non-square input or non-finite entries.
    """
    m = _float_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix entries must be finite")
    if np.array_equal(m, m.T):
        return m
    return m / 2.0 + m.T / 2.0


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order; eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(matrix: Iterable) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix by LAPACK's eigh.

    Eigenvalues are returned in descending order; each eigenvector is
    normalized so its first component of absolute value > 1e-12 is
    positive.

    Raises:
        InvalidMatrix: the input is rejected by `sym_matrix`, or LAPACK
            fails to converge.
    """
    try:
        values, vectors = np.linalg.eigh(sym_matrix(matrix))
    except np.linalg.LinAlgError as exc:
        raise InvalidMatrix(f"eigendecomposition failed: {exc}") from exc
    values, vectors = values[::-1], vectors[:, ::-1]
    big = np.abs(vectors) > _SIGN_EPS
    lead = big & (np.cumsum(big, axis=0) == 1)  # first such entry of each column
    flip = np.any(lead & (vectors < 0.0), axis=0)
    return EigenDecomposition(values, np.where(flip, -vectors, vectors))


class Projector:
    """Orthogonal projection P = U U^T, represented by U (n-by-k), whose
    orthonormal columns span the range; rank and dim are U's shape.

    `Projector(matrix, rank)` takes U from the `sym_eig` of a matrix and
    then checks that the matrix is symmetric and idempotent within 1e-9
    and that its trace is `rank` within 1e-8. Every projector the package
    builds itself is made from a basis. The `matrix` of any projector is
    `sym_matrix(U U^T)` of its basis, formed on first use and cached, so
    meet, join, order, scoring and `matrix` all read the one basis.

    Raises (constructor):
        InvalidMatrix: the matrix is rejected by `sym_eig`, it is not an
            orthogonal projection of trace `rank`, or `rank` is not a
            whole number.
    """

    def __init__(self, matrix: Iterable, rank: int):
        m = _float_array(matrix)
        vectors = sym_eig(m).eigenvectors  # eigenvalue 1 first, then 0
        # the entries of a projection lie in [-1, 1], checked first so that
        # m @ m.T cannot overflow; P P^T = P holds exactly for symmetric
        # idempotent P, so one product checks both; written as
        # not (err <= tol) so that NaN fails
        if not (np.max(np.abs(m), initial=0.0) <= 1.0 + _PROJ_ATOL
                and np.max(np.abs(m @ m.T - m), initial=0.0) <= _PROJ_ATOL):
            raise InvalidMatrix("projector matrix is not an orthogonal projection")
        if not abs(np.trace(m) - rank) <= _RANK_ATOL:
            raise InvalidMatrix("projector trace does not match rank")
        k = int(rank)
        if k != rank:
            raise InvalidMatrix(f"projector rank {rank} is not a whole number")
        self._basis = vectors[:, :k]

    @classmethod
    def _from_basis(cls, basis: np.ndarray) -> "Projector":
        """Projector onto the span of orthonormal columns (checked within 1e-9)."""
        gram = basis.T @ basis  # a new array: U^T U - I is formed in it
        gram.reshape(-1)[::gram.shape[0] + 1] -= 1.0
        # written as not (err <= tol) so that NaN entries fail
        if not np.abs(gram, out=gram).max(initial=0.0) <= _PROJ_ATOL:
            raise InvalidMatrix("projector basis is not orthonormal")
        p = cls.__new__(cls)
        p._basis = basis
        return p

    @property
    def basis(self) -> np.ndarray:
        """U: n-by-rank, orthonormal columns spanning the range."""
        return self._basis

    @property
    def rank(self) -> int:
        return self._basis.shape[1]

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return sym_matrix(self._basis @ self._basis.T)

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


def projector_from_basis(vectors: Sequence, dim: int | None = None) -> Projector:
    """Projector onto the span of the given vectors.

    The span is found by a rank-revealing SVD of the vectors taken as
    columns: left singular vectors whose singular value is at most 1e-10
    times the largest input norm are dropped, so the rank is the
    dimension of the span, and the kept ones are the stored basis. The
    vectors are first scaled by the power of two that brings their largest
    entry into [1/2, 1), which is exact, so the rank does not depend on
    their scale and no norm overflows or underflows. An empty sequence
    gives the zero projector, in which case `dim` is required.

    Raises:
        DimensionMismatch: vectors that are not numbers of one length, or
            a length other than `dim`.
        InvalidMatrix: an entry that is nan or inf.
    """
    vecs = [_vectors(u) for u in vectors]
    if not vecs:
        if dim is None:
            raise DimensionMismatch("empty basis needs an explicit dim")
        return zero_projector(dim)
    if any(u.ndim != 1 or u.shape != vecs[0].shape for u in vecs):
        raise DimensionMismatch("basis vectors must share one dimension")
    n = vecs[0].shape[0]
    if dim is not None and dim != n:
        raise DimensionMismatch(f"dim={dim} but vectors have length {n}")
    columns = np.column_stack(vecs)
    top = np.abs(columns).max(initial=0.0)
    if not np.isfinite(top):
        raise InvalidMatrix("basis vectors must be finite")
    columns, _ = _pow2_scaled(columns, top)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return Projector._from_basis(u[:, s > 1e-10 * np.linalg.norm(columns, axis=0).max()])


def zero_projector(dim: int) -> Projector:
    return Projector._from_basis(np.zeros((dim, 0)))


def identity_projector(dim: int) -> Projector:
    return Projector._from_basis(np.eye(dim))


def complement(p: Projector) -> Projector:
    """Orthogonal complement I - P (the lattice negation): the trailing
    columns of a complete QR factorization of P's basis."""
    q = np.linalg.qr(p.basis, mode="complete")[0]
    return Projector._from_basis(q[:, p.rank:])
