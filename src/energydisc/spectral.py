"""Dense symmetric eigendecomposition and orthogonal projectors.

The eigensolver is LAPACK's symmetric solver (numpy.linalg.eigh) with
a fixed order and sign convention, and every projector is built from a
spanning set by one rank-revealing SVD. Projectors are symmetric
idempotent matrices with a cached integer rank; they double as
propositions of the projection lattice (see :mod:`energydisc.logic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidMatrix

# Idempotency / trace-rank slack accepted by the Projector constructor.
_PROJ_ATOL = 1e-9
_RANK_ATOL = 1e-8

# First eigenvector component larger than this (in absolute value) is
# forced positive, making the decomposition deterministic.
_SIGN_EPS = 1e-12


def sym_matrix(entries: Iterable) -> np.ndarray:
    """Build an n-by-n real symmetric matrix.

    The input is symmetrized as (M + M^T)/2, so callers may pass a
    matrix that is symmetric only up to roundoff.

    Raises:
        InvalidMatrix: non-square input or non-finite entries.
    """
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("matrix entries must be finite")
    return (m + m.T) / 2.0


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


@dataclass(frozen=True)
class Projector:
    """Orthogonal projection: symmetric, idempotent, with integer rank."""

    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        m = self.matrix
        # P P^T = P holds exactly for symmetric idempotent P, so one product
        # checks both; written as not (err <= tol) so that NaN entries fail
        if not np.max(np.abs(m @ m.T - m), initial=0.0) <= _PROJ_ATOL:
            raise InvalidMatrix("projector matrix is not an orthogonal projection")
        if not abs(np.trace(m) - self.rank) <= _RANK_ATOL:
            raise InvalidMatrix("projector trace does not match rank")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x


def projector_from_basis(vectors: Sequence, dim: int | None = None) -> Projector:
    """Projector onto the span of the given vectors.

    The span is found by a rank-revealing SVD of the vectors taken as
    columns: left singular vectors whose singular value is at most 1e-10
    times the largest input norm are dropped, so the rank is the
    dimension of the span. An empty sequence gives the zero projector,
    in which case `dim` is required.
    """
    vecs = [np.asarray(u, dtype=float) for u in vectors]
    if vecs:
        n = vecs[0].shape[0]
        if dim is not None and dim != n:
            raise DimensionMismatch(f"dim={dim} but vectors have length {n}")
    elif dim is None:
        raise DimensionMismatch("empty basis needs an explicit dim")
    else:
        return zero_projector(dim)
    if any(u.ndim != 1 or u.shape[0] != n for u in vecs):
        raise DimensionMismatch("basis vectors must share one dimension")
    columns = np.column_stack(vecs)
    if not np.all(np.isfinite(columns)):
        raise InvalidMatrix("basis vectors must be finite")
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    basis = u[:, s > 1e-10 * np.max(np.linalg.norm(columns, axis=0))]
    return Projector(sym_matrix(basis @ basis.T), basis.shape[1])


def zero_projector(dim: int) -> Projector:
    return Projector(np.zeros((dim, dim)), 0)


def identity_projector(dim: int) -> Projector:
    return Projector(np.eye(dim), dim)


def complement(p: Projector) -> Projector:
    """Orthogonal complement I - P (the lattice negation)."""
    n = p.dim
    return Projector(sym_matrix(np.eye(n) - p.matrix), n - p.rank)
