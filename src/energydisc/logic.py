"""Fuzzy logic on the lattice of orthogonal projections.

Every linear subspace, through its projector P = U U^T (U an orthonormal
basis, see :class:`energydisc.spectral.Projector`), defines a fuzzy set
whose membership function is the passed energy mu(x) = <Px,x> =
||U^T x||^2. Projectors are partially ordered by P <= Q iff
<Px,x> <= <Qx,x> for all x; under that order every pair has an infimum
(range intersection) and a supremum (range sum), and I - P is the
negation.

All connectives work on the bases through the principal angles
theta_i between the two ranges (Bjorck & Golub, Math. Comp. 1973).
Each cutoff is an angle, and each equals an eigenvalue cutoff on
P + Q or Q - P:

* meet: the singular values of U_P^T U_Q are the cos theta_i; the
  pairs with cos theta >= 1 - 1e-8 (theta below about 1.4e-4 rad) are
  shared, and their bisectors, the eigenvectors of P + Q for
  1 + cos theta >= 2 - 1e-8, span the intersection;
* join: the squared singular values of [U_P U_Q] are the nonzero
  eigenvalues of P + Q (1 +- cos theta_i for paired directions, 1 for
  unpaired ones), and the left singular vectors with sigma^2 > 1e-8
  span the sum of ranges, which drops the second copy of a shared pair;
* order: P <= Q iff ||U_P - U_Q U_Q^T U_P||_2 = max sin theta_i <= 1e-8;
  the eigenvalues of Q - P are +-sin theta_i, so this is
  lambda_min(Q - P) >= -1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .spectral import Projector, complement

# Absolute cutoff on the spectrum of P + Q, which lives in [0, 2], on
# 1 - cos theta and on sin theta; an absolute cutoff is well-scaled for all.
_EIG_ATOL = 1e-8


def _check_same_dim(p: Projector, q: Projector) -> None:
    if p.dim != q.dim:
        raise DimensionMismatch(f"projector dims differ: {p.dim} vs {q.dim}")


def membership(p: Projector, x) -> float:
    """Energy of x passed by P: <Px,x> = ||U^T x||^2, always within [0, ||x||^2].

    Raises:
        DimensionMismatch: x is not a vector of length dim.
        InvalidParameter: x holds nan or inf.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != p.dim:
        raise DimensionMismatch(f"vector of length {x.shape} vs dim {p.dim}")
    norm2 = float(x @ x)
    # ||x||^2 is finite unless x holds nan or inf or the sum overflows;
    # only then are the entries themselves looked at
    if not math.isfinite(norm2) and not np.all(np.isfinite(x)):
        raise InvalidParameter("vector entries must be finite")
    c = p.basis.T @ x
    # a sum of squares keeps the value nonnegative; cap at ||x||^2 against roundoff
    return min(float(c @ c), norm2)


def meet(p: Projector, q: Projector) -> Projector:
    """Greatest lower bound: projector onto ran(P) intersected with ran(Q)."""
    _check_same_dim(p, q)
    y, cosines, zt = np.linalg.svd(p.basis.T @ q.basis, full_matrices=False)
    shared = cosines >= 1.0 - _EIG_ATOL
    bisectors = p.basis @ y[:, shared] + q.basis @ zt[shared].T
    return Projector._from_basis(bisectors / np.linalg.norm(bisectors, axis=0))


def join(p: Projector, q: Projector) -> Projector:
    """Least upper bound: projector onto ran(P) + ran(Q)."""
    _check_same_dim(p, q)
    u, s, _ = np.linalg.svd(np.hstack([p.basis, q.basis]), full_matrices=False)
    return Projector._from_basis(u[:, s * s > _EIG_ATOL])


def leq(p: Projector, q: Projector) -> bool:
    """Operator order: P <= Q iff <Px,x> <= <Qx,x> for every x."""
    _check_same_dim(p, q)
    residual = p.basis - q.basis @ (q.basis.T @ p.basis)
    # its largest singular value is max sin theta_i (no angles when P = 0)
    sines = np.linalg.svd(residual, compute_uv=False)
    return bool(np.max(sines, initial=0.0) <= _EIG_ATOL)


@dataclass(frozen=True)
class FuzzyProposition:
    """A subspace read as a fuzzy set, with the lattice ops as connectives."""

    projector: Projector
    label: str = ""

    def membership(self, x) -> float:
        return membership(self.projector, x)

    def __and__(self, other: "FuzzyProposition") -> "FuzzyProposition":
        label = f"({self.label} & {other.label})" if self.label or other.label else ""
        return FuzzyProposition(meet(self.projector, other.projector), label)

    def __or__(self, other: "FuzzyProposition") -> "FuzzyProposition":
        label = f"({self.label} | {other.label})" if self.label or other.label else ""
        return FuzzyProposition(join(self.projector, other.projector), label)

    def __invert__(self) -> "FuzzyProposition":
        label = f"~{self.label}" if self.label else ""
        return FuzzyProposition(complement(self.projector), label)

    def __le__(self, other: "FuzzyProposition") -> bool:
        return leq(self.projector, other.projector)
