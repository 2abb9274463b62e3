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
* order: P <= Q iff ||R||_2 = max sin theta_i <= 1e-8, with
  R = U_P - U_Q U_Q^T U_P; the eigenvalues of Q - P are +-sin theta_i,
  so this is lambda_min(Q - P) >= -1e-8. Since
  ||R||_2 <= ||R||_F <= sqrt(rank P) ||R||_2, one Frobenius norm decides
  it outside the bracket 1e-8 < ||R||_F <= sqrt(rank P) * 1e-8, and the
  SVD of R runs only inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .spectral import Projector, _pow2_scaled, _vectors, complement

# Absolute cutoff on the spectrum of P + Q, which lives in [0, 2], on
# 1 - cos theta and on sin theta; an absolute cutoff is well-scaled for all.
_EIG_ATOL = 1e-8

# Relative slack on the Frobenius bracket of `leq`, far above the rounding
# of a norm or a singular value, so that a norm within rounding of a bound
# goes to the SVD and every decision is the one the SVD makes.
_BRACKET_SLACK = 1e-9


def _check_same_dim(p: Projector, q: Projector) -> None:
    if p.dim != q.dim:
        raise DimensionMismatch(f"projector dims differ: {p.dim} vs {q.dim}")


def membership(p: Projector, x) -> float:
    """Energy of x passed by P: <Px,x> = ||U^T x||^2, always within [0, ||x||^2].

    Raises:
        DimensionMismatch: x is not a vector of numbers of length dim.
        InvalidParameter: x holds nan or inf, or the energy overflows a float.
    """
    x = _vectors(x)
    if x.ndim != 1 or x.shape[0] != p.dim:
        raise DimensionMismatch(f"vector of length {x.shape} vs dim {p.dim}")
    # vdot, unlike matmul, lets a sum overflow to inf without a warning
    norm2 = float(np.vdot(x, x))
    if math.isfinite(norm2):
        c = p.basis.T @ x
        # a sum of squares keeps the value nonnegative; cap at ||x||^2 against roundoff
        return min(float(np.vdot(c, c)), norm2)
    # ||x||^2 is finite unless x holds nan or inf or the sum overflows;
    # only then are the entries themselves looked at
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("vector entries must be finite")
    # x = 2^e y with max|y| in [2^512, 2^513), so that U^T y cannot overflow
    # and an entry whose square is a normal float stays normal; then
    # U^T y = 2^f z with max|z| < 1 gives <Px,x> = 2^(2e + 2f) ||z||^2.
    # Scaling by a power of two is exact while the entries stay normal.
    y, e = _pow2_scaled(x, np.max(np.abs(x)), 513)
    c = p.basis.T @ y
    z, f = _pow2_scaled(c, np.max(np.abs(c), initial=0.0))
    try:
        return math.ldexp(float(np.vdot(z, z)), 2 * int(e + f))
    except OverflowError:
        raise InvalidParameter("the energy of the vector overflows a float") from None


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
    u, s, _ = np.linalg.svd(np.concatenate([p.basis, q.basis], axis=1), full_matrices=False)
    return Projector._from_basis(u[:, s * s > _EIG_ATOL])


def leq(p: Projector, q: Projector) -> bool:
    """Operator order: P <= Q iff <Px,x> <= <Qx,x> for every x."""
    _check_same_dim(p, q)
    residual = p.basis - q.basis @ (q.basis.T @ p.basis)
    # ||R||_2 <= ||R||_F <= sqrt(rank P) ||R||_2 (||R||_F = 0 when P = 0)
    frobenius = np.linalg.norm(residual)
    if frobenius <= _EIG_ATOL * (1.0 - _BRACKET_SLACK):
        return True
    if frobenius > math.sqrt(p.rank) * _EIG_ATOL * (1.0 + _BRACKET_SLACK):
        return False
    # its largest singular value is max sin theta_i
    return bool(np.linalg.svd(residual, compute_uv=False)[0] <= _EIG_ATOL)


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
