"""First and second statistical moments of a signal class.

A class of random signals is summarized by its mean m, correlation
operator K = E[xx^T], and covariance operator R = E[(x-m)(x-m)^T].
These satisfy the rank-one split K = R + ||m||^2 * p_mbar, where p_mbar
projects onto the mean direction. Both the empirical and the analytic
moments derive K from R by this split, so an estimate costs one Gram
product. Expected signal energy through any symmetric operator A is the
trace functional E<Ax,x> = tr(KA).

Empirical moments are sums over the rows, so they can be gathered one
block of rows at a time: a running sum keeps the count, the mean and the
centered scatter, and merges each block by the pairwise update of Chan,
Golub & LeVeque (Amer. Statistician 1983). That is how the CLI estimates
a class from a file it never holds whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, NotPSD
from .spectral import sym_eig, sym_matrix

# PSD slack for estimated/validated operators, relative to the trace.
_PSD_RTOL = 1e-9


def _check_psd(covariance: np.ndarray, smallest: float) -> None:
    """Raise NotPSD if `smallest`, the least eigenvalue of `covariance`, is
    below -1e-9 * max(1, tr covariance)."""
    # the diagonal is scaled before the sum, which then cannot overflow
    if smallest < -max(_PSD_RTOL, float(np.sum(_PSD_RTOL * np.diagonal(covariance)))):
        raise NotPSD(f"covariance has eigenvalue {smallest}")


@dataclass(frozen=True)
class MomentSummary:
    """Mean, correlation and covariance of one class.

    `count` is the number of samples behind an empirical estimate, or 0
    when the moments were supplied analytically.
    """

    mean: np.ndarray
    correlation: np.ndarray
    covariance: np.ndarray
    count: int

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


class _MomentSum:
    """Count, mean and centered scatter S = sum (x - m)(x - m)^T of the rows
    added so far, one block at a time.

    A block merges by Chan, Golub & LeVeque's pairwise update: with d the
    difference of the two means, the counts add, the mean moves by
    d * count_b / count and the scatters add plus d d^T * count_a count_b /
    count. The raw sum of x x^T is never formed, because S = sum x x^T -
    N m m^T cancels for means far from the origin. The first block is
    kept as computed, so a sum of one block is the whole-array estimate
    bit for bit.
    """

    def __init__(self):
        self.count = 0
        self.mean = self.scatter = None

    def add(self, x: np.ndarray) -> None:
        """Add the rows of the 2-d float array `x`."""
        k = x.shape[0]
        if k == 0:
            return
        mean = x.mean(axis=0)
        centered = x - mean
        scatter = centered.T @ centered
        if self.count == 0:
            self.count, self.mean, self.scatter = k, mean, scatter
            return
        count = self.count + k
        delta = mean - self.mean
        self.scatter += scatter
        self.scatter += np.outer(delta, delta * (self.count * k / count))
        self.mean = self.mean + delta * (k / count)
        self.count = count

    def summary(self) -> MomentSummary:
        """The 1/N moments of the rows added; at least one row is needed."""
        covariance = sym_matrix(self.scatter / self.count)
        correlation = sym_matrix(covariance + np.outer(self.mean, self.mean))
        return MomentSummary(self.mean, correlation, covariance, self.count)


def estimate_moments(samples: Iterable) -> MomentSummary:
    """Empirical moments of a sample set (rows are observations).

    Uses plain 1/N averaging. R is the Gram product of the centered rows;
    K is derived from it by the rank-one split K = R + m m^T, which the
    1/N estimators obey as an algebraic identity, so there is no second
    n^2 N product. The derivation is normwise stable: the error of K stays
    a small multiple of the unit roundoff times max|K|, also for means far
    from the origin. This is a `_MomentSum` of one block.
    """
    try:
        x = np.atleast_2d(np.asarray(samples, dtype=float))
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch("samples must share one dimension") from exc
    if x.size == 0:
        raise EmptyDataset("cannot estimate moments from no samples")
    if x.ndim != 2:
        raise DimensionMismatch("samples must be a sequence of equal-length vectors")
    total = _MomentSum()
    total.add(x)
    return total.summary()


def analytic_moments(mean: Iterable, covariance: Iterable) -> MomentSummary:
    """Moments of a class given in closed form.

    The correlation operator is derived from the rank-one split:
    K = R + ||m||^2 * p_mbar, i.e. K = R + m m^T.
    """
    m = np.asarray(mean, dtype=float)
    r = sym_matrix(covariance)
    if m.ndim != 1 or r.shape[0] != m.shape[0]:
        raise DimensionMismatch("mean and covariance dimensions differ")
    _check_psd(r, sym_eig(r).eigenvalues[-1])
    k = sym_matrix(r + np.outer(m, m))
    return MomentSummary(m, k, r, 0)


def expected_quadratic(a: Iterable, k: Iterable) -> float:
    """Expected energy E<Ax,x> through the operator A, i.e. tr(KA)."""
    a = sym_matrix(a)
    k = sym_matrix(k)
    if a.shape != k.shape:
        raise DimensionMismatch(f"operator shapes differ: {a.shape} vs {k.shape}")
    return float(np.trace(k @ a))
