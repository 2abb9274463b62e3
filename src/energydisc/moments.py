"""First and second statistical moments of a signal class.

A class of random signals is summarized by its mean m, correlation
operator K = E[xx^T], and covariance operator R = E[(x-m)(x-m)^T].
These satisfy the rank-one split K = R + ||m||^2 * p_mbar, where p_mbar
projects onto the mean direction. Both the empirical and the analytic
moments derive K from R by this split, so an estimate costs one pass for
the mean and one Gram product of the centered rows, which are centered and
multiplied about 1 MiB of rows at a time and never held whole. Expected
signal energy through any symmetric operator A is the trace functional
E<Ax,x> = tr(KA).

Empirical moments are sums over the rows, so they can be gathered one
block of rows at a time: a running sum keeps the count, the mean and the
centered scatter, and merges each block by the pairwise update `_merge`.
That is how the CLI estimates a class from a file it never holds whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, InvalidParameter, NotPSD
from .spectral import EigenDecomposition, _vectors, sym_eig, sym_matrix

# PSD slack for estimated/validated operators, relative to the trace.
_PSD_RTOL = 1e-9
# Rows are centered 2^17 values (1 MiB) at a time, a chunk that stays in
# cache between the subtraction and its Gram product.
_CHUNK_VALUES = 1 << 17


def _check_psd(covariance: np.ndarray) -> EigenDecomposition:
    """The eigendecomposition of the symmetric `covariance`; NotPSD if its
    least eigenvalue is below -1e-9 * max(1, tr covariance)."""
    decomposition = sym_eig(covariance)
    smallest = decomposition.eigenvalues[-1]
    # the diagonal is scaled before the sum, which then cannot overflow
    if smallest < -max(_PSD_RTOL, float(np.sum(_PSD_RTOL * np.diagonal(covariance)))):
        raise NotPSD(f"covariance has eigenvalue {smallest}")
    return decomposition


def _merge(count, mean, m2, k, block_mean, block_m2):
    """(count, mean, M2) after adding a block of `k` rows with mean
    `block_mean` and M2 `block_m2`, a scalar sum of squared deviations or
    a scatter matrix, by the pairwise update of Chan, Golub & LeVeque
    (Amer. Statistician 1983). The first block is kept as computed, so a
    sum of one block is the whole-array value bit for bit."""
    if count == 0:
        return k, block_mean, block_m2
    total = count + k
    delta = block_mean - mean
    return (total, mean + delta * (k / total),
            m2 + block_m2 + np.multiply.outer(delta, delta * (count * k / total)))


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


def _no_overflow(*moments: np.ndarray) -> None:
    """InvalidParameter if the moment arithmetic, run with overflow ignored, overflowed."""
    if not all(np.isfinite(m).all() for m in moments):
        raise InvalidParameter("class moments overflow the float range; rescale the rows")


def _split(mean: np.ndarray, covariance: np.ndarray, count: int) -> MomentSummary:
    """The moments with correlation K = R + m m^T, the rank-one split;
    InvalidParameter if K overflows, or holds no normal float while the
    mean or R is nonzero, as for rows whose entries all lie below about 1e-154."""
    with np.errstate(over="ignore"):
        correlation = covariance + np.outer(mean, mean)
    _no_overflow(correlation)
    if np.abs(correlation).max() < np.finfo(float).tiny and (mean.any() or covariance.any()):
        raise InvalidParameter("class moments underflow the float range; rescale the rows")
    return MomentSummary(mean, sym_matrix(correlation), covariance, count)


class _MomentSum:
    """Count, mean and centered scatter S = sum (x - m)(x - m)^T of the rows
    added so far, one block at a time by `_merge`. The raw sum of x x^T is
    never formed, because S = sum x x^T - N m m^T cancels for means far
    from the origin. Within a block, the rows are centered about the
    block's mean one chunk of `_CHUNK_VALUES` values at a time and the
    chunks' Gram products summed (the two-pass algorithm), so a block of
    at most one chunk gives the whole-array floats bit for bit and a
    larger one differs from them in the last bits only."""

    def __init__(self):
        self.count = 0
        self.mean = self.scatter = None

    def add(self, x: np.ndarray) -> None:
        """Add the rows of the 2-d float array `x`."""
        k, n = x.shape
        if k == 0:
            return
        step = max(1, _CHUNK_VALUES // n)
        buffer = np.empty((min(k, step), n))
        # an overflow may meet an opposite one as inf - inf, hence invalid too
        with np.errstate(over="ignore", invalid="ignore"):
            mean = x.mean(axis=0)
            for start in range(0, k, step):
                part = x[start:start + step]
                centered = np.subtract(part, mean, out=buffer[:part.shape[0]])
                gram = centered.T @ centered
                if start == 0:
                    scatter = gram
                else:
                    scatter += gram
            self.count, self.mean, self.scatter = _merge(
                self.count, self.mean, self.scatter, k, mean, scatter)
        _no_overflow(self.mean, self.scatter)

    def summary(self) -> MomentSummary:
        """The 1/N moments of the rows added; at least one row is needed."""
        return _split(self.mean, sym_matrix(self.scatter / self.count), self.count)


def estimate_moments(samples: Iterable) -> MomentSummary:
    """Empirical moments of a sample set (rows are observations).

    Uses plain 1/N averaging. R is the Gram product of the centered rows,
    summed over chunks of about 1 MiB of rows, so no centered copy of the
    whole array is formed; K is derived from it by the rank-one split
    K = R + m m^T, which the 1/N estimators obey as an algebraic identity,
    so there is no second n^2 N product. The derivation is normwise
    stable: the error of K stays a small multiple of the unit roundoff
    times max|K|, also for means far from the origin. This is a
    `_MomentSum` of one block.
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
    """Moments of a class given in closed form, with K = R + m m^T."""
    m = _vectors(mean)
    r = sym_matrix(covariance)
    if m.ndim != 1 or r.shape[0] != m.shape[0]:
        raise DimensionMismatch("mean and covariance dimensions differ")
    if m.shape[0] < 1:
        raise DimensionMismatch("dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("class mean must be finite")
    _check_psd(r)
    return _split(m, r, 0)


def expected_quadratic(a: Iterable, k: Iterable) -> float:
    """Expected energy E<Ax,x> through the operator A, i.e. tr(KA);
    InvalidParameter if it is beyond the float range."""
    a = sym_matrix(a)
    k = sym_matrix(k)
    if a.shape != k.shape:
        raise DimensionMismatch(f"operator shapes differ: {a.shape} vs {k.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        energy = float(np.trace(k @ a))
    if not np.isfinite(energy):
        raise InvalidParameter("the expected energy overflows a float")
    return energy
