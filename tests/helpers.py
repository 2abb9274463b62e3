"""Shared random generators, independent oracles and the environment for
CLI subprocesses, for the test suite.

The package's eigensolver and projector build go through LAPACK
(numpy.linalg.eigh/svd). The reference eigensolver here, `jacobi_eig`,
is a cyclic Jacobi iteration written in plain Python, so it shares no
code with that path; Jacobi also keeps relative accuracy on graded PSD
operators (Demmel & Veselic 1992). The random orthonormal frames come
from numpy QR, which the package uses only for the complement.

The lattice oracles `eigh_meet`, `eigh_join` and `eigh_leq` are the
package's former connectives, which worked on n-by-n matrices: meet and
join from the eigenvalue-2 and nonzero eigenspaces of P + Q, the order
from the smallest eigenvalue of Q - P, all with the same 1e-8 cutoff.
The package now computes them from the orthonormal bases.
"""

import os
from pathlib import Path

import numpy as np

import energydisc
from energydisc import (
    EigenDecomposition,
    InvalidMatrix,
    Projector,
    projector_from_basis,
    sym_eig,
    sym_matrix,
)
from energydisc.logic import _check_same_dim

# Convergence target for the Jacobi sweep, relative to the Frobenius
# norm of the input: off-diagonal mass below this is "diagonal".
_JACOBI_RTOL = 1e-14
_MAX_SWEEPS = 100

# First eigenvector component larger than this (in absolute value) is
# forced positive, the same convention as energydisc.sym_eig.
_SIGN_EPS = 1e-12

# Absolute eigenvalue classification tolerance; spectra of P + Q live in
# [0, 2], so an absolute cutoff is well-scaled.
_EIG_ATOL = 1e-8


def subprocess_env() -> dict:
    """Environment for a child interpreter that must import this energydisc.

    The absolute directory holding the imported package goes first on
    PYTHONPATH, so a relative entry such as `src` does not matter for a
    child started in another working directory.
    """
    env = dict(os.environ)
    root = str(Path(energydisc.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def max_abs(a) -> float:
    return float(np.max(np.abs(np.asarray(a)), initial=0.0))


def random_symmetric(rng, n, scale=1.0):
    m = rng.uniform(-scale, scale, size=(n, n))
    return (m + m.T) / 2.0


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return g.T @ g / n


def random_orthonormal(rng, n, k):
    """k orthonormal columns in R^n via numpy QR (oracle path)."""
    if k == 0:
        return np.zeros((n, 0))
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))


def random_projector(rng, n, rank=None) -> Projector:
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    q = random_orthonormal(rng, n, rank)
    return Projector((q @ q.T + (q @ q.T).T) / 2.0, rank)


def jacobi_eig(matrix) -> EigenDecomposition:
    """Reference eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Rotations sweep the strict upper triangle until the off-diagonal
    Frobenius norm falls below 1e-14 * (1 + ||M||_F). Eigenvalues are
    returned in descending order; each eigenvector is normalized so its
    first component of absolute value > 1e-12 is positive.
    """
    a = sym_matrix(matrix)
    n = a.shape[0]
    v = np.eye(n)
    tol = _JACOBI_RTOL * (1.0 + np.linalg.norm(a, "fro"))
    # A pivot below this cannot keep the off-diagonal mass above tol.
    pivot_tol = tol / max(1, n * n)

    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.square(a - np.diag(np.diag(a)))))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= pivot_tol:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - s * col_q
                v[:, q] = s * col_p + c * col_q
    else:
        raise InvalidMatrix("Jacobi iteration failed to converge")

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    for j in range(n):
        lead = np.nonzero(np.abs(vectors[:, j]) > _SIGN_EPS)[0]
        if lead.size and vectors[lead[0], j] < 0.0:
            vectors[:, j] = -vectors[:, j]
    return EigenDecomposition(eigenvalues, vectors)


def eigh_meet(p: Projector, q: Projector) -> Projector:
    """Greatest lower bound: projector onto ran(P) intersected with ran(Q)."""
    _check_same_dim(p, q)
    values, vectors = sym_eig(p.matrix + q.matrix)
    keep = values >= 2.0 - _EIG_ATOL
    return projector_from_basis(list(vectors[:, keep].T), dim=p.dim)


def eigh_join(p: Projector, q: Projector) -> Projector:
    """Least upper bound: projector onto ran(P) + ran(Q)."""
    _check_same_dim(p, q)
    values, vectors = sym_eig(p.matrix + q.matrix)
    keep = values > _EIG_ATOL
    return projector_from_basis(list(vectors[:, keep].T), dim=p.dim)


def eigh_leq(p: Projector, q: Projector) -> bool:
    """Operator order: P <= Q iff <Px,x> <= <Qx,x> for every x."""
    _check_same_dim(p, q)
    smallest = sym_eig(sym_matrix(q.matrix - p.matrix)).eigenvalues[-1]
    return bool(smallest >= -_EIG_ATOL)
