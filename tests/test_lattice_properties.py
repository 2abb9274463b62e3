"""Hypothesis properties of the projection lattice, the paper's quantum logic.

The lattice of subspaces is orthomodular (Birkhoff & von Neumann, Ann.
Math. 1936), distributive on projectors that commute, and read through
the membership mu_P(x) = <Px, x> its meet and join are a fuzzy "and" and
"or". Each example draws n in 1..8, the ranks and subsets, and a seed for
numpy's generator, which draws the frames and vectors; Hypothesis draws
from a fixed seed (`derandomize=True`), so the suite stays deterministic.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from energydisc import complement, join, leq, meet, membership, projector_from_basis  # noqa: E402
from helpers import max_abs, random_orthonormal  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)

# membership bounds hold within this fraction of ||x||^2
_MU_TOL = 1e-9


def _same(p, q) -> bool:
    return p.rank == q.rank and max_abs(p.matrix - q.matrix) <= 1e-9


def _span(columns: np.ndarray):
    return projector_from_basis(list(columns.T), dim=columns.shape[0])


@st.composite
def frames(draw):
    """(n, an orthonormal basis of R^n, a numpy generator)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, random_orthonormal(rng, n, n), rng


@st.composite
def commuting(draw, count):
    """`count` projectors spanned by subsets of one orthonormal basis, with
    those subsets as boolean masks."""
    n, frame, rng = draw(frames())
    masks = [np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
             for _ in range(count)]
    return frame, [_span(frame[:, m]) for m in masks], masks, rng


@PROPERTY
@given(frames(), st.data())
def test_orthomodular_on_nested_pairs(frame, data):
    # P <= Q implies Q = P v (Q ^ ~P)
    n, basis, rng = frame
    k = data.draw(st.integers(0, n))
    j = data.draw(st.integers(0, k))
    q = _span(basis[:, :k])
    p = _span(q.basis @ rng.standard_normal((k, j)))
    assert leq(p, q)
    assert _same(join(p, meet(q, complement(p))), q)


@PROPERTY
@given(commuting(3))
def test_distributive_on_commuting_triples(triple):
    frame, (p, q, r), (a, b, c), _ = triple
    lhs, rhs = meet(p, join(q, r)), join(meet(p, q), meet(p, r))
    assert _same(lhs, rhs) and _same(lhs, _span(frame[:, a & (b | c)]))
    lhs, rhs = join(p, meet(q, r)), meet(join(p, q), join(p, r))
    assert _same(lhs, rhs) and _same(lhs, _span(frame[:, a | (b & c)]))


@PROPERTY
@given(frames(), st.data())
def test_meet_and_join_bound_membership(frame, data):
    # P and Q share a drawn subspace C, so the meet is not always zero
    n, _, rng = frame
    shared = data.draw(st.integers(0, n))
    extra_p = data.draw(st.integers(0, n - shared))
    extra_q = data.draw(st.integers(0, n - shared))
    c = rng.standard_normal((n, shared))
    p = _span(np.hstack([c, rng.standard_normal((n, extra_p))]))
    q = _span(np.hstack([c, rng.standard_normal((n, extra_q))]))
    x = rng.standard_normal(n) * 10.0 ** data.draw(st.integers(-3, 3))
    tol = _MU_TOL * float(x @ x)
    mu_p, mu_q = membership(p, x), membership(q, x)
    assert membership(meet(p, q), x) <= min(mu_p, mu_q) + tol
    assert membership(join(p, q), x) >= max(mu_p, mu_q) - tol


@PROPERTY
@given(commuting(2), st.integers(-3, 3))
def test_membership_is_modular_on_commuting_pairs(pair, scale):
    # mu_{P v Q} + mu_{P ^ Q} = mu_P + mu_Q
    frame, (p, q), _, rng = pair
    x = rng.standard_normal(frame.shape[0]) * 10.0**scale
    lhs = membership(join(p, q), x) + membership(meet(p, q), x)
    assert abs(lhs - membership(p, x) - membership(q, x)) <= _MU_TOL * float(x @ x)


@PROPERTY
@given(frames(), st.integers(1, 6), st.integers(-900, 900))
def test_span_rank_does_not_depend_on_scale(frame, count, k):
    # small integer spanning sets, often dependent, so that 2^k V is exact
    n, _, rng = frame
    inner = int(rng.integers(0, min(n, count) + 1))
    v = (rng.integers(-3, 4, (n, inner)) @ rng.integers(-3, 4, (inner, count))).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _span(np.ldexp(v, k)).rank == _span(v).rank
