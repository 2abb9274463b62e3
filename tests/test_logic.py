import numpy as np
import pytest

from energydisc import (
    DimensionMismatch,
    FuzzyProposition,
    InvalidParameter,
    Projector,
    complement,
    identity_projector,
    join,
    leq,
    meet,
    membership,
    projector_from_basis,
    zero_projector,
)
from helpers import (
    eigh_join,
    eigh_leq,
    eigh_meet,
    max_abs,
    random_orthonormal,
    random_projector,
)

E1 = projector_from_basis([np.array([1.0, 0.0])])
DIAG = projector_from_basis([np.array([1.0, 1.0])])


def test_membership_examples():
    x = np.array([3.0, 4.0])
    assert membership(E1, x) == pytest.approx(9.0)
    assert membership(identity_projector(2), x) == pytest.approx(25.0)
    assert membership(zero_projector(2), x) == 0.0


def test_membership_bounds():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        mu = membership(p, x)
        assert 0.0 <= mu <= float(x @ x)


@pytest.mark.parametrize("x", [[np.nan, 2.0], [2.0, np.inf], [-np.inf, np.nan]])
@pytest.mark.parametrize("p", [E1, zero_projector(2), identity_projector(2)],
                         ids=["rank1", "zero", "identity"])
def test_membership_rejects_nonfinite_vectors(p, x):
    with pytest.raises(InvalidParameter, match="finite"):
        membership(p, x)
    with pytest.raises(InvalidParameter, match="finite"):
        FuzzyProposition(p).membership(x)


def test_membership_dimension_check():
    with pytest.raises(DimensionMismatch):
        membership(E1, np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("connective", [meet, join, leq])
def test_connectives_reject_projectors_of_different_dims(connective):
    plane = identity_projector(3)
    for p, q in ((E1, plane), (plane, E1)):
        with pytest.raises(DimensionMismatch, match="dims differ: [23] vs [23]"):
            connective(p, q)


def test_meet_of_skew_lines_is_zero():
    # spans {(1,0)} and {(1,1)} only share the origin
    m = meet(E1, DIAG)
    assert m.rank == 0
    assert max_abs(m.matrix) <= 1e-12


def test_join_of_skew_lines_is_identity():
    j = join(E1, DIAG)
    assert j.rank == 2
    assert max_abs(j.matrix - np.eye(2)) <= 1e-12


def test_meet_join_on_overlapping_planes():
    p = projector_from_basis([np.eye(4)[0], np.eye(4)[1]])
    q = projector_from_basis([np.eye(4)[1], np.eye(4)[2]])
    np.testing.assert_allclose(meet(p, q).matrix, np.diag([0.0, 1.0, 0.0, 0.0]),
                               atol=1e-12)
    np.testing.assert_allclose(join(p, q).matrix, np.diag([1.0, 1.0, 1.0, 0.0]),
                               atol=1e-12)


def test_leq_examples():
    assert leq(zero_projector(2), E1)
    assert leq(E1, identity_projector(2))
    assert not leq(identity_projector(2), E1)
    assert not leq(E1, DIAG)


def test_lattice_idempotence_and_commutativity():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        q = random_projector(rng, n)
        assert max_abs(meet(p, p).matrix - p.matrix) <= 1e-8
        assert max_abs(join(p, p).matrix - p.matrix) <= 1e-8
        assert max_abs(meet(p, q).matrix - meet(q, p).matrix) <= 1e-8
        assert max_abs(join(p, q).matrix - join(q, p).matrix) <= 1e-8


def test_lattice_order_consistency():
    rng = np.random.default_rng(78)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        q = random_projector(rng, n)
        m, j = meet(p, q), join(p, q)
        assert leq(m, p) and leq(m, q)
        assert leq(p, j) and leq(q, j)


def test_de_morgan():
    rng = np.random.default_rng(79)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        q = random_projector(rng, n)
        lhs = complement(meet(p, q)).matrix
        rhs = join(complement(p), complement(q)).matrix
        assert max_abs(lhs - rhs) <= 1e-8
        lhs = complement(join(p, q)).matrix
        rhs = meet(complement(p), complement(q)).matrix
        assert max_abs(lhs - rhs) <= 1e-8


def test_membership_monotone_under_order():
    rng = np.random.default_rng(80)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        q = random_projector(rng, n)
        p = meet(q, random_projector(rng, n))  # p <= q by construction
        x = rng.standard_normal(n)
        assert membership(p, x) <= membership(q, x) + 1e-8


def test_proposition_operators():
    a = FuzzyProposition(E1, "a")
    b = FuzzyProposition(DIAG, "b")
    both = a & b
    either = a | b
    assert both.label == "(a & b)"
    assert either.label == "(a | b)"
    assert (~a).label == "~a"
    assert both.projector.rank == 0
    assert either.projector.rank == 2
    assert a <= either
    assert not (either <= a)
    x = np.array([2.0, 0.0])
    assert a.membership(x) == pytest.approx(4.0)
    assert (~a).membership(x) == pytest.approx(0.0)


def test_proposition_excluded_middle_at_lattice_level():
    # p OR (NOT p) is the identity, p AND (NOT p) is zero
    rng = np.random.default_rng(81)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        p = FuzzyProposition(random_projector(rng, n))
        top = (p | ~p).projector
        bottom = (p & ~p).projector
        assert max_abs(top.matrix - np.eye(n)) <= 1e-8
        assert max_abs(bottom.matrix) <= 1e-8


# -- agreement with the former eigh-of-matrix connectives -------------------

# Matrix tolerances, fixed before the comparison was first run: the
# reference eigenvectors of P + Q or Q - P are accurate to about
# 1e-16 / gap, and for generic pairs that gap is rarely below 1e-7; at
# near-cutoff angles an eigenvalue sits about 1e-8 from its neighbours.
_GENERIC_ATOL = 1e-9
_NEAR_CUTOFF_ATOL = 1e-6

# The meet/join cutoff sigma^2 >= 2 - 1e-8 as an angle: cos theta >= 1 - 1e-8.
_ANGLE_CUTOFF = float(np.arccos(1.0 - 1e-8))


def _assert_same_connectives(p, q, atol):
    m, ref_m = meet(p, q), eigh_meet(p, q)
    j, ref_j = join(p, q), eigh_join(p, q)
    assert (m.rank, j.rank) == (ref_m.rank, ref_j.rank)
    assert max_abs(m.matrix - ref_m.matrix) <= atol
    assert max_abs(j.matrix - ref_j.matrix) <= atol
    for a, b in ((p, q), (q, p), (m, p), (m, q), (p, j), (j, q)):
        assert leq(a, b) == eigh_leq(a, b)


def test_connectives_match_eigh_reference_on_random_pairs():
    rng = np.random.default_rng(90)
    for _ in range(300):
        n = int(rng.integers(1, 17))
        p = random_projector(rng, n)
        q = random_projector(rng, n)
        if rng.random() < 0.3:
            q = join(p, q) if rng.random() < 0.5 else meet(p, q)
        _assert_same_connectives(p, q, _GENERIC_ATOL)


def _near_cutoff_pair(rng, n, cutoff):
    """P and Q sharing some directions, each with directions of its own,
    and one pair of directions (f in P, cos t f + sin t g in Q) at an angle
    t = cutoff * (1 + d), with |d| log-uniform in [1e-3, 0.3]; the bases
    are mixed by random rotations, and about half of the projectors are
    rebuilt from their matrices through `Projector(matrix, rank)`."""
    frame = random_orthonormal(rng, n, n)
    shared, only_p, only_q = (int(k) for k in rng.multinomial(n - 2, [0.3, 0.2, 0.2, 0.3])[:3])
    if cutoff < _ANGLE_CUTOFF:  # the order cutoff: no direction of P's own
        only_p = 0
    t = cutoff * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, np.log10(0.3)))
    f, g = frame[:, 0], frame[:, 1]
    rest = frame[:, 2:]
    span_p = np.column_stack([f, rest[:, :shared + only_p]])
    span_q = np.column_stack([np.cos(t) * f + np.sin(t) * g, rest[:, :shared],
                              rest[:, shared + only_p:shared + only_p + only_q]])
    projectors = []
    for span in (span_p, span_q):
        mixed = span @ random_orthonormal(rng, span.shape[1], span.shape[1])
        p = projector_from_basis(list(mixed.T), dim=n)
        if rng.random() < 0.5:
            p = Projector(p.matrix, p.rank)
        projectors.append(p)
    return projectors


@pytest.mark.parametrize("cutoff", [_ANGLE_CUTOFF, 1e-8], ids=["meet-join", "order"])
def test_connectives_match_eigh_reference_near_the_cutoff(cutoff):
    rng = np.random.default_rng(91 if cutoff == 1e-8 else 92)
    for _ in range(400):
        n = int(rng.integers(2, 17))
        p, q = _near_cutoff_pair(rng, n, cutoff)
        _assert_same_connectives(p, q, _NEAR_CUTOFF_ATOL)


def test_cutoff_is_an_angle():
    # lines at an angle just below / above the cutoff meet in a line / at 0
    for scale, rank in ((0.99, 1), (1.01, 0)):
        t = scale * _ANGLE_CUTOFF
        p = projector_from_basis([np.array([1.0, 0.0])])
        q = projector_from_basis([np.array([np.cos(t), np.sin(t)])])
        assert meet(p, q).rank == rank
        assert join(p, q).rank == 2 - rank
    for scale, below in ((0.99, True), (1.01, False)):
        t = scale * 1e-8
        p = projector_from_basis([np.array([np.cos(t), np.sin(t), 0.0])])
        q = projector_from_basis([np.eye(3)[0], np.eye(3)[2]])
        assert leq(p, q) is below


# -- the paper's logic: orthomodular, not distributive ----------------------


def test_orthomodular_law():
    # P <= Q implies Q = P v (Q ^ ~P)
    rng = np.random.default_rng(93)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        q = random_projector(rng, n)
        k = int(rng.integers(0, q.rank + 1))
        p = projector_from_basis(list((q.basis @ rng.standard_normal((q.rank, k))).T), dim=n)
        assert leq(p, q)
        rebuilt = join(p, meet(q, complement(p)))
        assert rebuilt.rank == q.rank
        assert max_abs(rebuilt.matrix - q.matrix) <= 1e-10
    # without P <= Q the law fails: two skew lines in the plane
    assert join(E1, meet(DIAG, complement(E1))).rank == 1
    assert max_abs(join(E1, meet(DIAG, complement(E1))).matrix - E1.matrix) <= 1e-12


def test_lattice_is_not_distributive():
    # three distinct lines a, b, c in R^2: a ^ (b v c) = a, (a ^ b) v (a ^ c) = 0
    a = E1
    b = projector_from_basis([np.array([0.0, 1.0])])
    c = DIAG
    lhs = meet(a, join(b, c))
    rhs = join(meet(a, b), meet(a, c))
    assert lhs.rank == 1 and max_abs(lhs.matrix - a.matrix) <= 1e-12
    assert rhs.rank == 0 and max_abs(rhs.matrix) == 0.0
