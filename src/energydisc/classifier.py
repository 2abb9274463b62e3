"""Two-class Bayesian energy discriminant classifier.

Each class S_i is modeled by an orthogonal projection P_i with
P_1 + P_2 = I, and scored by the energy discriminant g_i(x) = <P_i x, x>.
The prior-weighted energy a projector pair passes from its own classes,

    Enr_C(P_1, P_2) = p_1 tr(P_1 K_1) + p_2 tr(P_2 K_2),

is maximized by taking P_1 to be the projection onto the span of the
eigenvectors of D = p_1 K_1 - p_2 K_2 with positive eigenvalues (zero
and negative eigenvalues go to P_2). Since Enr_C + Enr_E is the constant
p_1 tr K_1 + p_2 tr K_2, the same pair minimizes the error energy
Enr_E = p_1 tr(P_2 K_1) + p_2 tr(P_1 K_2).

Four normalization modes select which operator plays K_i and how inputs
are prepared at decision time:

* raw       -- correlation operators, inputs used as given
* trace     -- K_i / tr K_i; decisions compare <P_i x, x> / tr K_i
* unit      -- inputs are unit-normalized vectors (moments must come
               from unit-normalized samples; tr K_i = 1 then)
* centered  -- covariance operators; decisions compare
               <P_i (x - m_i), x - m_i> with each class's own mean
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._text import _format_floats, _parse_floats, _utf8_text
from .datasets import (LabeledDataset, _check_count, _check_signal_in_noise, _class_rows,
                       _first_nonfinite_row, _unit_rows)
from .errors import (DegenerateTrace, DimensionMismatch, EmptyClass, InvalidParameter,
                     ParseError)
from .moments import MomentSummary, _merge, _no_overflow
from .spectral import Projector, _pow2_scaled, _vectors, complement, sym_eig


class NormalizationMode(enum.Enum):
    RAW = "raw"
    TRACE = "trace"
    UNIT = "unit"
    CENTERED = "centered"


def _as_mode(mode) -> NormalizationMode:
    """A NormalizationMode or its value as the member; InvalidParameter otherwise."""
    try:
        return NormalizationMode(mode)
    except ValueError:
        raise InvalidParameter(f"unknown normalization mode {mode!r}") from None


@dataclass(frozen=True)
class ClassSpec:
    """Prior probability and moment summary of one class."""

    prior: float
    moments: MomentSummary

    def __post_init__(self):
        if not 0.0 < self.prior < 1.0:
            raise InvalidParameter(f"class prior must be in (0,1), got {self.prior}")


@dataclass(frozen=True)
class EnergyClassifier:
    """Fitted projector pair with everything the decision rule needs.

    `spectrum` holds the eigenvalues of the prior-weighted difference
    operator in descending order (diagnostic). `tr_k1`/`tr_k2` are the
    correlation traces (used by trace mode), `mean1`/`mean2` the class
    means (used by centered mode).
    """

    dim: int
    mode: NormalizationMode
    proj1: Projector
    proj2: Projector
    prior1: float
    prior2: float
    tr_k1: float
    tr_k2: float
    mean1: np.ndarray
    mean2: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mode", _as_mode(self.mode))
        # np.shape and np.isfinite also take fields passed as lists
        n, p1, p2, tr1, tr2 = self.dim, self.prior1, self.prior2, self.tr_k1, self.tr_k2
        if not np.shape(self.mean1) == np.shape(self.mean2) == np.shape(self.spectrum) == (n,):
            raise DimensionMismatch(f"mean1, mean2 and spectrum must have length dim={n}")
        numbers = (p1, p2, tr1, tr2, self.mean1, self.mean2, self.spectrum)
        if not all(np.all(np.isfinite(v)) for v in numbers):
            raise InvalidParameter("classifier fields must be finite numbers")
        if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0 and abs(p1 + p2 - 1.0) <= 1e-12):
            raise InvalidParameter(f"priors {p1}, {p2} must lie in (0,1) and sum to 1")
        if self.mode is NormalizationMode.TRACE and not (tr1 > 0.0 and tr2 > 0.0):
            raise DegenerateTrace(f"trace mode needs tr_k1, tr_k2 > 0, got {tr1}, {tr2}")
        # P_1 + P_2 = I and P_1 P_2 = 0 hold iff [U_1 U_2] is an orthogonal
        # n-by-n matrix; written as not (err <= tol) so that NaN entries fail
        if (self.proj1.dim, self.proj2.dim, self.proj1.rank + self.proj2.rank) != (n, n, n):
            raise InvalidParameter("projectors do not sum to the identity")
        w = np.hstack([self.proj1.basis, self.proj2.basis])
        if not np.max(np.abs(w.T @ w - np.eye(n))) <= 1e-9:
            raise InvalidParameter("projectors are not mutually orthogonal")


@dataclass(frozen=True)
class EnergyReport:
    """Per-pair energies r[j-1, i-1] = p_j tr(P_i M_j) and their sums.

    enr_correct = r_1(1) + r_2(2), enr_error = r_1(2) + r_2(1), and
    total = p_1 tr M_1 + p_2 tr M_2, which both sums always add up to.
    """

    r: np.ndarray
    enr_correct: float
    enr_error: float
    total: float


def _trace(k: np.ndarray) -> float:
    """tr k; finite moments may still have a trace beyond the float range,
    which is an InvalidParameter."""
    with np.errstate(over="ignore"):
        tr = float(np.trace(k))
    _no_overflow(np.array(tr))
    return tr


def _mode_matrix(moments: MomentSummary, mode: NormalizationMode) -> np.ndarray:
    """Operator carrying the class energy under the given mode: trace mode
    divides K by its own `_trace`, which must be positive (DegenerateTrace
    otherwise)."""
    if mode is NormalizationMode.CENTERED:
        return moments.covariance
    k = moments.correlation
    if mode is NormalizationMode.TRACE:
        tr = _trace(k)
        if tr <= 0.0:
            raise DegenerateTrace(f"correlation trace {tr} is not positive")
        return k / tr
    return k


def _stores_u1(n: int, rank1: int) -> bool:
    """Whether U_1 (n-by-rank1) is the smaller of the two bases, the one
    a fit keeps and a model file stores: rank1 <= n - rank1, so a tie
    keeps U_1; otherwise U_2 is kept."""
    return rank1 <= n - rank1


def _pair_from_smaller_basis(basis: np.ndarray, rank1: int) -> tuple[Projector, Projector]:
    """(P_1, P_2) from the smaller of the two bases (see `_stores_u1`);
    the larger side is its complement. `fit` and the model reader both
    build the pair here, so a loaded model equals the fitted one bit for
    bit."""
    small = Projector._from_basis(basis)
    if _stores_u1(basis.shape[0], rank1):
        return small, complement(small)
    return complement(small), small


def _positive_rank(spectrum: np.ndarray) -> int:
    """rank(P_1): the count of eigenvalues above eps = 1e-10 * |lambda|_max, a
    rule that does not depend on the data's scale (an all-zero spectrum has
    rank 0)."""
    eps = 1e-10 * float(np.max(np.abs(spectrum), initial=0.0))
    return int(np.count_nonzero(spectrum > eps))


def fit(
    class1: ClassSpec, class2: ClassSpec, mode: NormalizationMode = NormalizationMode.RAW
) -> EnergyClassifier:
    """Construct the optimal projector pair for two classes.

    P_1 spans the eigenvectors of p_1 M_1 - p_2 M_2 with eigenvalue above
    eps = 1e-10 * |lambda|_max; the rest, including the zero
    eigenspace, goes to P_2. For unit mode the supplied moments must have
    been estimated from unit-normalized samples (not enforced here). A
    correlation trace beyond the float range is an InvalidParameter.
    """
    mode = _as_mode(mode)
    n = class1.moments.dim
    if class2.moments.dim != n:
        raise DimensionMismatch("class moment dimensions differ")
    tr1, tr2 = _trace(class1.moments.correlation), _trace(class2.moments.correlation)
    m1 = _mode_matrix(class1.moments, mode)
    m2 = _mode_matrix(class2.moments, mode)
    values, vectors = sym_eig(class1.prior * m1 - class2.prior * m2)
    k = _positive_rank(values)  # values descend: U_1 is the first k columns
    smaller = vectors[:, :k] if _stores_u1(n, k) else vectors[:, k:]
    proj1, proj2 = _pair_from_smaller_basis(smaller, k)
    return EnergyClassifier(
        dim=n,
        mode=mode,
        proj1=proj1,
        proj2=proj2,
        prior1=class1.prior,
        prior2=class2.prior,
        tr_k1=tr1,
        tr_k2=tr2,
        mean1=class1.moments.mean.copy(),
        mean2=class2.moments.mean.copy(),
        spectrum=values.copy(),
    )


def _energies(x: np.ndarray, basis: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """<P y, y> = ||y U||^2 for every row y of x, or of x - mean if a mean
    is given, with U the basis of P."""
    y = (x if mean is None else x - mean) @ basis
    return np.einsum("ij,ij->i", y, y)


def _pair(clf: EnergyClassifier, x1: np.ndarray, x2: np.ndarray,
          centered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(g_1, g_2) = (<P_1 y_1, y_1>, <P_2 y_2, y_2>) for the rows of x1 and
    x2, with y_i = x_i - m_i if `centered`, else x_i, each divided by tr K_i
    in trace mode; y_1 is dropped before y_2 is formed. An overflow comes
    through as inf or nan, unwarned."""
    means = (clf.mean1, clf.mean2) if centered else (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        g1 = _energies(x1, clf.proj1.basis, means[0])
        g2 = _energies(x2, clf.proj2.basis, means[1])
        if clf.mode is NormalizationMode.TRACE:
            g1 /= clf.tr_k1
            g2 /= clf.tr_k2
    return g1, g2


def _labels(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The decision rule: label 1 iff g_1 > g_2 strictly, else 2 (ties go to 2)."""
    return np.where(g1 > g2, 1, 2)


# The least positive normal float: a pair both below it has lost bits, or all of them.
_TINY = np.finfo(float).tiny


def discriminants(clf: EnergyClassifier, x: np.ndarray, *, _decide: bool = False):
    """Discriminant pair (g_1, g_2) for a batch of row vectors.

    A row whose pair is not finite, or whose energies both fall below the
    normal range while the row is not zero, is scored again after scaling
    by 2^-e, e being the exponent of its largest |entry| (in centered mode,
    of both differences x - m_i). The scaling is exact, so that row's pair
    is the scaled pair times 2^2e; an energy beyond the float range is an
    InvalidParameter naming the row. Every other row keeps the plain
    arithmetic.

    `decide_batch` and the sample sums pass `_decide`: the call then also
    returns the decisions, those of the rows scored again taken from the
    scaled pair, and lets an energy beyond the float range through as inf.
    """
    x = np.atleast_2d(_vectors(x))
    if x.ndim != 2:
        raise DimensionMismatch(f"vectors must form a 2-d array of rows, got shape {x.shape}")
    if x.shape[1] != clf.dim:
        raise DimensionMismatch(f"vectors of length {x.shape[1]} vs model dim {clf.dim}")
    bad = _first_nonfinite_row(x)
    if bad is not None:
        raise InvalidParameter(f"non-finite value at row {bad + 1}")
    centered = clf.mode is NormalizationMode.CENTERED
    if clf.mode is NormalizationMode.UNIT:
        x = _unit_rows(x)
    g1, g2 = _pair(clf, x, x, centered)
    labels = _labels(g1, g2)
    top = np.maximum(g1, g2)  # nan if either is
    rows = np.flatnonzero(~((top >= _TINY) & (top < np.inf)))
    if rows.size:
        x = x[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            x1, x2 = (x - clf.mean1, x - clf.mean2) if centered else (x, x)
        # e = 0 for a zero row, whose pair stays (0, 0)
        top = np.maximum(np.abs(x1).max(axis=1), np.abs(x2).max(axis=1))[:, None]
        (x1, e), (x2, _) = _pow2_scaled(x1, top), _pow2_scaled(x2, top)
        s1, s2 = _pair(clf, x1, x2)
        lost = np.flatnonzero(~(np.isfinite(s1) & np.isfinite(s2)))
        if lost.size:
            raise InvalidParameter(f"row {rows[lost[0]] + 1} is beyond the float range "
                                   "of the scoring")
        with np.errstate(over="ignore"):
            g1[rows], g2[rows] = np.ldexp(s1, 2 * e[:, 0]), np.ldexp(s2, 2 * e[:, 0])
        labels[rows] = _labels(s1, s2)
    if _decide:
        return g1, g2, labels
    over = rows[~(np.isfinite(g1[rows]) & np.isfinite(g2[rows]))]
    if over.size:
        raise InvalidParameter(f"the energy of row {over[0] + 1} overflows a float")
    return g1, g2


def decide(clf: EnergyClassifier, x) -> int:
    """Class label for one vector of length dim: 1 iff g_1(x) > g_2(x)
    strictly, else 2. Any other shape is a DimensionMismatch."""
    x = _vectors(x)
    if x.ndim != 1 or x.shape[0] != clf.dim:
        raise DimensionMismatch(f"vector of shape {x.shape} vs model dim {clf.dim}")
    return int(decide_batch(clf, x[None])[0])


def decide_batch(clf: EnergyClassifier, x) -> np.ndarray:
    """Vectorized decision rule; ties go to class 2. A row whose energies
    lie beyond the float range is decided by its pair scaled by a power
    of two (see `discriminants`)."""
    return discriminants(clf, x, _decide=True)[2]


def energy_report(clf: EnergyClassifier, class1: ClassSpec, class2: ClassSpec) -> EnergyReport:
    """Correct/error energies of the fitted pair against the class moments.

    Entry r[j-1, i-1] is the prior-weighted energy p_j tr(P_i M_j) that
    projector P_i passes from class S_j, with M_j the mode's operator.
    Each entry is computed from P_i's own basis U_i as the sum of
    (M_j U_i) * U_i, so Enr_C + Enr_E = total is a check, not an identity
    of the arithmetic. An entry or the total beyond the float range is an
    InvalidParameter, as is a trace-mode class whose tr K is.
    """
    if class1.moments.dim != clf.dim or class2.moments.dim != clf.dim:
        raise DimensionMismatch("class moments do not match the model dimension")
    ops = (_mode_matrix(class1.moments, clf.mode), _mode_matrix(class2.moments, clf.mode))
    priors = (class1.prior, class2.prior)
    bases = (clf.proj1.basis, clf.proj2.basis)
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.array(
            [[priors[j] * float(np.sum((ops[j] @ bases[i]) * bases[i])) for i in range(2)]
             for j in range(2)]
        )
        total = priors[0] * float(np.trace(ops[0])) + priors[1] * float(np.trace(ops[1]))
    _no_overflow(r, np.array(total))
    return EnergyReport(
        r=r,
        enr_correct=float(r[0, 0] + r[1, 1]),
        enr_error=float(r[0, 1] + r[1, 0]),
        total=total,
    )


class _Functionals(NamedTuple):
    """The sample functionals of one scoring pass over labeled data."""

    quality: float  # sum_i p_i * mean of g_i over class i
    indicator: float  # the same with g_i replaced by the indicator of a correct decision
    region: float  # sum_i p_i * mean over class i of g_i kept by correct decisions
    stderr: float  # the standard error of `region`
    accuracy: float  # the share of rows decided correctly, priors aside
    cross: float  # sum_i p_i * mean over class i of the other class's g (the cross energy)


_SAMPLE_OVERFLOW = "sample energies overflow the float range; rescale the rows"


class _SampleSums:
    """Per-class sums of one scoring pass over labeled rows, added one
    block at a time, each list indexed by class - 1: the row count, the
    sums of g_i, of the other class's g and of the indicator of a correct
    decision, and the mean and squared deviation M2 of the energy kept by
    correct decisions, merged by `moments._merge`. A sum of one block
    gives the whole-array means and var(ddof=1) bit for bit.
    """

    def __init__(self, clf: EnergyClassifier):
        self.clf = clf
        self.count = [0, 0]
        self.g = [0.0, 0.0]
        self.cross = [0.0, 0.0]
        self.won = [0, 0]
        self.kept = [0.0, 0.0]
        self.m2 = [0.0, 0.0]

    def add(self, labels: np.ndarray, features: np.ndarray) -> None:
        g1, g2, decided = discriminants(self.clf, features, _decide=True)
        if not (np.isfinite(g1).all() and np.isfinite(g2).all()):
            raise InvalidParameter(_SAMPLE_OVERFLOW)
        hits = decided == labels
        pair = (g1, g2)
        for i, g in enumerate(pair):
            g, won = _class_rows(labels, g, i + 1), _class_rows(labels, hits, i + 1)
            k = won.size
            if k == 0:
                continue
            # a class sum or mean may overflow, which is refused; the squares
            # may too, as in moments._MomentSum, but only the standard error
            # reads M2, and region_energy refuses it then
            with np.errstate(over="ignore"):
                self.g[i] += float(g.sum())
                self.cross[i] += float(_class_rows(labels, pair[1 - i], i + 1).sum())
                kept = g * won  # the energy of the rows decided correctly
                mean = float(kept.mean())
                m2 = float(np.sum(np.square(kept - mean)))
                self.count[i], self.kept[i], self.m2[i] = _merge(
                    self.count[i], self.kept[i], self.m2[i], k, mean, m2)
            if not (np.isfinite(self.g[i]) and np.isfinite(self.cross[i]) and np.isfinite(mean)):
                raise InvalidParameter(_SAMPLE_OVERFLOW)
            self.won[i] += int(np.count_nonzero(won))

    def functionals(self, priors: tuple[float, float]) -> _Functionals:
        """The sample functionals with these class priors; a class is
        skipped, and may be absent, only if its prior is zero (EmptyClass
        otherwise)."""
        quality = indicator = region = variance = cross = 0.0
        for i, prior in enumerate(priors):
            if prior == 0.0:
                continue
            count = self.count[i]
            if count == 0:
                raise EmptyClass(f"no samples with label {i + 1}")
            quality += prior * (self.g[i] / count)
            cross += prior * (self.cross[i] / count)
            indicator += prior * (self.won[i] / count)
            region += prior * self.kept[i]
            if count > 1:
                variance += prior**2 * (self.m2[i] / (count - 1)) / count
        accuracy = sum(self.won) / sum(self.count)
        return _Functionals(quality, indicator, region, float(np.sqrt(variance)), accuracy,
                            cross)


def _sample_functionals(clf: EnergyClassifier, data: LabeledDataset,
                        priors: tuple[float, float]) -> _Functionals:
    """The sample functionals of one scoring pass over labeled data.

    Each class term is a prior-weighted mean over that class's rows; a
    class is skipped, and may be absent, only if its prior is zero.
    """
    pair = tuple(priors) if np.iterable(priors) else ()
    if len(pair) != 2 or not all(isinstance(p, numbers.Real) for p in pair):
        raise InvalidParameter(f"priors must be a pair of numbers, got {priors!r}")
    p1, p2 = float(pair[0]), float(pair[1])
    if not (p1 >= 0.0 and p2 >= 0.0 and abs(p1 + p2 - 1.0) <= 1e-12):  # NaN fails
        raise InvalidParameter("priors must be nonnegative and sum to 1")
    sums = _SampleSums(clf)
    sums.add(data.labels, data.features)
    return sums.functionals((p1, p2))


def empirical_quality(
    clf: EnergyClassifier,
    data: LabeledDataset,
    priors: tuple[float, float] | None = None,
    *,
    indicator: bool = False,
) -> float:
    """Sample estimate of the recognition quality functional.

    Returns sum_i p_i * mean over class-i samples of g_i(x). With
    `indicator=True` the quadratic discriminants are replaced by the
    indicators of the decision regions, which turns the value into the
    prior-weighted accuracy. A class may be absent only if its prior
    is zero.
    """
    if priors is None:
        priors = (clf.prior1, clf.prior2)
    functionals = _sample_functionals(clf, data, priors)
    return functionals.indicator if indicator else functionals.quality


def region_energy(
    clf: EnergyClassifier, data: LabeledDataset, *, return_stderr: bool = False
):
    """Monte Carlo estimate of the energy passed inside the decision regions.

    Estimates p_1 E[g_1(x); decide(x)=1 | S_1] + p_2 E[g_2(x); decide(x)=2 | S_2]
    from the labeled samples. With `return_stderr=True` also returns the
    standard error of the estimate, which must fit a float (InvalidParameter
    otherwise).
    """
    functionals = _sample_functionals(clf, data, (clf.prior1, clf.prior2))
    if not return_stderr:
        return functionals.region
    if not np.isfinite(functionals.stderr):
        raise InvalidParameter("the standard error of the region energy overflows a float")
    return functionals.region, functionals.stderr


def snr(a, sigma2: float, n: int | None = None) -> float:
    """Signal-to-noise ratio ||a||^2 / (n * sigma^2) of a signal in white noise;
    InvalidParameter if the ratio is beyond the float range."""
    a = _vectors(a)
    _check_signal_in_noise(a, sigma2)
    if a.ndim != 1:
        raise DimensionMismatch(f"signal must be a 1-d vector, got shape {a.shape}")
    n = a.shape[0] if n is None else _check_count(n, "n")
    if n < 1:
        raise InvalidParameter("dimension must be at least 1")
    # a and sigma^2 scaled by powers of two, which is exact, so that a ratio
    # in the float range never passes through an overflow of ||a||^2 or n sigma^2
    a, e = _pow2_scaled(a, np.abs(a).max(initial=0.0))
    m, f = np.frexp(sigma2)
    with np.errstate(over="ignore"):
        ratio = float(np.ldexp(float(a @ a) / (n * m), 2 * e - f))
    if not np.isfinite(ratio):
        raise InvalidParameter("the signal-to-noise ratio overflows a float")
    return ratio


# -- model persistence ---------------------------------------------------
#
# Versioned key=value text, version 2 only: the header, then `rank1=k`
# and the smaller of the fit's two eigenbases, `U1=` (the n-by-k basis of
# P_1, row-major) if k <= n - k, else `U2=` (the n-by-(n-k) basis of P_2),
# empty when k is 0 or n; the other side is rebuilt as its complement, as
# `fit` builds it. A file of any other format_version is refused with
# advice to refit, which writes version 2. The stored spectrum must
# descend and hold exactly rank(P1) eigenvalues above fit's eps, which the
# writer checks too. All floats are written by `_text._format_floats`, so
# a save/load round trip is bit-exact and decisions are reproducible.

_HEADER_KEYS = ("format_version", "n", "mode", "p1", "p2", "trK1", "trK2",
                "m1", "m2", "spectrum")
_MODEL_KEYS = _HEADER_KEYS + ("rank1", "U1", "U2")


def _check_spectrum(clf: EnergyClassifier) -> None:
    """The model writer's and reader's rule: the spectrum does not increase and
    holds exactly rank(P1) eigenvalues above fit's eps, else InvalidParameter."""
    spectrum, rank = np.asarray(clf.spectrum), clf.proj1.rank
    if np.any(spectrum[1:] > spectrum[:-1]) or _positive_rank(spectrum) != rank:
        raise InvalidParameter(f"spectrum must not increase and must hold rank(P1)={rank} "
                               "eigenvalues above eps")


def format_model(clf: EnergyClassifier) -> str:
    """Version-2 model text; InvalidParameter for a spectrum the reader refuses."""
    _check_spectrum(clf)
    n, k = clf.dim, clf.proj1.rank
    key, smaller = ("U1", clf.proj1) if _stores_u1(n, k) else ("U2", clf.proj2)
    lines = [
        "format_version=2",
        f"n={n}",
        f"mode={clf.mode.value}",
        f"p1={_format_floats(clf.prior1)}",
        f"p2={_format_floats(clf.prior2)}",
        f"trK1={_format_floats(clf.tr_k1)}",
        f"trK2={_format_floats(clf.tr_k2)}",
        f"m1={_format_floats(clf.mean1)}",
        f"m2={_format_floats(clf.mean2)}",
        f"spectrum={_format_floats(clf.spectrum)}",
        f"rank1={k}",
        f"{key}={_format_floats(smaller.basis.ravel())}",
    ]
    return "\n".join(lines) + "\n"


def _model_fields(text: str) -> dict[str, str]:
    """The key=value fields of a version-2 model text. Another version is
    refused before any bad line is named, so an old file is told to refit."""
    fields: dict[str, str] = {}
    linenos: dict[str, int] = {}
    bad = None  # the first bad line, raised once the version is known
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in _MODEL_KEYS:
            bad = bad or ParseError(f"unexpected model line {raw!r}", lineno)
        elif key in fields:
            bad = bad or ParseError(f"repeated model field {key!r}", lineno)
        else:
            fields[key] = value
            linenos[key] = lineno
    version = fields.get("format_version")
    if version not in (None, "2"):
        raise ParseError(f"unsupported format_version {version!r}; refit the model")
    if bad:
        raise bad
    if version is None:
        raise ParseError("model file is missing its format_version field")
    missing = [k for k in _HEADER_KEYS + ("rank1",) if k not in fields]
    if "U1" not in fields and "U2" not in fields:
        missing.append("U1 or U2")
    if missing:
        raise ParseError(f"model file is missing fields: {', '.join(missing)}")
    if "U1" in fields and "U2" in fields:
        raise ParseError("model holds both U1 and U2", max(linenos["U1"], linenos["U2"]))
    return fields


def parse_model(text: str) -> EnergyClassifier:
    fields = _model_fields(text)
    basis_key = "U1" if "U1" in fields else "U2"
    try:
        n = int(fields["n"])
        mode = NormalizationMode(fields["mode"])
        prior1 = float(fields["p1"])
        prior2 = float(fields["p2"])
        tr_k1 = float(fields["trK1"])
        tr_k2 = float(fields["trK2"])
        mean1 = _parse_floats(fields["m1"])
        mean2 = _parse_floats(fields["m2"])
        spectrum = _parse_floats(fields["spectrum"])
        entries = _parse_floats(fields[basis_key]) if fields[basis_key] else np.empty(0)
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from exc
    if n < 1:
        raise ParseError(f"n={n} must be at least 1")
    rank1 = int(fields["rank1"]) if fields["rank1"].isdecimal() else -1
    if not 0 <= rank1 <= n:
        raise ParseError(f"rank1={fields['rank1']} must be an integer in [0, n={n}]")
    cols = min(rank1, n - rank1)
    if basis_key != ("U1" if _stores_u1(n, rank1) else "U2"):
        raise ParseError(f"rank1={rank1} with n={n} needs the smaller basis, not {basis_key}")
    if entries.shape != (n * cols,):
        raise ParseError(f"{basis_key} must hold n*{cols} row-major entries")
    if not np.all(np.isfinite(entries)):
        raise ParseError("model fields must be finite numbers")
    # before the pair is built: a short text must not make complement's n-by-n QR
    if not mean1.shape == mean2.shape == spectrum.shape == (n,):
        raise ParseError(f"mean1, mean2 and spectrum must have length dim={n}")
    proj1, proj2 = _pair_from_smaller_basis(entries.reshape(n, cols), rank1)
    # the classifier owns the field rules; its errors keep their text
    try:
        clf = EnergyClassifier(dim=n, mode=mode, proj1=proj1, proj2=proj2, prior1=prior1,
                               prior2=prior2, tr_k1=tr_k1, tr_k2=tr_k2, mean1=mean1,
                               mean2=mean2, spectrum=spectrum)
        _check_spectrum(clf)
    except (InvalidParameter, DegenerateTrace) as exc:
        raise ParseError(str(exc)) from exc
    return clf


def save_model(clf: EnergyClassifier, path) -> None:
    text = format_model(clf)  # before opening, so a refused model truncates no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path) -> EnergyClassifier:
    with open(path, "rb") as fh:
        return parse_model(_utf8_text(fh.read(), 1))
