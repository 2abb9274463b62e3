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
from dataclasses import dataclass

import numpy as np

from .datasets import _FLOAT_FMT, LabeledDataset, _first_nonfinite_row, _first_zero_norm
from .errors import (
    DegenerateTrace,
    DimensionMismatch,
    EmptyClass,
    InvalidParameter,
    ParseError,
    ZeroSignal,
)
from .moments import MomentSummary
from .spectral import Projector, _projector_pair, sym_eig, sym_matrix


class NormalizationMode(enum.Enum):
    RAW = "raw"
    TRACE = "trace"
    UNIT = "unit"
    CENTERED = "centered"


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
        # P_1 + P_2 = I and P_1 P_2 = 0 hold iff [U_1 U_2] is an orthogonal
        # n-by-n matrix; written as not (err <= tol) so that NaN entries fail
        if self.proj1.rank + self.proj2.rank != self.dim:
            raise InvalidParameter("projectors do not sum to the identity")
        w = np.hstack([self.proj1.basis, self.proj2.basis])
        if not np.max(np.abs(w.T @ w - np.eye(self.dim))) <= 1e-9:
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


def _mode_matrix(moments: MomentSummary, mode: NormalizationMode) -> np.ndarray:
    """Operator carrying the class energy under the given mode."""
    if mode is NormalizationMode.CENTERED:
        return moments.covariance
    k = moments.correlation
    if mode is NormalizationMode.TRACE:
        tr = float(np.trace(k))
        if tr <= 0.0:
            raise DegenerateTrace(f"correlation trace {tr} is not positive")
        return k / tr
    return k


def fit(
    class1: ClassSpec, class2: ClassSpec, mode: NormalizationMode = NormalizationMode.RAW
) -> EnergyClassifier:
    """Construct the optimal projector pair for two classes.

    P_1 spans the eigenvectors of p_1 M_1 - p_2 M_2 with eigenvalue above
    eps = 1e-10 * max(1, |lambda|_max); the rest, including the zero
    eigenspace, goes to P_2. For unit mode the supplied moments must have
    been estimated from unit-normalized samples (not enforced here).
    """
    if abs(class1.prior + class2.prior - 1.0) > 1e-12:
        raise InvalidParameter("class priors must sum to 1")
    n = class1.moments.dim
    if class2.moments.dim != n:
        raise DimensionMismatch("class moment dimensions differ")
    m1 = _mode_matrix(class1.moments, mode)
    m2 = _mode_matrix(class2.moments, mode)
    diff = sym_matrix(class1.prior * m1 - class2.prior * m2)
    values, vectors = sym_eig(diff)
    eps = 1e-10 * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    positive = values > eps
    return EnergyClassifier(
        dim=n,
        mode=mode,
        proj1=Projector._from_basis(vectors[:, positive]),
        proj2=Projector._from_basis(vectors[:, ~positive]),
        prior1=class1.prior,
        prior2=class2.prior,
        tr_k1=float(np.trace(class1.moments.correlation)),
        tr_k2=float(np.trace(class2.moments.correlation)),
        mean1=class1.moments.mean.copy(),
        mean2=class2.moments.mean.copy(),
        spectrum=values.copy(),
    )


def _quadratic_forms(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """<P x, x> for every row x, as row sums of (x P) * x (P is symmetric)."""
    return np.einsum("ij,ij->i", x @ p, x)


def _labels(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """The decision rule: label 1 iff g_1 > g_2 strictly, else 2 (ties go to 2)."""
    return np.where(g1 > g2, 1, 2)


def discriminants(clf: EnergyClassifier, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discriminant pair (g_1, g_2) for a batch of row vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != clf.dim:
        raise DimensionMismatch(f"vectors of length {x.shape[1]} vs model dim {clf.dim}")
    bad = _first_nonfinite_row(x)
    if bad is not None:
        raise InvalidParameter(f"non-finite value at row {bad + 1}")
    mode = clf.mode
    if mode is NormalizationMode.UNIT:
        norms = np.linalg.norm(x, axis=1)
        bad = _first_zero_norm(norms)
        if bad is not None:
            raise ZeroSignal(f"cannot unit-normalize zero vector at row {bad + 1}")
        x = x / norms[:, None]
    if mode is NormalizationMode.CENTERED:
        g1 = _quadratic_forms(x - clf.mean1, clf.proj1.matrix)
        g2 = _quadratic_forms(x - clf.mean2, clf.proj2.matrix)
    else:
        g1 = _quadratic_forms(x, clf.proj1.matrix)
        g2 = _quadratic_forms(x, clf.proj2.matrix)
        if mode is NormalizationMode.TRACE:
            if clf.tr_k1 <= 0.0 or clf.tr_k2 <= 0.0:
                raise DegenerateTrace("trace mode needs positive correlation traces")
            g1 = g1 / clf.tr_k1
            g2 = g2 / clf.tr_k2
    return g1, g2


def decide(clf: EnergyClassifier, x) -> int:
    """Class label for one vector: 1 iff g_1(x) > g_2(x) strictly, else 2."""
    g1, g2 = discriminants(clf, np.asarray(x, dtype=float).reshape(1, -1))
    return int(_labels(g1, g2)[0])


def decide_batch(clf: EnergyClassifier, x) -> np.ndarray:
    """Vectorized decision rule; ties go to class 2."""
    return _labels(*discriminants(clf, x))


def energy_report(clf: EnergyClassifier, class1: ClassSpec, class2: ClassSpec) -> EnergyReport:
    """Correct/error energies of the fitted pair against the class moments.

    Entry r[j-1, i-1] is the prior-weighted energy p_j tr(P_i M_j) that
    projector P_i passes from class S_j, with M_j the mode's operator.
    """
    if class1.moments.dim != clf.dim or class2.moments.dim != clf.dim:
        raise DimensionMismatch("class moments do not match the model dimension")
    ops = (_mode_matrix(class1.moments, clf.mode), _mode_matrix(class2.moments, clf.mode))
    priors = (class1.prior, class2.prior)
    projs = (clf.proj1.matrix, clf.proj2.matrix)
    r = np.array(
        [[priors[j] * np.trace(projs[i] @ ops[j]) for i in range(2)] for j in range(2)]
    )
    total = priors[0] * float(np.trace(ops[0])) + priors[1] * float(np.trace(ops[1]))
    return EnergyReport(
        r=r,
        enr_correct=float(r[0, 0] + r[1, 1]),
        enr_error=float(r[0, 1] + r[1, 0]),
        total=total,
    )


def _class_rows(data: LabeledDataset, label: int) -> np.ndarray:
    rows = data.features[data.labels == label]
    if rows.shape[0] == 0:
        raise EmptyClass(f"no samples with label {label}")
    return rows


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
    p1, p2 = float(priors[0]), float(priors[1])
    if p1 < 0.0 or p2 < 0.0 or abs(p1 + p2 - 1.0) > 1e-12:
        raise InvalidParameter("priors must be nonnegative and sum to 1")
    total = 0.0
    for label, prior in ((1, p1), (2, p2)):
        if prior == 0.0:
            continue
        rows = _class_rows(data, label)
        if indicator:
            scores = (decide_batch(clf, rows) == label).astype(float)
        else:
            scores = discriminants(clf, rows)[label - 1]
        total += prior * float(scores.mean())
    return total


def region_energy(
    clf: EnergyClassifier, data: LabeledDataset, *, return_stderr: bool = False
):
    """Monte Carlo estimate of the energy passed inside the decision regions.

    Estimates p_1 E[g_1(x); decide(x)=1 | S_1] + p_2 E[g_2(x); decide(x)=2 | S_2]
    from the labeled samples. With `return_stderr=True` also returns the
    standard error of the estimate.
    """
    value = 0.0
    variance = 0.0
    for label, prior in ((1, clf.prior1), (2, clf.prior2)):
        g1, g2 = discriminants(clf, _class_rows(data, label))
        kept = (g1, g2)[label - 1] * (_labels(g1, g2) == label)
        value += prior * float(kept.mean())
        if kept.size > 1:
            variance += prior**2 * float(kept.var(ddof=1)) / kept.size
    if return_stderr:
        return value, float(np.sqrt(variance))
    return value


def snr(a, sigma2: float, n: int | None = None) -> float:
    """Signal-to-noise ratio ||a||^2 / (n * sigma^2) of a signal in white noise."""
    a = np.asarray(a, dtype=float)
    if n is None:
        n = a.shape[0]
    if not 0.0 < sigma2 < np.inf:  # NaN fails both comparisons
        raise InvalidParameter("noise variance must be finite and positive")
    if n < 1:
        raise InvalidParameter("dimension must be at least 1")
    return float(a @ a) / (n * sigma2)


# -- model persistence ---------------------------------------------------
#
# Versioned key=value text; P2 is reconstructed as I - P1 on load, from
# the same eigendecomposition that gives P1 its basis. All
# floats are written with 17 significant digits so a save/load round
# trip is bit-exact and decisions are reproducible.

_MODEL_KEYS = ("format_version", "n", "mode", "p1", "p2", "trK1", "trK2",
               "m1", "m2", "spectrum", "P1")


def _fmt_floats(values: np.ndarray) -> str:
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ",".join([_FLOAT_FMT] * len(flat)) % tuple(flat)


def _parse_floats(text: str) -> np.ndarray:
    """Comma-separated floats as a 1-d array; ValueError names a bad entry."""
    return np.array(list(map(float, text.split(","))))


def format_model(clf: EnergyClassifier) -> str:
    lines = [
        "format_version=1",
        f"n={clf.dim}",
        f"mode={clf.mode.value}",
        f"p1={_FLOAT_FMT % clf.prior1}",
        f"p2={_FLOAT_FMT % clf.prior2}",
        f"trK1={_FLOAT_FMT % clf.tr_k1}",
        f"trK2={_FLOAT_FMT % clf.tr_k2}",
        f"m1={_fmt_floats(clf.mean1)}",
        f"m2={_fmt_floats(clf.mean2)}",
        f"spectrum={_fmt_floats(clf.spectrum)}",
        f"P1={_fmt_floats(clf.proj1.matrix)}",
    ]
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> EnergyClassifier:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in _MODEL_KEYS:
            raise ParseError(f"unexpected model line {raw!r}", lineno)
        fields[key] = value
    missing = [k for k in _MODEL_KEYS if k not in fields]
    if missing:
        raise ParseError(f"model file is missing fields: {', '.join(missing)}")
    if fields["format_version"] != "1":
        raise ParseError(f"unsupported format_version {fields['format_version']!r}")
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
        p1_entries = _parse_floats(fields["P1"])
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from exc
    if n < 1 or mean1.shape != (n,) or mean2.shape != (n,) or spectrum.shape != (n,):
        raise ParseError("model field lengths do not match n")
    if p1_entries.shape != (n * n,):
        raise ParseError("P1 must hold n*n row-major entries")
    numbers = (prior1, prior2, tr_k1, tr_k2, mean1, mean2, spectrum, p1_entries)
    if not all(np.all(np.isfinite(v)) for v in numbers):
        raise ParseError("model fields must be finite numbers")
    if not (0.0 < prior1 < 1.0 and 0.0 < prior2 < 1.0
            and abs(prior1 + prior2 - 1.0) <= 1e-12):
        raise ParseError(f"priors {prior1}, {prior2} must lie in (0,1) and sum to 1")
    if mode is NormalizationMode.TRACE and not (tr_k1 > 0.0 and tr_k2 > 0.0):
        raise ParseError(f"trace mode needs positive trK1, trK2, got {tr_k1}, {tr_k2}")
    p1_matrix = p1_entries.reshape(n, n)
    proj1, proj2 = _projector_pair(p1_matrix, int(round(float(np.trace(p1_matrix)))))
    return EnergyClassifier(
        dim=n,
        mode=mode,
        proj1=proj1,
        proj2=proj2,
        prior1=prior1,
        prior2=prior2,
        tr_k1=tr_k1,
        tr_k2=tr_k2,
        mean1=mean1,
        mean2=mean2,
        spectrum=spectrum,
    )


def save_model(clf: EnergyClassifier, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_model(clf))


def load_model(path) -> EnergyClassifier:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
