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

from .datasets import (_FLOAT_FMT, LabeledDataset, _first_nonfinite_row, _parse_floats,
                       _unit_rows, _utf8_text)
from .errors import (DegenerateTrace, DimensionMismatch, EmptyClass, InvalidParameter,
                     ParseError)
from .moments import MomentSummary
from .spectral import Projector, complement, sym_eig


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


def _pair_from_smaller_basis(basis: np.ndarray, rank1: int) -> tuple[Projector, Projector]:
    """(P_1, P_2) from the smaller of the two bases: U_1 (n-by-rank1) if
    rank1 <= n - rank1, else U_2; the larger side is its complement.
    `fit` and the version-2 model reader both build the pair here, so a
    loaded model equals the fitted one bit for bit."""
    small = Projector._from_basis(basis)
    if rank1 <= basis.shape[0] - rank1:
        return small, complement(small)
    return complement(small), small


def _positive_rank(spectrum: np.ndarray) -> int:
    """rank(P_1): the count of eigenvalues above eps = 1e-10 * max(1, |lambda|_max)."""
    eps = 1e-10 * max(1.0, float(np.max(np.abs(spectrum), initial=0.0)))
    return int(np.count_nonzero(spectrum > eps))


def fit(
    class1: ClassSpec, class2: ClassSpec, mode: NormalizationMode = NormalizationMode.RAW
) -> EnergyClassifier:
    """Construct the optimal projector pair for two classes.

    P_1 spans the eigenvectors of p_1 M_1 - p_2 M_2 with eigenvalue above
    eps = 1e-10 * max(1, |lambda|_max); the rest, including the zero
    eigenspace, goes to P_2. For unit mode the supplied moments must have
    been estimated from unit-normalized samples (not enforced here).
    """
    mode = _as_mode(mode)
    n = class1.moments.dim
    if class2.moments.dim != n:
        raise DimensionMismatch("class moment dimensions differ")
    m1 = _mode_matrix(class1.moments, mode)
    m2 = _mode_matrix(class2.moments, mode)
    values, vectors = sym_eig(class1.prior * m1 - class2.prior * m2)
    k = _positive_rank(values)  # values descend: U_1 is the first k columns
    smaller = vectors[:, :k] if k <= n - k else vectors[:, k:]
    proj1, proj2 = _pair_from_smaller_basis(smaller, k)
    return EnergyClassifier(
        dim=n,
        mode=mode,
        proj1=proj1,
        proj2=proj2,
        prior1=class1.prior,
        prior2=class2.prior,
        tr_k1=float(np.trace(class1.moments.correlation)),
        tr_k2=float(np.trace(class2.moments.correlation)),
        mean1=class1.moments.mean.copy(),
        mean2=class2.moments.mean.copy(),
        spectrum=values.copy(),
    )


def _energies(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """<P x, x> = ||x U||^2 for every row x, with U the basis of P."""
    y = x @ basis
    return np.einsum("ij,ij->i", y, y)


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
        x = _unit_rows(x)
    if mode is NormalizationMode.CENTERED:
        g1 = _energies(x - clf.mean1, clf.proj1.basis)
        g2 = _energies(x - clf.mean2, clf.proj2.basis)
    else:
        g1 = _energies(x, clf.proj1.basis)
        g2 = _energies(x, clf.proj2.basis)
        if mode is NormalizationMode.TRACE:
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
    Each entry is computed from P_i's own basis U_i as the sum of
    (M_j U_i) * U_i, so Enr_C + Enr_E = total is a check, not an identity
    of the arithmetic.
    """
    if class1.moments.dim != clf.dim or class2.moments.dim != clf.dim:
        raise DimensionMismatch("class moments do not match the model dimension")
    ops = (_mode_matrix(class1.moments, clf.mode), _mode_matrix(class2.moments, clf.mode))
    priors = (class1.prior, class2.prior)
    bases = (clf.proj1.basis, clf.proj2.basis)
    r = np.array(
        [[priors[j] * float(np.sum((ops[j] @ bases[i]) * bases[i])) for i in range(2)]
         for j in range(2)]
    )
    total = priors[0] * float(np.trace(ops[0])) + priors[1] * float(np.trace(ops[1]))
    return EnergyReport(
        r=r,
        enr_correct=float(r[0, 0] + r[1, 1]),
        enr_error=float(r[0, 1] + r[1, 0]),
        total=total,
    )


class _SampleSums:
    """Per-class sums of one scoring pass over labeled rows, added one
    block at a time, each list indexed by class - 1: the row count, the
    sums of g_i and of the indicator of a correct decision, and the mean
    and squared deviation M2 of the energy kept by correct decisions,
    which merge by the pairwise update of Chan, Golub & LeVeque (Amer.
    Statistician 1983); also the rows and hits of both classes. A sum of
    one block gives the whole-array means and var(ddof=1) bit for bit.
    """

    def __init__(self, clf: EnergyClassifier):
        self.clf = clf
        self.rows = self.hits = 0
        self.count = [0, 0]
        self.g = [0.0, 0.0]
        self.won = [0.0, 0.0]
        self.kept = [0.0, 0.0]
        self.m2 = [0.0, 0.0]

    def add(self, labels: np.ndarray, features: np.ndarray) -> None:
        g1, g2 = discriminants(self.clf, features)
        hits = _labels(g1, g2) == labels
        self.rows += hits.size
        self.hits += int(np.count_nonzero(hits))
        scored = np.column_stack((g1, g2, hits))
        for i in range(2):
            g1, g2, won = scored[labels == i + 1].T
            k, count = won.size, self.count[i]
            if k == 0:
                continue
            g = (g1, g2)[i]
            kept = g * won  # the energy of the rows decided correctly
            mean = float(kept.mean())
            m2 = float(np.sum(np.square(kept - mean)))
            self.count[i] = total = count + k
            self.g[i] += float(g.sum())
            self.won[i] += float(won.sum())
            if count == 0:
                self.kept[i], self.m2[i] = mean, m2
            else:
                delta = mean - self.kept[i]
                self.kept[i] += delta * (k / total)
                self.m2[i] += m2 + delta * delta * (count * k / total)

    def functionals(self, priors: tuple[float, float]) -> tuple[float, ...]:
        """(quality, indicator quality, region energy, its standard error,
        accuracy) with these class priors; a class is skipped, and may be
        absent, only if its prior is zero (EmptyClass otherwise)."""
        quality = indicator = region = variance = 0.0
        for i, prior in enumerate(priors):
            if prior == 0.0:
                continue
            count = self.count[i]
            if count == 0:
                raise EmptyClass(f"no samples with label {i + 1}")
            quality += prior * (self.g[i] / count)
            indicator += prior * (self.won[i] / count)
            region += prior * self.kept[i]
            if count > 1:
                variance += prior**2 * (self.m2[i] / (count - 1)) / count
        return quality, indicator, region, float(np.sqrt(variance)), self.hits / self.rows


def _sample_functionals(clf: EnergyClassifier, data: LabeledDataset,
                        priors: tuple[float, float]) -> tuple[float, ...]:
    """The sample functionals of one scoring pass over labeled data, as
    (quality, indicator quality, region energy, its standard error, accuracy).

    Each class term is a prior-weighted mean over that class's rows; a
    class is skipped, and may be absent, only if its prior is zero.
    """
    p1, p2 = float(priors[0]), float(priors[1])
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
    return _sample_functionals(clf, data, priors)[1 if indicator else 0]


def region_energy(
    clf: EnergyClassifier, data: LabeledDataset, *, return_stderr: bool = False
):
    """Monte Carlo estimate of the energy passed inside the decision regions.

    Estimates p_1 E[g_1(x); decide(x)=1 | S_1] + p_2 E[g_2(x); decide(x)=2 | S_2]
    from the labeled samples. With `return_stderr=True` also returns the
    standard error of the estimate.
    """
    _, _, value, stderr, _ = _sample_functionals(clf, data, (clf.prior1, clf.prior2))
    return (value, stderr) if return_stderr else value


def snr(a, sigma2: float, n: int | None = None) -> float:
    """Signal-to-noise ratio ||a||^2 / (n * sigma^2) of a signal in white noise."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("signal vector must be finite")
    if n is None:
        n = a.shape[0]
    if not 0.0 < sigma2 < np.inf:  # NaN fails both comparisons
        raise InvalidParameter("noise variance must be finite and positive")
    if not n >= 1:  # NaN fails the comparison
        raise InvalidParameter("dimension must be at least 1")
    return float(a @ a) / (n * sigma2)


# -- model persistence ---------------------------------------------------
#
# Versioned key=value text. Version 2, the one written, stores the
# smaller of the fit's two eigenbases: after the header, `rank1=k` and
# then `U1=` (the n-by-k basis of P_1, row-major) if k <= n - k, else
# `U2=` (the n-by-(n-k) basis of P_2), empty when k is 0 or n; the other
# side is rebuilt as its complement, as `fit` builds it. Version 1 stores
# the n-by-n matrix P1 and is still read as `Projector(P1, rank)`, with
# P2 its complement. Either way the stored spectrum must descend and hold
# exactly rank(P1) eigenvalues above fit's eps, which the writer checks
# too. All floats are written with 17 significant digits so a save/load
# round trip is bit-exact and decisions are reproducible.

_HEADER_KEYS = ("format_version", "n", "mode", "p1", "p2", "trK1", "trK2",
                "m1", "m2", "spectrum")
_VERSION_KEYS = {"1": ("P1",), "2": ("rank1", "U1", "U2")}
_MODEL_KEYS = _HEADER_KEYS + _VERSION_KEYS["1"] + _VERSION_KEYS["2"]


def _fmt_floats(values: np.ndarray) -> str:
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ",".join([_FLOAT_FMT] * len(flat)) % tuple(flat)


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
    key, smaller = ("U1", clf.proj1) if k <= n - k else ("U2", clf.proj2)
    lines = [
        "format_version=2",
        f"n={n}",
        f"mode={clf.mode.value}",
        f"p1={_FLOAT_FMT % clf.prior1}",
        f"p2={_FLOAT_FMT % clf.prior2}",
        f"trK1={_FLOAT_FMT % clf.tr_k1}",
        f"trK2={_FLOAT_FMT % clf.tr_k2}",
        f"m1={_fmt_floats(clf.mean1)}",
        f"m2={_fmt_floats(clf.mean2)}",
        f"spectrum={_fmt_floats(clf.spectrum)}",
        f"rank1={k}",
        f"{key}={_fmt_floats(smaller.basis)}",
    ]
    return "\n".join(lines) + "\n"


def _model_fields(text: str) -> tuple[str, dict[str, str]]:
    """The format version and the key=value fields of a model text, with
    the set of keys checked against that version."""
    fields: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or key not in _MODEL_KEYS:
            raise ParseError(f"unexpected model line {raw!r}", lineno)
        if key in fields:
            raise ParseError(f"repeated model field {key!r}", lineno)
        fields[key] = value
        linenos[key] = lineno
    version = fields.get("format_version")
    if version is None:
        raise ParseError("model file is missing its format_version field")
    if version not in _VERSION_KEYS:
        raise ParseError(f"unsupported format_version {version!r}")
    own = _VERSION_KEYS[version]
    for key, lineno in linenos.items():
        if key not in _HEADER_KEYS and key not in own:
            raise ParseError(f"field {key!r} is not part of format_version {version}", lineno)
    required = _HEADER_KEYS + (("P1",) if version == "1" else ("rank1",))
    missing = [k for k in required if k not in fields]
    if version == "2" and "U1" not in fields and "U2" not in fields:
        missing.append("U1 or U2")
    if missing:
        raise ParseError(f"model file is missing fields: {', '.join(missing)}")
    if "U1" in fields and "U2" in fields:
        raise ParseError("model holds both U1 and U2", max(linenos["U1"], linenos["U2"]))
    return version, fields


def parse_model(text: str) -> EnergyClassifier:
    version, fields = _model_fields(text)
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
        if version == "1":
            entries = _parse_floats(fields["P1"])
        else:
            entries = _parse_floats(fields[basis_key]) if fields[basis_key] else np.empty(0)
    except ValueError as exc:
        raise ParseError(f"bad model field: {exc}") from exc
    if n < 1:
        raise ParseError(f"n={n} must be at least 1")
    if version == "1":
        if entries.shape != (n * n,):
            raise ParseError("P1 must hold n*n row-major entries")
    else:
        rank1 = int(fields["rank1"]) if fields["rank1"].isdecimal() else -1
        if not 0 <= rank1 <= n:
            raise ParseError(f"rank1={fields['rank1']} must be an integer in [0, n={n}]")
        cols = min(rank1, n - rank1)
        if basis_key != ("U1" if rank1 <= n - rank1 else "U2"):
            raise ParseError(f"rank1={rank1} with n={n} needs the smaller basis, "
                             f"not {basis_key}")
        if entries.shape != (n * cols,):
            raise ParseError(f"{basis_key} must hold n*{cols} row-major entries")
    if not np.all(np.isfinite(entries)):
        raise ParseError("model fields must be finite numbers")
    # before the pair is built: a short text must not make complement's n-by-n QR
    if not mean1.shape == mean2.shape == spectrum.shape == (n,):
        raise ParseError(f"mean1, mean2 and spectrum must have length dim={n}")
    if version == "1":
        p1_matrix = entries.reshape(n, n)
        # entries outside [-1, 1] make Projector refuse the matrix whatever
        # the rank; clipped, they cannot make the trace overflow
        rank = int(round(float(np.sum(np.clip(np.diagonal(p1_matrix), -1.0, 1.0)))))
        proj1 = Projector(p1_matrix, rank)
        proj2 = complement(proj1)
    else:
        proj1, proj2 = _pair_from_smaller_basis(entries.reshape(n, cols), rank1)
    # the classifier owns the field rules; its errors keep their text
    try:
        clf = EnergyClassifier(dim=n, mode=mode, proj1=proj1, proj2=proj2, prior1=prior1,
                               prior2=prior2, tr_k1=tr_k1, tr_k2=tr_k2, mean1=mean1,
                               mean2=mean2, spectrum=spectrum)
        _check_spectrum(clf)
    except (DimensionMismatch, InvalidParameter, DegenerateTrace) as exc:
        raise ParseError(str(exc)) from exc
    return clf


def save_model(clf: EnergyClassifier, path) -> None:
    text = format_model(clf)  # before opening, so a refused model truncates no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path) -> EnergyClassifier:
    with open(path, "rb") as fh:
        return parse_model(_utf8_text(fh.read(), 1))
