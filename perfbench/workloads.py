"""The three benchmark workloads and the loop that times them.

Every workload makes its inputs from the seed in `setup`, then runs
iterations of operations until the requested seconds have passed. An
operation is timed around library calls only; its correctness gates run
afterwards, outside the timed region, and a failed gate or an exception
marks the operation failed.

* cli_pipeline  -- one op is the CLI flow gen-example2 -> fit --mode trace
                   -> predict -> eval -> spectrum through cli.run(argv).
* fit_highdim   -- one op is a library fit in one normalization mode;
                   an iteration fits all four modes.
* lattice_small -- one op is the full lattice battery on one projector
                   pair; an iteration is a batch of pairs.
"""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics

SETUP_REPEATS = 11
WARMUP_PER_CLASS = 50  # rows per class of the warm-up CLI flow in set-up

clock = time.perf_counter


class GateError(Exception):
    """An output that contradicts one of the paper's identities."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


_PROBE_SCALARS = np.arange(16.0)
_PROBE_VECTOR = np.arange(128.0)

# Median seconds of one _probe_once() on a core of the 2-core x86_64 VM
# (Python 3.11, numpy 2.4) the benchmark was tuned on, in the core's fast
# state. Adjusted times are scaled by it, so there they read as wall times.
PROBE_NOMINAL_S = 130e-6
_PROBE_REPEATS = 11


def _probe_once() -> float:
    s = 0.0
    v = _PROBE_VECTOR.copy()
    for i in range(60):
        s += float(_PROBE_SCALARS[i & 15] * 1.5)
        v[:] = 0.5 * v + _PROBE_VECTOR
    text = ",".join(["%.17g" % (x * 1.1) for x in range(60)])
    return s + sum(float(x) for x in text.split(",")) + float(v[0])


def reference_probe() -> float:
    """Median seconds of a fixed loop that never calls energydisc.

    The loop mixes interpreter work, numpy calls on short vectors and
    float formatting and parsing, as the library does. On a shared host
    a core's speed swings by up to 2x, often within a second; dividing an
    operation's time by the probe time taken right next to it cancels
    most of that swing for interpreter-bound work, and over-corrects
    work that the swing slows less (see the README).
    """
    times = []
    for _ in range(_PROBE_REPEATS):
        t0 = clock()
        _probe_once()
        times.append(clock() - t0)
    return statistics.median(times)


@dataclass
class Op:
    seconds: float  # wall time of the timed region
    error: str | None
    probe: float  # mean reference_probe() seconds just before and after
    parts: dict | None = None  # step -> (seconds, probe), for ops timed in steps

    @property
    def adjusted(self) -> float:
        """Seconds at the nominal machine speed of PROBE_NOMINAL_S."""
        steps = self.parts.values() if self.parts else [(self.seconds, self.probe)]
        return sum(seconds * PROBE_NOMINAL_S / probe for seconds, probe in steps)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_op(body, check) -> Op:
    """Time `body()`, then run `check` on its result outside the timing."""
    before = reference_probe()
    t0 = clock()
    try:
        result = body()
        error = None
    except Exception as exc:  # a library failure is a failed op, not a crash
        error = _describe(exc)
    op = Op(clock() - t0, error, (before + reference_probe()) / 2)
    if error is None:
        try:
            check(result)
        except Exception as exc:
            op.error = _describe(exc)
    return op


class CliPipeline:
    """Batch CLI flow, in-process, on one seeded signal-in-noise data set."""

    name = "cli_pipeline"

    def __init__(self, ed, workdir: Path, n: int = 64, per_class: int = 10000):
        self.ed = ed
        self.workdir = Path(workdir)
        self.n = n
        self.per_class = per_class
        self.dataset_rows = 2 * per_class
        self.data_path = str(self.workdir / "data.csv")
        self.model_path = str(self.workdir / "model.txt")

    def _commands(self, a: np.ndarray, gen_seed: int, per_class: int) -> list[list[str]]:
        data, model = self.data_path, self.model_path
        vector = ",".join("%.17g" % v for v in a)
        return [
            ["gen-example2", "--n", str(self.n), f"--a={vector}", "--sigma2", "1.0",
             "--per-class", str(per_class), "--seed", str(gen_seed), "--out", data],
            ["fit", "--data", data, "--mode", "trace", "--out", model],
            ["predict", "--model", model, "--data", data],
            ["eval", "--model", model, "--data", data],
            ["spectrum", "--model", model],
        ]

    def _call(self, argv):
        before = reference_probe()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            code = self.ed.cli.run(argv)
            seconds = clock() - t0
        probe = (before + reference_probe()) / 2
        return code, out.getvalue(), err.getvalue(), seconds, probe

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        a = 0.5 * rng.standard_normal(self.n)
        gen_seed = int(rng.integers(2**31))
        # A small run of the same flow fills lazy imports and caches.
        for argv in self._commands(a, gen_seed, WARMUP_PER_CLASS):
            code, _, err, _, _ = self._call(argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited {code}: {err.strip()}")
        self.commands = self._commands(a, gen_seed, self.per_class)
        self.reference: dict[str, str] = {}

    def iteration(self, index: int, tracer: Tracer | None) -> list[Op]:
        results = {}

        def body():
            for argv in self.commands:
                results[argv[0]] = self._call(argv)
            if tracer is not None:
                tracer.counts["cli.stdout_bytes"] += sum(
                    len(r[1].encode()) for r in results.values())
            return results

        op = run_op(body, self._check)
        op.parts = {cmd: (r[3], r[4]) for cmd, r in results.items()}
        # The body's wall time also holds the probes between commands.
        op.seconds = sum(seconds for seconds, _ in op.parts.values())
        return [op]

    def _check(self, results) -> None:
        for cmd, (code, _, err, _, _) in results.items():
            _gate(code == 0, f"{cmd} exited {code}: {err.strip()}")
        out = {cmd: r[1] for cmd, r in results.items()}
        rows = self.dataset_rows
        _gate(out["gen-example2"] == f"wrote {rows} rows\n", "gen output")
        _gate(out["fit"] == f"wrote {self.model_path}\n", "fit output")
        labels = out["predict"].splitlines()
        _gate(len(labels) == rows and set(labels) <= {"1", "2"},
              "predict must print one label in {1,2} per row")
        report = dict(line.split("=", 1) for line in out["eval"].splitlines())
        _gate(report["sandwich_ok"] == "true", "eval sandwich_ok is not true")
        _gate(report["rows"] == str(rows), "eval row count")
        total = float(report["total_energy"])
        spill = float(report["enr_correct"]) + float(report["enr_error"]) - total
        _gate(abs(spill) <= 1e-9 * abs(total), f"eval energy conservation off by {spill}")
        spectrum = [float(v) for v in out["spectrum"].split()]
        _gate(len(spectrum) == self.n and spectrum == sorted(spectrum, reverse=True),
              "spectrum must print n descending values")
        if not self.reference:
            self.reference = out
        for cmd, text in out.items():
            _gate(text == self.reference[cmd], f"{cmd} stdout differs between iterations")

    def details(self, ops: list[Op]) -> dict:
        busy = sum(op.seconds for op in ops)
        d = {"pipeline_rows_per_s": (self.dataset_rows * len(ops) / busy, "1/s", len(ops))}
        for cmd, key in (("gen-example2", "gen"), ("fit", "fit"), ("predict", "predict"),
                         ("eval", "eval")):
            samples = [op.parts[cmd][0] for op in ops if op.error is None]
            if samples:
                d[f"{key}_cmd_s"] = (statistics.median(samples), "s", len(samples))
        return d


def _mode_operator(moments, mode: str) -> np.ndarray:
    """The operator M_i whose energy a fit in `mode` optimizes."""
    if mode == "centered":
        return moments.covariance
    k = moments.correlation
    return k / np.trace(k) if mode == "trace" else k


class FitHighdim:
    """Library fit from in-memory rows, once in each normalization mode."""

    name = "fit_highdim"
    modes = ("raw", "trace", "unit", "centered")
    dataset_rows = 0

    def __init__(self, ed, n: int = 128, per_class: int = 20000):
        self.ed = ed
        self.n = n
        self.per_class = per_class

    def setup(self, seed: int) -> None:
        ed = self.ed
        rng = np.random.default_rng(seed)
        a = 0.5 * rng.standard_normal(self.n)
        self.prior1 = float(rng.uniform(0.3, 0.7))
        data = ed.gen_example2(self.n, a, 1.0, self.per_class, int(rng.integers(2**31)))
        unit = ed.unit_normalized(data)
        self.rows = {
            False: (data.class_features(1), data.class_features(2)),
            True: (unit.class_features(1), unit.class_features(2)),
        }

    def iteration(self, index: int, tracer: Tracer | None) -> list[Op]:
        return [self._fit(mode) for mode in self.modes]

    def _fit(self, mode: str) -> Op:
        ed = self.ed
        rows1, rows2 = self.rows[mode == "unit"]

        def body():
            spec1 = ed.ClassSpec(self.prior1, ed.estimate_moments(rows1))
            spec2 = ed.ClassSpec(1.0 - self.prior1, ed.estimate_moments(rows2))
            clf = ed.fit(spec1, spec2, ed.NormalizationMode(mode))
            report = ed.energy_report(clf, spec1, spec2)
            text = ed.format_model(clf)
            return spec2, clf, report, text, ed.parse_model(text)

        return run_op(body, lambda result: self._check(mode, *result))

    def _check(self, mode, spec2, clf, report, text, parsed) -> None:
        p1, p2 = clf.proj1.matrix, clf.proj2.matrix
        resid = np.linalg.norm(p1 + p2 - np.eye(clf.dim))
        _gate(resid <= 1e-9, f"{mode}: ||P1+P2-I|| = {resid}")
        resid = np.linalg.norm(p1 @ p2)
        _gate(resid <= 1e-9, f"{mode}: ||P1 P2|| = {resid}")
        total = report.total
        spill = report.enr_correct + report.enr_error - total
        _gate(abs(spill) <= 1e-9 * abs(total), f"{mode}: conservation off by {spill}")
        values = clf.spectrum
        eps = 1e-10 * max(1.0, float(np.max(np.abs(values))))
        positive = values > eps
        optimum = spec2.prior * float(np.trace(_mode_operator(spec2.moments, mode)))
        optimum += float(values[positive].sum())
        gap = report.enr_correct - optimum
        _gate(abs(gap) <= 1e-9 * abs(total), f"{mode}: Enr_C misses the optimum by {gap}")
        _gate(clf.proj1.rank == int(positive.sum()),
              f"{mode}: rank(P1) = {clf.proj1.rank}, {int(positive.sum())} eigenvalues > eps")
        _gate(self.ed.format_model(parsed) == text, f"{mode}: model text round trip differs")

    def details(self, ops: list[Op]) -> dict:
        busy = sum(op.seconds for op in ops)
        ms = [op.seconds * 1e3 for op in ops]
        return {
            "fits_per_s": (len(ops) / busy, "1/s", len(ops)),
            "fit_ms_p50": (statistics.median(ms), "ms", len(ms)),
        }


# Pairs whose non-shared parts come closer than this angle (radians) are
# redrawn: the meet and join ranks are then decided far from the 1e-8
# eigenvalue cutoff in `logic`, so the expected ranks are exact.
_MIN_ANGLE = 0.01
_MEMBERSHIP_VECTORS = 3


@dataclass
class _Pair:
    p: object
    q: object
    rank_p: int
    rank_q: int
    vectors: np.ndarray


class LatticeSmall:
    """Meet, join, order, complement and De Morgan on many small pairs."""

    name = "lattice_small"
    dataset_rows = 0

    def __init__(self, ed, n: int = 16, pairs: int = 256, batch: int = 8):
        self.ed = ed
        self.n = n
        self.npairs = pairs
        self.batch = batch

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pairs = [self._make_pair(rng) for _ in range(self.npairs)]

    def _make_pair(self, rng) -> _Pair:
        """Two subspaces sharing exactly a 2-dimensional part, ranks 3..8."""
        n = self.n
        while True:
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rank_p, rank_q = (int(k) for k in rng.integers(3, 9, size=2))
            shared = basis[:, :2]
            extra_p = basis[:, 2:rank_p]
            g = rng.standard_normal((n, rank_q - 2))
            extra_q = np.linalg.qr(g - shared @ (shared.T @ g))[0]
            cosines = np.linalg.svd(extra_p.T @ extra_q, compute_uv=False)
            if cosines.max() < np.cos(_MIN_ANGLE):
                break
        span_p = np.hstack([shared, extra_p]) @ rng.standard_normal((rank_p, rank_p))
        span_q = np.hstack([shared, extra_q]) @ rng.standard_normal((rank_q, rank_q))
        p = self.ed.projector_from_basis(list(span_p.T), dim=n)
        q = self.ed.projector_from_basis(list(span_q.T), dim=n)
        if (p.rank, q.rank) != (rank_p, rank_q):
            raise RuntimeError(f"projector ranks {(p.rank, q.rank)} != {(rank_p, rank_q)}")
        return _Pair(p, q, rank_p, rank_q, rng.standard_normal((_MEMBERSHIP_VECTORS, n)))

    def iteration(self, index: int, tracer: Tracer | None) -> list[Op]:
        start = index * self.batch
        return [self._battery(self.pairs[(start + j) % self.npairs])
                for j in range(self.batch)]

    def _battery(self, pair: _Pair) -> Op:
        ed = self.ed
        p, q = pair.p, pair.q

        def body():
            m = ed.meet(p, q)
            j = ed.join(p, q)
            order = (ed.leq(p, q), ed.leq(q, p), ed.leq(m, p), ed.leq(m, q), ed.leq(p, j))
            c = ed.complement(p)
            mus = [(ed.membership(p, x), ed.membership(q, x), ed.membership(m, x))
                   for x in pair.vectors]
            fp, fq = ed.FuzzyProposition(p), ed.FuzzyProposition(q)
            return m, j, order, c, mus, ~(fp & fq), ~fp | ~fq

        return run_op(body, lambda result: self._check(pair, *result))

    def _check(self, pair, m, j, order, c, mus, lhs, rhs) -> None:
        n = self.n
        _gate(m.rank == 2, f"meet rank {m.rank} != 2")
        want = min(n, pair.rank_p + pair.rank_q - 2)
        _gate(j.rank == want, f"join rank {j.rank} != {want}")
        _gate(order == (False, False, True, True, True),
              f"order (P<=Q, Q<=P, M<=P, M<=Q, P<=J) = {order}")
        _gate(c.rank == n - pair.rank_p, f"complement rank {c.rank}")
        gap = float(np.max(np.abs(lhs.projector.matrix - rhs.projector.matrix)))
        _gate(gap <= 1e-8 and lhs.projector.rank == rhs.projector.rank,
              f"De Morgan violated by {gap}")
        for x, (mu_p, mu_q, mu_m) in zip(pair.vectors, mus):
            norm2 = float(x @ x)
            _gate(all(0.0 <= mu <= norm2 for mu in (mu_p, mu_q, mu_m)),
                  "membership outside [0, ||x||^2]")
            _gate(mu_m <= min(mu_p, mu_q) + 1e-9 * norm2, "meet membership above min")

    def details(self, ops: list[Op]) -> dict:
        busy = sum(op.seconds for op in ops)
        ms = [op.seconds * 1e3 for op in ops]
        return {
            "lattice_ops_per_s": (len(ops) / busy, "1/s", len(ops)),
            "lattice_op_ms_p50": (statistics.median(ms), "ms", len(ms)),
            "lattice_op_ms_p90": (float(np.percentile(ms, 90)), "ms", len(ms)),
        }


WORKLOADS = {w.name: w for w in (CliPipeline, FitHighdim, LatticeSmall)}


def make_workload(name: str, ed, workdir: Path, sizes: dict | None = None):
    cls = WORKLOADS[name]
    kwargs = dict(sizes or {})
    if cls is CliPipeline:
        return cls(ed, workdir, **kwargs)
    return cls(ed, **kwargs)


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run iterations for `seconds`; return every measurement.

    With `trace`, iterations alternate untraced / traced (odd ones are
    traced), so the tracing overhead is measured against the same inputs
    under the same machine conditions.
    """
    setups = [run_op(lambda: workload.setup(seed), lambda _: None)
              for _ in range(SETUP_REPEATS)]
    for op in setups:
        if op.error is not None:
            raise RuntimeError(f"{workload.name} set-up failed: {op.error}")

    tracer = Tracer(workload.ed) if trace else None
    ops: dict[bool, list[Op]] = {False: [], True: []}
    iteration_s: dict[bool, list[float]] = {False: [], True: []}
    start = clock()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        t0 = clock()
        with tracer.tracing(index) if traced else contextlib.nullcontext():
            batch = workload.iteration(index, tracer if traced else None)
        iteration_s[traced].append(clock() - t0)
        ops[traced].extend(batch)
        index += 1
        if clock() - start >= seconds and (not trace or iteration_s[True]):
            break

    every_op = ops[False] + ops[True]
    errors = [op.error for op in every_op if op.error is not None]
    plain = ops[False]
    adjusted_ms = [op.adjusted * 1e3 for op in plain]
    probes_us = [op.probe * 1e6 for op in plain]
    result = {
        "attempted": len(every_op),
        "failed": len(errors),
        "errors": errors,
        "op_ms": [op.seconds * 1e3 for op in plain],
        "op_adjusted_ms": adjusted_ms,
        "op_probe_us": probes_us,
        "iterations": {"untraced": len(iteration_s[False]), "traced": len(iteration_s[True])},
        "end_to_end": {
            "setup_s": (statistics.median(op.adjusted for op in setups), "s", len(setups)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
            "op_ms_p50": (statistics.median(adjusted_ms), "ms", len(plain)),
        },
        "details": {
            "raw_setup_s": (statistics.median(op.seconds for op in setups), "s", len(setups)),
            **workload.details(plain),
            "fail_frac": (len(errors) / len(every_op), "ratio", len(every_op)),
            "probe_us_p50": (statistics.median(probes_us), "us", len(probes_us)),
        },
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(iteration_s[True]), workload.dataset_rows)
        overhead = (statistics.median(iteration_s[True])
                    / statistics.median(iteration_s[False]) - 1.0)
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        result["per_layer"] = layers
        result["spans"] = tracer.spans
        result["trace_origin"] = start
    return result
