"""Span tracing around the public functions of energydisc's modules.

The tracer lives entirely on the benchmark's side: `Tracer.install`
replaces every public function of each layer module with a recording
wrapper in *every* namespace that binds it (the package, the defining
module and each module that imported it by name), and `uninstall` puts
the originals back. A call reaches a wrapper whenever the library looks
the name up at call time, so `classifier.decide_batch -> discriminants`
or `logic.meet -> sym_eig` show up as nested spans.

Each span records name, start, end, parent span and iteration id; spans
stay in memory until the run ends. Work counts (rows, bytes, n^3) are
taken at the same boundaries, after the span has closed. Their cost is
recorded as a `trace.count` span under the caller, so it inflates no
layer's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("spectral", "moments", "logic", "classifier", "datasets", "cli")

# CLI subcommands the benchmark runs; each gets a `cli.<command>.self_s`.
CLI_COMMANDS = ("gen-example2", "fit", "predict", "eval", "spectrum")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sym_eig(tracer, args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 0, "matrix"), dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    tracer.counts["spectral.sym_eig_n3"] += n**3
    values, vectors = result
    scale = np.linalg.norm(a)
    if scale > 0.0:
        resid = np.linalg.norm(a @ vectors - vectors * values) / scale
        tracer.eig_resid_max = max(tracer.eig_resid_max, float(resid))


def _count_load_csv(tracer, args, kwargs, result):
    tracer.counts["datasets.load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_save_csv(tracer, args, kwargs, result):
    tracer.counts["datasets.save_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_estimate(tracer, args, kwargs, result):
    tracer.counts["moments.rows"] += result.count


def _count_discriminants(tracer, args, kwargs, result):
    tracer.counts["classifier.scored_rows"] += result[0].shape[0]


_COUNTERS = {
    "spectral.sym_eig": _count_sym_eig,
    "datasets.load_csv": _count_load_csv,
    "datasets.save_csv": _count_save_csv,
    "moments.estimate_moments": _count_estimate,
    "classifier.discriminants": _count_discriminants,
}


class Tracer:
    """Records spans and counts for the iterations run while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.eig_resid_max = 0.0
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def public_functions(self):
        """(layer, name, function) for each function a layer module defines."""
        for layer, mod in zip(LAYERS, self.modules):
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield layer, name, obj

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [self.package, *self.modules]
        for layer, name, fn in list(self.public_functions()):
            wrapper = self._wrap(f"{layer}.{name}", fn)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    self._patched.append((ns, name, fn))
                    setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def tracing(self, iteration: int):
        """Install the wrappers for one iteration and always restore them."""
        self.iteration = iteration
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.iteration = None

    def _wrap(self, span_name, fn):
        counter = _COUNTERS.get(span_name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span_name
            if span_name == "cli.run":
                argv = _arg(args, kwargs, 0, "argv")
                name = f"cli.{argv[0]}" if argv else span_name
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else None,
                              self.iteration))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = clock()
                stack.pop()
            if counter is not None:
                start = clock()
                counter(self, args, kwargs, result)
                spans.append(Span("trace.count", start, clock(),
                                  stack[-1] if stack else None, self.iteration))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once, so the result is never negative.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, intervals in zip(spans, children):
        covered = 0.0
        edge = span.start
        for start, end in sorted(intervals):
            lo, hi = max(start, edge), min(end, span.end)
            if hi > lo:
                covered += hi - lo
            edge = max(edge, hi)
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(tracer: Tracer, iterations: int, dataset_rows: int) -> dict:
    """Per-layer metrics, each per traced iteration.

    Times are summed self times in seconds. `dataset_rows` is the row
    count of the data set one iteration scores (0 when nothing is scored).
    """
    times: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        times[span.name] += own
        calls[span.name] += 1
    k = float(iterations)
    counts = tracer.counts

    def t(*names):
        return sum(times[n] for n in names) / k

    def c(*names):
        return sum(calls[n] for n in names) / k

    def per_s(work, seconds):
        return work / seconds if seconds > 0.0 else 0.0

    load_bytes = counts["datasets.load_bytes"] / k
    save_bytes = counts["datasets.save_bytes"] / k
    scored = counts["classifier.scored_rows"] / k
    m = {
        "datasets.save_csv_s": (t("datasets.save_csv"), "s"),
        "datasets.load_csv_s": (t("datasets.load_csv"), "s"),
        "datasets.load_csv_calls": (c("datasets.load_csv"), "count"),
        "datasets.csv_bytes": (load_bytes + save_bytes, "bytes"),
        "datasets.load_mb_per_s": (per_s(load_bytes / 1e6, t("datasets.load_csv")), "MB/s"),
        "datasets.save_mb_per_s": (per_s(save_bytes / 1e6, t("datasets.save_csv")), "MB/s"),
        "datasets.gen_s": (t("datasets.gen_example1", "datasets.gen_example2"), "s"),
        "datasets.unit_normalized_s": (t("datasets.unit_normalized"), "s"),
        "moments.estimate_s": (t("moments.estimate_moments"), "s"),
        "moments.estimate_calls": (c("moments.estimate_moments"), "count"),
        "moments.rows": (counts["moments.rows"] / k, "count"),
        "moments.analytic_s": (t("moments.analytic_moments"), "s"),
        "spectral.sym_eig_s": (t("spectral.sym_eig"), "s"),
        "spectral.sym_eig_calls": (c("spectral.sym_eig"), "count"),
        "spectral.sym_eig_n3": (counts["spectral.sym_eig_n3"] / k, "count"),
        "spectral.projector_from_basis_s": (t("spectral.projector_from_basis"), "s"),
        "spectral.projector_from_basis_calls": (c("spectral.projector_from_basis"), "count"),
        "spectral.complement_s": (t("spectral.complement"), "s"),
        "spectral.eig_resid_max": (tracer.eig_resid_max, "ratio"),
        "classifier.fit_s": (t("classifier.fit"), "s"),
        "classifier.discriminants_s": (t("classifier.discriminants"), "s"),
        "classifier.discriminants_calls": (c("classifier.discriminants"), "count"),
        "classifier.scored_rows": (scored, "count"),
        "classifier.score_passes_per_row": (scored / dataset_rows if dataset_rows else 0.0,
                                            "ratio"),
        "classifier.decide_batch_s": (t("classifier.decide_batch"), "s"),
        "classifier.region_energy_s": (t("classifier.region_energy"), "s"),
        "classifier.empirical_quality_s": (t("classifier.empirical_quality"), "s"),
        "classifier.energy_report_s": (t("classifier.energy_report"), "s"),
        "classifier.format_model_s": (t("classifier.format_model"), "s"),
        "classifier.parse_model_s": (t("classifier.parse_model"), "s"),
        "logic.meet_s": (t("logic.meet"), "s"),
        "logic.join_s": (t("logic.join"), "s"),
        "logic.leq_s": (t("logic.leq"), "s"),
        "logic.membership_s": (t("logic.membership"), "s"),
        "logic.ops": (sum(v for n, v in calls.items() if n.startswith("logic.")) / k, "count"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = (t(f"cli.{command}"), "s")
    m["cli.stdout_bytes"] = (counts["cli.stdout_bytes"] / k, "bytes")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def dump_spans(spans: list[Span], origin: float) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from `origin`."""
    return [
        {"name": s.name, "start": s.start - origin, "end": s.end - origin,
         "parent": s.parent, "iteration": s.iteration}
        for s in spans
    ]
