"""Tests of the benchmark itself: tracing, gates and the printed result.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import energydisc  # noqa: E402
import energydisc.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

TINY = {
    "cli_pipeline": {"n": 4, "per_class": 200},
    "fit_highdim": {"n": 6, "per_class": 300},
    "lattice_small": {"pairs": 4, "batch": 2},
}


def _tiny_run(name, tmp_path, trace, seed=3):
    wl = workloads.make_workload(name, energydisc, tmp_path, TINY[name])
    return workloads.run(wl, seed, 0.0, trace)


def _bindings():
    spaces = [energydisc, *Tracer(energydisc).modules]
    return {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()}


def test_self_times_on_synthetic_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),      # overlaps a: the union is counted once
        Span("c", 9.0, 12.0, 0, 0),     # runs past the parent: clipped at 10
        Span("a.child", 1.5, 2.5, 1, 0),
        Span("leaf", 20.0, 20.25, None, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0, 0.25])


def test_wrappers_cover_every_binding_and_are_restored(tmp_path):
    before = _bindings()
    tracer = Tracer(energydisc)
    with tracer.tracing(0):
        import energydisc.classifier as classifier
        import energydisc.moments as moments
        assert classifier.discriminants is not before[("energydisc.classifier", "discriminants")]
        assert moments.sym_eig is not before[("energydisc.moments", "sym_eig")]
        assert energydisc.fit is classifier.fit
    assert _bindings() == before

    result = _tiny_run("cli_pipeline", tmp_path, trace=True)
    assert _bindings() == before
    names = {s.name for s in result["spans"]}
    assert {"cli.eval", "classifier.decide_batch", "classifier.discriminants",
            "spectral.sym_eig", "datasets.load_csv"} <= names
    parents = {(result["spans"][s.parent].name, s.name)
               for s in result["spans"] if s.parent is not None}
    assert ("classifier.decide_batch", "classifier.discriminants") in parents
    # the eigen-residual is computed outside every layer's self time
    assert ("classifier.fit", "trace.count") in parents
    assert all(s.iteration == 1 for s in result["spans"])


def test_wrappers_are_restored_when_an_iteration_raises():
    before = _bindings()
    tracer = Tracer(energydisc)
    with pytest.raises(ZeroDivisionError):
        with tracer.tracing(0):
            1 / 0
    assert _bindings() == before


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_gate(name, trace, tmp_path):
    result = _tiny_run(name, tmp_path, trace)
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_gates_catch_a_wrong_result(tmp_path, monkeypatch):
    wl = workloads.make_workload("fit_highdim", energydisc, tmp_path, TINY["fit_highdim"])
    wl.setup(1)
    real = energydisc.energy_report

    def skewed(clf, c1, c2):
        r = real(clf, c1, c2)
        return type(r)(r.r, r.enr_correct * (1 + 1e-6), r.enr_error, r.total)

    monkeypatch.setattr(energydisc, "energy_report", skewed)
    ops = wl.iteration(0, None)
    assert all(op.error and "GateError" in op.error for op in ops)


def test_work_counts_repeat_exactly(tmp_path):
    keys = ("spectral.sym_eig_n3", "classifier.scored_rows", "datasets.csv_bytes")
    runs = [_tiny_run("cli_pipeline", tmp_path, trace=True)["per_layer"] for _ in range(2)]
    for key in keys:
        assert runs[0][key]["value"] > 0
        assert runs[0][key]["value"] == runs[1][key]["value"]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(name, trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert name in {w["name"] for w in spec["workloads"]}
    code = bench.main(["--workload", name, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace)], sizes=TINY[name])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_machine_block_reports_one_blas_thread():
    # A fresh interpreter, so the thread count is fixed before numpy loads.
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(json.dumps(run.machine_block()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    machine = json.loads(proc.stdout)
    assert machine["nproc"] >= 1
    assert machine["blas_threads"] in (1, None)
    assert {"python", "numpy", "blas"} <= set(machine)


def test_layer_metric_names_are_the_documented_set():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(tracing.layer_metrics(Tracer(energydisc), 1, 0)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
