"""energydisc benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` directory, never from an installed copy. The last line of stdout
is the JSON result (`correct`, `attempted`, `failed`, `metrics`); the
lines before it give the machine block and every metric by name, unit
and sample count. The full result, and with `--trace 1` the spans, are
also written to `.perfbench_out/` in the checkout.
"""

import ctypes
import os
import sys

# One BLAS thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc raises its mmap threshold each time the process frees a large
# block, so where big arrays live, and with it ru_maxrss, would depend on
# heap history: 126-159 MB across seeds of cli_pipeline. A fixed threshold
# (M_MMAP_THRESHOLD = -3) gives every block above it its own mapping,
# returned to the system when freed.
MMAP_THRESHOLD = 256 * 1024
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
MMAP_THRESHOLD_FIXED = bool(_mallopt is not None and _mallopt(-3, MMAP_THRESHOLD))

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("cli_pipeline", "fit_highdim", "lattice_small")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library():
    """Import energydisc from this checkout's src/, or return None."""
    if not (SRC / "energydisc" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(SRC), str(HERE)]
    ed = importlib.import_module("energydisc")
    importlib.import_module("energydisc.cli")
    if Path(ed.__file__).resolve().parent != SRC / "energydisc":
        return None
    return ed


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "malloc_mmap_threshold": MMAP_THRESHOLD if MMAP_THRESHOLD_FIXED else None,
        "platform": platform.platform(),
    }


def build_result(workload: str, seed: int, seconds: float, trace: bool,
                 ed, sizes: dict | None = None) -> dict:
    """Run one workload and return the full result record."""
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = workloads.make_workload(workload, ed, Path(workdir), sizes)
        measured = workloads.run(wl, seed, seconds, trace)
    measured.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                    machine=machine_block())
    return measured


def summary_line(result: dict) -> dict:
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    table = result["per_layer"] if result["trace"] else {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in result["end_to_end"].items()
    }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": table,
    }


def _write_outputs(result: dict) -> None:
    stem = f"{result['workload']}_seed{result['seed']}_trace{result['trace']}"
    record = {k: v for k, v in result.items() if k not in ("spans", "trace_origin")}
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in result:
        from tracing import dump_spans

        spans = dump_spans(result["spans"], result["trace_origin"])
        (OUT_DIR / f"trace_{stem}.json").write_text(json.dumps(spans) + "\n")


def _print_report(result: dict) -> None:
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']} "
          f"iterations={result['iterations']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for section in ("end_to_end", "details"):
        for name, (value, unit, samples) in result[section].items():
            print(f"{section:<10} {name:<22} {value:>16.6g} {unit:<6} samples={samples}")
    for name, entry in result.get("per_layer", {}).items():
        print(f"{'per_layer':<10} {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    for error in result["errors"][:5]:
        print(f"FAILED {error}", file=sys.stderr)


def main(argv=None, sizes: dict | None = None) -> int:
    args = _parse_args(argv)
    ed = _import_library()
    if ed is None:
        print(f"error: no energydisc sources under {SRC}", file=sys.stderr)
        return 2
    result = build_result(args.workload, args.seed, args.seconds, bool(args.trace), ed, sizes)
    _write_outputs(result)
    _print_report(result)
    line = summary_line(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
