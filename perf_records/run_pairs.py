"""Run alternating parent/change benchmark pairs and file their records.

    python3 perf_records/run_pairs.py --parent 3c839d4 --change lattice-calls \\
        --workload lattice_small --seeds 801-810

Run from a checkout of the change; its working tree is the change side.
The parent commit is checked out into a temporary `git worktree`, which
is removed on exit. For each seed, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in their own checkout, the parent first in odd pairs and the change
first in even ones; T is the `run_seconds` of BENCHMARK.json. Each
side's BENCH_*.json is copied, unedited, to
perf_records/<change>/parent-<sha>/ or perf_records/<change>/change/.
At the end, for each end-to-end metric of BENCHMARK.json, the script
prints each side's median and quartiles and the number of pairs the
change won (ties count for neither side). Each run's minor page faults
(the `ru_minflt` of RUSAGE_CHILDREN before and after it) per op it
attempted are printed for each pair and summarized at the end as one more
lower-is-better metric, `minflt/op`: unlike op times, they do not drift
with the host's core speed. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "perf_records"
# a run's minor faults per op, set in its record in memory (not in its file)
FAULTS = {"name": "minflt/op", "unit": "faults", "better": "lower"}


def parse_seeds(text: str) -> list[int]:
    """Seeds from "801-810", "801,803,805" or a mix of both."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        span = range(int(first), int(last or first) + 1)
        if not span:
            raise ValueError(f"no seeds in {part!r}")
        seeds.extend(span)
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Path:
    """Run the benchmark in `checkout`; return the BENCH_*.json it wrote."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return checkout / ".perfbench_out" / f"BENCH_{workload}_seed{seed}_trace0.json"


def child_faults() -> int:
    """Minor page faults of this process's finished children so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def faults_per_op(faults: int, record: dict) -> float:
    """A run's minor page faults per op its BENCH record says it attempted."""
    return faults / max(1, record["attempted"])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric for (parent, change) record pairs:
    each side's median [q1, q3] and the pairs the change won."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["end_to_end"][name][0] for p, _ in pairs]
        change = [c["end_to_end"][name][0] for _, c in pairs]
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        lines.append(f"{name:<12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                     f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                     f"{(cm - pm) / pm:+.1%}  change won {won}/{len(pairs)} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", required=True, help="directory name under perf_records/")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help='one pair per seed, e.g. "801-810"')
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    sha = _git("rev-parse", "--short=7", f"{args.parent}^{{commit}}")
    sides = {"parent": RECORDS / args.change / f"parent-{sha}",
             "change": RECORDS / args.change / "change"}
    for directory in sides.values():
        directory.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run_pairs-"))
    worktree = scratch / "parent"
    checkouts = {"parent": worktree, "change": ROOT}
    pairs = []
    try:
        _git("worktree", "add", "--detach", str(worktree), sha)
        for number, seed in enumerate(args.seeds, start=1):
            order = ("parent", "change") if number % 2 else ("change", "parent")
            records, minflt = {}, {}
            for side in order:
                before = child_faults()
                bench_file = run_once(checkouts[side], args.workload, seed, seconds)
                records[side] = json.loads(bench_file.read_text())
                minflt[side] = faults_per_op(child_faults() - before, records[side])
                shutil.copy2(bench_file, sides[side] / bench_file.name)
                records[side]["end_to_end"][FAULTS["name"]] = [minflt[side]]
            pairs.append((records["parent"], records["change"]))
            ops = {side: records[side]["end_to_end"]["op_ms_p50"][0] for side in order}
            print(f"pair {number}/{len(args.seeds)} seed {seed} ({order[0]} first): "
                  f"op_ms_p50 parent {ops['parent']:.6g}, change {ops['change']:.6g}; "
                  f"minflt/op parent {minflt['parent']:.6g}, change {minflt['change']:.6g}",
                  flush=True)
    finally:
        if worktree.exists():
            _git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"# {args.workload}, parent {sha}, {len(pairs)} pairs of {seconds:g} s; "
          "median [q1, q3]")
    for line in summarize(pairs, bench["end_to_end"] + [FAULTS]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
