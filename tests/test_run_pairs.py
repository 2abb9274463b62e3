"""The pure parts of perf_records/run_pairs.py: seed lists, the summaries and
the filing of records."""

import gzip
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perf_records" / "run_pairs.py"
_SPEC = importlib.util.spec_from_file_location("run_pairs", _PATH)
run_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_pairs)

_METRICS = [{"name": "op_ms_p50", "unit": "ms", "better": "lower"},
            {"name": "rate", "unit": "1/s", "better": "higher"}]


def _record(op_ms, rate):
    return {"end_to_end": {"op_ms_p50": [op_ms, "ms", 100], "rate": [rate, "1/s", 100]}}


@pytest.mark.parametrize("text, seeds", [
    ("801-803", [801, 802, 803]),
    ("5", [5]),
    ("1,4-5,9", [1, 4, 5, 9]),
])
def test_seeds_are_ranges_and_single_seeds(text, seeds):
    assert run_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["9-1", "1,9-1", "", "x"])
def test_a_seed_list_without_seeds_in_each_part_is_refused(text):
    with pytest.raises(ValueError):
        run_pairs.parse_seeds(text)


def test_summary_counts_wins_by_each_metrics_direction_and_ties_for_neither():
    pairs = [(_record(1.0, 10.0), _record(0.8, 12.0)),
             (_record(1.0, 10.0), _record(1.0, 10.0)),
             (_record(0.9, 10.0), _record(1.1, 9.0))]
    op_line, rate_line = run_pairs.summarize(pairs, _METRICS)
    assert op_line.startswith("op_ms_p50") and "change won 1/3 ms" in op_line
    assert "parent 1 [" in op_line and "change 1 [" in op_line
    assert rate_line.startswith("rate") and "change won 1/3 1/s" in rate_line


def test_summary_of_one_pair_reads_its_values():
    (line, _) = run_pairs.summarize([(_record(2.0, 1.0), _record(1.0, 1.0))], _METRICS)
    assert "parent 2 [2, 2]" in line and "change 1 [1, 1]" in line and "-50.0%" in line


def test_faults_are_counted_per_attempted_op_and_summarized_as_a_lower_is_better_metric():
    assert run_pairs.faults_per_op(900, {"attempted": 18}) == 50.0
    assert run_pairs.faults_per_op(7, {"attempted": 0}) == 7.0
    pairs = [({"end_to_end": {"minflt/op": [p]}}, {"end_to_end": {"minflt/op": [c]}})
             for p, c in ((300.0, 30.0), (100.0, 10.0), (200.0, 200.0))]
    (line,) = run_pairs.summarize(pairs, [run_pairs.FAULTS])
    assert line.startswith("minflt/op") and "parent 200 [100, 300]" in line
    assert "change 30 [10, 200]" in line and "-85.0%" in line
    assert "change won 2/3 faults" in line


def test_child_faults_grow_by_a_finished_childs_faults():
    before = run_pairs.child_faults()
    subprocess.run([sys.executable, "-c", "bytearray(1 << 22)"], check=True, timeout=120)
    assert run_pairs.child_faults() > before


def test_a_record_is_filed_gzipped_and_decompresses_to_the_bytes_run_wrote(tmp_path):
    bench = tmp_path / "BENCH_fit_highdim_seed7_trace0.json"
    bench.write_bytes(b'{"end_to_end": {"op_ms_p50": [30.5, "ms", 100]}}\n')
    side = tmp_path / "change"
    side.mkdir()
    filed = run_pairs.file_record(bench, side)
    assert filed == side / "BENCH_fit_highdim_seed7_trace0.json.gz"
    assert gzip.decompress(filed.read_bytes()) == bench.read_bytes()
    # no flags (so no file name) and mtime 0: filing the same record again,
    # at another time, gives the same bytes
    first = filed.read_bytes()
    assert first[3:8] == bytes(5)
    os.utime(bench, (1, 1))
    assert run_pairs.file_record(bench, side).read_bytes() == first
