import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from energydisc import datasets
from energydisc import (
    ClassSpec,
    decide_batch,
    energy_report,
    estimate_moments,
    load_csv,
    load_model,
    unit_normalized,
)
from energydisc.cli import run
from helpers import V1_MODEL, format_model_v2, subprocess_env


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_data(capsys, tmp_path, name="data.csv", per_class=30, seed=4):
    path = tmp_path / name
    code, out, err = run_cli(
        capsys, "gen-example2", "--n", "3", "--a", "1.5,0,1", "--sigma2", "0.8",
        "--per-class", str(per_class), "--seed", str(seed), "--out", str(path),
    )
    assert code == 0, err
    return path


def fit_model(capsys, tmp_path, data_path, mode="raw", name="model.txt"):
    path = tmp_path / name
    code, out, err = run_cli(
        capsys, "fit", "--data", str(data_path), "--mode", mode, "--out", str(path),
    )
    assert code == 0, err
    return path


def train_model(capsys, tmp_path, mode):
    """A model fitted in `mode` on 100 ordinary rows of example 1."""
    train = tmp_path / "train.csv"
    run_cli(capsys, "gen-example1", "--n", "2", "--m1", "2,0", "--m2", "0,1",
            "--per-class", "50", "--seed", "1", "--out", str(train))
    return fit_model(capsys, tmp_path, train, mode)


def assert_17g_model(capsys, model_path):
    """The model file, and the spectrum printed from it, are the bytes %.17g
    writes for the fields parse_model reads back."""
    model = load_model(model_path)
    assert model_path.read_text(encoding="utf-8") == format_model_v2(model)
    assert run_cli(capsys, "spectrum", "--model", str(model_path)) == (
        0, "".join("%.17g\n" % v for v in model.spectrum), "")


def test_gen_example2_writes_csv(capsys, tmp_path):
    path = gen_data(capsys, tmp_path, per_class=20)
    data = load_csv(path)
    assert len(data) == 40
    assert data.dim == 3


def test_gen_is_deterministic(capsys, tmp_path):
    first = gen_data(capsys, tmp_path, name="a.csv", seed=11)
    second = gen_data(capsys, tmp_path, name="b.csv", seed=11)
    assert first.read_bytes() == second.read_bytes()
    third = gen_data(capsys, tmp_path, name="c.csv", seed=12)
    assert first.read_bytes() != third.read_bytes()


def test_gen_example1_with_full_covariance(capsys, tmp_path):
    path = tmp_path / "g1.csv"
    code, out, err = run_cli(
        capsys, "gen-example1", "--n", "2", "--m1", "2,0", "--m2", "0,1",
        "--cov", "2,0.5;0.5,1", "--per-class", "15", "--seed", "1",
        "--out", str(path),
    )
    assert code == 0 and out.strip() == "wrote 30 rows"
    assert load_csv(path).dim == 2


def test_gen_example1_refuses_an_indefinite_covariance(capsys, tmp_path):
    path = tmp_path / "g1.csv"
    code, out, err = run_cli(
        capsys, "gen-example1", "--n", "2", "--m1", "1,0", "--m2", "0,1",
        "--cov", "1,0;0,-1", "--per-class", "2", "--seed", "0", "--out", str(path),
    )
    assert (code, out, err) == (2, "", "error: covariance has eigenvalue -1.0\n")
    assert not path.exists()


def test_fit_and_predict_round_trip(capsys, tmp_path):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    model = load_model(model_path)
    assert model.dim == 3

    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 0
    labels = [int(v) for v in out.split()]
    assert len(labels) == 60
    assert set(labels) <= {1, 2}

    code, out2, _ = run_cli(capsys, "predict", "--model", str(model_path),
                            "--data", str(data))
    assert out2 == out  # byte-identical reruns


def test_predict_prints_one_label_line_per_row(capsys, tmp_path):
    data = gen_data(capsys, tmp_path, per_class=25)
    model_path = fit_model(capsys, tmp_path, data)
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 0, err
    labels = decide_batch(load_model(model_path), load_csv(data).features)
    assert out == "".join(f"{int(label)}\n" for label in labels)


def test_predict_prints_a_read_block_of_many_short_rows(capsys, tmp_path):
    # rows of one feature are 4 bytes, so one read block holds more than
    # 2^16 of them, and their labels go out in one write
    path = tmp_path / "one.csv"
    path.write_text("label,x1\n1,1\n2,0\n1,2\n2,0.5\n", encoding="utf-8")
    model_path = fit_model(capsys, tmp_path, path)
    data = tmp_path / "short.csv"
    data.write_text("label,x1\n" + "1,1\n2,0\n" * 40000, encoding="utf-8")
    assert [len(lines) for _, lines in datasets._line_blocks(data)] == [80001]
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 0, err
    assert out == "1\n2\n" * 40000


def test_fit_priors_from_data(capsys, tmp_path):
    path = tmp_path / "skew.csv"
    path.write_text(
        "label,x1\n1,1.0\n1,2.0\n1,3.0\n2,0.5\n", encoding="utf-8"
    )
    model_path = tmp_path / "m.txt"
    code, _, err = run_cli(capsys, "fit", "--data", str(path),
                           "--priors-from-data", "--out", str(model_path))
    assert code == 0, err
    assert "p1=0.75" in model_path.read_text()


def test_fit_rejects_single_class_data(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("label,x1\n1,1.0\n1,2.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--data", str(path),
                           "--out", str(tmp_path / "m.txt"))
    assert code == 2
    assert "error:" in err


def test_unit_fit_rejects_zero_rows(capsys, tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text("label,x1,x2\n1,1.0,0.0\n2,0,0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", "--data", str(path), "--mode", "unit",
                           "--out", str(tmp_path / "m.txt"))
    assert code == 2
    assert "zero vector" in err


def test_unit_predict_names_bad_line(capsys, tmp_path):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data, mode="unit")
    bad = tmp_path / "bad.csv"
    bad.write_text("label,x1,x2,x3\n1,1,0,0\n1,0,0,0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "predict", "--model", str(model_path),
                           "--data", str(bad))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("command", ["fit", "predict", "eval"])
def test_unit_zero_row_line_counts_blank_lines(capsys, tmp_path, command):
    train = tmp_path / "train.csv"
    train.write_text("label,x1,x2\n1,1,0.1\n1,2,0.3\n2,0.2,1\n2,0.1,2\n",
                     encoding="utf-8")
    model_path = fit_model(capsys, tmp_path, train, mode="unit")
    bad = tmp_path / "bad.csv"
    bad.write_text("label,x1,x2\n1,1,0\n\n\n1,0,0\n", encoding="utf-8")
    if command == "fit":
        argv = ["--mode", "unit", "--out", str(tmp_path / "again.txt")]
    else:
        argv = ["--model", str(model_path)]
    code, out, err = run_cli(capsys, command, *argv, "--data", str(bad))
    assert code == 2
    assert out == ""
    assert "zero vector at line 5" in err


def test_unit_zero_row_line_counts_lines_across_read_blocks(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.csv"
    # lines: header, 1,1,0, blank, 2,0.5,1 ended by \x0b, blank, 1,0,0
    bad.write_text("label,x1,x2\n1,1,0\n\n2,0.5,1\x0b\n1,0,0\n", encoding="utf-8")
    monkeypatch.setattr(datasets, "_READ_BYTES", 1)
    code, out, err = run_cli(capsys, "fit", "--mode", "unit", "--out",
                             str(tmp_path / "m.txt"), "--data", str(bad))
    assert code == 2
    assert out == ""
    assert "zero vector at line 6" in err


@pytest.mark.parametrize("where", ["data", "model"])
def test_bytes_that_are_not_utf8_exit_2_naming_the_line(capsys, tmp_path, where):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    path = data if where == "data" else model_path
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 2
    assert out == ""
    assert err == "error: line 3: invalid UTF-8 byte 0xff\n"


def test_predict_empty_data(capsys, tmp_path):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    empty = tmp_path / "empty.csv"
    empty.write_text("label,x1,x2,x3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(empty))
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_header_only_data_of_another_width_exits_2(capsys, tmp_path, command):
    model_path = fit_model(capsys, tmp_path, gen_data(capsys, tmp_path))
    empty = tmp_path / "empty.csv"
    empty.write_text("label,x1,x2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--model", str(model_path),
                             "--data", str(empty))
    assert code == 2
    assert out == ""
    assert err == "error: vectors of length 2 vs model dim 3\n"


def test_eval_report(capsys, tmp_path):
    data = gen_data(capsys, tmp_path, per_class=400)
    model_path = fit_model(capsys, tmp_path, data)
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--data", str(data))
    assert code == 0, err
    fields = dict(line.split("=", 1) for line in out.splitlines())
    expected_keys = [
        "n", "mode", "rows", "p1", "p2", "enr_correct", "enr_error",
        "total_energy", "region_energy", "empirical_quality", "accuracy",
        "sandwich_lower_slack", "sandwich_upper_slack", "sandwich_ok",
    ]
    assert list(fields) == expected_keys
    assert fields["n"] == "3" and fields["rows"] == "800"
    assert fields["mode"] == "raw"
    total = float(fields["total_energy"])
    conserved = float(fields["enr_correct"]) + float(fields["enr_error"])
    assert conserved == pytest.approx(total, rel=1e-12)
    assert 0.0 <= float(fields["accuracy"]) <= 1.0
    # model was fit on this very data, so the sandwich holds exactly
    assert fields["sandwich_ok"] == "true"
    assert float(fields["sandwich_lower_slack"]) >= -1e-9
    assert float(fields["sandwich_upper_slack"]) >= -1e-9


# n = 64 with a ramp signal, -3.0, -2.9, ..., 3.3: in trace and centered
# mode, eval once read a negative upper slack on the very file it was fit on
_RAMP = ",".join(f"{(i - 30) / 10:.1f}" for i in range(64))


@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_eval_on_the_fitted_file_holds_the_sandwich_in_every_mode(capsys, tmp_path, mode):
    data = tmp_path / "ramp.csv"
    code, out, err = run_cli(capsys, "gen-example2", "--n", "64", f"--a={_RAMP}",
                             "--sigma2", "1", "--per-class", "500", "--seed", "5",
                             "--out", str(data))
    assert code == 0, err
    model_path = fit_model(capsys, tmp_path, data, mode)
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(data))
    assert code == 0, err
    fields = {key: float(value) for key, value in (line.split("=", 1) for line in out.splitlines())
              if key not in ("mode", "sandwich_ok")}
    scale = max(1.0, abs(fields["total_energy"]))
    # the slacks compare the energies the decision compared, and a wrongly
    # decided row never has the larger own energy
    assert fields["sandwich_lower_slack"] >= -1e-9 * scale
    assert fields["sandwich_upper_slack"] >= -1e-9 * scale
    assert out.endswith("sandwich_ok=true\n")
    # Enr_C from the class moments, p_i tr(P_i M_i), is the prior-weighted
    # mean of g_i over the same rows that the scoring pass sums
    assert abs(fields["enr_correct"] - fields["empirical_quality"]) <= 1e-12 * scale


def test_eval_unit_mode_uses_unit_normalized_moments(capsys, tmp_path):
    data_path = gen_data(capsys, tmp_path, per_class=50)
    model_path = fit_model(capsys, tmp_path, data_path, mode="unit")
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path),
                             "--data", str(data_path))
    assert code == 0, err
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["mode"] == "unit"
    model, data = load_model(model_path), load_csv(data_path)
    priors = (model.prior1, model.prior2)

    def report(rows):
        return energy_report(model, *(
            ClassSpec(prior, estimate_moments(rows.class_features(label)))
            for label, prior in zip((1, 2), priors)))

    unit, raw = report(unit_normalized(data)), report(data)
    assert float(fields["enr_correct"]) == unit.enr_correct
    assert float(fields["enr_error"]) == unit.enr_error
    assert unit.enr_correct != raw.enr_correct


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_one_class_data_names_the_missing_label(capsys, tmp_path, command):
    model_path = fit_model(capsys, tmp_path, gen_data(capsys, tmp_path))
    one = tmp_path / "one.csv"
    one.write_text("label,x1,x2,x3\n1,1,0,0\n1,0,1,0\n", encoding="utf-8")
    if command == "fit":
        argv = ["--out", str(tmp_path / "again.txt")]
    else:
        argv = ["--model", str(model_path)]
    code, out, err = run_cli(capsys, command, *argv, "--data", str(one))
    assert code == 2
    assert out == ""
    assert err == "error: no samples with label 2\n"


def test_fit_priors_from_data_on_empty_data_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,x1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "fit", "--data", str(empty), "--priors-from-data",
                             "--out", str(tmp_path / "m.txt"))
    assert code == 2
    assert err == "error: no samples with label 1\n"
    assert not (tmp_path / "m.txt").exists()


def test_spectrum_rejects_a_spectrum_that_contradicts_the_rank(capsys, tmp_path):
    model_path = fit_model(capsys, tmp_path, gen_data(capsys, tmp_path))
    lines = model_path.read_text(encoding="utf-8").splitlines()
    assert lines[-3].startswith("spectrum=") and lines[-2] != "rank1=0"
    n = len(lines[-3].split(","))
    lines[-3] = "spectrum=" + ",".join(["-1"] * n)
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", "--model", str(model_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "spectrum" in err


_REFIT = "error: unsupported format_version '1'; refit the model\n"


@pytest.mark.parametrize("command", ["predict", "eval", "spectrum"])
def test_a_v1_model_is_refused_with_advice_to_refit(capsys, tmp_path, command):
    model_path = tmp_path / "model.txt"
    model_path.write_text(V1_MODEL, encoding="utf-8")
    data = ["--data", str(gen_data(capsys, tmp_path))] if command != "spectrum" else []
    assert run_cli(capsys, command, "--model", str(model_path), *data) == (2, "", _REFIT)


@pytest.mark.parametrize("header, err", [
    ("format_version=3\n", "error: unsupported format_version '3'; refit the model\n"),
    ("", "error: model file is missing its format_version field\n"),
], ids=["version-3", "no-version"])
def test_spectrum_names_a_model_of_no_readable_version(capsys, tmp_path, header, err):
    model_path = fit_model(capsys, tmp_path, gen_data(capsys, tmp_path))
    text = model_path.read_text(encoding="utf-8")
    model_path.write_text(text.replace("format_version=2\n", header), encoding="utf-8")
    assert run_cli(capsys, "spectrum", "--model", str(model_path)) == (2, "", err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p1", ["1e308,0,0,1e308", "1e200,0,0,0"])
def test_spectrum_refuses_a_v1_model_with_huge_entries_in_one_line(capsys, tmp_path, p1):
    # the version is refused before any P1 entry is read, so nothing overflows
    model_path = tmp_path / "model.txt"
    model_path.write_text(V1_MODEL.replace("P1=1,0,0,0", f"P1={p1}"), encoding="utf-8")
    assert run_cli(capsys, "spectrum", "--model", str(model_path)) == (2, "", _REFIT)


def test_spectrum_output(capsys, tmp_path):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    code, out, err = run_cli(capsys, "spectrum", "--model", str(model_path))
    assert code == 0
    values = [float(v) for v in out.split()]
    model = load_model(model_path)
    np.testing.assert_array_equal(values, model.spectrum)
    assert np.all(np.diff(values) <= 0.0)


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "no-such-command")
    assert code == 1
    assert "usage" in err

    code, _, err = run_cli(capsys, "fit", "--data", "x.csv")  # missing --out
    assert code == 1

    code, _, err = run_cli(capsys, "gen-example2", "--n", "2", "--a", "nope",
                           "--sigma2", "1", "--per-class", "1", "--seed", "0",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1

    gen_args = {
        "gen-example1": ["--n", "2", "--m1", "1,0", "--m2", "0,1"],
        "gen-example2": ["--n", "2", "--a", "1,0", "--sigma2", "1"],
    }
    for command, args in gen_args.items():
        for per_class, seed in (("-1", "0"), ("1", "-3"), ("1.5", "0"), ("1", "x")):
            code, _, err = run_cli(capsys, command, *args, "--per-class", per_class,
                                   "--seed", seed, "--out", str(tmp_path / "x.csv"))
            assert code == 1, (command, per_class, seed)
            assert "usage" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "x.csv", "--p1", "0.3", "--priors-from-data"],
    ["gen-example1", "--n", "2", "--m1", "1,0", "--m2", "0,1", "--sigma2", "2",
     "--cov", "2,0;0,2", "--per-class", "1", "--seed", "0"],
    ["gen-example1", "--n", "2", "--m1", "1,0", "--m2", "0,1", "--cov", "2,0.5;0.5",
     "--per-class", "1", "--seed", "0"],
    ["gen-example1", "--n", "2", "--m1", "1,0", "--m2", "0,1", "--cov", "2,x;0,1",
     "--per-class", "1", "--seed", "0"],
])
def test_conflicting_or_malformed_options_exit_1(capsys, tmp_path, argv):
    out_path = tmp_path / "x.out"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert "usage" in err and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, code", [
    # a negative dimension is a usage error, not np.eye(-1)'s ValueError
    (["gen-example1", "--n", "-1", "--m1", "1,0", "--m2", "0,1",
      "--per-class", "2"], 1),
    (["gen-example2", "--n", "-1", "--a", "1,0", "--sigma2", "1", "--per-class", "2"], 1),
    # at least 6 bytes a row: 1.2 PB cannot fit, so no file is made
    (["gen-example2", "--n", "2", "--a", "1,0", "--sigma2", "1",
      "--per-class", "99999999999999"], 2),
])
def test_bad_generator_sizes_exit_without_traceback(capsys, tmp_path, argv, code):
    out_path = tmp_path / "x.csv"
    got, out, err = run_cli(capsys, *argv, "--seed", "0", "--out", str(out_path))
    assert got == code
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("target", ["new", "existing", "devnull"])
@pytest.mark.parametrize("spare", [-1, 0])
def test_gen_example2_checks_room_only_for_a_regular_file(capsys, tmp_path, monkeypatch,
                                                          target, spare):
    # 4 rows of width 2 need at least 24 bytes; the file to be replaced
    # counts as free space, so `spare` bytes beyond the need are left
    out_path = {"new": tmp_path / "x.csv", "existing": tmp_path / "x.csv",
                "devnull": Path(os.devnull)}[target]
    old = b"label,x1,x2\n1,5,6\n"
    if target == "existing":
        out_path.write_bytes(old)
    free = 24 - (len(old) if target == "existing" else 0) + spare
    monkeypatch.setattr(datasets.shutil, "disk_usage",
                        lambda path: SimpleNamespace(free=free))
    code, out, err = run_cli(capsys, "gen-example2", "--n", "2", "--a", "1,0", "--sigma2",
                             "1", "--per-class", "2", "--seed", "0", "--out", str(out_path))
    if spare < 0 and target != "devnull":
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 28] 4 rows need at least 24 bytes, 23 are free: " \
                      f"'{out_path}'\n"
        # the target is left as it was, and no file is made
        assert sorted(tmp_path.iterdir()) == ([out_path] if target == "existing" else [])
        if target == "existing":
            assert out_path.read_bytes() == old
    else:
        assert (code, out, err) == (0, "wrote 4 rows\n", "")
        if target != "devnull":
            assert len(load_csv(out_path)) == 4


@pytest.mark.parametrize("sigma2", ["inf", "nan"])
def test_gen_example1_nonfinite_sigma2_prints_only_the_error(capsys, tmp_path, sigma2):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "gen-example1", "--n", "2", "--m1", "1,0", "--m2",
                             "0,1", "--sigma2", sigma2, "--per-class", "3", "--seed", "0",
                             "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err == "error: matrix entries must be finite\n"
    assert not out_path.exists()


def test_gen_example1_takes_the_largest_sigma2_quietly(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "gen-example1", "--n", "2", "--m1", "1,0", "--m2",
                             "0,1", "--sigma2", "1e308", "--per-class", "2", "--seed", "0",
                             "--out", str(out_path))
    assert (code, out, err) == (0, "wrote 4 rows\n", "")
    assert len(load_csv(out_path)) == 4


def test_gen_example1_takes_orthogonal_means_near_1e200_quietly(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, "gen-example1", "--n", "2", "--m1", "1e200,0", "--m2",
                             "0,1e200", "--per-class", "2", "--seed", "0",
                             "--out", str(out_path))
    assert (code, out, err) == (0, "wrote 4 rows\n", "")
    np.testing.assert_array_equal(np.abs(load_csv(out_path).features).max(axis=1), 1e200)


@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_fit_on_rows_near_1e200(capsys, tmp_path, mode):
    # unit mode scales each row to the sphere first; in the other modes the
    # class moments overflow, which is a data error
    data, model = tmp_path / "big.csv", tmp_path / "model.txt"
    run_cli(capsys, "gen-example1", "--n", "2", "--m1", "1e200,0", "--m2", "0,1e200",
            "--per-class", "3", "--seed", "0", "--out", str(data))
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--mode", mode,
                             "--out", str(model))
    if mode == "unit":
        assert (code, out, err) == (0, f"wrote {model}\n", "")
        assert "trK1=1\ntrK2=1\n" in model.read_text()
        assert_17g_model(capsys, model)
    else:
        assert (code, out, err) == (
            2, "", "error: class moments overflow the float range; rescale the rows\n")


@pytest.mark.parametrize("scale", [1.0, 2.0**-20], ids=["1", "2^-20"])
def test_raw_fit_does_not_depend_on_the_data_scale(capsys, tmp_path, scale):
    # every feature times 2^-20, which is exact, once fit rank1=0 and read
    # accuracy 0.5: an absolute floor in eps discarded the one eigenvalue
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"seed{seed}.csv"
        code, out, err = run_cli(capsys, "gen-example1", "--n", "4", "--m1", "3,0,0,0",
                                 "--m2", "0,3,0,0", "--per-class", "5000", "--seed", str(seed),
                                 "--out", str(path))
        assert code == 0, err
        data = load_csv(path)
        datasets.save_csv(datasets.LabeledDataset(data.labels, data.features * scale), path)
        paths.append(path)
    model_path = fit_model(capsys, tmp_path, paths[0])
    assert "rank1=1\n" in model_path.read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(paths[1]))
    assert code == 0, err
    assert "\naccuracy=0.9304\n" in out


@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_fit_refuses_a_correlation_trace_beyond_the_float_range(capsys, tmp_path, mode):
    # class 1's moments are finite, but its correlation trace, about
    # 2.3e308, is not; unit mode scales each row to the sphere first
    data, model = tmp_path / "big.csv", tmp_path / "model.txt"
    data.write_text("label,x1,x2\n1,1e154,1.1e154\n1,1.2e154,1e154\n2,1,2\n2,2,1\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--mode", mode,
                             "--out", str(model))
    if mode == "unit":
        assert (code, out, err) == (0, f"wrote {model}\n", "")
        assert_17g_model(capsys, model)
    else:
        assert (code, out, err) == (
            2, "", "error: class moments overflow the float range; rescale the rows\n")
        assert not model.exists()
    # eval with a model of ordinary rows: in raw and centered mode the
    # class sums of the energies overflow first
    code, out, err = run_cli(capsys, "eval", "--model", str(train_model(capsys, tmp_path, mode)),
                             "--data", str(data))
    if mode == "unit":
        assert (code, err) == (0, "") and out.endswith("sandwich_ok=true\n")
    else:
        what = "class moments" if mode == "trace" else "sample energies"
        assert (code, out, err) == (
            2, "", f"error: {what} overflow the float range; rescale the rows\n")


@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_predict_decides_rows_at_extreme_scales(capsys, tmp_path, mode):
    # one direction at three scales: both energies of the second row
    # overflow a float, both of the third fall below the normal range
    model, data = train_model(capsys, tmp_path, mode), tmp_path / "scaled.csv"
    data.write_text("label,x1,x2\n1,2,0.1\n1,2e160,1e159\n1,2e-165,1e-166\n")
    code, out, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(data))
    if mode == "unit":  # unit mode keeps its absolute zero-norm threshold
        assert (code, out, err) == (2, "", "error: zero vector at line 4 of the data file "
                                           "cannot be unit-normalized\n")
        data.write_text("label,x1,x2\n1,2,0.1\n1,2e160,1e159\n")
        code, out, err = run_cli(capsys, "predict", "--model", str(model), "--data", str(data))
        assert (code, err, len(set(out.splitlines())), len(out.splitlines())) == (0, "", 1, 2)
    elif mode == "centered":  # not scale-free: x - m_i is scored
        assert (code, len(out.split()), err) == (0, 3, "")
    else:
        assert (code, out, err) == (0, "1\n1\n1\n", "")


_FLOW_DATA = {
    "example2": ["gen-example2", "--n", "16", "--a=" + ",".join(["0.5"] * 16), "--sigma2", "1",
                 "--per-class", "500", "--seed", "3"],
    "cov": ["gen-example1", "--n", "3", "--m1", "1,0,0", "--m2", "0,2,0",
            "--cov", "2,0.5,0;0.5,1,0;0,0,1", "--per-class", "500", "--seed", "5"],
}


def _spelled(text):
    """CSV bytes with each row that has a leading zero to drop, in turn, ended
    by CRLF, labeled +1 or 01, or followed by a blank line, at its offset."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        at = line.find(b",0.") + 1 or line.find(b",-0.") + 2
        if at > 1:
            line = line[:at] + line[at + 1:]
            lines[i] = (line[:-1] + b"\r\n", b"+" + line, b"0" + line, line + b"\n")[i % 4]
    return b"".join(lines)


@pytest.mark.parametrize("source", sorted(_FLOW_DATA))
@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_a_multi_block_flow_writes_17g_models_and_reads_any_spelling(capsys, tmp_path,
                                                                    monkeypatch, source, mode):
    data, spelled = tmp_path / "data.csv", tmp_path / "spelled.csv"
    assert run_cli(capsys, *_FLOW_DATA[source], "--out", str(data))[0] == 0
    spelled.write_bytes(_spelled(data.read_bytes()))
    text, rows = spelled.read_bytes(), len(load_csv(data))
    assert len(text) == data.stat().st_size
    assert min(text.count(s) for s in (b"\r\n", b"\n\n", b"\n+", b"\n0")) > rows // 10
    monkeypatch.setattr(datasets, "_READ_BYTES", 1 << 12)
    assert len(list(datasets._line_blocks(data))) > 10
    model = fit_model(capsys, tmp_path, data, mode)
    assert_17g_model(capsys, model)
    assert fit_model(capsys, tmp_path, spelled, mode, "again.txt").read_bytes() == \
        model.read_bytes()
    for command, lines in (("predict", rows), ("eval", 14)):
        canonical, other = (run_cli(capsys, command, "--model", str(model), "--data", str(path))
                            for path in (data, spelled))
        assert canonical == other
        assert (canonical[0], len(canonical[1].splitlines()), canonical[2]) == (0, lines, "")


# Runs each command of the JSON list in argv[1] with 4 KiB read blocks.
_CHAIN_CHILD = """
import contextlib, json, os, sys
from energydisc import cli, datasets
datasets._READ_BYTES = 1 << 12
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    for argv in json.loads(sys.argv[1]):
        assert cli.run(argv) == 0, argv
"""


def test_the_cli_chain_is_quiet_in_dev_mode_with_warnings_as_errors(tmp_path):
    # any warning, an unclosed file among them, is an error printed to stderr
    data, model = str(tmp_path / "data.csv"), str(tmp_path / "model.txt")
    chain = []
    for gen in _FLOW_DATA.values():
        chain.append([*gen, "--out", data])
        for mode in ("raw", "trace", "unit", "centered"):
            chain += [["fit", "--data", data, "--mode", mode, "--out", model],
                      ["predict", "--model", model, "--data", data],
                      ["eval", "--model", model, "--data", data], ["spectrum", "--model", model]]
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", _CHAIN_CHILD,
                           json.dumps(chain)], capture_output=True, text=True, env=subprocess_env(),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("sigma2", ["1e-12", "1", "1e40"])
def test_gen_example2_writes_the_17g_bytes_of_the_values_read_back(capsys, tmp_path, sigma2):
    # entries from 1e-21 to 3e50, written by the exact kernel and by %
    path = tmp_path / "g17.csv"
    assert run_cli(capsys, "gen-example2", "--n", "4", "--a=1e-9,-3e30,0,5", "--sigma2", sigma2,
                   "--per-class", "3000", "--seed", "9", "--out", str(path))[0] == 0
    data = load_csv(path)
    rows = ("%d," % label + ",".join("%.17g" % v for v in row) + "\n"
            for label, row in zip(data.labels.tolist(), data.features.tolist()))
    assert path.read_text(encoding="utf-8") == "label,x1,x2,x3,x4\n" + "".join(rows)


@pytest.mark.parametrize("argv", [
    ["gen-example2", "--n", "2", "--a", "1,0", "--sigma2", "nan"],
    ["gen-example2", "--n", "2", "--a", "1,0", "--sigma2", "inf"],
    ["gen-example2", "--n", "2", "--a", "nan,0", "--sigma2", "1"],
    ["gen-example1", "--n", "2", "--m1", "inf,0", "--m2", "0,1"],
    ["gen-example1", "--n", "2", "--m1", "1,0", "--m2", "0,-inf"],
])
def test_gen_rejects_nonfinite_parameters(capsys, tmp_path, argv):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--per-class", "3", "--seed", "0",
                             "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not out_path.exists()


def test_missing_files_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "predict", "--model",
                           str(tmp_path / "nope.txt"), "--data",
                           str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith("error:")


def test_predict_on_nan_model_exits_2(capsys, tmp_path):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    lines = model_path.read_text(encoding="utf-8").splitlines()
    keys = {"U1=", "U2="}
    assert sum(ln[:3] in keys and "," in ln for ln in lines) == 1
    lines = [ln[:3] + "nan," + ln.split(",", 1)[1] if ln[:3] in keys else ln
             for ln in lines]
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli(capsys, "predict", "--model", str(model_path), "--data", str(data)) == (
        2, "", "error: model fields must be finite numbers\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_predict_on_nonfinite_data_exits_2(capsys, tmp_path, value):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    bad = tmp_path / "bad.csv"
    bad.write_text(f"label,x1,x2,x3\n1,1,0,0\n\n2,0,{value},1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "line 4" in err
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_every_workflow_run_block_parses_and_names_paths_that_exist():
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text(encoding="utf-8"))
    blocks = [step["run"] for step in workflow["jobs"]["tests"]["steps"] if "run" in step]
    assert len(blocks) == 5
    for block in blocks:
        script = re.sub(r"\$\{\{[^}]*\}\}", "x", block)  # the runner fills these in
        proc = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), block
        paths = re.findall(r"(?<![\w$./-])(?:[\w.-]+/)+[\w.-]+|(?<=PYTHONPATH=)[\w.-]+", script)
        assert all((root / path).exists() for path in paths), (paths, block)


def test_console_script_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["energydisc"]
    # what the installer's generated launcher does with the declared entry point
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        "sys.argv[0] = 'energydisc'\n"
        f"sys.exit(EntryPoint('energydisc', {declared!r}, 'console_scripts').load()())\n"
    )
    commands = [[sys.executable, "-c", launcher]]
    installed = entry_points(group="console_scripts", name="energydisc")
    if installed:
        assert {ep.value for ep in installed} == {declared}
        exe = shutil.which("energydisc")
        assert exe is not None, "energydisc is installed but not on PATH"
        commands.append([exe])
    for i, command in enumerate(commands):
        out = tmp_path / f"cli{i}.csv"
        proc = subprocess.run(
            [*command, "gen-example2", "--n", "2", "--a", "1,0", "--sigma2", "1",
             "--per-class", "5", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "wrote 10 rows"
        assert out.exists()
