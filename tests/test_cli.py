import os
import shutil
import subprocess
import sys
from importlib.metadata import entry_points
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from energydisc import cli, datasets
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
from helpers import format_model_v1, subprocess_env


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


@pytest.mark.parametrize("labels_per_write", [7, 1 << 16])
def test_predict_prints_one_label_line_per_row(capsys, tmp_path, monkeypatch,
                                               labels_per_write):
    data = gen_data(capsys, tmp_path, per_class=25)
    model_path = fit_model(capsys, tmp_path, data)
    monkeypatch.setattr(cli, "_LABELS_PER_WRITE", labels_per_write)
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 0, err
    labels = decide_batch(load_model(model_path), load_csv(data).features)
    assert out == "".join(f"{int(label)}\n" for label in labels)


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


def test_predict_header_only_data_of_another_width_exits_2(capsys, tmp_path):
    model_path = fit_model(capsys, tmp_path, gen_data(capsys, tmp_path))
    empty = tmp_path / "empty.csv"
    empty.write_text("label,x1,x2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p1", ["1e308,0,0,1e308", "1e200,0,0,0"])
def test_spectrum_refuses_a_v1_projector_with_huge_entries_in_one_line(capsys, tmp_path, p1):
    # neither the trace nor P P^T may overflow before the matrix is refused
    model_path = tmp_path / "model.txt"
    model_path.write_text("format_version=1\nn=2\nmode=raw\np1=0.5\np2=0.5\ntrK1=1\n"
                          f"trK2=1\nm1=0,0\nm2=0,0\nspectrum=1,0\nP1={p1}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", "--model", str(model_path))
    assert (code, out) == (2, "")
    assert err == "error: projector matrix is not an orthogonal projection\n"


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
def test_gen_example2_checks_room_only_for_a_regular_file(capsys, tmp_path, monkeypatch,
                                                          target):
    out_path = {"new": tmp_path / "x.csv", "existing": tmp_path / "x.csv",
                "devnull": Path(os.devnull)}[target]
    if target == "existing":
        out_path.write_bytes(b"\0" * 24)  # 4 rows of width 2 need at least 24 bytes
    monkeypatch.setattr(datasets.shutil, "disk_usage", lambda path: SimpleNamespace(free=0))
    code, out, err = run_cli(capsys, "gen-example2", "--n", "2", "--a", "1,0", "--sigma2",
                             "1", "--per-class", "2", "--seed", "0", "--out", str(out_path))
    if target == "new":
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 28] 4 rows need at least 24 bytes, 0 are free: " \
                      f"'{out_path}'\n"
        assert not out_path.exists()
    else:
        assert (code, out, err) == (0, "wrote 4 rows\n", "")


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


def _predict_on_nan_model(capsys, tmp_path, version):
    data = gen_data(capsys, tmp_path)
    model_path = fit_model(capsys, tmp_path, data)
    text = model_path.read_text(encoding="utf-8")
    if version == 1:
        text = format_model_v1(load_model(model_path))
    lines = text.splitlines()
    keys = {"P1="} if version == 1 else {"U1=", "U2="}
    assert sum(ln[:3] in keys and "," in ln for ln in lines) == 1
    lines = [ln[:3] + "nan," + ln.split(",", 1)[1] if ln[:3] in keys else ln
             for ln in lines]
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "predict", "--model", str(model_path),
                             "--data", str(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_predict_on_nan_model_exits_2(capsys, tmp_path):
    _predict_on_nan_model(capsys, tmp_path, version=1)


def test_predict_on_nan_v2_model_exits_2(capsys, tmp_path):
    _predict_on_nan_model(capsys, tmp_path, version=2)


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
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "wrote 10 rows"
        assert out.exists()
