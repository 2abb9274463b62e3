"""The one-pass CLI: fit, predict and eval read a data file once, in
blocks, through the running moment sums and sample-functional sums, and
gen-example2 writes its rows block by block.

The reference formulas here are the whole-array estimates the sums
replace; a sum of one block must give their floats bit for bit, and a
sum of many blocks must stay as accurate as they are.
"""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from energydisc import (
    ClassSpec,
    DimensionMismatch,
    InvalidParameter,
    LabeledDataset,
    NormalizationMode,
    ParseError,
    analytic_moments,
    cli,
    datasets,
    empirical_quality,
    estimate_moments,
    fit,
    gen_example2,
    load_csv,
    region_energy,
    save_csv,
    sym_matrix,
)
from energydisc.classifier import _labels, _SampleSums, _sample_functionals, discriminants
from energydisc.moments import _MomentSum
from helpers import subprocess_env
from test_datasets import _BLOCK_EDGE_CASES, _EDGE_CASES


def reference_moments(x):
    """The whole-array estimate: mean, K = R + m m^T, R = centered Gram / N."""
    mean = x.mean(axis=0)
    centered = x - mean
    covariance = sym_matrix(centered.T @ centered / x.shape[0])
    return mean, sym_matrix(covariance + np.outer(mean, mean)), covariance


def reference_functionals(clf, data, priors):
    """One scoring pass over all rows, then each class's means and variance."""
    g1, g2 = discriminants(clf, data.features)
    hits = _labels(g1, g2) == data.labels
    scored = np.column_stack((g1, g2, hits))
    quality = indicator = region = variance = 0.0
    for label, prior in zip((1, 2), priors):
        if prior == 0.0:
            continue
        g1, g2, won = scored[data.labels == label].T
        g = (g1, g2)[label - 1]
        kept = g * won
        quality += prior * float(g.mean())
        indicator += prior * float(won.mean())
        region += prior * float(kept.mean())
        if kept.size > 1:
            variance += prior**2 * float(kept.var(ddof=1)) / kept.size
    return quality, indicator, region, float(np.sqrt(variance)), float(np.mean(hits))


def _blocks(x, size):
    return [x[start:start + size] for start in range(0, x.shape[0], size)]


# -- the moment sum ----------------------------------------------------------


@pytest.mark.parametrize("rows, n, offset", [(1, 3, 0.0), (2, 1, 5.0), (17, 5, 0.0),
                                             (400, 6, 1e6), (1000, 32, 3.0)])
def test_estimate_moments_gives_the_whole_array_floats(rows, n, offset):
    rng = np.random.default_rng(rows + n)
    x = offset + rng.standard_normal((rows, n)) * rng.uniform(0.1, 4.0, n)
    s = estimate_moments(x)
    mean, correlation, covariance = reference_moments(x)
    for got, want in ((s.mean, mean), (s.correlation, correlation),
                      (s.covariance, covariance)):
        np.testing.assert_array_equal(got, want)
    assert s.count == rows


@pytest.mark.parametrize("block", [1, 7, 400])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_merged_moments_match_extended_precision(offset, block):
    # the gate of test_estimate_correlation_matches_extended_precision,
    # with the rows added in blocks
    rng = np.random.default_rng(43)
    n = 6
    x = offset * rng.uniform(-1.0, 1.0, n) + rng.standard_normal((400, n)) * 2.0
    total = _MomentSum()
    for part in _blocks(x, block):
        total.add(part)
    s = total.summary()
    assert s.count == 400
    xl = x.astype(np.longdouble)
    reference = xl.T @ xl / x.shape[0]
    err = np.max(np.abs(s.correlation.astype(np.longdouble) - reference))
    assert err <= 1e-13 * np.max(np.abs(reference))
    # R loses digits only as the square root of its condition |m|^2 / sigma^2
    # (the raw sum of x x^T minus N m m^T would lose them as the condition)
    centered = xl - xl.mean(axis=0)
    reference = centered.T @ centered / x.shape[0]
    err = np.max(np.abs(s.covariance.astype(np.longdouble) - reference))
    scale = np.max(np.abs(reference))
    assert err <= 1e-14 * scale * max(1.0, np.max(np.abs(s.mean)) / np.sqrt(scale))


def test_moment_sum_skips_empty_blocks():
    x = np.random.default_rng(2).standard_normal((9, 3))
    total = _MomentSum()
    for part in (x[:0], x, x[:0]):
        total.add(part)
    np.testing.assert_array_equal(total.summary().correlation, estimate_moments(x).correlation)


# -- the sample-functional sum -----------------------------------------------


def _scored_data(rows, offset, seed):
    data = gen_example2(4, [1.5, 0.0, 1.0, -0.5], 0.8, per_class=rows // 2, seed=seed)
    data = LabeledDataset(data.labels, data.features + offset)
    specs = [ClassSpec(p, estimate_moments(data.class_features(label)))
             for label, p in ((1, 0.4), (2, 0.6))]
    return data, specs


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("priors", [(0.4, 0.6), (1.0, 0.0), (0.0, 1.0)])
def test_sample_functionals_give_the_whole_array_floats(mode, priors):
    data, specs = _scored_data(600, 0.0, 8)
    clf = fit(*specs, mode)
    assert _sample_functionals(clf, data, priors) == reference_functionals(clf, data, priors)
    if priors == (0.4, 0.6):
        value, stderr = region_energy(clf, data, return_stderr=True)
        want = reference_functionals(clf, data, (clf.prior1, clf.prior2))
        assert (value, stderr) == want[2:4]
        assert empirical_quality(clf, data) == want[0]
        assert empirical_quality(clf, data, indicator=True) == want[1]


@pytest.mark.parametrize("block", [1, 7, 400])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_merged_kept_variance_matches_extended_precision(offset, block):
    # P_1 = I, so every row is decided 1 and keeps its energy |x|^2, whose
    # condition mean^2 / variance grows with the offset as |x|^2 does
    n = 4
    clf = fit(ClassSpec(0.5, analytic_moments(np.zeros(n), np.eye(n))),
              ClassSpec(0.5, analytic_moments(np.zeros(n), 0.5 * np.eye(n))))
    assert clf.proj1.rank == n
    rng = np.random.default_rng(9)
    x = offset * rng.uniform(-1.0, 1.0, n) + rng.standard_normal((1000, n)) * 2.0
    labels = np.ones(1000, dtype=int)
    sums = _SampleSums(clf)
    for start in range(0, 1000, block):
        sums.add(labels[start:start + block], x[start:start + block])
    count, wins, mean, m2 = sums.count[0], sums.won[0], sums.kept[0], sums.m2[0]
    assert count == wins == 1000 and sums.count[1] == 0
    kept = discriminants(clf, x)[0].astype(np.longdouble)
    assert abs(mean - kept.mean()) <= 1e-13 * np.max(np.abs(kept))
    # the moment gate's bound, relative to the raw second moment, and the
    # square-root-of-condition loss relative to the variance itself
    variance = np.var(kept, ddof=1)
    err = abs(m2 / (count - 1) - variance)
    assert err <= 1e-13 * (variance + kept.mean() ** 2)
    assert err <= 1e-14 * variance * max(1.0, abs(kept.mean()) / np.sqrt(variance))
    want = reference_functionals(clf, LabeledDataset(labels, x), (1.0, 0.0))
    got = sums.functionals((1.0, 0.0))
    assert got[1] == want[1] and got[4] == want[4]  # counts over counts do not move
    np.testing.assert_allclose(got, want, rtol=1e-9)


# -- gen-example2 in blocks ----------------------------------------------------


@pytest.mark.parametrize("block_rows", [1, 5, 64, 10**6])
@pytest.mark.parametrize("per_class", [0, 1, 37])
def test_example2_blocks_draw_the_rows_of_gen_example2(block_rows, per_class):
    args = (3, [0.3, -1.7, 2.5], 1.5, per_class, 21)
    whole = gen_example2(*args)
    blocks = list(datasets._example2_blocks(*args, block_rows=block_rows))
    assert len(blocks) == max(1, -(-2 * per_class // block_rows))
    labels, features = (np.concatenate(parts) for parts in zip(*blocks))
    np.testing.assert_array_equal(labels, whole.labels)
    np.testing.assert_array_equal(features, whole.features)
    assert features.shape == (2 * per_class, 3)


@pytest.mark.parametrize("write_floats", [1, 7, 1 << 16])
def test_gen_example2_writes_the_bytes_of_save_csv(monkeypatch, tmp_path, write_floats):
    args = ["--n", "3", "--a", "0.3,-1.7,2.5", "--sigma2", "1.5", "--per-class", "40",
            "--seed", "21"]
    save_csv(gen_example2(3, [0.3, -1.7, 2.5], 1.5, 40, 21), tmp_path / "whole.csv")
    monkeypatch.setattr(datasets, "_WRITE_FLOATS", write_floats)
    assert _run(["gen-example2", *args, "--out", str(tmp_path / "cli.csv")]) == (
        0, "wrote 80 rows\n", "")
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_save_csv_refuses_blocks_of_another_width(tmp_path):
    blocks = [([1], [[1.0, 2.0]]), ([2], [[1.0]])]
    with pytest.raises(DimensionMismatch, match="width 1 after width 2"):
        save_csv(blocks, tmp_path / "x.csv")
    with pytest.raises(InvalidParameter):
        save_csv([], tmp_path / "y.csv")
    assert not (tmp_path / "y.csv").exists()


# -- the CLI reads once, never the whole array ---------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


_MODES = [mode.value for mode in NormalizationMode]
_TRAIN = {1: "label,x1\n1,2\n1,3\n2,-1\n2,0.5\n",
          2: "label,x1,x2\n1,2,0.1\n1,3,-0.2\n2,0.1,1\n2,-0.3,2\n"}


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Model files fitted in each mode, for data of width 1 and of width 2."""
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for n, text in _TRAIN.items():
        data = root / f"train{n}.csv"
        data.write_text(text, encoding="utf-8")
        for mode in _MODES:
            paths[n, mode] = root / f"model{n}_{mode}.txt"
            assert _run(["fit", "--data", str(data), "--mode", mode,
                         "--out", str(paths[n, mode])])[0] == 0
    return paths


def _commands(data, models, out):
    text = data.read_bytes()
    n = 2 if text.startswith(b"label,x1,x2") else 1
    for mode in _MODES:
        yield ["fit", "--data", str(data), "--mode", mode, "--out", str(out)]
        yield ["fit", "--data", str(data), "--mode", mode, "--priors-from-data",
               "--out", str(out)]
        yield ["predict", "--model", str(models[n, mode]), "--data", str(data)]
        yield ["eval", "--model", str(models[n, mode]), "--data", str(data)]


def _eval_fields(out):
    return [line.split("=", 1) for line in out.splitlines()]


def _assert_close_models(text, reference):
    """Model texts that differ at most in the last digits of their floats."""
    fields, want = _eval_fields(text), _eval_fields(reference)
    assert [k for k, _ in fields] == [k for k, _ in want]
    for (key, a), (_, b) in zip(fields, want):
        if key in ("format_version", "n", "mode", "p1", "p2", "rank1"):
            assert a == b, key
        elif a != b:
            np.testing.assert_allclose(np.array(a.split(","), dtype=float),
                                       np.array(b.split(","), dtype=float),
                                       rtol=1e-12, atol=1e-14, err_msg=key)


_STREAM_CASES = [pytest.param(p.values[0], id=p.id) for p in _EDGE_CASES + _BLOCK_EDGE_CASES] + [
    # a non-finite row in an early block before a bad line in a later one
    pytest.param("label,x1,x2\n1,1,2\n2,nan,1\n1,2,2\n2,1,1\n1,x,1\n", id="nan-then-bad-later"),
    # a zero row before a non-finite one: the non-finite row is named
    pytest.param("label,x1,x2\n1,1,2\n2,0,0\n1,2,2\n2,1,inf\n", id="zero-then-nan"),
    pytest.param("label,x1,x2\n1,1,2\n2,0,0\n1,2,2\n", id="zero"),
    pytest.param("label,x1,x2\n2,1,2\n2,0,1\n", id="no-label-1"),
    pytest.param("label,x1,x2\n1,1,2\n2,3,1\n1,2,2\n2,1,1\n", id="good"),
    pytest.param("label,x1,x2,x3\n1,1,2,3\n2,3,1,1\n1,5,x,1\n", id="wrong-width-then-bad"),
    pytest.param("label,x1,x2,x3\n1,1,2,3\n2,3,1,1\n", id="wrong-width"),
]


@pytest.mark.parametrize("text", _STREAM_CASES)
def test_every_block_size_gives_the_same_outcome(monkeypatch, tmp_path, models, text):
    data = tmp_path / "data.csv"
    data.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    out = tmp_path / "model.txt"
    try:
        load_csv(data)
        refused = None
    except ParseError as exc:
        refused = f"error: {exc}\n"
    for argv in _commands(data, models, out):
        outcomes = []
        for read_bytes in (datasets._READ_BYTES, 12, 1):
            monkeypatch.setattr(datasets, "_READ_BYTES", read_bytes)
            code, stdout, stderr = _run(argv)
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            outcomes.append((code, stdout, stderr, written))
        monkeypatch.undo()
        first = outcomes[0]
        if refused is not None:
            assert first == (2, "", refused, None), argv
        for other in outcomes[1:]:
            assert other[0] == first[0] and other[2] == first[2], (argv, other, first)
            if argv[0] == "eval" and first[0] == 0:
                keys = [k for k, _ in _eval_fields(first[1])]
                assert [k for k, _ in _eval_fields(other[1])] == keys
                for (key, a), (_, b) in zip(_eval_fields(first[1]), _eval_fields(other[1])):
                    if key in ("n", "mode", "rows", "p1", "p2", "accuracy", "sandwich_ok"):
                        assert a == b, key
                    else:
                        assert float(a) == pytest.approx(float(b), rel=1e-12, abs=1e-14), key
            elif argv[0] == "fit" and first[0] == 0:
                assert other[1] == first[1]
                _assert_close_models(other[3], first[3])
            else:
                assert other[1:] == first[1:], argv


@pytest.mark.parametrize("text, line", [
    ("label,x1,x2\n1,1,2\n2,nan,1\n1,2,2\n2,1,1\n1,x,1\n", "line 6: bad number"),
    ("label,x1,x2\n1,1,2\n2,0,0\n1,2,2\n2,1,inf\n", "line 5: values must be finite numbers"),
])
@pytest.mark.parametrize("read_bytes", [1, 12, 1 << 20])
def test_a_later_error_beats_an_earlier_row(monkeypatch, tmp_path, models, text, line,
                                           read_bytes):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    monkeypatch.setattr(datasets, "_READ_BYTES", read_bytes)
    for argv in _commands(data, models, tmp_path / "model.txt"):
        code, stdout, stderr = _run(argv)
        assert (code, stdout) == (2, "") and stderr.startswith(f"error: {line}"), argv
        assert not (tmp_path / "model.txt").exists()


def test_fit_predict_and_eval_read_the_file_through_a_feed(monkeypatch, tmp_path):
    data = tmp_path / "data.csv"
    assert _run(["gen-example2", "--n", "3", "--a", "1.5,0,1", "--sigma2", "0.8",
                 "--per-class", "50", "--seed", "4", "--out", str(data)])[0] == 0
    monkeypatch.setattr(datasets, "_READ_BYTES", 256)
    real, feeds = datasets.load_csv, []

    def streamed_only(path, feed=None):
        assert feed is not None, "the whole file was loaded"
        feeds.append(0)

        def counted(labels, features):
            feeds[-1] += 1
            feed(labels, features)

        return real(path, counted)

    monkeypatch.setattr(datasets, "load_csv", streamed_only)
    model = tmp_path / "model.txt"
    for argv in (["fit", "--data", str(data), "--mode", "unit", "--out", str(model)],
                 ["predict", "--model", str(model), "--data", str(data)],
                 ["eval", "--model", str(model), "--data", str(data)]):
        code, _, stderr = _run(argv)
        assert code == 0, stderr
    # one pass per command, each over many blocks
    assert len(feeds) == 3 and min(feeds) > 10, feeds


# -- memory does not grow with the rows ----------------------------------------

# Each child runs one command on a small and then on a large data file and
# prints how far its peak resident set grew between the two. Blocks are
# shrunk, so that both files span many of them; the glibc mmap threshold is
# fixed, so the peak does not depend on the heap's history.
_MEMORY_CHILD = """
import os, resource, sys
from energydisc import cli, datasets
datasets._READ_BYTES = 1 << 16
datasets._WRITE_FLOATS = 1 << 12
sys.stdout = open(os.devnull, "w")
half = len(sys.argv) // 2
peaks = []
for argv in (sys.argv[1:half + 1], sys.argv[half + 1:]):
    assert cli.run(argv) == 0
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.__stdout__.write(f"{peaks[1] - peaks[0]}\\n")
"""


def test_peak_memory_does_not_grow_with_the_rows(tmp_path):
    pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in KiB on Linux")
    n, sizes = 16, (1000, 10000)
    a = ",".join(["0.5"] * n)

    def commands(per_class):
        data, model = tmp_path / f"data{per_class}.csv", tmp_path / f"model{per_class}.txt"
        return [["gen-example2", "--n", str(n), f"--a={a}", "--sigma2", "1",
                 "--per-class", str(per_class), "--seed", "3", "--out", str(data)],
                ["fit", "--data", str(data), "--mode", "unit", "--out", str(model)],
                ["predict", "--model", str(model), "--data", str(data)],
                ["eval", "--model", str(model), "--data", str(data)]]

    env = dict(subprocess_env(), MALLOC_MMAP_THRESHOLD_="262144")
    feature_kib = 2 * sizes[1] * n * 8 / 1024
    for small, large in zip(*map(commands, sizes)):
        proc = subprocess.run([sys.executable, "-c", _MEMORY_CHILD, *small, *large],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        growth = int(proc.stdout)
        # predict keeps one byte per row, 20 KiB here
        assert growth < feature_kib / 4, (small[0], growth, feature_kib)
