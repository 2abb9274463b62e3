"""Top-level acceptance checks for the whole package.

Each test prints one `criterion NN: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`). Monte Carlo checks run at fixed
seeds whose margins sit well inside the stated tolerances.
"""

import functools
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from energydisc import (
    ClassSpec,
    EnergyClassifier,
    NormalizationMode,
    analytic_moments,
    complement,
    energy_report,
    estimate_moments,
    expected_quadratic,
    fit,
    gen_example1,
    gen_example2,
    join,
    leq,
    meet,
    membership,
    region_energy,
    snr,
    unit_normalized,
)
from energydisc.datasets import LabeledDataset
from helpers import (
    jacobi_eig,
    max_abs,
    random_projector,
    random_psd,
    random_symmetric,
    subprocess_env,
)

GRID = [
    (n, s2, a2)
    for n in (2, 4, 8, 16)
    for s2 in (0.5, 1.0, 2.0)
    for a2 in (1.0, 4.0)
]


def criterion(num, summary):
    """Print one pass/fail line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d}: FAIL  {summary}")
                raise
            print(f"criterion {num:2d}: PASS  {summary}")

        return wrapper

    return deco


def signal_vector(n, a2):
    """A signal with squared norm a2 spread across all coordinates."""
    v = np.arange(1.0, n + 1.0)
    return v * np.sqrt(a2) / np.linalg.norm(v)


def noise_instance(n, s2, a2):
    a = signal_vector(n, a2)
    c1 = ClassSpec(0.5, analytic_moments(a, s2 * np.eye(n)))
    c2 = ClassSpec(0.5, analytic_moments(np.zeros(n), s2 * np.eye(n)))
    return a, c1, c2


def closed_form_error_energy(n, s2, a2):
    ratio = a2 / (n * s2)
    return (1.0 - 1.0 / n) / (2.0 * (1.0 + ratio)) + 1.0 / (2.0 * n)


@criterion(1, "trace-normalized difference spectrum matches its closed form")
def test_signal_detection_spectrum():
    start = time.perf_counter()
    for n, s2, a2 in GRID:
        _, c1, c2 = noise_instance(n, s2, a2)
        clf = fit(c1, c2, NormalizationMode.TRACE)
        denom = 2.0 * n * (n * s2 + a2)
        expected = np.concatenate(
            [[(n - 1) * a2 / denom], np.full(n - 1, -a2 / denom)]
        )
        np.testing.assert_allclose(clf.spectrum, expected, atol=1e-10)
        assert clf.proj1.rank == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"spectrum grid took {elapsed:.2f}s"


@criterion(2, "error energy matches closed form; Monte Carlo within 1%")
def test_signal_detection_error_energy():
    start = time.perf_counter()
    for idx, (n, s2, a2) in enumerate(GRID):
        a, c1, c2 = noise_instance(n, s2, a2)
        clf = fit(c1, c2, NormalizationMode.TRACE)
        exact = closed_form_error_energy(n, s2, a2)
        report = energy_report(clf, c1, c2)
        assert abs(report.enr_error - exact) <= 1e-12
        assert snr(a, s2) == pytest.approx(a2 / (n * s2))

        # plug-in Monte Carlo from 200,000 fresh samples (100k per class)
        data = gen_example2(n, a, s2, per_class=100000, seed=5000 + idx)
        e1 = ClassSpec(0.5, estimate_moments(data.class_features(1)))
        e2 = ClassSpec(0.5, estimate_moments(data.class_features(2)))
        mc = energy_report(clf, e1, e2).enr_error
        assert abs(mc - exact) <= 0.01 * exact
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"error-energy grid took {elapsed:.2f}s"


@criterion(3, "correct + error energy is conserved for complementary pairs")
def test_energy_conservation():
    rng = np.random.default_rng(300)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p1 = float(rng.uniform(0.05, 0.95))
        c1 = ClassSpec(p1, analytic_moments(
            np.zeros(n), random_psd(rng, n, scale=rng.uniform(0.5, 3.0))))
        c2 = ClassSpec(1.0 - p1, analytic_moments(
            np.zeros(n), random_psd(rng, n, scale=rng.uniform(0.5, 3.0))))
        total = (c1.prior * np.trace(c1.moments.correlation)
                 + c2.prior * np.trace(c2.moments.correlation))

        fitted = energy_report(fit(c1, c2), c1, c2)
        assert abs(fitted.enr_correct + fitted.enr_error - total) <= 1e-10

        proj = random_projector(rng, n)
        pair = EnergyClassifier(
            dim=n, mode=NormalizationMode.RAW,
            proj1=proj, proj2=complement(proj),
            prior1=c1.prior, prior2=c2.prior,
            tr_k1=float(total), tr_k2=float(total),
            mean1=np.zeros(n), mean2=np.zeros(n), spectrum=np.zeros(n),
        )
        arbitrary = energy_report(pair, c1, c2)
        assert abs(arbitrary.enr_correct + arbitrary.enr_error - total) <= 1e-10


@criterion(4, "fitted pair beats every eigenvector subset and random projector")
def test_fitted_pair_is_optimal():
    rng = np.random.default_rng(400)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p1 = float(rng.uniform(0.1, 0.9))
        k1 = random_psd(rng, n, scale=rng.uniform(0.5, 2.0))
        k2 = random_psd(rng, n, scale=rng.uniform(0.5, 2.0))
        c1 = ClassSpec(p1, analytic_moments(np.zeros(n), k1))
        c2 = ClassSpec(1.0 - p1, analytic_moments(np.zeros(n), k2))
        fitted = energy_report(fit(c1, c2), c1, c2).enr_correct

        def pair_energy(p):
            return (p1 * np.trace(p @ k1)
                    + (1.0 - p1) * np.trace((np.eye(n) - p) @ k2))

        # brute force over every subset of an independent (Jacobi)
        # eigenbasis of the prior-weighted difference operator
        _, basis = jacobi_eig(p1 * k1 - (1.0 - p1) * k2)
        best = -np.inf
        for r in range(n + 1):
            for cols in itertools.combinations(range(n), r):
                v = basis[:, list(cols)]
                best = max(best, pair_energy(v @ v.T))
        assert fitted >= best - 1e-9

        # and a cloud of random projectors of every rank
        qs = np.linalg.qr(rng.standard_normal((1000, n, n)))[0]
        ranks = rng.integers(0, n + 1, size=1000)
        for k in range(n + 1):
            sel = qs[ranks == k][:, :, :k]
            proj = sel @ sel.transpose(0, 2, 1)
            energies = (p1 * np.einsum("bij,ji->b", proj, k1)
                        + (1.0 - p1) * (np.trace(k2)
                                        - np.einsum("bij,ji->b", proj, k2)))
            if energies.size:
                assert fitted >= float(energies.max()) - 1e-9


@criterion(5, "decision-region energy sits in the sandwich bound")
def test_region_energy_sandwich():
    n, s2, a2 = 4, 1.0, 4.0
    a, c1, c2 = noise_instance(n, s2, a2)
    clf = fit(c1, c2)
    report = energy_report(clf, c1, c2)
    data = gen_example2(n, a, s2, per_class=100000, seed=41)
    region, stderr = region_energy(clf, data, return_stderr=True)
    gap = report.enr_correct - region
    assert gap >= -3.0 * stderr
    assert gap <= report.enr_error + 3.0 * stderr


@criterion(6, "orthogonal-means model recovers the projector onto m1")
def test_orthogonal_means_recovery():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4))
    shared = g.T @ g / 4 + 0.5 * np.eye(4)
    m1 = np.array([2.0, 1.0, 0.0, 1.0])
    m2 = np.array([1.0, -2.0, 1.0, 0.0])
    truth = np.outer(m1, m1) / float(m1 @ m1)

    clf = fit(ClassSpec(0.5, analytic_moments(m1, shared)),
              ClassSpec(0.5, analytic_moments(m2, shared)))
    assert clf.proj1.rank == 1
    assert max_abs(clf.proj1.matrix - truth) <= 1e-8

    data = gen_example1(4, m1, m2, shared, per_class=10000, seed=60)
    emp = fit(ClassSpec(0.5, estimate_moments(data.class_features(1))),
              ClassSpec(0.5, estimate_moments(data.class_features(2))))
    unit_m1 = m1 / np.linalg.norm(m1)
    cosang = min(1.0, float(np.linalg.norm(emp.proj1.matrix @ unit_m1)))
    assert np.degrees(np.arccos(cosang)) < 5.0


@criterion(7, "unit-normalized samples have correlation trace 1")
def test_unit_normalized_trace():
    rng = np.random.default_rng(700)
    datasets = [
        gen_example2(5, signal_vector(5, 2.0), 0.7, per_class=500, seed=701),
        gen_example1(3, [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], np.eye(3),
                     per_class=300, seed=702),
    ]
    for _ in range(20):
        count = int(rng.integers(1, 200))
        n = int(rng.integers(1, 10))
        rows = rng.standard_normal((count, n)) * rng.uniform(1e-3, 1e3)
        labels = rng.integers(1, 3, size=count)
        datasets.append(LabeledDataset(labels, rows))
    for data in datasets:
        k = estimate_moments(unit_normalized(data).features).correlation
        assert abs(float(np.trace(k)) - 1.0) <= 1e-12


@criterion(8, "tr(KA) equals the sample mean of the quadratic form")
def test_trace_identity():
    rng = np.random.default_rng(800)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, 50))
        x = rng.standard_normal((count, n)) * rng.uniform(0.1, 10.0)
        a = random_symmetric(rng, n, scale=rng.uniform(0.5, 2.0))
        direct = float(np.mean(np.einsum("ij,jk,ik->i", x, a, x)))
        via_moments = expected_quadratic(a, estimate_moments(x).correlation)
        assert abs(via_moments - direct) <= 1e-10 * abs(direct)


@criterion(9, "projection lattice laws hold on random pairs")
def test_projection_lattice_laws():
    rng = np.random.default_rng(900)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        p = random_projector(rng, n)
        q = random_projector(rng, n)

        # De Morgan
        assert max_abs(complement(meet(p, q)).matrix
                       - join(complement(p), complement(q)).matrix) <= 1e-8
        assert max_abs(complement(join(p, q)).matrix
                       - meet(complement(p), complement(q)).matrix) <= 1e-8
        # idempotence and commutativity
        assert max_abs(meet(p, p).matrix - p.matrix) <= 1e-8
        assert max_abs(join(p, p).matrix - p.matrix) <= 1e-8
        assert max_abs(meet(p, q).matrix - meet(q, p).matrix) <= 1e-8
        assert max_abs(join(p, q).matrix - join(q, p).matrix) <= 1e-8
        # order consistency
        low, high = meet(p, q), join(p, q)
        assert leq(low, p) and leq(low, q)
        assert leq(p, high) and leq(q, high)
        # membership monotonicity along the order
        x = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
        assert membership(low, x) <= membership(p, x) + 1e-8
        assert membership(p, x) <= membership(high, x) + 1e-8


@criterion(10, "CLI pipeline is byte-identical across runs and conserves energy")
def test_cli_round_trip(tmp_path):
    env = subprocess_env()

    def pipeline(workdir):
        workdir.mkdir()
        transcripts = []
        for argv in (
            ["gen-example2", "--n", "3", "--a", "1.5,0,1", "--sigma2", "0.8",
             "--per-class", "200", "--seed", "77", "--out", "data.csv"],
            ["fit", "--data", "data.csv", "--mode", "trace", "--out", "model.txt"],
            ["predict", "--model", "model.txt", "--data", "data.csv"],
            ["eval", "--model", "model.txt", "--data", "data.csv"],
        ):
            # one fresh interpreter per command, as with the console script
            proc = subprocess.run([sys.executable, "-m", "energydisc", *argv],
                                  cwd=workdir, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            transcripts.append(proc.stdout)
        return (workdir / "data.csv").read_bytes(), (workdir / "model.txt").read_bytes(), transcripts

    data_a, model_a, out_a = pipeline(tmp_path / "one")
    data_b, model_b, out_b = pipeline(tmp_path / "two")
    assert data_a == data_b
    assert model_a == model_b
    assert out_a == out_b

    labels = out_a[2].split()
    assert len(labels) == 400 and set(labels) <= {"1", "2"}

    fields = dict(line.split("=", 1) for line in out_a[3].splitlines())
    conserved = float(fields["enr_correct"]) + float(fields["enr_error"])
    total = float(fields["total_energy"])
    assert conserved == pytest.approx(total, rel=1e-13)
    assert fields["sandwich_ok"] == "true"
