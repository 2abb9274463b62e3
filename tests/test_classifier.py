import numpy as np
import pytest

from energydisc import (
    ClassSpec,
    DimensionMismatch,
    EmptyClass,
    EnergyClassifier,
    InvalidParameter,
    LabeledDataset,
    NormalizationMode,
    ParseError,
    ZeroSignal,
    analytic_moments,
    complement,
    decide,
    decide_batch,
    discriminants,
    empirical_quality,
    energy_report,
    estimate_moments,
    fit,
    format_model,
    gen_example2,
    load_model,
    parse_model,
    region_energy,
    save_model,
    snr,
    unit_normalized,
    zero_projector,
)
from helpers import max_abs, random_projector, random_psd


def gaussian_pair():
    """Two clouds with orthogonal means (2,0), (0,1) and identity covariance."""
    c1 = ClassSpec(0.5, analytic_moments([2.0, 0.0], np.eye(2)))
    c2 = ClassSpec(0.5, analytic_moments([0.0, 1.0], np.eye(2)))
    return c1, c2


def noise_pair(n, a, sigma2):
    """Unit-sphere moments for signal-plus-noise vs pure noise.

    After normalizing to the sphere the correlation operators are
    (sigma2 I + a a^T) / (n sigma2 + ||a||^2) and I / n.
    """
    a = np.asarray(a, dtype=float)
    k1 = (sigma2 * np.eye(n) + np.outer(a, a)) / (n * sigma2 + float(a @ a))
    c1 = ClassSpec(0.5, analytic_moments(np.zeros(n), k1))
    c2 = ClassSpec(0.5, analytic_moments(np.zeros(n), np.eye(n) / n))
    return c1, c2


# -- fitting ---------------------------------------------------------------


def test_fit_gaussian_pair_frozen_values():
    clf = fit(*gaussian_pair())
    np.testing.assert_allclose(clf.spectrum, [2.0, -0.5], atol=1e-12)
    np.testing.assert_allclose(clf.proj1.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(clf.proj2.matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert clf.proj1.rank == 1
    assert clf.tr_k1 == pytest.approx(6.0)
    assert clf.tr_k2 == pytest.approx(3.0)
    assert clf.mode is NormalizationMode.RAW


def test_fit_rejects_bad_priors():
    _, c2 = gaussian_pair()
    with pytest.raises(InvalidParameter):
        ClassSpec(0.0, c2.moments)
    with pytest.raises(InvalidParameter):
        ClassSpec(1.2, c2.moments)
    c1 = ClassSpec(0.6, c2.moments)
    with pytest.raises(InvalidParameter):
        fit(c1, c2)  # 0.6 + 0.5 != 1


def test_fit_rejects_dimension_mismatch():
    c1 = ClassSpec(0.5, analytic_moments([0.0, 0.0], np.eye(2)))
    c2 = ClassSpec(0.5, analytic_moments([0.0, 0.0, 0.0], np.eye(3)))
    with pytest.raises(DimensionMismatch):
        fit(c1, c2)


def test_fit_zero_difference_gives_empty_first_projector():
    m = analytic_moments([0.0, 0.0], np.eye(2))
    clf = fit(ClassSpec(0.5, m), ClassSpec(0.5, m))
    assert clf.proj1.rank == 0
    assert clf.proj2.rank == 2


def test_classifier_rejects_non_complementary_projectors():
    p = zero_projector(2)
    with pytest.raises(InvalidParameter):
        EnergyClassifier(
            dim=2, mode=NormalizationMode.RAW, proj1=p, proj2=p,
            prior1=0.5, prior2=0.5, tr_k1=1.0, tr_k2=1.0,
            mean1=np.zeros(2), mean2=np.zeros(2), spectrum=np.zeros(2),
        )


def test_classifier_rejects_nan_projector_entries():
    p = zero_projector(2)
    q = complement(p)
    q.basis[0, 0] = np.nan  # the basis inside a validated Projector is mutable
    with pytest.raises(InvalidParameter):
        EnergyClassifier(
            dim=2, mode=NormalizationMode.RAW, proj1=p, proj2=q,
            prior1=0.5, prior2=0.5, tr_k1=1.0, tr_k2=1.0,
            mean1=np.zeros(2), mean2=np.zeros(2), spectrum=np.zeros(2),
        )


# -- decision rule ---------------------------------------------------------


def test_decide_gaussian_pair():
    clf = fit(*gaussian_pair())
    assert decide(clf, [2.0, 1.0]) == 1
    assert decide(clf, [0.5, 1.0]) == 2
    # exact tie goes to class 2
    assert decide(clf, [1.0, 1.0]) == 2
    assert decide(clf, [1.0, -1.0]) == 2


def test_decide_batch_matches_scalar():
    clf = fit(*gaussian_pair())
    rng = np.random.default_rng(17)
    x = rng.standard_normal((50, 2)) * 2.0
    batch = decide_batch(clf, x)
    for i in range(x.shape[0]):
        assert batch[i] == decide(clf, x[i])


def test_discriminants_are_quadratic_forms():
    clf = fit(*gaussian_pair())
    rng = np.random.default_rng(18)
    x = rng.standard_normal((20, 2))
    g1, g2 = discriminants(clf, x)
    for i, row in enumerate(x):
        assert g1[i] == pytest.approx(row @ clf.proj1.matrix @ row)
        assert g2[i] == pytest.approx(row @ clf.proj2.matrix @ row)


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_discriminants_match_explicit_quadratic_forms(mode):
    n = 64
    a = np.linspace(-1.0, 1.0, n)
    data = gen_example2(n, a, 1.0, per_class=150, seed=31)
    fit_data = unit_normalized(data) if mode is NormalizationMode.UNIT else data
    clf = fit(ClassSpec(0.4, estimate_moments(fit_data.class_features(1))),
              ClassSpec(0.6, estimate_moments(fit_data.class_features(2))), mode)
    assert 0 < clf.proj1.rank < n
    x = data.features
    g1, g2 = discriminants(clf, x)
    expected1, expected2 = [], []
    for row in x:
        if mode is NormalizationMode.UNIT:
            row = row / np.linalg.norm(row)
        c1 = row - clf.mean1 if mode is NormalizationMode.CENTERED else row
        c2 = row - clf.mean2 if mode is NormalizationMode.CENTERED else row
        e1 = c1 @ clf.proj1.matrix @ c1
        e2 = c2 @ clf.proj2.matrix @ c2
        if mode is NormalizationMode.TRACE:
            e1, e2 = e1 / clf.tr_k1, e2 / clf.tr_k2
        expected1.append(e1)
        expected2.append(e2)
    np.testing.assert_allclose(g1, expected1, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(g2, expected2, rtol=1e-12, atol=0.0)
    explicit = np.where(np.array(expected1) > np.array(expected2), 1, 2)
    np.testing.assert_array_equal(decide_batch(clf, x), explicit)
    assert set(explicit) == {1, 2}


def test_discriminants_dimension_check():
    clf = fit(*gaussian_pair())
    with pytest.raises(DimensionMismatch):
        discriminants(clf, np.ones((3, 5)))


# -- normalization modes ---------------------------------------------------


def test_trace_mode_changes_decisions():
    c1, c2 = gaussian_pair()
    raw = fit(c1, c2, NormalizationMode.RAW)
    tr = fit(c1, c2, NormalizationMode.TRACE)
    # same projectors here, rescaled discriminants: x1^2/6 against x2^2/3
    np.testing.assert_allclose(tr.proj1.matrix, raw.proj1.matrix, atol=1e-12)
    x = [1.2, 1.0]
    assert decide(raw, x) == 1
    assert decide(tr, x) == 2
    assert decide(tr, [2.0, 1.0]) == 1


def test_centered_mode_on_equal_covariances():
    # shared covariance means the centered difference operator vanishes;
    # everything lands in class 2
    c1, c2 = gaussian_pair()
    clf = fit(c1, c2, NormalizationMode.CENTERED)
    assert clf.proj1.rank == 0
    rng = np.random.default_rng(19)
    labels = decide_batch(clf, rng.standard_normal((30, 2)) * 3.0)
    assert np.all(labels == 2)


def test_centered_mode_uses_class_means():
    c1 = ClassSpec(0.5, analytic_moments([5.0, 0.0], np.diag([2.0, 1.0])))
    c2 = ClassSpec(0.5, analytic_moments([-5.0, 0.0], np.diag([1.0, 2.0])))
    clf = fit(c1, c2, NormalizationMode.CENTERED)
    np.testing.assert_allclose(clf.proj1.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    g1, g2 = discriminants(clf, np.array([[6.0, 3.0]]))
    assert g1[0] == pytest.approx(1.0)  # (6-5)^2 in the first coordinate
    assert g2[0] == pytest.approx(9.0)  # (3-0)^2 in the second


def test_unit_mode_frozen_spectrum():
    clf = fit(*noise_pair(2, [2.0, 0.0], 1.0), NormalizationMode.UNIT)
    np.testing.assert_allclose(clf.spectrum, [1 / 6, -1 / 6], atol=1e-12)
    np.testing.assert_allclose(clf.proj1.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_unit_mode_is_scale_invariant():
    clf = fit(*noise_pair(3, [1.0, 2.0, 2.0], 0.5), NormalizationMode.UNIT)
    rng = np.random.default_rng(20)
    x = rng.standard_normal((40, 3))
    np.testing.assert_array_equal(decide_batch(clf, x), decide_batch(clf, 7.5 * x))


def test_unit_mode_rejects_zero_vector():
    clf = fit(*noise_pair(2, [2.0, 0.0], 1.0), NormalizationMode.UNIT)
    with pytest.raises(ZeroSignal):
        decide(clf, [0.0, 0.0])


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_discriminants_reject_nonfinite_rows(mode, value):
    clf = fit(*gaussian_pair(), mode)
    x = np.array([[1.0, 0.0], [value, 1.0], [0.0, 1.0]])
    with pytest.raises(InvalidParameter, match="row 2"):
        discriminants(clf, x)
    with pytest.raises(InvalidParameter, match="row 2"):
        decide_batch(clf, x)
    with pytest.raises(InvalidParameter, match="row 1"):
        decide(clf, x[1])


# -- energy bookkeeping ----------------------------------------------------


def test_energy_report_gaussian_pair():
    c1, c2 = gaussian_pair()
    clf = fit(c1, c2)
    report = energy_report(clf, c1, c2)
    np.testing.assert_allclose(report.r, [[2.5, 0.5], [0.5, 1.0]], atol=1e-12)
    assert report.enr_correct == pytest.approx(3.5)
    assert report.enr_error == pytest.approx(1.0)
    assert report.total == pytest.approx(4.5)


def test_energy_conservation_random_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        c1 = ClassSpec(float(rng.uniform(0.05, 0.95)), analytic_moments(
            np.zeros(n), random_psd(rng, n, scale=rng.uniform(0.5, 3.0))))
        c2 = ClassSpec(1.0 - c1.prior, analytic_moments(
            np.zeros(n), random_psd(rng, n, scale=rng.uniform(0.5, 3.0))))
        clf = fit(c1, c2)
        report = energy_report(clf, c1, c2)
        assert abs(report.enr_correct + report.enr_error - report.total) <= 1e-10
        # conservation is a property of any complementary pair, not just
        # the fitted one
        p = random_projector(rng, n)
        other = EnergyClassifier(
            dim=n, mode=NormalizationMode.RAW, proj1=p, proj2=complement(p),
            prior1=c1.prior, prior2=c2.prior, tr_k1=clf.tr_k1, tr_k2=clf.tr_k2,
            mean1=np.zeros(n), mean2=np.zeros(n), spectrum=np.zeros(n),
        )
        alt = energy_report(other, c1, c2)
        assert abs(alt.enr_correct + alt.enr_error - alt.total) <= 1e-10
        assert alt.total == pytest.approx(report.total)
        # and the fitted pair passes at least as much correct energy
        assert report.enr_correct >= alt.enr_correct - 1e-9


def test_noise_pair_error_energy_closed_form():
    n, sigma2 = 2, 1.0
    a = np.array([2.0, 0.0])
    c1, c2 = noise_pair(n, a, sigma2)
    clf = fit(c1, c2)
    report = energy_report(clf, c1, c2)
    ratio = snr(a, sigma2)
    expected = (1.0 - 1.0 / n) / (2.0 * (1.0 + ratio)) + 1.0 / (2.0 * n)
    assert ratio == pytest.approx(2.0)
    assert report.enr_error == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert report.enr_error == pytest.approx(expected, abs=1e-14)


def test_snr_values_and_errors():
    assert snr([2.0, 0.0], 1.0) == pytest.approx(2.0)
    assert snr([1.0, 1.0, 1.0, 1.0], 0.5) == pytest.approx(2.0)
    assert snr([2.0, 0.0], 1.0, n=4) == pytest.approx(1.0)
    with pytest.raises(InvalidParameter):
        snr([1.0], 0.0)
    with pytest.raises(InvalidParameter):
        snr([1.0], 1.0, n=0)


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, 0.0, -1.0])
def test_snr_rejects_bad_noise_variance(sigma2):
    with pytest.raises(InvalidParameter):
        snr([1.0, 0.0], sigma2)


# -- sample-based estimates ------------------------------------------------


def small_dataset():
    labels = [1, 1, 2]
    rows = [[2.0, 1.0], [1.0, 1.0], [0.5, 1.0]]
    return LabeledDataset(np.array(labels), np.array(rows))


def test_empirical_quality_quadratic_and_indicator():
    clf = fit(*gaussian_pair())
    data = small_dataset()
    # quadratic route: mean g_1 over class 1 is (4 + 1)/2, g_2 over class 2 is 1
    assert empirical_quality(clf, data) == pytest.approx(0.5 * 2.5 + 0.5 * 1.0)
    # indicator route: (1,1) is a tie and goes to class 2, so class-1
    # accuracy is 1/2 while class 2 is fully recovered
    assert empirical_quality(clf, data, indicator=True) == pytest.approx(0.75)


def test_empirical_quality_prior_handling():
    clf = fit(*gaussian_pair())
    data = small_dataset()
    only1 = LabeledDataset(np.array([1, 1]), data.features[:2])
    assert empirical_quality(clf, only1, (1.0, 0.0)) == pytest.approx(2.5)
    with pytest.raises(EmptyClass):
        empirical_quality(clf, only1)
    with pytest.raises(InvalidParameter):
        empirical_quality(clf, data, (0.6, 0.5))


def test_region_energy_hand_computed():
    clf = fit(*gaussian_pair())
    data = small_dataset()
    # class 1 keeps g_1 = 4 (the tie row is decided 2): mean of (4, 0);
    # class 2 keeps g_2 = 1
    value, stderr = region_energy(clf, data, return_stderr=True)
    assert value == pytest.approx(0.5 * 2.0 + 0.5 * 1.0)
    assert stderr == pytest.approx(np.sqrt(0.25 * 8.0 / 2))


def test_region_energy_sandwich_on_sampled_data():
    # against moments estimated from the same rows, the region estimate
    # sits within [enr_correct - enr_error, enr_correct] up to rounding
    data = gen_example2(3, [1.5, 0.0, 1.0], 0.8, per_class=4000, seed=5)
    c1 = ClassSpec(0.5, estimate_moments(data.class_features(1)))
    c2 = ClassSpec(0.5, estimate_moments(data.class_features(2)))
    clf = fit(c1, c2)
    report = energy_report(clf, c1, c2)
    value = region_energy(clf, data)
    slack = 1e-9 * max(1.0, abs(report.total))
    assert value <= report.enr_correct + slack
    assert report.enr_correct - value <= report.enr_error + slack


# -- persistence -----------------------------------------------------------


def test_model_round_trip_identical():
    clf = fit(*noise_pair(3, [1.0, 2.0, 2.0], 0.5), NormalizationMode.UNIT)
    text = format_model(clf)
    back = parse_model(text)
    assert format_model(back) == text
    assert back.dim == clf.dim and back.mode is clf.mode
    assert back.proj1.rank == clf.proj1.rank
    assert max_abs(back.proj1.matrix - clf.proj1.matrix) == 0.0
    rng = np.random.default_rng(29)
    x = rng.standard_normal((25, 3))
    np.testing.assert_array_equal(decide_batch(back, x), decide_batch(clf, x))


def test_model_file_round_trip(tmp_path):
    clf = fit(*gaussian_pair(), NormalizationMode.CENTERED)
    path = tmp_path / "model.txt"
    save_model(clf, path)
    save_model(load_model(path), tmp_path / "again.txt")
    assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()


def _per_entry_model_text(clf):
    """Model text with every float formatted on its own, entry by entry."""
    def floats(values):
        return ",".join("%.17g" % v for v in np.asarray(values, dtype=float).ravel())

    fields = [("format_version", "1"), ("n", str(clf.dim)), ("mode", clf.mode.value),
              ("p1", "%.17g" % clf.prior1), ("p2", "%.17g" % clf.prior2),
              ("trK1", "%.17g" % clf.tr_k1), ("trK2", "%.17g" % clf.tr_k2),
              ("m1", floats(clf.mean1)), ("m2", floats(clf.mean2)),
              ("spectrum", floats(clf.spectrum)), ("P1", floats(clf.proj1.matrix))]
    return "".join(f"{key}={value}\n" for key, value in fields)


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("n", [1, 3, 64])
def test_format_model_matches_per_entry_format(n, mode):
    rng = np.random.default_rng(n)
    data = gen_example2(n, rng.standard_normal(n), 0.7, per_class=200, seed=n)
    if mode is NormalizationMode.UNIT:
        data = unit_normalized(data)
    clf = fit(ClassSpec(0.45, estimate_moments(data.class_features(1))),
              ClassSpec(0.55, estimate_moments(data.class_features(2))), mode)
    text = format_model(clf)
    assert text == _per_entry_model_text(clf)
    assert format_model(parse_model(text)) == text


def test_parse_model_rejects_garbage():
    clf = fit(*gaussian_pair())
    text = format_model(clf)
    with pytest.raises(ParseError):
        parse_model(text + "mystery=1\n")
    with pytest.raises(ParseError):
        parse_model(text.replace("format_version=1", "format_version=2"))
    with pytest.raises(ParseError):
        parse_model("\n".join(text.splitlines()[1:]))  # header dropped
    with pytest.raises(ParseError):
        parse_model(text.replace("p1=", "p1=abc;"))


def _replace_field(text, key, value):
    return "".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln + "\n"
                   for ln in text.splitlines())


@pytest.mark.parametrize("key, value", [("P1", "nan,0,0,0"), ("m1", "inf,0"),
                                        ("trK2", "nan"), ("spectrum", "2,-inf")])
def test_parse_model_rejects_nonfinite_fields(key, value):
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError):
        parse_model(_replace_field(text, key, value))


@pytest.mark.parametrize("key", ["m1", "m2", "spectrum", "P1"])
@pytest.mark.parametrize("entry", ["abc", "", "1.5.2"])
def test_parse_model_rejects_bad_vector_entry(key, entry):
    text = format_model(fit(*gaussian_pair()))
    value = text.split(f"\n{key}=", 1)[1].split("\n", 1)[0].split(",")
    value[-1] = entry
    with pytest.raises(ParseError, match="bad model field: could not convert"):
        parse_model(_replace_field(text, key, ",".join(value)))


@pytest.mark.parametrize("tr_k1, tr_k2", [("0", "2"), ("2", "-1"), ("-0.5", "-0.5")])
def test_parse_model_rejects_nonpositive_traces_in_trace_mode(tr_k1, tr_k2):
    text = format_model(fit(*gaussian_pair(), NormalizationMode.TRACE))
    text = _replace_field(_replace_field(text, "trK1", tr_k1), "trK2", tr_k2)
    with pytest.raises(ParseError, match="trace mode"):
        parse_model(text)


@pytest.mark.parametrize("p1, p2", [("7", "-6"), ("0", "1"), ("0.3", "0.3")])
def test_parse_model_rejects_bad_priors(p1, p2):
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError):
        parse_model(_replace_field(_replace_field(text, "p1", p1), "p2", p2))


def test_parse_model_checks_entry_counts():
    clf = fit(*gaussian_pair())
    lines = format_model(clf).splitlines()
    lines = [ln if not ln.startswith("spectrum=") else "spectrum=1" for ln in lines]
    with pytest.raises(ParseError):
        parse_model("\n".join(lines) + "\n")
