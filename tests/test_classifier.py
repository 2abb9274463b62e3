import dataclasses
import tracemalloc

import numpy as np
import pytest

from energydisc import (
    ClassSpec,
    DegenerateTrace,
    DimensionMismatch,
    EmptyClass,
    EnergyClassifier,
    InvalidMatrix,
    InvalidParameter,
    LabeledDataset,
    NormalizationMode,
    ParseError,
    MomentSummary,
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
    projector_from_basis,
    region_energy,
    save_model,
    snr,
    unit_normalized,
    zero_projector,
)
from helpers import (
    V1_MODEL,
    format_model_v2,
    matrix_discriminants,
    matrix_energy_r,
    max_abs,
    random_projector,
    random_psd,
)


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


def test_trace_fit_rejects_a_class_of_zero_trace():
    zero = ClassSpec(0.5, analytic_moments(np.zeros(2), np.zeros((2, 2))))
    with pytest.raises(DegenerateTrace, match="correlation trace 0"):
        fit(zero, gaussian_pair()[1], NormalizationMode.TRACE)


@pytest.mark.parametrize("mode", ["raw", "trace", "unit", "centered"])
def test_fit_refuses_a_correlation_trace_beyond_the_float_range(mode):
    # each diagonal entry is finite, their sum is not
    big = ClassSpec(0.5, analytic_moments([0.0, 0.0], np.diag([1e308, 1e308])))
    with pytest.raises(InvalidParameter, match="overflow the float range"):
        fit(big, gaussian_pair()[1], mode)
    with pytest.raises(InvalidParameter, match="overflow the float range"):
        fit(gaussian_pair()[0], big, mode)


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


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_discriminants_are_the_plain_energies_bit_for_bit(mode):
    # ordinary rows are never rescored, so each energy is ||(x - m_i) U_i||^2
    # (x - m_i in centered mode only, the squares summed by einsum as the
    # scorer sums them), divided by tr K_i in trace mode
    data = gen_example2(16, np.linspace(-1.0, 1.0, 16), 1.0, per_class=100, seed=37)
    x = data.features
    if mode is NormalizationMode.UNIT:
        x = x / np.linalg.norm(x, axis=1)[:, None]
    clf = fit(ClassSpec(0.4, estimate_moments(x[data.labels == 1])),
              ClassSpec(0.6, estimate_moments(x[data.labels == 2])), mode)
    want = []
    for proj, mean, tr in ((clf.proj1, clf.mean1, clf.tr_k1), (clf.proj2, clf.mean2, clf.tr_k2)):
        y = (x - mean if mode is NormalizationMode.CENTERED else x) @ proj.basis
        energy = np.einsum("ij,ij->i", y, y)
        want.append(energy / tr if mode is NormalizationMode.TRACE else energy)
    g1, g2 = discriminants(clf, data.features)
    assert g1.tobytes() == want[0].tobytes() and g2.tobytes() == want[1].tobytes()
    np.testing.assert_array_equal(decide_batch(clf, data.features),
                                  np.where(want[0] > want[1], 1, 2))


def test_discriminants_dimension_check():
    clf = fit(*gaussian_pair())
    with pytest.raises(DimensionMismatch):
        discriminants(clf, np.ones((3, 5)))


@pytest.mark.parametrize("score", [discriminants, decide_batch])
@pytest.mark.parametrize("x", [np.ones((2, 2, 2)), np.ones((1, 2, 2)), [[1.0, 2.0], [1.0]]],
                         ids=["3-axes", "3-axes-one-row", "ragged"])
def test_batch_scoring_refuses_arrays_that_are_not_rows(score, x):
    with pytest.raises(DimensionMismatch):
        score(fit(*gaussian_pair()), x)


@pytest.mark.parametrize("x", [np.eye(2), [[2.0, 0.0, 0.0, 0.0]], 2.0, [2.0, 0.0, 0.0], [],
                               [[1.0, 2.0], [1.0, 0.0, 0.0]]],
                         ids=["2x2", "1x4", "0-d", "length-3", "empty", "ragged"])
def test_decide_refuses_anything_but_one_vector_of_length_dim(x):
    # dim 4: a 2x2 array has four entries, but it is not a vector
    clf = fit(ClassSpec(0.5, analytic_moments(np.zeros(4), np.diag([4.0, 1.0, 1.0, 1.0]))),
              ClassSpec(0.5, analytic_moments(np.zeros(4), np.eye(4))))
    assert decide(clf, [2.0, 0.0, 0.0, 0.0]) == 1
    with pytest.raises(DimensionMismatch):
        decide(clf, x)


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


@pytest.mark.parametrize("k", [1, 500, 511, 512, 700, 900])
def test_unit_mode_decides_rows_whose_norm_overflows(k):
    # from k of about 510 on ||2^k x||^2 overflows; scaling by a power of
    # two is exact, so the unit rows, and with them the labels, stay the same
    clf = fit(*noise_pair(3, [1.0, 2.0, 2.0], 0.5), NormalizationMode.UNIT)
    x = np.random.default_rng(21).standard_normal((40, 3))
    labels = decide_batch(clf, x)
    assert set(labels) == {1, 2}
    np.testing.assert_array_equal(decide_batch(clf, 2.0 ** k * x), labels)


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


# one direction at four scales: [2, 0.1] is labeled 1; both energies of
# the second overflow a float, both of the last two fall below the normal
# range, and at the parent the tie rule then labeled them 2
_SCALED_ROWS = np.array([[2.0, 0.1], [2e160, 1e159], [2e-165, 1e-166], [1e-170, 3e-171]])


@pytest.mark.parametrize("mode", ["raw", "trace"])
def test_rows_at_extreme_scales_are_decided_by_their_scaled_pair(mode):
    clf = fit(*gaussian_pair(), mode)
    np.testing.assert_array_equal(decide_batch(clf, _SCALED_ROWS), [1, 1, 1, 1])
    assert [decide(clf, x) for x in _SCALED_ROWS] == [1, 1, 1, 1]


def test_centered_rows_far_out_are_decided_by_their_scaled_pair():
    # P_1 projects onto e_1; far from both means, x - m_i is about x
    clf = fit(ClassSpec(0.5, analytic_moments([2.0, 0.0], np.diag([4.0, 1.0]))),
              ClassSpec(0.5, analytic_moments([0.0, 1.0], np.diag([1.0, 4.0]))), "centered")
    assert clf.proj1.rank == 1
    np.testing.assert_array_equal(decide_batch(clf, [[2e160, 1e159], [1e159, 2e160]]), [1, 2])
    with pytest.raises(InvalidParameter, match="the energy of row 2 overflows a float"):
        discriminants(clf, [[2.0, 0.1], [2e160, 1e159]])
    # a difference x - m_1 beyond the float range has no scaled pair
    far = dataclasses.replace(clf, mean1=np.array([-1e308, 0.0]))
    with pytest.raises(InvalidParameter, match="row 2 is beyond the float range"):
        decide_batch(far, [[2.0, 0.1], [1e308, 0.0]])


def test_centered_scoring_holds_one_difference_at_a_time():
    # x - m_1 is dropped before x - m_2 is formed: with rank(P_1) = n/2 the
    # peak is one N×n difference and one N×n/2 projection, not two differences
    n = 64
    clf = fit(ClassSpec(0.5, analytic_moments(np.full(n, 1.0), np.diag([4.0] * 32 + [1.0] * 32))),
              ClassSpec(0.5, analytic_moments(np.full(n, -1.0), np.eye(n))), "centered")
    assert clf.proj1.rank == 32
    x = np.random.default_rng(26).standard_normal((8000, n))
    tracemalloc.start()
    try:
        decide_batch(clf, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes


@pytest.mark.parametrize("mode", ["raw", "trace"])
def test_discriminants_of_rows_at_extreme_scales(mode):
    clf = fit(*gaussian_pair(), mode)
    with pytest.raises(InvalidParameter, match="the energy of row 2 overflows a float"):
        discriminants(clf, _SCALED_ROWS)
    # a tiny row's pair is its scaled pair times 2^2e, rounded once
    tiny = _SCALED_ROWS[2:]
    g1, g2 = discriminants(clf, tiny)
    s1, s2 = discriminants(clf, np.ldexp(tiny, 600))
    np.testing.assert_array_equal(g1, np.ldexp(s1, -1200))
    np.testing.assert_array_equal(g2, np.ldexp(s2, -1200))
    # the other rows keep the plain arithmetic, bit for bit
    plain = discriminants(clf, _SCALED_ROWS[:1])
    np.testing.assert_array_equal(discriminants(clf, _SCALED_ROWS[[0, 2]])[0][:1], plain[0])


def test_sample_functionals_decide_tiny_rows_by_their_scaled_pair():
    clf = fit(*gaussian_pair())
    data = LabeledDataset([1, 1, 1], _SCALED_ROWS[[0, 2, 3]])
    assert empirical_quality(clf, data, (1.0, 0.0), indicator=True) == 1.0


def test_empirical_quality_of_rows_near_1e80_ignores_the_unused_variance():
    # the kept energies are about 1e160, so their squared deviations overflow;
    # only the standard error reads them
    clf = fit(*gaussian_pair())
    x = 1e80 * np.random.default_rng(24).standard_normal((40, 2))
    data = LabeledDataset(np.repeat([1, 2], 20), x)
    assert np.isfinite(empirical_quality(clf, data))
    assert np.isfinite(region_energy(clf, data))
    with pytest.raises(InvalidParameter, match="standard error"):
        region_energy(clf, data, return_stderr=True)
    with pytest.raises(InvalidParameter, match="sample energies overflow"):
        empirical_quality(clf, LabeledDataset([1], [[2e160, 1e159]]))


# finite class moments whose traces, 2e308, are beyond the float range
_HUGE = ClassSpec(0.5, MomentSummary(np.zeros(2), *[np.diag([1e308, 1e308])] * 2, 0))


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_energy_report_refuses_a_trace_beyond_the_float_range(mode):
    with pytest.raises(InvalidParameter, match="class moments overflow"):
        energy_report(fit(*gaussian_pair(), mode), _HUGE, _HUGE)


def test_energy_report_refuses_an_energy_beyond_the_float_range():
    # tr K is 0, but K U_1 overflows for U_1 = (1, 1) / sqrt 2
    k = np.array([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
    p = projector_from_basis([np.array([1.0, 1.0]) / np.sqrt(2.0)])
    clf = EnergyClassifier(**_classifier_fields(proj1=p, proj2=complement(p)))
    split = ClassSpec(0.5, MomentSummary(np.zeros(2), k, k, 0))
    with pytest.raises(InvalidParameter, match="class moments overflow"):
        energy_report(clf, split, gaussian_pair()[1])


@pytest.mark.parametrize("estimate", [empirical_quality, region_energy])
def test_sample_functionals_refuse_class_sums_beyond_the_float_range(estimate):
    data = LabeledDataset([1, 1, 2, 2], [[1e154, 1.1e154], [1.2e154, 1e154], [1, 2], [2, 1]])
    with pytest.raises(InvalidParameter, match="sample energies overflow"):
        estimate(fit(*gaussian_pair()), data)


def _classifier_fields(**change):
    """The fields of a valid classifier of dim 2, with `change` applied."""
    p = projector_from_basis([np.array([1.0, 0.0])])
    fields = dict(dim=2, mode=NormalizationMode.RAW, proj1=p, proj2=complement(p),
                  prior1=0.5, prior2=0.5, tr_k1=1.0, tr_k2=1.0,
                  mean1=np.zeros(2), mean2=np.zeros(2), spectrum=np.array([1.0, 0.0]))
    fields.update(change)
    return fields


@pytest.mark.parametrize("change, error", [
    ({"prior1": np.nan}, InvalidParameter),
    ({"prior1": np.nan, "prior2": np.nan}, InvalidParameter),
    ({"prior1": 0.6}, InvalidParameter),
    ({"prior1": 0.0, "prior2": 1.0}, InvalidParameter),
    ({"prior1": 1.5, "prior2": -0.5}, InvalidParameter),
    ({"tr_k2": np.inf}, InvalidParameter),
    ({"mean1": np.array([np.nan, 0.0])}, InvalidParameter),
    ({"spectrum": np.array([1.0, -np.inf])}, InvalidParameter),
    ({"mean1": np.zeros(3)}, DimensionMismatch),
    ({"mean2": [0.0]}, DimensionMismatch),  # a list gets a typed error too
    ({"spectrum": np.zeros((2, 1))}, DimensionMismatch),
    ({"mode": NormalizationMode.TRACE, "tr_k1": 0.0}, DegenerateTrace),
    ({"mode": NormalizationMode.TRACE, "tr_k2": -1.0}, DegenerateTrace),
    # two orthogonal lines of R^3 pass the Gram check of a pair of dim 2
    ({"proj1": projector_from_basis([np.array([1.0, 0.0, 0.0])]),
      "proj2": projector_from_basis([np.array([0.0, 1.0, 0.0])])}, InvalidParameter),
])
def test_classifier_checks_its_fields(change, error):
    with pytest.raises(error):
        EnergyClassifier(**_classifier_fields(**change))


def test_classifier_fields_within_the_rules_are_accepted():
    EnergyClassifier(**_classifier_fields(mode=NormalizationMode.TRACE))
    EnergyClassifier(**_classifier_fields(tr_k1=0.0, tr_k2=-1.0))  # unused outside trace mode
    EnergyClassifier(**_classifier_fields(prior1=0.3, prior2=0.7, mean1=[1.0, 2.0]))


def test_mode_may_be_given_by_its_value():
    c1, c2 = gaussian_pair()  # traces 5 and 2, so trace mode moves the spectrum
    clf = fit(c1, c2, "trace")
    assert clf.mode is NormalizationMode.TRACE
    assert format_model(clf) == format_model(fit(c1, c2, NormalizationMode.TRACE))
    raw = fit(c1, c2)
    as_trace = dataclasses.replace(raw, mode="trace")
    assert as_trace.mode is NormalizationMode.TRACE
    x = np.array([[1.0, 1.0], [2.0, 0.5]])
    np.testing.assert_array_equal(
        discriminants(as_trace, x),
        discriminants(dataclasses.replace(raw, mode=NormalizationMode.TRACE), x))


def test_unknown_mode_is_refused():
    with pytest.raises(InvalidParameter, match="bogus"):
        fit(*gaussian_pair(), "bogus")
    with pytest.raises(InvalidParameter, match="bogus"):
        EnergyClassifier(**_classifier_fields(mode="bogus"))


def test_library_statistics_name_the_dataset_row_of_a_zero_vector():
    clf = fit(*noise_pair(2, [2.0, 0.0], 1.0), NormalizationMode.UNIT)
    features = np.random.default_rng(61).standard_normal((20, 2))
    features[12] = 0.0  # the third row of class 2
    data = LabeledDataset(np.repeat([1, 2], 10), features)
    for statistic in (region_energy, empirical_quality):
        with pytest.raises(ZeroSignal, match="row 13") as info:
            statistic(clf, data)
        assert info.value.row == 12


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_library_statistics_equal_per_class_scoring(mode):
    # scoring all rows at once gives each class the values scoring the
    # class on its own gives, bit for bit
    data = gen_example2(3, [1.5, 0.0, 1.0], 0.8, per_class=500, seed=62)
    data = LabeledDataset(np.random.default_rng(63).permutation(data.labels), data.features)
    clf, _ = _sampled_fit(3, mode)
    region, quality, hits = 0.0, 0.0, 0.0
    for label, prior in ((1, clf.prior1), (2, clf.prior2)):
        g1, g2 = discriminants(clf, data.class_features(label))
        g, decided = (g1, g2)[label - 1], decide_batch(clf, data.class_features(label))
        region += prior * float((g * (decided == label)).mean())
        quality += prior * float(g.mean())
        hits += prior * float((decided == label).astype(float).mean())
    assert region_energy(clf, data) == region
    assert empirical_quality(clf, data) == quality
    assert empirical_quality(clf, data, indicator=True) == hits


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


@pytest.mark.parametrize("mode", list(NormalizationMode))
def test_energy_report_matches_projector_matrix_traces(mode):
    # each entry from its own basis agrees with p_j tr(P_i M_j) on the
    # n-by-n projectors, also for ranks 0 and n and for a sampled n=64 fit
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        cases.append((float(rng.uniform(0.05, 0.95)), *(analytic_moments(
            rng.standard_normal(n), random_psd(rng, n, scale=rng.uniform(0.5, 3.0)))
            for _ in range(2))))
    m = analytic_moments([1.0, 2.0], np.eye(2))
    cases.append((0.5, m, m))
    cases.append((0.5, analytic_moments([1.0, 2.0], 4.0 * np.eye(2)), m))
    data = gen_example2(64, np.linspace(-1.0, 1.0, 64), 1.0, per_class=300, seed=43)
    if mode is NormalizationMode.UNIT:
        data = unit_normalized(data)
    cases.append((0.4, estimate_moments(data.class_features(1)),
                  estimate_moments(data.class_features(2))))
    for prior, m1, m2 in cases:
        c1, c2 = ClassSpec(prior, m1), ClassSpec(1.0 - prior, m2)
        clf = fit(c1, c2, mode)
        report = energy_report(clf, c1, c2)
        np.testing.assert_allclose(report.r, matrix_energy_r(clf, c1, c2),
                                   rtol=1e-12, atol=1e-12 * abs(report.total))


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
    # ||a||^2 = 1e400 and n sigma^2 = 1e309 overflow; their ratios do not
    assert snr([1e200, 0.0], 1e100) == snr([np.ldexp(1e200, -600), 0.0], np.ldexp(1e100, -1200))
    assert snr([1e200, 0.0], 1e100) == pytest.approx(5e299, rel=1e-15)
    with pytest.raises(InvalidParameter):
        snr([1.0], 0.0)


@pytest.mark.parametrize("signal, n, error, message", [
    pytest.param([1.0], 0, InvalidParameter, "dimension must be at least 1", id="0"),
    # n=2.5 gave 0.4, n=inf 0.0 and n="3" a TypeError
    *(pytest.param([1.0], n, InvalidParameter, "n must be a non-negative integer",
                   id=repr(n)) for n in (-1, np.nan, float("-inf"), 2.5, float("inf"), "3")),
    # n * sigma^2 once raised an untyped OverflowError
    pytest.param([1.0], 10**400, InvalidParameter, "within the float range", id="10**400"),
    pytest.param(5.0, None, DimensionMismatch, "1-d vector", id="0-d-signal"),
    pytest.param([[1.0, 2.0]], None, DimensionMismatch, "1-d vector", id="2-d-signal"),
    pytest.param([[1.0], [1.0, 2.0]], None, DimensionMismatch, "one length", id="ragged-signal"),
])
def test_snr_rejects_a_bad_dimension(signal, n, error, message):
    with pytest.raises(error, match=message):
        snr(signal, 1.0, n=n)


@pytest.mark.parametrize("signal", [[np.nan], [1.0, np.inf]])
def test_snr_rejects_a_nonfinite_signal(signal):
    with pytest.raises(InvalidParameter, match="signal vector must be finite"):
        snr(signal, 1.0)


@pytest.mark.parametrize("sigma2", [np.nan, np.inf, 0.0, -1.0])
def test_snr_rejects_bad_noise_variance(sigma2):
    with pytest.raises(InvalidParameter):
        snr([1.0, 0.0], sigma2)


@pytest.mark.parametrize("signal, sigma2", [([1e200, 0.0], 1.0), ([1.0], 1e-320)])
def test_snr_refuses_a_ratio_beyond_the_float_range(signal, sigma2):
    with pytest.raises(InvalidParameter, match="overflows a float"):
        snr(signal, sigma2)



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


@pytest.mark.parametrize("priors", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
def test_empirical_quality_rejects_nan_priors(priors):
    with pytest.raises(InvalidParameter):
        empirical_quality(fit(*gaussian_pair()), small_dataset(), priors)


# (1, 0, 0) silently used its first two priors, and (1,) raised an IndexError
@pytest.mark.parametrize("priors", [(1.0, 0.0, 0.0), (1.0,), (), 0.5, "10", ("0.5", "0.5"),
                                    (0.5, None), ((0.5,), (0.5,))])
def test_empirical_quality_refuses_priors_that_are_not_a_pair_of_numbers(priors):
    with pytest.raises(InvalidParameter, match="priors must be a pair of numbers"):
        empirical_quality(fit(*gaussian_pair()), small_dataset(), priors)


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


def test_load_model_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.txt"
    save_model(fit(*gaussian_pair()), path)
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\nmode=r\xe9w\n" + rest)
    with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xe9$") as info:
        load_model(path)
    assert info.value.line == 2


def _sampled_fit(n, mode):
    rng = np.random.default_rng(n)
    data = gen_example2(n, rng.standard_normal(n), 0.7, per_class=200, seed=n)
    if mode is NormalizationMode.UNIT:
        data = unit_normalized(data)
    clf = fit(ClassSpec(0.45, estimate_moments(data.class_features(1))),
              ClassSpec(0.55, estimate_moments(data.class_features(2))), mode)
    return clf, data.features


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("n", [1, 3, 64, 128])
def test_format_model_matches_per_entry_format(n, mode):
    # a loaded model is scored on its bases and labels every row as the
    # former scoring on its n-by-n projectors did; at n=128 the stored
    # basis holds thousands of floats
    clf, x = _sampled_fit(n, mode)
    text = format_model(clf)
    assert text == format_model_v2(clf)
    back = parse_model(text)
    assert format_model(back) == text
    g1, g2 = matrix_discriminants(back, x)
    np.testing.assert_array_equal(decide_batch(back, x), np.where(g1 > g2, 1, 2))


@pytest.mark.parametrize("mode", list(NormalizationMode))
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_model_round_trip_is_bit_exact(n, mode):
    rng = np.random.default_rng(100 + n)
    for prior in (0.2, 0.5, 0.8):
        m1, m2 = (analytic_moments(rng.standard_normal(n),
                                   random_psd(rng, n, scale=rng.uniform(0.5, 2.0)))
                  for _ in range(2))
        clf = fit(ClassSpec(prior, m1), ClassSpec(1.0 - prior, m2), mode)
        text = format_model(clf)
        back = parse_model(text)
        assert format_model(back) == text
        for got, want in ((back.proj1, clf.proj1), (back.proj2, clf.proj2)):
            np.testing.assert_array_equal(got.basis, want.basis)
            np.testing.assert_array_equal(got.matrix, want.matrix)
        np.testing.assert_array_equal(back.spectrum, clf.spectrum)
        np.testing.assert_array_equal(back.mean1, clf.mean1)
        np.testing.assert_array_equal(back.mean2, clf.mean2)


def _moments_pair(scale1, scale2, n):
    return (ClassSpec(0.5, analytic_moments(np.zeros(n), scale1 * np.eye(n))),
            ClassSpec(0.5, analytic_moments(np.zeros(n), scale2 * np.eye(n))))


@pytest.mark.parametrize("pair, rank1, field", [
    (_moments_pair(1.0, 1.0, 3), 0, "U1="),  # k = 0
    (_moments_pair(2.0, 1.0, 3), 3, "U2="),  # k = n
    (gaussian_pair(), 1, "U1=1,0"),  # the tie k = n - k
    (_moments_pair(2.0, 1.0, 1), 1, "U2="),  # n = 1
    (_moments_pair(1.0, 2.0, 1), 0, "U1="),
])
def test_model_v2_edge_ranks(pair, rank1, field):
    clf = fit(*pair)
    assert clf.proj1.rank == rank1
    text = format_model(clf)
    assert text.endswith(f"\nrank1={rank1}\n{field}\n")
    back = parse_model(text)
    assert format_model(back) == text
    assert (back.proj1.rank, back.proj2.rank) == (rank1, clf.dim - rank1)
    np.testing.assert_array_equal(back.proj1.matrix, clf.proj1.matrix)
    np.testing.assert_array_equal(back.proj2.matrix, clf.proj2.matrix)


def test_save_model_refuses_a_spectrum_the_reader_refuses(tmp_path):
    # an arbitrary complementary pair with spectrum 0, 0, as the acceptance
    # tests build it: rank(P1) = 1, yet no eigenvalue is above eps
    p = projector_from_basis([np.array([1.0, 1.0]) / np.sqrt(2.0)])
    clf = EnergyClassifier(**_classifier_fields(proj1=p, proj2=complement(p),
                                                spectrum=np.zeros(2)))
    with pytest.raises(InvalidParameter, match="spectrum"):
        format_model(clf)
    path = tmp_path / "model.txt"
    save_model(fit(*gaussian_pair()), path)
    before = path.read_bytes()
    with pytest.raises(InvalidParameter, match="spectrum"):
        save_model(clf, path)
    assert path.read_bytes() == before
    assert load_model(path).proj1.rank == 1


def test_parse_model_rejects_garbage():
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError, match="^line 13: unexpected model line 'mystery=1'$"):
        parse_model(text + "mystery=1\n")
    with pytest.raises(ParseError, match="^model file is missing its format_version field$"):
        parse_model("\n".join(text.splitlines()[1:]))  # header dropped
    with pytest.raises(ParseError, match="^bad model field: could not convert"):
        parse_model(text.replace("p1=", "p1=abc;"))


@pytest.mark.parametrize("version", ["1", "3", "", "2.0"])
def test_parse_model_refuses_another_format_version(version):
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError, match=f"^unsupported format_version '{version}'; "
                                         "refit the model$"):
        parse_model(text.replace("format_version=2", f"format_version={version}"))


def test_parse_model_refuses_a_v1_file_before_naming_its_p1_line():
    with pytest.raises(ParseError, match="^unsupported format_version '1'; "
                                         "refit the model$") as info:
        parse_model(V1_MODEL)
    assert info.value.line is None
    # the version is read wherever it stands, after a bad line too
    lines = V1_MODEL.splitlines()
    with pytest.raises(ParseError, match="format_version '1'"):
        parse_model("\n".join(lines[1:] + ["mystery", lines[0]]))


def test_parse_model_rejects_repeated_field():
    clf = fit(*gaussian_pair())
    text = format_model(clf)
    assert "mode=raw\n" in text
    with pytest.raises(ParseError, match="repeated model field 'mode'") as info:
        parse_model(text + "mode=centered\n")
    assert info.value.line == len(text.splitlines()) + 1


# the lines of a version-2 model of gaussian_pair, in the order written
_MODEL_LINE_KEYS = ["format_version", "n", "mode", "p1", "p2", "trK1", "trK2",
                    "m1", "m2", "spectrum", "rank1", "U1"]


def _replace_field(text, key, value):
    return "".join(f"{key}={value}\n" if ln.startswith(f"{key}=") else ln + "\n"
                   for ln in text.splitlines())


@pytest.mark.parametrize("key", _MODEL_LINE_KEYS)
def test_parse_model_refuses_a_second_copy_of_any_line(key):
    # even a line repeated word for word is refused, on the repeat's line
    text = format_model(fit(*gaussian_pair()))
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key}="))
    with pytest.raises(ParseError, match=f"^line 13: repeated model field '{key}'$"):
        parse_model(text + line + "\n")


@pytest.mark.parametrize("key", [k for k in _MODEL_LINE_KEYS if k not in ("format_version", "U1")])
def test_parse_model_names_a_missing_field(key):
    text = format_model(fit(*gaussian_pair()))
    kept = [ln for ln in text.splitlines() if not ln.startswith(f"{key}=")]
    with pytest.raises(ParseError, match=f"^model file is missing fields: {key}$"):
        parse_model("\n".join(kept) + "\n")


@pytest.mark.parametrize("key", ["n", "mode", "p1", "p2", "trK1", "trK2"])
@pytest.mark.parametrize("entry", ["abc", ""])
def test_parse_model_rejects_bad_scalar_entry(key, entry):
    text = format_model(fit(*gaussian_pair(), NormalizationMode.TRACE))
    with pytest.raises(ParseError, match="^bad model field: "):
        parse_model(_replace_field(text, key, entry))


@pytest.mark.parametrize("key, value", [("U1", "nan,0"), ("m1", "inf,0"),
                                        ("trK2", "nan"), ("spectrum", "2,-inf"),
                                        ("m2", "0,nan"), ("trK1", "inf"), ("p1", "nan")])
def test_parse_model_rejects_nonfinite_fields(key, value):
    # the basis is checked by the reader, the other fields by the classifier
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError, match="^(model|classifier) fields must be finite numbers$"):
        parse_model(_replace_field(text, key, value))


@pytest.mark.parametrize("key", ["m1", "m2", "spectrum", "U1"])
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
    with pytest.raises(ParseError, match=r"^priors .* must lie in \(0,1\) and sum to 1$"):
        parse_model(_replace_field(_replace_field(text, "p1", p1), "p2", p2))


def test_parse_model_checks_entry_counts():
    text = _replace_field(format_model(fit(*gaussian_pair())), "spectrum", "1")
    with pytest.raises(ParseError, match="must have length dim=2"):
        parse_model(text)


def test_parse_model_refuses_short_vectors_before_building_the_pair():
    # rank1=0 and an empty U1 would make P2 the complete n-by-n QR basis
    text = ("format_version=2\nn=2000\nmode=raw\np1=0.5\np2=0.5\ntrK1=1\ntrK2=1\n"
            "m1=0\nm2=0\nspectrum=0\nrank1=0\nU1=\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="must have length dim=2000"):
            parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def _random_v2_text():
    """Model text with n = 5 and rank1 = 2, so U1 holds 10 entries."""
    q = np.linalg.qr(np.random.default_rng(47).standard_normal((5, 5)))[0]
    k1 = q @ np.diag([2.0, 2.0, 0.5, 0.5, 0.5]) @ q.T
    clf = fit(ClassSpec(0.5, analytic_moments(np.zeros(5), k1)),
              ClassSpec(0.5, analytic_moments(np.zeros(5), np.eye(5))))
    assert clf.proj1.rank == 2
    return format_model(clf)


def _basis_entries(text, key="U1"):
    return np.array([float(v) for v in
                     text.split(f"\n{key}=", 1)[1].split("\n", 1)[0].split(",")])


def test_parse_model_v2_rejects_bad_basis():
    text = _random_v2_text()
    entries = _basis_entries(text)
    assert entries.size == 5 * 2
    bad = entries.copy()
    bad[3] = np.nan
    with pytest.raises(ParseError, match="finite"):
        parse_model(_replace_field(text, "U1", ",".join("%.17g" % v for v in bad)))
    scaled = ",".join("%.17g" % v for v in entries * (1.0 + 1e-6))
    with pytest.raises(InvalidMatrix, match="orthonormal"):
        parse_model(_replace_field(text, "U1", scaled))
    for count in (9, 11, 0):
        short = ",".join("%.17g" % v for v in np.resize(entries, count))
        with pytest.raises(ParseError, match="entries"):
            parse_model(_replace_field(text, "U1", short))


@pytest.mark.parametrize("rank1", ["1.5", "-1", "6", ""])
def test_parse_model_v2_rejects_bad_rank1(rank1):
    with pytest.raises(ParseError, match="rank1"):
        parse_model(_replace_field(_random_v2_text(), "rank1", rank1))


def test_parse_model_v2_needs_exactly_the_smaller_basis():
    text = _random_v2_text()
    lines = text.splitlines()
    with pytest.raises(ParseError, match="missing fields: U1 or U2"):
        parse_model("\n".join(ln for ln in lines if not ln.startswith("U1=")) + "\n")
    u2 = "U2=" + ",".join(["0"] * 15)
    with pytest.raises(ParseError, match="both U1 and U2") as info:
        parse_model(text + u2 + "\n")
    assert info.value.line == len(lines) + 1
    # rank1 = 2 of 5 must store U1; the same entries under U2 are refused
    with pytest.raises(ParseError, match="smaller basis"):
        parse_model(text.replace("\nU1=", "\nU2="))


def test_parse_model_refuses_a_p1_line_in_a_v2_file():
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError, match="^line 13: unexpected model line 'P1=1,0,0,0'$"):
        parse_model(text + "P1=1,0,0,0\n")


@pytest.mark.parametrize("spectrum", [
    "-3,-7",  # no eigenvalue above eps, but P1 has rank 1
    "-0.5,2",  # one above eps, but ascending
    "2,0.5",  # one eigenvalue above eps too many
])
def test_parse_model_checks_spectrum_against_rank(spectrum):
    clf = fit(*gaussian_pair())
    text = format_model(clf)
    assert clf.proj1.rank == 1
    with pytest.raises(ParseError, match="spectrum"):
        parse_model(_replace_field(text, "spectrum", spectrum))


def test_parse_model_spectrum_rank_uses_fit_eps():
    # 1e-11 is below eps = 1e-10 * max(1, 2), so the rank stays 1
    text = format_model(fit(*gaussian_pair()))
    assert parse_model(_replace_field(text, "spectrum", "2,1e-11")).proj1.rank == 1
    with pytest.raises(ParseError, match="spectrum"):
        parse_model(_replace_field(text, "spectrum", "2,1e-9"))


@pytest.mark.parametrize("n", ["0", "-1"])
def test_parse_model_rejects_a_dimension_below_one(n):
    text = format_model(fit(*gaussian_pair()))
    with pytest.raises(ParseError, match=f"^n={n} must be at least 1$"):
        parse_model(_replace_field(text, "n", n))


def test_parse_model_skips_blank_lines():
    text = format_model(fit(*gaussian_pair()))
    assert format_model(parse_model("\n" + text.replace("\n", "\n\n  \n"))) == text


def test_energy_report_rejects_moments_of_another_dimension():
    clf = fit(*gaussian_pair())
    c1, c2 = gaussian_pair()
    c3 = ClassSpec(0.5, analytic_moments(np.zeros(3), np.eye(3)))
    for pair in ((c3, c2), (c1, c3)):
        with pytest.raises(DimensionMismatch, match="model dimension"):
            energy_report(clf, *pair)
