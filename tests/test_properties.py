"""Hypothesis properties of the model file, of the CSV float writer, of
decisions at any scale and of fits at a power-of-two scale.

Every example is drawn from a fixed seed (`derandomize=True`), so the suite
stays deterministic. The fits run over n in 1..8, all four modes, random
priors and random PSD class moments.
"""

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from energydisc import _text  # noqa: E402
from energydisc import (  # noqa: E402
    ClassSpec,
    EnergydiscError,
    NormalizationMode,
    analytic_moments,
    decide_batch,
    estimate_moments,
    fit,
    format_model,
    parse_model,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

_ENTRIES = st.floats(-3.0, 3.0, allow_subnormal=False)


def _moments(draw, n):
    """Class moments with mean m and covariance A A^T, both drawn."""
    a = draw(arrays(np.float64, (n, n), elements=_ENTRIES))
    return analytic_moments(draw(arrays(np.float64, n, elements=_ENTRIES)), a @ a.T)


@st.composite
def fitted(draw, modes=tuple(NormalizationMode)):
    n = draw(st.integers(1, 8))
    mode = draw(st.sampled_from(modes))
    prior = draw(st.floats(0.01, 0.99))
    m1, m2 = _moments(draw, n), _moments(draw, n)
    if mode is NormalizationMode.TRACE:
        assume(np.trace(m1.correlation) > 0.0 and np.trace(m2.correlation) > 0.0)
    return fit(ClassSpec(prior, m1), ClassSpec(1.0 - prior, m2), mode)


@PROPERTY
@given(fitted())
def test_model_text_round_trip_is_exact(clf):
    text = format_model(clf)
    back = parse_model(text)
    assert format_model(back) == text
    for mine, theirs in ((back.proj1, clf.proj1), (back.proj2, clf.proj2)):
        np.testing.assert_array_equal(mine.basis, theirs.basis)


_ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 1.0, 0.5 + 1e-13, 1e-300, 1e308])


def _bad_value(draw, clf, field):
    """A replacement for `field`: any float or mode, or a vector of nearly
    the right length whose entries may be non-finite, descend or arrive as
    a list."""
    if field == "mode":
        return draw(st.sampled_from(list(NormalizationMode)))
    if field not in ("mean1", "mean2", "spectrum"):
        return draw(_ANY_FLOAT)
    length = draw(st.sampled_from([clf.dim, clf.dim, clf.dim - 1, clf.dim + 1]))
    entries = draw(st.sampled_from([st.floats(-5.0, 5.0), _ANY_FLOAT]))
    vector = draw(arrays(np.float64, length, elements=entries))
    shape = draw(st.sampled_from(["array", "descending", "list"]))
    if shape == "descending":
        return np.sort(vector)[::-1]
    return vector.tolist() if shape == "list" else vector


_FIELDS = ["spectrum", "mean1", "mean2", "tr_k1", "tr_k2", "prior1", "prior2", "mode"]


@PROPERTY
@given(fitted(), st.sampled_from(_FIELDS), st.data())
def test_a_model_that_saves_also_loads(clf, field, data):
    value = _bad_value(data.draw, clf, field)
    try:
        text = format_model(dataclasses.replace(clf, **{field: value}))
    except EnergydiscError:
        return  # refused by the classifier or by the writer
    assert format_model(parse_model(text)) == text


@PROPERTY
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_csv_rows_write_every_finite_float_as_float_fmt_does(values):
    texts = [_text._FLOAT_FMT % v for v in values]
    row = np.array([[2.0, *values]])
    text = _text._kernel_text(row, _text._Workspace(row.size)).decode()
    assert text == ",".join(["2", *texts]) + "\n"
    # the kernel takes the inputs it is chosen for, as it takes CSV blocks, whatever the count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_text, "_KERNEL_VALUES", 1)
        assert _text._format_floats([[2.0, *values]]) == ",".join(["2", *texts]) + "\n"
        assert _text._format_floats(values) == ",".join(texts)
        assert [_text._format_floats(v) for v in values] == texts


@PROPERTY
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                         max_size=40), min_size=1, max_size=4))
def test_one_workspace_writes_blocks_of_any_length_as_float_fmt_does(blocks):
    ws = _text._Workspace(41)
    for values in blocks:
        row = np.array([[2.0, *values]])
        want = ",".join(["2", *(_text._FLOAT_FMT % v for v in values)]) + "\n"
        assert _text._kernel_text(row, ws).decode() == want


# multiples of 2^-10 up to 2^10: no entry of 2^k x is subnormal for k >= -900
_ROW_ENTRIES = st.integers(-2**20, 2**20).map(lambda v: v / 1024)
# k in [-900, 900], a third of the draws beyond each end of [-500, 500],
# where the energies of 2^k x underflow or overflow
_SCALES = st.integers(-900, -501) | st.integers(-500, 500) | st.integers(501, 900)


@PROPERTY
@given(fitted(modes=(NormalizationMode.RAW, NormalizationMode.TRACE, NormalizationMode.UNIT)),
       _SCALES, st.data())
def test_decisions_do_not_depend_on_a_power_of_two_scale(clf, k, data):
    x = data.draw(arrays(np.float64, (4, clf.dim), elements=_ROW_ENTRIES))
    try:
        want = decide_batch(clf, x)
        got = decide_batch(clf, np.ldexp(x, k))
    except EnergydiscError:
        return  # a typed error, such as unit mode's zero rows
    np.testing.assert_array_equal(got, want)


# 2^k with |k| <= 150 keeps the moments within 2^+-300, where LAPACK's eigh
# runs unscaled and so is exactly 4^k-equivariant (not so at 2^+-500); unit
# mode normalizes the rows, but keeps an absolute zero-norm threshold
_SCALED_MODES = [m for m in NormalizationMode if m is not NormalizationMode.UNIT]


@PROPERTY
@given(st.integers(1, 6), st.sampled_from(_SCALED_MODES), st.integers(-150, 150), st.data())
def test_fit_and_decisions_do_not_depend_on_a_power_of_two_scale(n, mode, k, data):
    rows = [data.draw(arrays(np.float64, (data.draw(st.integers(2, 12)), n),
                             elements=_ROW_ENTRIES)) for _ in range(2)]
    x = data.draw(arrays(np.float64, (4, n), elements=_ROW_ENTRIES))

    def fitted_at(scale):
        return fit(*(ClassSpec(p, estimate_moments(np.ldexp(r, scale)))
                     for p, r in zip((0.4, 0.6), rows)), mode)

    try:
        want = fitted_at(0)
    except EnergydiscError:
        return  # a typed error, such as trace mode's all-zero class
    got = fitted_at(k)
    assert got.proj1.rank == want.proj1.rank
    np.testing.assert_array_equal(got.proj1.basis, want.proj1.basis)
    np.testing.assert_array_equal(decide_batch(got, np.ldexp(x, k)), decide_batch(want, x))
