import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from energydisc import _text, datasets
from energydisc import (
    DimensionMismatch,
    InvalidParameter,
    LabeledDataset,
    LabelError,
    ParseError,
    ZeroSignal,
    gen_example1,
    gen_example2,
    load_csv,
    make_rng,
    save_csv,
    unit_normalized,
)


def test_labeled_dataset_basics():
    data = LabeledDataset(np.array([1, 2, 1]), np.arange(6.0).reshape(3, 2))
    assert len(data) == 3
    assert data.dim == 2
    np.testing.assert_allclose(data.class_features(1), [[0.0, 1.0], [4.0, 5.0]])
    np.testing.assert_allclose(data.class_features(2), [[2.0, 3.0]])


def test_labeled_dataset_validation():
    with pytest.raises(LabelError):
        LabeledDataset(np.array([1, 3]), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        LabeledDataset(np.array([1, 2, 1]), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        LabeledDataset(np.array([1]), np.zeros(3))


def test_labeled_dataset_refuses_ragged_labels():
    with pytest.raises(DimensionMismatch, match="labels must be a 1-d array"):
        LabeledDataset([[1], [1, 2]], [[1.0], [2.0]])


@pytest.mark.parametrize("labels, found", [
    ([1.5, 2.0], "1.5"), ([np.nan, 2.0], "nan"), ([2, 3, 0], "3")])
def test_labeled_dataset_names_the_first_label_not_1_or_2(labels, found):
    with pytest.raises(LabelError, match=f"found {found}$"):
        LabeledDataset(labels, np.zeros((len(labels), 2)))


@pytest.mark.parametrize("labels", [[1, 2], [1.0, 2.0], np.array([2.0, 1.0])])
def test_labeled_dataset_takes_integer_and_float_labels(labels):
    data = LabeledDataset(labels, np.zeros((2, 2)))
    assert data.labels.dtype.kind == "i"
    np.testing.assert_array_equal(data.labels, labels)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_labeled_dataset_rejects_nonfinite_features(value):
    features = np.zeros((3, 2))
    features[1, 0] = value
    with pytest.raises(InvalidParameter, match="row 2"):
        LabeledDataset(np.array([1, 2, 1]), features)


def _screen_case(shape, **entries):
    x = np.zeros(shape)
    for where, value in entries.items():
        row, col = map(int, where[1:].split("_"))
        x[row, col] = value
    return x


_SCREEN_CASES = {
    "nan": _screen_case((5, 3), r2_1=np.nan),
    "inf-first-row": _screen_case((5, 3), r0_0=np.inf),
    "minus-inf-last-row": _screen_case((5, 3), r4_2=-np.inf),
    "inf-minus-inf": _screen_case((5, 3), r3_0=np.inf, r3_2=-np.inf),
    # a finite row whose sum overflows is cleared, and the later nan row named
    "overflowing-sum-before-nan": _screen_case((5, 3), r1_0=1e308, r1_1=1e308, r3_2=np.nan),
    "overflowing-sums-only": np.full((4, 3), 1e308),
    "finite": np.arange(12.0).reshape(4, 3),
    "empty": np.zeros((0, 3)),
    "zero-width": np.zeros((4, 0)),
}


@pytest.mark.parametrize("x", _SCREEN_CASES.values(), ids=_SCREEN_CASES.keys())
def test_nonfinite_screen_gives_the_answer_of_the_mask(x):
    finite = np.isfinite(x).all(axis=1)
    assert datasets._first_nonfinite_row(x) == (None if finite.all() else int(np.argmin(finite)))


def test_labeled_dataset_allocates_little_beyond_its_rows():
    # the finiteness screen keeps one float a row, not one bool an entry
    features = np.random.default_rng(25).standard_normal((20000, 128))
    labels = np.repeat([1, 2], 10000)
    tracemalloc.start()
    try:
        LabeledDataset(labels, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.03 * features.nbytes


# (labels, label, whether the rows labeled `label` form one consecutive run)
_CLASS_LAYOUTS = [
    ([1, 1, 1, 2, 2], 1, True),
    ([1, 1, 1, 2, 2], 2, True),
    ([2, 1, 1, 1, 2], 1, True),
    ([1, 2, 1, 2, 1], 1, False),
    ([1, 2, 2, 1, 2], 2, False),
    ([2, 2, 2, 2, 2], 1, False),  # an empty class shares no bytes
    ([2, 2, 1, 2, 2], 1, True),  # one row
    ([1], 1, True),
    ([], 1, False),
]


@pytest.mark.parametrize("labels, label, consecutive", _CLASS_LAYOUTS)
def test_class_rows_are_the_read_only_mask_result(labels, label, consecutive):
    labels = np.array(labels)
    data = LabeledDataset(labels, np.arange(3.0 * labels.size).reshape(-1, 3))
    # feature rows, and the per-row arrays of a scoring pass
    per_row = (np.linspace(0.5, 2.5, labels.size), np.arange(labels.size) % 2 == 0)
    cases = [(data.features, data.class_features(label))]
    cases += [(x, datasets._class_rows(labels, x, label)) for x in per_row]
    for x, rows in cases:
        expected = x[labels == label]
        np.testing.assert_array_equal(rows, expected)
        assert (rows.dtype, rows.shape) == (expected.dtype, expected.shape)
        assert rows.flags.c_contiguous == expected.flags.c_contiguous
        assert not rows.flags.writeable and x.flags.writeable
        assert np.shares_memory(rows, x) == consecutive


def test_class_features_of_rows_not_in_c_order_is_the_mask_copy():
    # a slice of Fortran-ordered rows is not C-contiguous, the mask's copy is
    features = np.asfortranarray(np.arange(12.0).reshape(4, 3))
    data = LabeledDataset(np.array([1, 1, 2, 2]), features)
    rows = data.class_features(1)
    np.testing.assert_array_equal(rows, features[:2])
    assert rows.flags.c_contiguous and not rows.flags.writeable
    assert not np.shares_memory(rows, features)


def test_class_features_of_a_consecutive_class_copies_nothing():
    # numpy reports its data buffers to tracemalloc
    rows, n = 200_000, 8
    data = LabeledDataset(np.repeat([1, 2], rows // 2), np.ones((rows, n)))
    class_bytes = rows // 2 * n * 8
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        ones = data.class_features(1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ones.shape == (rows // 2, n)
    assert held - before < 0.01 * class_bytes
    # the only transient is the label mask, one byte a row
    assert peak - before < rows + 0.01 * class_bytes


def test_make_rng_reproducible():
    a = make_rng(1234).standard_normal(5)
    b = make_rng(1234).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_make_rng_refuses_a_negative_seed():
    with pytest.raises(InvalidParameter, match="^seed must be a non-negative integer"):
        make_rng(-1)


_GENERATORS = {
    "example1": lambda per_class, seed: gen_example1(2, [2.0, 0.0], [0.0, 1.0], np.eye(2),
                                                     per_class, seed),
    "example2": lambda per_class, seed: gen_example2(3, [1, 2, 3], 1.0, per_class, seed),
    # the blocks are drawn lazily, so a refusal at the call comes before any draw
    "example2_blocks": lambda per_class, seed: datasets._example2_blocks(3, [1, 2, 3], 1.0,
                                                                         per_class, seed),
}


@pytest.mark.parametrize("generator", list(_GENERATORS))
@pytest.mark.parametrize("per_class, seed, name", [
    (-1, 1, "per_class"), (1.5, 1, "per_class"), (1, -1, "seed"),
])
def test_generators_refuse_a_bad_count_or_seed_by_name(generator, per_class, seed, name):
    with pytest.raises(InvalidParameter, match=f"^{name} must be a non-negative integer"):
        _GENERATORS[generator](per_class, seed)


def test_gen_example1_layout_and_determinism():
    data = gen_example1(2, [2.0, 0.0], [0.0, 1.0], np.eye(2), per_class=50, seed=9)
    assert len(data) == 100 and data.dim == 2
    np.testing.assert_array_equal(data.labels, np.repeat([1, 2], 50))
    again = gen_example1(2, [2.0, 0.0], [0.0, 1.0], np.eye(2), per_class=50, seed=9)
    np.testing.assert_array_equal(data.features, again.features)
    other = gen_example1(2, [2.0, 0.0], [0.0, 1.0], np.eye(2), per_class=50, seed=10)
    assert np.any(data.features != other.features)


def test_gen_example1_sample_moments():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    data = gen_example1(2, [3.0, 0.0], [0.0, -2.0], cov, per_class=60000, seed=77)
    x1 = data.class_features(1)
    np.testing.assert_allclose(x1.mean(axis=0), [3.0, 0.0], atol=0.05)
    centered = x1 - x1.mean(axis=0)
    np.testing.assert_allclose(centered.T @ centered / len(x1), cov, atol=0.05)


def test_gen_example1_requires_orthogonal_means():
    with pytest.raises(InvalidParameter):
        gen_example1(2, [1.0, 0.0], [1.0, 1.0], np.eye(2), per_class=5, seed=0)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_gen_example1_orthogonality_test_is_scale_free(scale):
    # at 1e200 the dot product and the norms of the means overflow, at
    # 1e-200 they underflow to 0
    data = gen_example1(2, [scale, 0.0], [0.0, scale], np.eye(2), per_class=2, seed=0)
    assert np.isfinite(data.features).all()
    with pytest.raises(InvalidParameter, match="orthogonal"):
        gen_example1(2, [scale, scale], [scale, 0.0], np.eye(2), per_class=2, seed=0)


@pytest.mark.parametrize("m1, m2", [([np.inf, 0.0], [0.0, 1.0]),
                                    ([1.0, 0.0], [0.0, np.nan]),
                                    ([-np.inf, 0.0], [0.0, np.inf])])
def test_gen_example1_rejects_nonfinite_means(m1, m2):
    with pytest.raises(InvalidParameter):
        gen_example1(2, m1, m2, np.eye(2), per_class=5, seed=0)


def test_gen_example1_shape_checks():
    with pytest.raises(DimensionMismatch):
        gen_example1(2, [1.0, 0.0, 0.0], [0.0, 1.0], np.eye(2), per_class=5, seed=0)
    with pytest.raises(DimensionMismatch):
        gen_example1(2, [1.0, 0.0], [0.0, 1.0], np.eye(3), per_class=5, seed=0)


def test_gen_example2_layout_and_moments():
    a = np.array([1.0, -2.0, 0.5])
    data = gen_example2(3, a, 0.25, per_class=60000, seed=3)
    assert len(data) == 120000 and data.dim == 3
    np.testing.assert_allclose(data.class_features(1).mean(axis=0), a, atol=0.02)
    np.testing.assert_allclose(data.class_features(2).mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(data.class_features(2).var(axis=0), 0.25, atol=0.02)


def test_gen_example2_rejects_bad_noise():
    for sigma2 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            gen_example2(2, [1.0, 0.0], sigma2, per_class=5, seed=0)
    for a in ([np.nan, 0.0], [1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(InvalidParameter):
            gen_example2(2, a, 1.0, per_class=5, seed=0)
    with pytest.raises(DimensionMismatch):
        gen_example2(2, [1.0, 0.0, 0.0], 1.0, per_class=5, seed=0)


@pytest.mark.parametrize("write", [
    lambda path: gen_example1(0, [], [], np.zeros((0, 0)), per_class=2, seed=0),
    lambda path: gen_example2(0, [], 1.0, per_class=2, seed=0),
    lambda path: save_csv(LabeledDataset(np.array([1, 2]), np.zeros((2, 0))), path),
    lambda path: save_csv([(np.array([1]), np.zeros((1, 0)))], path),
], ids=["gen_example1", "gen_example2", "save_csv", "save_csv-blocks"])
def test_zero_width_is_refused(tmp_path, write):
    # a CSV file needs a feature column: load_csv refuses the header `label,`
    path = tmp_path / "data.csv"
    with pytest.raises(DimensionMismatch, match="at least 1|at least one feature"):
        write(path)
    assert not path.exists()


def test_unit_normalized():
    data = LabeledDataset(np.array([1, 2]), np.array([[3.0, 4.0], [0.0, -2.0]]))
    unit = unit_normalized(data)
    np.testing.assert_allclose(np.linalg.norm(unit.features, axis=1), 1.0)
    np.testing.assert_allclose(unit.features[0], [0.6, 0.8])
    np.testing.assert_array_equal(unit.labels, data.labels)


def test_unit_normalized_rows_whose_norm_overflows():
    # only the rows whose norm overflows are rescaled, by a power of two,
    # so every row gets the bits of its unscaled twin
    x = np.random.default_rng(22).standard_normal((6, 4))
    scaled = x * np.ldexp(1.0, [0, 600, 3, 900, 511, 1000])[:, None]
    labels = np.ones(6, dtype=int)
    np.testing.assert_array_equal(unit_normalized(LabeledDataset(labels, scaled)).features,
                                  unit_normalized(LabeledDataset(labels, x)).features)


def test_unit_normalized_rejects_zero_row():
    data = LabeledDataset(np.array([1, 2]), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroSignal, match="row 2"):
        unit_normalized(data)


def test_zero_signal_carries_the_row_index():
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroSignal, match="row 3") as info:
        unit_normalized(LabeledDataset(np.array([2, 1, 1, 2]), features))
    assert info.value.row == 2
    assert ZeroSignal("no row").row is None


def test_csv_round_trip_exact(tmp_path):
    data = gen_example2(4, [0.3, -1.7, 2.5, 0.0], 1.5, per_class=25, seed=21)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.labels, data.labels)
    np.testing.assert_array_equal(back.features, data.features)
    save_csv(back, tmp_path / "again.csv")
    assert path.read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_csv_bytes_of_a_seeded_dataset(tmp_path):
    # only PCG64's standard_normal, elementwise arithmetic and %.17g make
    # this text; no LAPACK call is involved
    path = tmp_path / "pinned.csv"
    save_csv(gen_example2(2, [1.5, -0.5], 0.8, per_class=2, seed=7), path)
    assert path.read_bytes() == (
        b"label,x1,x2\n"
        b"1,1.5011002826120323,-0.23279386806253927\n"
        b"1,1.2548036480816305,-1.2965695566671189\n"
        b"2,-0.40666991321086998,-0.88695564265022941\n"
        b"2,0.05379407352784215,1.1987249574166039\n"
    )


def test_csv_header_layout(tmp_path):
    data = LabeledDataset(np.array([2, 1]),
                          np.array([[1.0, 2.0, 3.0], [0.1, -3e-20, 1e300]]))
    path = tmp_path / "one.csv"
    save_csv(data, path)
    assert path.read_bytes() == (
        b"label,x1,x2,x3\n"
        b"2,1,2,3\n"
        b"1,0.10000000000000001,-3.0000000000000003e-20,1.0000000000000001e+300\n"
    )


def _float_mismatches(values, *, one_by_one: bool = False) -> list:
    """(value, written, expected) for each value that the kernel or
    `_text._format_floats` writes otherwise than `_FLOAT_FMT % v`. The
    kernel writes the values in blocks of `_WRITE_FLOATS` through one
    workspace: as a column, as one row a block, and each paired with 1, so
    that at least half of every block lies in [1e-4, 1e17) and the kernel's
    own arithmetic takes each value. `_format_floats` writes them as one
    column, as one 1-d vector and, if `one_by_one`, each on its own."""
    values = np.asarray(values, dtype=float).ravel()
    want = [_text._FLOAT_FMT % v for v in values.tolist()]
    step = _text._WRITE_FLOATS
    ws = _text._Workspace(2 * step)
    blocks = [values[start:start + step] for start in range(0, values.size, step)]

    def kernel(shape) -> list:
        return [_text._kernel_text(shape(block), ws).decode() for block in blocks]

    shapes = [
        "".join(kernel(lambda block: block[:, None])).splitlines(),
        ",".join(text[:-1] for text in kernel(lambda block: block[None, :])).split(","),
        [line[:line.index(",")] for text in kernel(lambda block: np.stack(
            [block, np.ones_like(block)], axis=1)) for line in text.splitlines()],
        _text._format_floats(values[:, None]).splitlines(),
        _text._format_floats(values).split(","),
    ]
    if one_by_one:
        shapes.append([_text._format_floats(v) for v in values.tolist()])
    assert all(len(written) == len(values) for written in shapes)
    return [(v, got, expected) for written in shapes
            for v, got, expected in zip(values.tolist(), written, want) if got != expected]


def test_csv_floats_at_the_edges_match_float_fmt():
    huge = np.finfo(float).max
    powers = np.array([float(f"1e{j}") for j in range(-6, 19)] + [1e-4, 1e17])
    values = np.concatenate([
        [0.0, 5e-324, 2.2250738585072014e-308, huge, np.nextafter(huge, 0.0)],
        powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0),
    ])
    assert _float_mismatches(np.concatenate([values, -values]), one_by_one=True) == []


def test_csv_floats_round_17_digit_ties_to_even():
    # x = M / 2^(17-k) with M odd and 10^k <= x < 10^(k+1) makes
    # x * 10^(16-k) = M * 5^(16-k) / 2 an exact tie; M < 2^53 keeps x exact
    rng = np.random.default_rng(5)
    ties = []
    for k in range(-4, 15):
        low, high = (math.ceil(Fraction(10) ** (k + i) * 2 ** (17 - k)) for i in (0, 1))
        odd = 2 * rng.integers(low // 2, high // 2, 10_600) + 1
        ties.append(np.ldexp(odd.astype(float), k - 17))
    assert _float_mismatches(np.concatenate(ties)) == []


def test_csv_floats_of_random_magnitudes_match_float_fmt():
    rng = np.random.default_rng(11)
    values = 10.0 ** rng.uniform(-320, 308, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert _float_mismatches(values) == []


def test_format_floats_never_runs_the_kernel(monkeypatch):
    kernel = _text._kernel_text

    def refused(rows, ws):
        raise AssertionError("the kernel writes CSV blocks only")

    monkeypatch.setattr(_text, "_kernel_text", refused)
    # 229 and 230 values lie either side of where the kernel once took over;
    # the kernel writes the same bytes
    for count in (229, 230, 10_000):
        values = np.arange(count) / 7
        want = [_text._FLOAT_FMT % v for v in values.tolist()]
        ws = _text._Workspace(count)
        assert _text._format_floats(values) == ",".join(want)
        assert kernel(values[None, :], ws).decode() == ",".join(want) + "\n"
        if count % 2 == 0:  # as rows of two
            lines = "".join(",".join(pair) + "\n" for pair in zip(want[::2], want[1::2]))
            assert _text._format_floats(values.reshape(-1, 2)) == lines
            assert kernel(values.reshape(-1, 2), ws).decode() == lines
    assert _text._format_floats([]) == _text._format_floats(np.zeros((0, 3))) == ""


def test_kernel_writes_a_block_mostly_out_of_range_by_percent(monkeypatch):
    calls = []
    joined = _text._joined_rows

    def counted(rows):
        calls.append(rows.size)
        return joined(rows)

    monkeypatch.setattr(_text, "_joined_rows", counted)
    values = np.full((10, 30), 0.5)
    ws = _text._Workspace(values.size)
    # half of the values out of range go to the kernel, one more to `%`
    for out, used in ((150, []), (151, [300])):
        values.flat[:out] = 1e20
        calls.clear()
        want = "".join(",".join(_text._FLOAT_FMT % v for v in row) + "\n"
                       for row in values.tolist())
        assert _text._kernel_text(values, ws).decode() == want
        assert calls == used


def _percent_rows(rows) -> str:
    return "".join(",".join(_text._FLOAT_FMT % v for v in row) + "\n" for row in rows.tolist())


def _edge_rows(width: int) -> np.ndarray:
    """Rows of width `width` of ±0, subnormals, 1e300 and values at and next
    to powers of ten, which the kernel writes by `%` or near its range check."""
    powers = np.array([float(f"1e{j}") for j in range(-6, 19)])
    edges = np.concatenate([[0.0, 5e-324, 2.2250738585072014e-308, 1e300], powers,
                            np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)])
    edges = np.concatenate([edges, -edges])
    return np.resize(edges, (-(-edges.size // width), width))


def test_one_workspace_writes_each_block_afresh():
    # a full block, a shorter last one, a narrower one, one mostly outside
    # [1e-4, 1e17) and one of edge values: no byte of a longer block may leak
    rng = np.random.default_rng(27)
    blocks = [rng.standard_normal((64, 65)) * 1e3, rng.standard_normal((9, 65)),
              rng.standard_normal((40, 7)), 10.0 ** rng.uniform(-300, 300, (30, 65)),
              _edge_rows(65), _edge_rows(3)]
    ws = _text._Workspace(64 * 65)
    for rows in blocks:
        want = _percent_rows(rows)
        assert _text._kernel_text(rows, ws).decode() == want


@pytest.mark.parametrize("write_floats", [300, 1000])
def test_save_csv_writes_each_block_afresh_through_one_workspace(monkeypatch, tmp_path,
                                                                 write_floats):
    rng = np.random.default_rng(28)
    features = [rng.standard_normal((100, 7)), rng.standard_normal((5, 7)),
                10.0 ** rng.uniform(-300, 300, (50, 7)), _edge_rows(7)]
    blocks = [(np.resize([1, 2], len(x)), x) for x in features]
    monkeypatch.setattr(datasets, "_WRITE_FLOATS", write_floats)
    save_csv(blocks, tmp_path / "blocks.csv")
    rows = np.concatenate([np.column_stack(block) for block in blocks])
    header = "label," + ",".join(f"x{i + 1}" for i in range(7)) + "\n"
    assert (tmp_path / "blocks.csv").read_text() == header + _percent_rows(rows)


def test_save_csv_forms_each_blocks_range_mask_once(monkeypatch, tmp_path):
    # rows of width 8 in blocks of 512: 1000 ordinary rows make two blocks
    # for the kernel, 300 rows mostly outside [1e-4, 1e17) one block for `%`
    rng = np.random.default_rng(29)
    features = [rng.standard_normal((1000, 7)), 10.0 ** rng.uniform(-300, 300, (300, 7))]
    blocks = [(np.resize([1, 2], len(x)), x) for x in features]
    passes = []
    in_range = _text._in_range

    def counted(rows, ws):
        passes.append(rows.size)
        return in_range(rows, ws)

    monkeypatch.setattr(_text, "_in_range", counted)
    monkeypatch.setattr(datasets, "_WRITE_FLOATS", 512 * 7)
    save_csv(blocks, tmp_path / "blocks.csv")
    assert passes == [512 * 8, 488 * 8, 300 * 8]


def test_csv_empty_dataset_round_trip(tmp_path):
    data = LabeledDataset(np.zeros(0, dtype=int), np.zeros((0, 2)))
    path = tmp_path / "empty.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert len(back) == 0 and back.dim == 2


def test_csv_rejects_missing_or_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 1
    path.write_text("x1,x2\n1,2\n")
    with pytest.raises(ParseError):
        load_csv(path)
    path.write_text("label,x1,x3\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_data_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x1,x2\n1,0.5,0.5\n2,1.0\n")
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert info.value.line == 3
    assert "line 3" in str(info.value)

    path.write_text("label,x1,x2\n7,0.5,0.5\n")
    with pytest.raises(LabelError) as info:
        load_csv(path)
    assert info.value.line == 2

    path.write_text("label,x1,x2\n1,0.5,spam\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_csv_tolerates_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("label,x1\n1,2.0\n\n2,3.0\n")
    back = load_csv(path)
    np.testing.assert_array_equal(back.labels, [1, 2])



def _load_outcome(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    try:
        data = load_csv(path)
    except ParseError as exc:
        return type(exc), exc.line
    return data.labels.tolist(), data.features.tolist()


_EDGE_CASES = [
    # blank lines are skipped, and line numbers still count them
    pytest.param("label,x1\n\n1,2.0\n\n\n2,3.0\n", ([1, 2], [[2.0], [3.0]]), id="blank"),
    pytest.param("label,x1\n\n1,2.0\n\n2,x\n", (ParseError, 5), id="blank-then-bad"),
    pytest.param("label,x1\n1,2.0\n   \n", (ParseError, 3), id="whitespace-line"),
    # '#' starts no comment
    pytest.param("label,x1,x2\n1,2.0,3#4\n", (ParseError, 2), id="hash-in-field"),
    pytest.param("label,x1\n1,2.0\n#2,3.0\n", (ParseError, 3), id="hash-first"),
    pytest.param("label,x1\n1,2.0\n2,#3\n", (ParseError, 3), id="hash-value"),
    # labels are the integers 1 and 2
    pytest.param("label,x1\n1,2.0\n1.0,3.0\n", (ParseError, 3), id="label-1.0"),
    pytest.param("label,x1\n1,2.0\n2,1\n7,3.0\n", (LabelError, 4), id="label-7"),
    pytest.param("label,x1\n1,2.0\n,3.0\n", (ParseError, 3), id="label-empty"),
    pytest.param("label,x1\n1,\n", (ParseError, 2), id="value-empty"),
    pytest.param("label,x1,x2\n1,2.0,3.0,4.0\n", (ParseError, 2), id="extra-field"),
    # spellings float() and int() take are still taken, and only those
    pytest.param("label,x1\n1,1_0\n", ([1], [[10.0]]), id="underscore"),
    pytest.param("label,x1,x2\n2,\uff11\uff12,-\u0663.5\n", ([2], [[12.0, -3.5]]),
                 id="unicode-digits"),
    pytest.param("label,x1\n 1,2.5\n2 ,\t-1e3 \n", ([1, 2], [[2.5], [-1000.0]]),
                 id="padded"),
    pytest.param("label,x1\n1,\x1f2\n", (ParseError, 2), id="unit-separator"),
    # CRLF, a single row without a final newline, only a header
    pytest.param("label,x1,x2\r\n1,0.5,2\r\n2,1,-1\r\n",
                 ([1, 2], [[0.5, 2.0], [1.0, -1.0]]), id="crlf"),
    pytest.param("label,x1,x2\n2,0.25,-4", ([2], [[0.25, -4.0]]), id="one-row"),
    pytest.param("label,x1,x2\n", ([], []), id="header-only"),
    # the first non-finite value is refused with its file line
    *[pytest.param(f"label,x1,x2\n1,0.5,0.5\n\n2,1.0,2.0\n\n2,1.0,{v}\n1,{v},0\n",
                   (ParseError, 6), id=f"nonfinite-{v}")
      for v in ("nan", "NaN", "inf", "-inf", "Infinity", "1e400")],
    pytest.param("label,x1\n1,nan\n2,x\n", (ParseError, 3), id="nonfinite-then-bad"),
]


@pytest.mark.parametrize("text, expected", _EDGE_CASES)
def test_csv_edge_cases(tmp_path, text, expected):
    assert _load_outcome(tmp_path, text) == expected


# Files of several lines, each construct after the first data line, so that
# small read blocks put a block edge right before or after it.
_BLOCK_EDGE_CASES = [
    pytest.param("label,x1\n1,1\n\n\n2,2\n\n1,3\n", ([1, 2, 1], [[1.0], [2.0], [3.0]]),
                 id="blank-lines"),
    pytest.param("label,x1\r\n1,1\r\n\r\n2,2\r\n2,x\r\n", (ParseError, 5), id="crlf"),
    # str.splitlines() also ends a line at \x0b, \x85 and \u2028
    pytest.param("label,x1\n1,1\x0b2,2\n\u20281,3\x85\n", ([1, 2, 1], [[1.0], [2.0], [3.0]]),
                 id="other-breaks"),
    pytest.param("label,x1\n1,1\x0b2,2\n1,3\x852,x\n", (ParseError, 5),
                 id="other-breaks-then-bad"),
    pytest.param("label,x1\n1,1\n2,2\n1,1_0\n2,4\n", ([1, 2, 1, 2], [[1.0], [2.0], [10.0], [4.0]]),
                 id="underscore-later"),
    pytest.param("label,x1\n1,1\n2,2\n\n1,inf\n2,3\n", (ParseError, 5), id="nonfinite-later"),
    pytest.param("label,x1\n1,nan\n2,2\n\n2,x\n", (ParseError, 5), id="nonfinite-then-bad-later"),
    pytest.param("label,x1,x2\n1,1,2\n2,3,4\n1,5\n", (ParseError, 4), id="field-count-later"),
    pytest.param("label,x1\n1,1\n2,2\n3,3\n", (LabelError, 4), id="label-later"),
    # a byte that is not UTF-8 is a ParseError naming its line
    pytest.param(b"label,x1\n1,1.0\n2,\xff\n", (ParseError, 3), id="not-utf8"),
    pytest.param(b"label,x\xe91\n1,1.0\n", (ParseError, 1), id="not-utf8-header"),
    pytest.param(b"label,x1\n1,1\xc2\x852,\xff\n", (ParseError, 3), id="not-utf8-after-x85"),
    pytest.param(b"label,x1\n1,1\n2,\xe2\x80", (ParseError, 3), id="not-utf8-truncated"),
]


@pytest.mark.parametrize("text, expected", _BLOCK_EDGE_CASES)
def test_csv_block_edge_cases(tmp_path, text, expected):
    assert _load_outcome(tmp_path, text) == expected


@pytest.mark.parametrize("read_bytes", [1, 12])
@pytest.mark.parametrize("text, expected", _EDGE_CASES + _BLOCK_EDGE_CASES)
def test_csv_reads_the_same_in_small_blocks(monkeypatch, tmp_path, text, expected,
                                            read_bytes):
    # 1 byte makes every '\n'-ended line a block of its own
    monkeypatch.setattr(datasets, "_READ_BYTES", read_bytes)
    assert _load_outcome(tmp_path, text) == expected


def test_load_csv_holds_one_block_of_text_at_a_time(tmp_path):
    path = tmp_path / "blocks.csv"
    save_csv(gen_example2(64, np.full(64, 0.5), 1.0, 1800, 7), path)
    assert path.stat().st_size > 4 * datasets._READ_BYTES
    tracemalloc.start()
    try:
        assert load_csv(path, lambda labels, features: None) == 3600
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * datasets._READ_BYTES


def _readlines_blocks(path, hint):
    """The (first line, lines) blocks of `path` as `readlines(hint)` ends them."""
    first = 1
    with open(path, "rb") as fh:
        while data := b"".join(fh.readlines(hint)):
            lines = data.decode("utf-8").splitlines()
            yield first, lines
            first += len(lines)


# With a hint of 16 bytes, the header "label,x1\n" takes bytes 0-8, so a
# second line of 7 bytes ends exactly at the hint, one of 6 one byte before
# it and one of 8 one byte after it.
_HINT = 16
_LINE_BLOCK_TEXTS = [
    pytest.param(b"label,x1\n1,2.25\n2,3\n1,4\n", id="ends-at-the-hint"),
    pytest.param(b"label,x1\n1,2.5\n2,3\n1,4\n", id="ends-before-the-hint"),
    pytest.param(b"label,x1\n1,2.125\n2,3\n1,4\n", id="ends-after-the-hint"),
    pytest.param(b"label,x1\n1,1.2345678901234567890123456789\n2,3\n", id="longer-than-the-hint"),
    pytest.param(b"label,x1\n1,2.25\n2,3", id="no-final-newline"),
    pytest.param(b"", id="empty"),
    pytest.param(b"label,x1\r\n1,2.2\r\n\r\n2,3\r\n1,4.75\r\n", id="crlf"),
    # bytes 15-16 are the two of U+00E9, so the hint falls between them
    pytest.param("label,x1\n1,2.25é\n2,3\n".encode("utf-8"), id="utf8-across-the-hint"),
]


@pytest.mark.parametrize("data", _LINE_BLOCK_TEXTS)
def test_line_blocks_end_where_readlines_ends_them(monkeypatch, tmp_path, data):
    path = tmp_path / "blocks.csv"
    path.write_bytes(data)
    # every hint up to past the file's end, so that each line ends exactly
    # at one of them, one byte before one and one byte after one, each
    # block decoded whole or in pieces of a few bytes
    for hint in [_HINT, *range(1, len(data) + 2)]:
        monkeypatch.setattr(datasets, "_READ_BYTES", hint)
        for piece in (1, 5, datasets._DECODE_BYTES):
            monkeypatch.setattr(datasets, "_DECODE_BYTES", piece)
            assert list(datasets._line_blocks(path)) == list(_readlines_blocks(path, hint)), (
                hint, piece)
        monkeypatch.undo()


@pytest.mark.parametrize("read_bytes, decode_bytes", [(_HINT, 1 << 16), (1 << 20, 1),
                                                      (1 << 20, 5)])
def test_line_blocks_name_the_line_of_a_bad_byte_after_the_first_piece(
        monkeypatch, tmp_path, read_bytes, decode_bytes):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"label,x1\n1,2.25\n2,3\n1,4\n2,\xff\n1,5\n")
    monkeypatch.setattr(datasets, "_READ_BYTES", read_bytes)
    monkeypatch.setattr(datasets, "_DECODE_BYTES", decode_bytes)
    blocks = datasets._line_blocks(path)
    if read_bytes == _HINT:
        assert next(blocks) == (1, ["label,x1", "1,2.25", "2,3"])
    with pytest.raises(ParseError) as info:
        next(blocks)
    assert info.value.line == 5 and "invalid UTF-8 byte 0xff" in str(info.value)


@pytest.mark.parametrize("write_floats", [1, 7])
def test_csv_writes_the_same_in_small_blocks(monkeypatch, tmp_path, write_floats):
    drawn = gen_example2(3, [0.3, -1.7, 2.5], 1.5, per_class=5, seed=21)
    # rows mixing values written from their digits with ones written by
    # %.17g (zeros, subnormals, |x| < 1e-4 or >= 1e17), so blocks split across both
    mixed = LabeledDataset(np.array([1, 2, 2, 1, 2]), np.array([
        [1.5, 0.0, -1e-300], [-0.0, 123456.789, 5e-324], [1e17, -3.25, 1e200],
        [99999999999999984.0, 1e-4, -2.5e-5], [0.1, -7.0, np.finfo(float).max]]))
    for name, data in (("drawn", drawn), ("mixed", mixed)):
        save_csv(data, tmp_path / f"{name}.csv")
    monkeypatch.setattr(datasets, "_WRITE_FLOATS", write_floats)
    for name, data in (("drawn", drawn), ("mixed", mixed)):
        save_csv(data, tmp_path / "small.csv")
        assert (tmp_path / "small.csv").read_bytes() == (tmp_path / f"{name}.csv").read_bytes()
        assert load_csv(tmp_path / "small.csv").features.tolist() == data.features.tolist()
