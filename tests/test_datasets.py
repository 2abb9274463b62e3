import numpy as np
import pytest

from energydisc import datasets
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


def test_make_rng_reproducible():
    a = make_rng(1234).standard_normal(5)
    b = make_rng(1234).standard_normal(5)
    np.testing.assert_array_equal(a, b)


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


def test_unit_normalized():
    data = LabeledDataset(np.array([1, 2]), np.array([[3.0, 4.0], [0.0, -2.0]]))
    unit = unit_normalized(data)
    np.testing.assert_allclose(np.linalg.norm(unit.features, axis=1), 1.0)
    np.testing.assert_allclose(unit.features[0], [0.6, 0.8])
    np.testing.assert_array_equal(unit.labels, data.labels)


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


@pytest.mark.parametrize("write_floats", [1, 7])
def test_csv_writes_the_same_in_small_blocks(monkeypatch, tmp_path, write_floats):
    data = gen_example2(3, [0.3, -1.7, 2.5], 1.5, per_class=5, seed=21)
    save_csv(data, tmp_path / "one.csv")
    monkeypatch.setattr(datasets, "_WRITE_FLOATS", write_floats)
    save_csv(data, tmp_path / "small.csv")
    assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert load_csv(tmp_path / "small.csv").features.tolist() == data.features.tolist()
