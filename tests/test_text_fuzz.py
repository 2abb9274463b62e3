"""Text fuzzing of the model and CSV readers and of the CLI commands that
read them.

Each example applies at most two single-character edits (insert, delete
or replace, from the characters numbers and fields are written with) to
a valid n=3 model text of a drawn mode and to a valid 3-column CSV. A
reader must return or raise an EnergydiscError, and `cli.run` must
return 0, 1 or 2 without raising. A mutated CSV read one line per block
gives the same arrays or the same error as read in one block. Two edits
keep a mutated `n` below 1000. Hypothesis draws from a fixed seed (`derandomize=True`).
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from energydisc import datasets  # noqa: E402
from energydisc import (  # noqa: E402
    ClassSpec,
    EnergydiscError,
    NormalizationMode,
    estimate_moments,
    fit,
    format_model,
    gen_example2,
    load_csv,
    parse_model,
    save_csv,
    unit_normalized,
)
from energydisc.cli import run  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)
# each example runs three commands
FUZZ_CLI = settings(FUZZ, max_examples=50)

_ALPHABET = "0123456789.,=-+eEnaif\n "


@functools.cache
def _valid_texts() -> tuple[dict, str]:
    """Model text per mode value, and the CSV text they were fitted on."""
    data = gen_example2(3, [1.5, 0.0, 1.0], 0.8, per_class=10, seed=4)
    models = {}
    for mode in NormalizationMode:
        rows = unit_normalized(data) if mode is NormalizationMode.UNIT else data
        specs = [ClassSpec(0.5, estimate_moments(rows.class_features(label)))
                 for label in (1, 2)]
        models[mode.value] = format_model(fit(*specs, mode))
    with tempfile.TemporaryDirectory() as tmp:
        save_csv(data, Path(tmp) / "data.csv")
        csv = (Path(tmp) / "data.csv").read_text(encoding="utf-8")
    return models, csv


@st.composite
def mutated(draw, text):
    """`text` after at most two single-character edits."""
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(text) - (kind != "insert")))
        char = "" if kind == "delete" else draw(st.sampled_from(_ALPHABET))
        text = text[:at] + char + text[at + (kind != "insert"):]
    return text


@st.composite
def model_texts(draw):
    mode = draw(st.sampled_from([m.value for m in NormalizationMode]))
    return draw(mutated(_valid_texts()[0][mode]))


@st.composite
def csv_texts(draw):
    return draw(mutated(_valid_texts()[1]))


@FUZZ
@given(model_texts())
def test_mutated_model_text_loads_or_raises_a_typed_error(text):
    try:
        parse_model(text)
    except EnergydiscError:
        pass


@FUZZ
@given(csv_texts())
def test_mutated_csv_loads_or_raises_a_typed_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            load_csv(path)
        except EnergydiscError:
            pass


def _load_outcome(path):
    try:
        data = load_csv(path)
    except EnergydiscError as exc:
        return type(exc), str(exc)
    return data.labels.tolist(), data.features.tolist()


@FUZZ
@given(csv_texts())
def test_mutated_csv_loads_the_same_in_one_line_blocks(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        whole = _load_outcome(path)
        with mock.patch.object(datasets, "_READ_BYTES", 1):
            assert _load_outcome(path) == whole


@FUZZ_CLI
@given(model_texts(), csv_texts())
def test_cli_on_mutated_files_exits_0_1_or_2(model, csv):
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path = Path(tmp) / "model.txt", Path(tmp) / "data.csv"
        model_path.write_text(model, encoding="utf-8")
        data_path.write_text(csv, encoding="utf-8")
        for argv in (["predict", "--model", str(model_path), "--data", str(data_path)],
                     ["eval", "--model", str(model_path), "--data", str(data_path)],
                     ["spectrum", "--model", str(model_path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert "Traceback" not in err.getvalue()


# Row text for the loadtxt path's oracle: the spellings of a label that
# only the line-by-line parser takes, and fields over the characters
# numbers are written with, the unit separator (which loadtxt strips as
# whitespace and float() refuses) and "nan".
_LABELS = ["1", "2", "+1", "01", "1.0"]
_FIELD_TOKENS = list("0123456789,.e+- \x1f") + ["nan"]


@st.composite
def table_rows(draw):
    """(non-empty data lines, n): each a label, mostly 1 or 2, then mostly
    n fields, mostly well-formed numbers, the rest drawn from _FIELD_TOKENS."""
    n = draw(st.integers(1, 3))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    token = st.lists(st.sampled_from(_FIELD_TOKENS), min_size=1, max_size=3).map("".join)
    field = st.one_of(number, number, number, number, number, token)
    label = st.sampled_from(["1", "2"] * 8 + _LABELS)
    width = st.sampled_from([n] * 8 + [n - 1, n + 1])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(width)
        fields = draw(st.lists(field, min_size=size, max_size=size))
        rows.append(",".join([draw(label), *fields]))
    return rows, n


@settings(FUZZ, max_examples=200)
@given(table_rows())
def test_parse_table_gives_none_or_what_the_line_parser_gives(case):
    rows, n = case
    table = datasets._parse_table(rows, n)
    if table is None:
        return
    labels, features = datasets._parse_rows(rows, n, 2)
    assert table[0].tolist() == labels.tolist() and table[0].dtype == labels.dtype
    assert table[1].shape == features.shape and table[1].dtype == features.dtype
    assert table[1].tobytes() == features.tobytes()
