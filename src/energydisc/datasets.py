"""Synthetic two-class datasets and CSV persistence.

Randomness comes from numpy's PCG64 generator (the `default_rng`
stream), seeded explicitly: one seed, one byte-identical dataset. The
two generators cover the classic benchmark geometries: two Gaussian
clouds with orthogonal means and a shared covariance, and a fixed
signal in white noise versus the noise alone.

CSV layout: UTF-8, '\\n' newlines, mandatory header ``label,x1,...,xn``,
one sample per row, labels in {1,2}, finite floats written with 17
significant digits so values survive a round trip exactly. Files are
read and written in blocks of bounded size, so neither the text of a
file nor its values as Python floats are ever held whole. Loading
converts each well-formed block in one numpy.loadtxt call; any other
block goes through a line-by-line parser that takes every spelling
int() and float() take and names the first bad line. Given a consumer,
`load_csv` hands it each parsed block in one pass and keeps nothing, so
a caller that only needs sums of the rows, as the CLI does, never holds
the feature array; without one it keeps every block. `save_csv` also writes
a stream of blocks, which is how the CLI writes `gen_example2`'s rows
as they are drawn.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import os
import shutil
import stat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    EnergydiscError,
    InvalidParameter,
    LabelError,
    ParseError,
    ZeroSignal,
)
from .moments import _check_psd
from .spectral import sym_eig, sym_matrix

# Every float the package writes (CSV, model files, CLI output) uses
# 17 significant digits, so values survive a text round trip exactly.
_FLOAT_FMT = "%.17g"


def _parse_floats(text: str) -> np.ndarray:
    """Comma-separated floats as a 1-d array; ValueError names a bad entry."""
    return np.array(list(map(float, text.split(","))))


# A row whose Euclidean norm is at most this cannot be unit-normalized.
_ZERO_NORM = 1e-12


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Every row of `x` rescaled to unit norm; ZeroSignal names the first
    row too close to zero to rescale, and carries its index as `row`."""
    norms = np.linalg.norm(x, axis=1)
    bad = np.nonzero(norms <= _ZERO_NORM)[0]
    if bad.size:
        row = int(bad[0])
        raise ZeroSignal(f"cannot unit-normalize zero vector at row {row + 1}", row)
    return x / norms[:, None]


def _first_nonfinite_row(x: np.ndarray) -> int | None:
    """Index of the first row holding nan or inf, or None if there is none."""
    finite = np.isfinite(x).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with class labels in {1, 2}."""

    labels: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        try:
            labels = np.asarray(self.labels)
        except ValueError as exc:  # ragged
            raise DimensionMismatch("labels must be a 1-d array") from exc
        try:
            features = np.asarray(self.features, dtype=float)
        except (ValueError, TypeError) as exc:  # ragged rows or non-numbers
            raise DimensionMismatch("features must be a 2-d array of row vectors") from exc
        if features.ndim != 2:
            raise DimensionMismatch("features must be a 2-d array of row vectors")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise DimensionMismatch("labels and features row counts differ")
        # checked before the int cast, which would turn 1.5 into 1
        valid = np.isin(labels, (1, 2))
        if not valid.all():
            found = labels[np.argmin(valid)].item()
            raise LabelError(f"labels must be 1 or 2, found {found!r}")
        labels = labels.astype(int, copy=False)
        bad = _first_nonfinite_row(features)
        if bad is not None:
            raise InvalidParameter(f"non-finite feature at row {bad + 1}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "features", features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_features(self, label: int) -> np.ndarray:
        return self.features[self.labels == label]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream for the given 64-bit seed."""
    return np.random.default_rng(seed)


def _psd_factor(covariance: np.ndarray) -> np.ndarray:
    """Matrix L with L L^T equal to the (validated PSD) covariance."""
    values, vectors = sym_eig(covariance)
    _check_psd(covariance, values[-1])
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def gen_example1(
    n: int,
    m1: Iterable,
    m2: Iterable,
    covariance: Iterable,
    per_class: int,
    seed: int,
) -> LabeledDataset:
    """Two Gaussian classes with orthogonal means and a shared covariance."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if m1.shape != (n,) or m2.shape != (n,):
        raise DimensionMismatch("means must have length n")
    if not (np.all(np.isfinite(m1)) and np.all(np.isfinite(m2))):
        raise InvalidParameter("class means must be finite")
    if abs(float(m1 @ m2)) > 1e-9 * np.linalg.norm(m1) * np.linalg.norm(m2):
        raise InvalidParameter("class means must be orthogonal")
    cov = sym_matrix(covariance)
    if cov.shape != (n, n):
        raise DimensionMismatch("covariance must be n-by-n")
    factor = _psd_factor(cov)
    rng = make_rng(seed)
    rows1 = m1 + rng.standard_normal((per_class, n)) @ factor.T
    rows2 = m2 + rng.standard_normal((per_class, n)) @ factor.T
    labels = np.repeat([1, 2], per_class)
    return LabeledDataset(labels, np.vstack([rows1, rows2]))


def _example2_blocks(
    n: int, a: Iterable, sigma2: float, per_class: int, seed: int,
    block_rows: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of `gen_example2` as (labels, features) blocks of
    `block_rows` rows (by default about _WRITE_FLOATS floats), at least one
    block. The parameters are checked by the call, before any block.

    Drawing the blocks one after another from one PCG64 stream gives the
    same values as one draw of all the rows.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise DimensionMismatch("signal vector must have length n")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("signal vector must be finite")
    if not 0.0 < sigma2 < np.inf:  # NaN fails both comparisons
        raise InvalidParameter("noise variance must be finite and positive")
    rows = 2 * per_class
    step = block_rows or max(1, _WRITE_FLOATS // max(n, 1))
    rng = make_rng(seed)

    def blocks():
        # a block even without rows, so that a writer learns n
        for start in range(0, max(rows, 1), step):
            x = rng.standard_normal((min(step, rows - start), n))
            # scaling and shifting in place gives the same values as a + sigma * eta
            x *= np.sqrt(sigma2)
            ones = max(0, per_class - start)  # the first per_class rows are class 1
            x[:ones] += a
            labels = np.full(x.shape[0], 2)
            labels[:ones] = 1
            yield labels, x

    return blocks()


def gen_example2(
    n: int, a: Iterable, sigma2: float, per_class: int, seed: int
) -> LabeledDataset:
    """Signal-plus-white-noise class versus pure white noise.

    Class 1 draws a + eta, class 2 draws eta, with eta zero-mean Gaussian
    of covariance sigma2 * I.
    """
    (labels, features), = _example2_blocks(n, a, sigma2, per_class, seed,
                                           block_rows=max(1, 2 * per_class))
    return LabeledDataset(labels, features)


def unit_normalized(data: LabeledDataset) -> LabeledDataset:
    """Rescale every row to the unit sphere; zero rows are an error."""
    return LabeledDataset(data.labels, _unit_rows(data.features))


# A CSV file is read in blocks of about this many bytes and written in
# blocks of about this many floats, so memory does not grow with the rows.
_READ_BYTES = 1 << 20
_WRITE_FLOATS = 1 << 16


def save_csv(data, path) -> None:
    """Write `data` to `path` as CSV.

    `data` is a LabeledDataset, or an iterable of at least one
    (labels, features) block, all of one width, each checked as a
    LabeledDataset before it is written. The bytes do not depend on
    where the blocks end.
    """
    blocks = iter([data] if isinstance(data, LabeledDataset)
                  else (LabeledDataset(labels, features) for labels, features in data))
    first = next(blocks, None)  # before opening, so a refused block truncates no file
    if first is None:
        raise InvalidParameter("no blocks to write")
    n = first.dim
    header = "label," + ",".join(f"x{i + 1}" for i in range(n))
    row_fmt = "%d," + ",".join([_FLOAT_FMT] * n) + "\n"
    step = max(1, _WRITE_FLOATS // max(n, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for block in itertools.chain([first], blocks):
            if block.dim != n:
                raise DimensionMismatch(f"block of width {block.dim} after width {n}")
            for start in range(0, len(block), step):
                part = slice(start, start + step)
                for label, row in zip(block.labels[part].tolist(),
                                      block.features[part].tolist()):
                    fh.write(row_fmt % (label, *row))


def _check_room(path, rows: int, n: int) -> None:
    """OSError (ENOSPC) if `rows` CSV rows of width `n` cannot fit in the
    free space of the file system that is to hold `path`; a row takes at
    least 2n + 2 bytes. Only a regular file, or one still to be made, is
    checked; the file that writing would truncate counts as free."""
    try:
        info = os.stat(path)
    except FileNotFoundError:
        size = 0
    except OSError:
        return  # opening the file names the problem
    else:
        if not stat.S_ISREG(info.st_mode):
            return  # a pipe or device keeps nothing
        size = info.st_size
    try:
        free = size + shutil.disk_usage(os.path.dirname(os.path.realpath(path))).free
    except OSError:
        return
    need = rows * (2 * n + 2)
    if need > free:
        raise OSError(errno.ENOSPC, f"{rows} rows need at least {need} bytes, "
                      f"{free} are free", str(path))


def _utf8_text(data: bytes, first: int) -> str:
    """`data` decoded as UTF-8, its first line being file line `first`;
    a byte that is not UTF-8 is a ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # '?' stands for the bad byte, so the last line counted is its line
        before = data[:exc.start].decode("utf-8") + "?"
        line = first + len(before.splitlines()) - 1
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from exc


def _line_blocks(path) -> Iterator[tuple[int, list[str]]]:
    """(file line number of the first line, lines) for consecutive blocks of
    about _READ_BYTES of the file at `path`.

    Blocks end at b'\\n', which no UTF-8 character and no line break
    other than '\\n' contains, so the blocks' str.splitlines() lines are
    those of the whole text, numbered the same.
    """
    first = 1
    with open(path, "rb") as fh:
        while block := fh.readlines(_READ_BYTES):
            lines = _utf8_text(b"".join(block), first).splitlines()
            yield first, lines
            first += len(lines)


def _parse_rows(lines: list[str], n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse data lines one by one, the first being file line `first`,
    raising at the first bad line."""
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=first):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n + 1:
            raise ParseError(f"expected {n + 1} fields, got {len(parts)}", lineno)
        try:
            label = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad label {parts[0]!r}", lineno) from exc
        if label not in (1, 2):
            raise LabelError(f"label must be 1 or 2, got {label}", lineno)
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"bad number in row: {exc}", lineno) from exc
        labels.append(label)
    features = np.array(rows, dtype=float) if rows else np.zeros((0, n))
    return np.array(labels, dtype=int), features


def _parse_table(rows: list[str], n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Parse non-empty data lines in one loadtxt call, or None if any line
    needs the line-by-line parser (to be rejected or for a spelling such as
    `1_0` that float() takes and loadtxt does not)."""
    # loadtxt strips the unit separator \x1f as whitespace, float() does not
    if not rows or not all(row.count(",") == n and row[:2] in ("1,", "2,")
                           and "\x1f" not in row for row in rows):
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return table[:, 0].astype(int), np.ascontiguousarray(table[:, 1:])


def _parse_block(lines: list[str], n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and features of data lines, the first being file line `first`."""
    parsed = _parse_table([line for line in lines if line], n)
    return parsed if parsed is not None else _parse_rows(lines, n, first)


def _row_line(path, row: int) -> int:
    """File line number (1-based, blank lines counted) of data row `row`
    (0-based) of the CSV file at `path`, the data rows being the non-empty
    lines after the header."""
    with contextlib.closing(_line_blocks(path)) as blocks:
        numbers = (lineno for first, lines in blocks
                   for lineno, line in enumerate(lines, start=first)
                   if line and lineno > 1)
        return next(itertools.islice(numbers, row, None))


def load_csv(path, feed: Callable[[np.ndarray, np.ndarray], None] | None = None):
    """The CSV file at `path` as a LabeledDataset.

    With `feed`, nothing is kept: each parsed block goes, as (labels,
    features), to `feed` in file order, and the number of data rows is
    returned. Errors come in the order that reading the whole file first
    and then running `feed` on all of its rows gives: a parse or label
    error as soon as it is read, then the first non-finite row (a
    ParseError naming its line), then the first error `feed` raised, with
    a ZeroSignal's `row` counted from the first data row of the file.
    Blocks stop going to `feed` at the first non-finite row or error, and
    parsing goes on to the end of the file.
    """
    blocks = None
    if feed is None:  # keep every block
        blocks = []

        def feed(labels, features):
            blocks.append((labels, features))

    rows = 0
    nonfinite = error = None
    with contextlib.closing(_line_blocks(path)) as line_blocks:
        _, lines = next(line_blocks, (1, []))
        if not lines:
            raise ParseError("missing header", 1)
        n = lines[0].count(",")
        if n < 1 or lines[0].split(",") != ["label"] + [f"x{i + 1}" for i in range(n)]:
            raise ParseError(f"bad header {lines[0]!r}", 1)
        # each block is parsed and fed before the next is read
        for first, lines in itertools.chain([(2, lines[1:])], line_blocks):
            labels, features = _parse_block(lines, n, first)
            if nonfinite is None:
                bad = _first_nonfinite_row(features)
                if bad is not None:
                    nonfinite = rows + bad
                elif error is None:
                    try:
                        feed(labels, features)
                    except EnergydiscError as exc:
                        if isinstance(exc, ZeroSignal):
                            exc.row += rows  # its message keeps the block's row
                        error = exc
            rows += labels.shape[0]
    if nonfinite is not None:
        raise ParseError("values must be finite numbers", _row_line(path, nonfinite))
    if error is not None:
        raise error
    if blocks is None:
        return rows
    labels, features = (np.concatenate(parts) for parts in zip(*blocks))
    return LabeledDataset(labels, features)
