"""Synthetic two-class datasets and CSV persistence.

Randomness comes from numpy's PCG64 generator (the `default_rng`
stream), seeded explicitly: one seed, one byte-identical dataset. The
two generators cover the classic benchmark geometries: two Gaussian
clouds with orthogonal means and a shared covariance, and a fixed
signal in white noise versus the noise alone.

CSV layout: UTF-8, '\\n' newlines, mandatory header ``label,x1,...,xn``,
one sample per row, labels in {1,2}, finite floats written by
`_text`'s float writer, so values survive a round trip exactly. Files
are read once, in blocks of bounded size, so neither the text of a file
nor its values as Python floats are ever held whole, and a pipe reads as
a file does. Each block is read into one reused buffer, the rest of its
last line appended, and decoded from it in pieces. A block whose every data line
starts with the label 1 or 2 and a ',' and holds no unit separator
'\\x1f' goes to one numpy.loadtxt call, which must give it n + 1 columns
on every line. Any other block, or one loadtxt refuses, goes through a
line-by-line parser that takes every spelling int() and float() take and
names the first bad line, as the block of a non-finite row or of a
consumer's zero row names its line. Given a consumer, `load_csv` hands
it each parsed block and keeps nothing, so a caller that only needs sums
of the rows, as the CLI does, never holds the feature array; without one
it keeps every block.
`save_csv` writes a stream of blocks too, as `gen_example2`'s are drawn.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import operator
import os
import shutil
import stat
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from ._text import _WRITE_FLOATS, _Workspace, _kernel_text, _utf8_text
from .errors import (DimensionMismatch, EnergydiscError, InvalidParameter, LabelError,
                     ParseError, ZeroSignal)
from .moments import _check_psd
from .spectral import _pow2_scaled, _vectors, sym_matrix

# A row whose Euclidean norm is at most this cannot be unit-normalized.
_ZERO_NORM = 1e-12


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Every row of the finite `x` rescaled to unit norm, a row whose norm
    overflows first scaled by a power of two, exactly; ZeroSignal names the
    first row too close to zero to rescale, and carries its index as `row`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    bad = np.nonzero(norms <= _ZERO_NORM)[0]
    if bad.size:
        row = int(bad[0])
        raise ZeroSignal(f"cannot unit-normalize zero vector at row {row + 1}", row)
    unit = x / norms[:, None]
    huge = ~np.isfinite(norms)
    if huge.any():
        rows, _ = _pow2_scaled(x[huge], np.abs(x[huge]).max(axis=1, keepdims=True))
        unit[huge] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return unit


def _first_nonfinite_row(x: np.ndarray) -> int | None:
    """Index of the first row of the 2-d `x` holding nan or inf, or None if
    there is none.

    A row holding nan or inf has a sum that is not finite, so only the rows
    whose sums are not finite are looked at entry by entry; a finite row
    whose sum overflows is among them and is cleared there. No N-by-n
    temporary is formed unless many rows overflow their sums.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = x.sum(axis=1)
    suspects = np.flatnonzero(~np.isfinite(sums))
    bad = suspects[~np.isfinite(x[suspects]).all(axis=1)]
    return int(bad[0]) if bad.size else None


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
        """The feature rows labeled `label`, read-only: a view of `features`
        when those rows are consecutive, as every generated dataset and
        written CSV file has them, else a copy."""
        return _class_rows(self.labels, self.features, label)


def _class_rows(labels: np.ndarray, x: np.ndarray, label: int) -> np.ndarray:
    """The rows of `x` (2-d rows or a 1-d array, one entry a row) labeled
    `label`, read-only, equal to `x[labels == label]` in values, dtype,
    shape and C-contiguity. Rows that form one consecutive run of a
    C-contiguous `x` come as a basic slice of it, which copies nothing;
    any other rows as the mask's copy."""
    mine = labels == label
    count = int(np.count_nonzero(mine))
    first = int(np.argmax(mine)) if count else 0
    run = slice(first, first + count)
    rows = x[run] if count and x.flags.c_contiguous and mine[run].all() else x[mine]
    rows.flags.writeable = False
    return rows


def _check_count(value, name: str) -> int:
    """`value` as an int; InvalidParameter naming `name` unless it is an integer >= 0."""
    if isinstance(value, (int, np.integer)) and value >= 0:
        return int(value)
    raise InvalidParameter(f"{name} must be a non-negative integer, got {value!r}")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream for the given 64-bit seed, an integer >= 0."""
    return np.random.default_rng(_check_count(seed, "seed"))


def gen_example1(n: int, m1: Iterable, m2: Iterable, covariance: Iterable, per_class: int,
                 seed: int) -> LabeledDataset:
    """Two Gaussian classes with orthogonal means and a shared covariance."""
    m1 = _vectors(m1)
    m2 = _vectors(m2)
    if m1.shape != (n,) or m2.shape != (n,):
        raise DimensionMismatch("means must have length n")
    if n < 1:
        raise DimensionMismatch("dimension n must be at least 1")
    if not (np.all(np.isfinite(m1)) and np.all(np.isfinite(m2))):
        raise InvalidParameter("class means must be finite")
    # each mean scaled by its own power of two, which is exact and scales
    # both sides of the test alike, so that no product or norm overflows
    u1, u2 = (_pow2_scaled(m, np.abs(m).max())[0] for m in (m1, m2))
    if abs(float(u1 @ u2)) > 1e-9 * np.linalg.norm(u1) * np.linalg.norm(u2):
        raise InvalidParameter("class means must be orthogonal")
    cov = sym_matrix(covariance)
    if cov.shape != (n, n):
        raise DimensionMismatch("covariance must be n-by-n")
    values, vectors = _check_psd(cov)
    factor = vectors * np.sqrt(np.clip(values, 0.0, None))  # factor @ factor.T = cov
    per_class = _check_count(per_class, "per_class")
    rng = make_rng(seed)
    rows1 = m1 + rng.standard_normal((per_class, n)) @ factor.T
    rows2 = m2 + rng.standard_normal((per_class, n)) @ factor.T
    labels = np.repeat([1, 2], per_class)
    return LabeledDataset(labels, np.vstack([rows1, rows2]))


def _check_signal_in_noise(a: np.ndarray, sigma2: float) -> None:
    """InvalidParameter unless signal `a` is finite, then noise variance `sigma2` too and > 0."""
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("signal vector must be finite")
    if not 0.0 < sigma2 < np.inf:  # NaN fails both comparisons
        raise InvalidParameter("noise variance must be finite and positive")


def _example2_blocks(n: int, a: Iterable, sigma2: float, per_class: int, seed: int,
                     block_rows: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of `gen_example2` as (labels, features) blocks of
    `block_rows` rows (by default about _WRITE_FLOATS floats), at least one
    block. The parameters are checked by the call, before any block.

    Drawing the blocks one after another from one PCG64 stream gives the
    same values as one draw of all the rows.
    """
    a = _vectors(a)
    if a.shape != (n,):
        raise DimensionMismatch("signal vector must have length n")
    if n < 1:
        raise DimensionMismatch("dimension n must be at least 1")
    _check_signal_in_noise(a, sigma2)
    rows = 2 * _check_count(per_class, "per_class")
    step = block_rows or max(1, _WRITE_FLOATS // n)
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


def gen_example2(n: int, a: Iterable, sigma2: float, per_class: int, seed: int) -> LabeledDataset:
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


# A CSV file is read in blocks of about _READ_BYTES and written in blocks
# of about _WRITE_FLOATS floats (from `_text`), so memory does not grow
# with the rows. Blocks freed below a glibc mmap threshold of 256 KiB at
# the top of the heap are trimmed and faulted back in for the next block
# (the trim threshold is then 128 KiB), so each side reuses its buffers:
# the reader one bytearray, the writer one `_text._Workspace` per file,
# which also holds each block's labels and features. A read block is
# decoded in pieces of about _DECODE_BYTES, because a whole block's text
# would take a fresh 1 MiB mapping, and 256 page faults, per block.
_READ_BYTES = 1 << 20
_DECODE_BYTES = 1 << 16


def save_csv(data, path) -> None:
    """Write `data` to `path` as CSV.

    `data` is a LabeledDataset, or an iterable of at least one
    (labels, features) block, all of one width, each checked as a
    LabeledDataset before it is written. The bytes do not depend on
    where the blocks end. A block refused after the first, or any other
    error while writing, leaves a regular file empty, so no shorter CSV
    is mistaken for the whole one.
    """
    blocks = iter([data] if isinstance(data, LabeledDataset)
                  else (LabeledDataset(labels, features) for labels, features in data))
    first = next(blocks, None)  # before opening, so a refused block truncates no file
    if first is None:
        raise InvalidParameter("no blocks to write")
    n = first.dim
    if n < 1:
        raise DimensionMismatch("CSV rows need at least one feature")
    step = max(1, _WRITE_FLOATS // n)
    ws = _Workspace(step * (n + 1))
    with open(path, "wb") as fh:
        try:
            fh.write(("label," + ",".join(f"x{i + 1}" for i in range(n)) + "\n").encode())
            for block in itertools.chain([first], blocks):
                if block.dim != n:
                    raise DimensionMismatch(f"block of width {block.dim} after width {n}")
                for start in range(0, len(block), step):
                    features = block.features[start:start + step]
                    rows = ws.values[:features.size + len(features)].reshape(-1, n + 1)
                    # the labels go as a first float column: 1.0 and 2.0 are written 1 and 2
                    rows[:, 0] = block.labels[start:start + step]
                    rows[:, 1:] = features
                    fh.write(_kernel_text(rows, ws))
        except BaseException:
            # load_csv refuses an empty file; a pipe or device keeps what it took
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            raise


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


def _line_blocks(path) -> Iterator[tuple[int, list[str]]]:
    """(file line number of the first line, lines) for consecutive blocks of
    about _READ_BYTES of the file at `path`, each ending where
    `readlines(_READ_BYTES)` ends it.

    One bytearray of _READ_BYTES is reused for every block: `readinto`
    fills it and `readline` appends the rest of its last line. readlines
    stops only once its total exceeds the hint, so a line that ends exactly
    at the hint is followed by the next one there as here. The buffer is
    decoded in place, with no bytes copy, in pieces of about _DECODE_BYTES.
    Blocks and pieces end at b'\\n', which no UTF-8 character and no line
    break other than '\\n' contains, so their str.splitlines() lines are
    those of the whole text, numbered the same. A yielded block's lines
    are dropped before the next block is read, so a consumer that drops
    them too holds one block of text at a time, beside the buffer.
    """
    first = 1
    block = bytearray(_READ_BYTES)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            del block[size:]  # a short read, only at the end of the file, leaves old bytes
            block += fh.readline()
            lines = []
            with memoryview(block) as view:
                start = 0
                while start < len(block):
                    end = block.find(b"\n", start + _DECODE_BYTES) + 1 or len(block)
                    lines += _utf8_text(view[start:end], first + len(lines)).splitlines()
                    start = end
            del block[_READ_BYTES:]
            count = len(lines)
            yield first, lines
            del lines
            first += count


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
    `1_0` that float() takes and loadtxt does not).

    The lines go to loadtxt only if every one starts with "1," or "2,"
    (checked as one set of two-character prefixes) and none holds '\\x1f'.
    loadtxt itself counts the fields, refusing a line whose count differs
    from the first line's, and the table must then have n + 1 columns.
    """
    # loadtxt strips the unit separator \x1f as whitespace, float() does not
    if (not rows or not set(map(operator.itemgetter(slice(2)), rows)) <= {"1,", "2,"}
            or any("\x1f" in row for row in rows)):
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, max_rows=len(rows))
    except ValueError:
        return None
    if table.shape[1] != n + 1:
        return None
    return table[:, 0].astype(int), np.ascontiguousarray(table[:, 1:])


def _row_line(first: int, lines: list[str], row: int) -> int:
    """File line number of data row `row` (0-based) of a block whose lines
    start at file line `first`, the data rows being its non-empty lines."""
    numbers = (lineno for lineno, line in enumerate(lines, start=first) if line)
    return next(itertools.islice(numbers, row, None))


def load_csv(path, feed: Callable[[np.ndarray, np.ndarray], None] | None = None):
    """The CSV file at `path` as a LabeledDataset.

    With `feed`, nothing is kept: each parsed block goes, as (labels,
    features), to `feed` in file order, and the number of data rows is
    returned. Errors come in the order that reading the whole file first
    and then running `feed` on all of its rows gives: a parse or label
    error as soon as it is read, then the first non-finite row (a
    ParseError naming its line), then the first error `feed` raised, a
    ZeroSignal with a `row` in the block fed coming back as "zero vector at
    line L of the data file cannot be unit-normalized" with the file's data
    `row`, one without as it is. Blocks stop going to `feed` at the first
    non-finite row or error, and parsing goes on to the end of the file,
    which is read once: a bad row's line comes from its block. A block's
    lines, labels and features are dropped before the next block is read,
    so with `feed` one block of text and its arrays are alive at a time.
    """
    blocks = None
    if feed is None:  # keep every block
        blocks = []

        def feed(labels, features):
            blocks.append((labels, features))

    rows = 0
    n = nonfinite = error = None
    with contextlib.closing(_line_blocks(path)) as line_blocks:
        for first, lines in line_blocks:
            if n is None:
                n = lines[0].count(",")
                if n < 1 or lines[0].split(",") != ["label"] + [f"x{i + 1}" for i in range(n)]:
                    raise ParseError(f"bad header {lines[0]!r}", 1)
                lines[0] = ""  # the header, skipped from here on as an empty line is
            labels, features = (_parse_table([line for line in lines if line], n)
                                or _parse_rows(lines, n, first))
            if nonfinite is None:
                bad = _first_nonfinite_row(features)
                if bad is not None:
                    nonfinite = _row_line(first, lines, bad)
                elif error is None:
                    try:
                        feed(labels, features)
                    except EnergydiscError as exc:
                        if isinstance(exc, ZeroSignal) and exc.row is not None:
                            line = _row_line(first, lines, exc.row)
                            exc = ZeroSignal(f"zero vector at line {line} of the data file "
                                             "cannot be unit-normalized", rows + exc.row)
                        error = exc
            rows += labels.shape[0]
            # nothing of this block is held while the next one is read
            del lines, labels, features
    if n is None:
        raise ParseError("missing header", 1)
    if nonfinite is not None:
        raise ParseError("values must be finite numbers", nonfinite)
    if error is not None:
        raise error
    if blocks is None:
        return rows
    labels, features = (np.concatenate(parts) for parts in zip(*blocks))
    return LabeledDataset(labels, features)
