"""Float text: the one writer of every float the package writes, and the
readers of float lists and UTF-8 input.

The one rule: `_format_floats` writes each float as ``%.17g`` does, 17
significant digits, so values survive a text round trip bit for bit and
a saved model or data file keeps the paper's identities exactly. A call
of fewer than `_KERNEL_VALUES` values it joins with ``%``; a longer one,
and every block of `save_csv`, goes block by block to the numpy kernel,
which writes the same bytes faster but sends a block more than half of
which lies outside [1e-4, 1e17) to ``%`` whole, from its own range mask.
The kernel writes a value with 1e-4 <= |x| < 1e17 from its 17 significant
digits D: with k = floor(log10|x|), Dekker's error-free product gives
|x| * 10^(16-k) = p + e exactly (10^(16-k) <= 1e20 is an exact double),
and D is p rounded half to even by e. When p + e lies in [10^16, 10^17)
and D < 10^17, %.17g writes D in fixed notation with the point after
digit k and trailing zeros dropped, as the kernel does. Any other value
(±0, a subnormal, one outside that range, or one whose estimate of k was
off) it writes by ``%`` too.

The kernel writes a block into the buffers of a `_Workspace` that its
caller makes once for all the blocks of a call or file, so a block
allocates and frees nothing: temporaries freed at the top of the heap
below the mmap threshold would be trimmed and faulted back in for the
next block. No workspace lives at module level or outlives its call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParseError

_FLOAT_FMT = "%.17g"

# The crossover of `_format_floats`, per call, measured on a 2-core x86-64
# VM: `%` writes 1 value in 1.3 us and 1024 in 0.7 ms, the kernel 85-130 us
# and 0.2-0.3 ms; large model bases fall above it, short vectors below.
# The kernel, which takes every CSV block, sends one more than half of whose
# values lie outside [1e-4, 1e17) to `%` whole, as it pays its own arithmetic
# for each of them and then `%`. On one 64x65 block (best of 15, process
# time, the same VM), the kernel took 1.0 ms against 2.3 ms for `%` with
# every value in range, 2.6 ms against 2.6 ms with 40% out of range, 3.0 ms
# against 2.8 ms with half out, and 4.8 ms against 2.9 ms with all out.
_KERNEL_VALUES = 230

# Floats are written in blocks of about this many values, each through one
# workspace its caller made for all of them. The temporaries of a block
# (about 1 MB) lie at the top of the heap and below a 256 KiB mmap
# threshold, so if a block freed them, glibc would trim them (its trim
# threshold is then 128 KiB) and the next block would fault them back in,
# about 285 minor faults a block; the reused workspace never frees them.
_WRITE_FLOATS = 1 << 12


def _parse_floats(text: str) -> np.ndarray:
    """Comma-separated floats as a 1-d array; ValueError names a bad entry."""
    return np.array(list(map(float, text.split(","))))


def _utf8_text(data: bytes | memoryview, first: int) -> str:
    """`data` decoded as UTF-8 without a copy of its bytes, its first line
    being file line `first`; a byte that is not UTF-8 is a ParseError
    naming its line."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        # '?' stands for the bad byte, so the last line counted is its line
        before = str(data[:exc.start], "utf-8") + "?"
        line = first + len(before.splitlines()) - 1
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line) from exc


def _format_floats(values) -> str:
    """The finite floats `values` as text, each as `_FLOAT_FMT % v` writes
    it: a 2-d array as lines, each row's values joined by ',' and ended by
    '\\n'; any other shape as its values in order, joined by ','. Written in
    blocks of about _WRITE_FLOATS values through one call-local workspace."""
    values = np.asarray(values, dtype=float)
    rows = values if values.ndim == 2 else values.reshape(1, -1)
    if rows.size < _KERNEL_VALUES:
        text = _joined_rows(rows)
        return text if values.ndim == 2 else text[:-1]
    if values.ndim == 2:
        step = max(1, _WRITE_FLOATS // rows.shape[1])
        blocks = [rows[start:start + step] for start in range(0, len(rows), step)]
    else:
        # one-row blocks, whose lines are joined by ',' below
        blocks = [rows[:, start:start + _WRITE_FLOATS]
                  for start in range(0, rows.size, _WRITE_FLOATS)]
    ws = _Workspace(blocks[0].size)  # the first block is the largest
    texts = [_kernel_text(block, ws) for block in blocks]
    text = b"".join(texts) if values.ndim == 2 else b",".join(text[:-1] for text in texts)
    return text.decode("ascii")


def _join(values: list, sep: str) -> str:
    """The floats `values` as `_FLOAT_FMT` writes them, `sep` between, in one % call."""
    return sep.join([_FLOAT_FMT] * len(values)) % tuple(values)


def _joined_rows(rows: np.ndarray) -> str:
    """The rows of the 2-d `rows` as `_format_floats` writes them, by `%` alone."""
    return "".join(_join(row, ",") + "\n" for row in rows.tolist())


def _veltkamp_split(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Veltkamp's split a = hi + lo into `hi` and `lo`, each half holding at most 26 bits."""
    np.multiply(a, 2.0 ** 27 + 1, out=hi)  # c
    np.subtract(hi, a, out=lo)  # c - a
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)


# A field of a row is _FIELD bytes: a sign at byte 0, "0." at bytes 1-2,
# then five digit words at bytes 4-23, "000" and the 17 digits, digit i
# at byte 7 + i, and the separator at the last byte. Output byte b is
# c[b] + sa[b] * word[b] + sb[b] * word[b - 1]: the digits where they
# are, or one byte later to make room for the '.'. Zero bytes are then
# dropped. Row ((k + 4) * 17 + last) * 2 + neg of the field tables is a
# value of decimal exponent k in [-4, 16] whose 17 digits end at digit
# `last` once trailing zeros go, negative if `neg`.
_FIELD = 28


@functools.cache
def _kernel_tables() -> tuple:
    """The tables of _kernel_text, built at its first call: 10^0..10^20 (exact
    doubles) and their Veltkamp halves, the four digits of each group 0000..9999
    as one uint32 word and its count of trailing zeros (4 for 0000), and the
    field tables sa, sb and c, each row a void scalar np.take copies as one item."""
    pow10 = np.array([float(10 ** j) for j in range(21)])
    groups = np.arange(10_000)
    digits4 = np.stack([groups // 10 ** i % 10 for i in (3, 2, 1, 0)], axis=1) + ord("0")
    zeros4 = np.select([groups == 0, groups % 1000 == 0, groups % 100 == 0, groups % 10 == 0],
                       [4, 3, 2, 1], 0)
    b = np.arange(_FIELD)
    k = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    big = k >= 0
    # |x| >= 1: digits 0..k, '.', then digits k+1..last a byte later;
    # |x| < 1: "0.", then -k-1 zeros and digits 0..last
    sa = np.where(big, (7 <= b) & (b <= 7 + k), (8 + k <= b) & (b <= 7 + last))
    sb = big & (9 + k <= b) & (b <= 8 + last)
    dot = (~big & (b == 2)) | (big & (b == 8 + k) & (last > k))
    sep = (b == _FIELD - 1) * ord(",")
    c = (b == 0) * neg * ord("-") + (~big & (b == 1)) * ord("0") + dot * ord(".") + sep

    def table(field):
        rows = np.broadcast_to(field, (21, 17, 2, _FIELD)).reshape(-1, _FIELD)
        return np.ascontiguousarray(rows, dtype=np.uint8).view(f"V{_FIELD}").ravel()

    pow10_hi, pow10_lo = np.empty(21), np.empty(21)
    _veltkamp_split(pow10, pow10_hi, pow10_lo)
    return (
        pow10, pow10_hi, pow10_lo, digits4.astype(np.uint8).view(np.uint32).ravel(),
        zeros4, table(sa), table(sb), table(c))


class _Workspace:
    """The buffers the kernel writes a block of up to `size` values into,
    made once by the caller and reused for every block, so a block
    allocates and frees nothing but its text: `values` for the caller's own
    copy of a block, float and int64 vectors, masks, the digit words, the
    two shift tables' fields and the text's fields, which live in the
    bytearray `text`."""

    def __init__(self, size: int):
        self.values = np.empty(size)
        self.floats = np.empty((6, size))
        self.ints = np.empty((8, size), np.int64)
        self.masks = np.empty((3, size), bool)
        self.words = np.empty((size, _FIELD // 4), np.uint32)
        self.word = np.empty(size, np.uint32)
        self.fields = np.empty((2, size), f"V{_FIELD}")
        self.text = bytearray(size * _FIELD)
        self.text_fields = np.frombuffer(self.text, f"V{_FIELD}")


def _in_range(rows: np.ndarray, ws: _Workspace) -> np.ndarray:
    """The mask of the values of `rows` with 1e-4 <= |x| < 1e17, as
    `ws.masks[0]`, their absolute values left in `ws.floats[0]`."""
    size = rows.size
    ax, fast, tmp = ws.floats[0, :size], ws.masks[0, :size], ws.masks[1, :size]
    np.abs(rows.reshape(-1), out=ax)
    np.greater_equal(ax, 1e-4, out=fast)
    np.less(ax, 1e17, out=tmp)
    fast &= tmp
    return fast


def _kernel_text(values: np.ndarray, ws: _Workspace) -> bytes | bytearray:
    """The rows of the finite 2-d `values` as `_format_floats` writes them,
    in ASCII, every step written into the buffers of `ws`; a block more
    than half of which lies outside [1e-4, 1e17) is written by `%` whole."""
    rows, n = values.shape
    size = values.size
    fast = _in_range(values, ws)
    if 2 * np.count_nonzero(fast) < size:
        return _joined_rows(values).encode("ascii")
    x = values.reshape(-1)
    pow10, pow10_hi, pow10_lo, digits4, zeros4, sa_table, sb_table, c_table = _kernel_tables()
    ax, t, scale_hi, scale_lo, ax_hi, ax_lo = ws.floats[:, :size]
    k, j, top, low, head, lead, g3, last = ws.ints[:, :size]
    mask, tmp = ws.masks[1, :size], ws.masks[2, :size]
    np.logical_not(fast, out=mask)
    np.copyto(ax, 1.0, where=mask)
    # log10 may be off by one near a power of ten; the range check below
    # then sends the value to the fallback
    np.log10(ax, out=t)
    np.floor(t, out=t)
    np.copyto(k, t, casting="unsafe")
    np.clip(k, -4, 16, out=k)
    np.subtract(16, k, out=j)
    scale = t
    for table, out in ((pow10, scale), (pow10_hi, scale_hi), (pow10_lo, scale_lo)):
        np.take(table, j, out=out, mode="clip")
    _veltkamp_split(ax, ax_hi, ax_lo)
    p = np.multiply(ax, scale, out=ax)
    # e = ((ax_hi * scale_hi - p) + ax_hi * scale_lo + ax_lo * scale_hi) + ax_lo * scale_lo
    e = np.multiply(ax_hi, scale_hi, out=t)
    e -= p
    e += np.multiply(ax_hi, scale_lo, out=ax_hi)
    e += np.multiply(ax_lo, scale_hi, out=scale_hi)
    e += np.multiply(ax_lo, scale_lo, out=scale_lo)
    # p >= 10^16 > 2^53 is an even integer, so rounding e alone to even rounds p + e
    d = j
    np.copyto(d, p, casting="unsafe")
    np.copyto(top, np.rint(e, out=scale_hi), casting="unsafe")
    d += top
    # fast &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (d < 10 ** 17)
    np.equal(p, 1e16, out=mask)
    mask &= np.greater_equal(e, 0, out=tmp)
    mask |= np.greater(p, 1e16, out=tmp)
    mask &= np.less(d, 10 ** 17, out=tmp)
    fast &= mask
    np.floor_divide(d, 10 ** 8, out=top)
    np.subtract(d, np.multiply(top, 10 ** 8, out=low), out=low)
    np.floor_divide(top, 10 ** 4, out=head)
    np.floor_divide(head, 10 ** 4, out=lead)
    np.floor_divide(low, 10 ** 4, out=g3)
    g1 = np.subtract(head, np.multiply(lead, 10 ** 4, out=d), out=d)
    g2 = np.subtract(top, np.multiply(head, 10 ** 4, out=head), out=top)
    g4 = np.subtract(low, np.multiply(g3, 10 ** 4, out=head), out=low)
    words, word, zeros = ws.words[:size], ws.word[:size], head
    words[:, 1] = np.take(digits4, lead, out=word, mode="clip")  # "000" and the leading digit
    last.fill(0)  # the leading digit is never 0
    for i, group in enumerate((g1, g2, g3, g4), start=1):
        words[:, i + 1] = np.take(digits4, group, out=word, mode="clip")
        # last = where(group != 0, 4 * i - zeros4[group], last)
        np.subtract(4 * i, np.take(zeros4, group, out=zeros, mode="clip"), out=zeros)
        np.copyto(last, zeros, where=np.not_equal(group, 0, out=mask))
    # codes = ((k + 4) * 17 + last) * 2 + (values < 0)
    codes = k
    codes += 4
    codes *= 17
    codes += last
    codes *= 2
    codes += np.less(x, 0, out=mask)
    sa, sb, out = *ws.fields[:, :size], ws.text_fields[:size]
    for table, field in ((sa_table, sa), (sb_table, sb), (c_table, out)):
        np.take(table, codes, out=field, mode="clip")
    # the bytes past this block's, left by a longer one, are dropped as padding
    ws.text_fields[size:].view(np.uint8)[:] = 0
    word, sa, sb, text = (a.view(np.uint8).reshape(-1) for a in (words, sa, sb, out))
    text.reshape(rows, n, _FIELD)[:, -1, -1] = ord("\n")
    sa *= word
    text += sa
    sb[1:] *= word[:-1]
    text += sb
    np.logical_not(fast, out=mask)
    if mask.any():
        # one % call for all of them, each text written over its field but
        # the separator, NUL-padded (the longest, "-2.2250738585072014e-308",
        # takes 24 bytes); the padding is dropped below
        other = np.flatnonzero(mask)
        texts = _join(x[other].tolist(), "\0").split("\0")
        texts = np.array(texts, dtype=f"S{_FIELD - 1}").view(np.uint8)
        text.reshape(size, _FIELD)[other, :-1] = texts.reshape(-1, _FIELD - 1)
    return ws.text.translate(None, b"\0")
