"""Float text: the one writer of every float the package writes, and the
readers of float lists and UTF-8 input.

The one rule: `_format_floats` writes each float as ``%.17g`` does, 17
significant digits, so values survive a text round trip bit for bit and
a saved model or data file keeps the paper's identities exactly. Below
the crossover `_KERNEL_VALUES` it joins ``%.17g`` with ``%``; from there
on a numpy kernel writes the same bytes faster, but for a block more than
half of which lies outside [1e-4, 1e17), which goes to ``%`` whole. The
kernel writes a value with 1e-4 <= |x| < 1e17 from its 17 significant
digits D: with k = floor(log10|x|), Dekker's error-free product gives
|x| * 10^(16-k) = p + e exactly (10^(16-k) <= 1e20 is an exact double),
and D is p rounded half to even by e. When p + e lies in [10^16, 10^17)
and D < 10^17, %.17g writes D in fixed notation with the point after
digit k and trailing zeros dropped, as the kernel does. Any other value
(±0, a subnormal, one outside that range, or one whose estimate of k was
off) it writes by ``%`` too.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParseError

_FLOAT_FMT = "%.17g"

# The crossover, measured on a 2-core x86-64 VM: `%` writes 1 value in
# 1.3 us and 1024 in 0.7 ms, the kernel 85-130 us and 0.2-0.3 ms. CSV
# blocks and large model bases fall above it, short vectors and scalars below.
# A block more than half of whose values lie outside [1e-4, 1e17) goes to
# `%` whole too, since the kernel pays its own arithmetic for each of them
# and then `%`. On one 64x65 block (best of 15, process time, the same VM),
# the kernel took 1.0 ms against 2.3 ms for `%` with every value in range,
# 2.6 ms against 2.6 ms with 40% out of range, 3.0 ms against 2.8 ms with
# half out, and 4.8 ms against 2.9 ms with all out.
_KERNEL_VALUES = 230


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
    '\\n'; any other shape as its values in order, joined by ','."""
    values = np.asarray(values, dtype=float)
    rows = values if values.ndim == 2 else values.reshape(1, -1)
    text = _kernel_text(rows) if _takes_kernel(rows) else _joined_rows(rows)
    return text if values.ndim == 2 else text[:-1]


def _takes_kernel(values: np.ndarray) -> bool:
    """Whether the kernel writes `values` faster than `%`: from _KERNEL_VALUES
    values on, unless more than half of them lie outside [1e-4, 1e17)."""
    if values.size < _KERNEL_VALUES:
        return False
    ax = np.abs(values)
    return 2 * np.count_nonzero((ax >= 1e-4) & (ax < 1e17)) >= values.size


def _join(values: list, sep: str) -> str:
    """The floats `values` as `_FLOAT_FMT` writes them, `sep` between, in one % call."""
    return sep.join([_FLOAT_FMT] * len(values)) % tuple(values)


def _joined_rows(rows: np.ndarray) -> str:
    """The rows of the 2-d `rows` as `_format_floats` writes them, by `%` alone."""
    return "".join(_join(row, ",") + "\n" for row in rows.tolist())


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, each half holding at most 26 bits."""
    c = a * (2.0 ** 27 + 1)
    hi = c - (c - a)
    return hi, a - hi


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

    return (
        pow10, *_veltkamp_split(pow10), digits4.astype(np.uint8).view(np.uint32).ravel(),
        zeros4, table(sa), table(sb), table(c))


def _kernel_text(values: np.ndarray) -> str:
    """The rows of the finite 2-d `values` as `_format_floats` writes them."""
    rows, n = values.shape
    pow10, pow10_hi, pow10_lo, digits4, zeros4, sa_table, sb_table, c_table = _kernel_tables()
    ax = np.abs(values)
    fast = (ax >= 1e-4) & (ax < 1e17)
    ax[~fast] = 1.0
    # log10 may be off by one near a power of ten; the range check below
    # then sends the value to the fallback
    k = np.clip(np.floor(np.log10(ax)).astype(np.intp), -4, 16)
    j = 16 - k
    scale, scale_hi, scale_lo = pow10[j], pow10_hi[j], pow10_lo[j]
    ax_hi, ax_lo = _veltkamp_split(ax)
    p = ax * scale
    e = ((ax_hi * scale_hi - p) + ax_hi * scale_lo + ax_lo * scale_hi) + ax_lo * scale_lo
    # p >= 10^16 > 2^53 is an even integer, so rounding e alone to even rounds p + e
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast &= ((p > 1e16) | ((p == 1e16) & (e >= 0))) & (d < 10 ** 17)
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    head = top // 10 ** 4
    lead = head // 10 ** 4
    g3 = low // 10 ** 4
    groups = (head - lead * 10 ** 4, top - head * 10 ** 4, g3, low - g3 * 10 ** 4)
    words = np.empty((rows, n, _FIELD // 4), np.uint32)
    words[:, :, 1] = digits4[lead]  # "000" and the leading digit
    last = np.zeros(d.shape, np.intp)  # the leading digit is never 0
    for i, group in enumerate(groups, start=1):
        words[:, :, i + 1] = digits4[group]
        last = np.where(group != 0, 4 * i - zeros4[group], last)
    codes = ((k + 4) * 17 + last) * 2 + (values < 0)
    word = words.view(np.uint8).ravel()
    sa = np.take(sa_table, codes).view(np.uint8).ravel()
    sb = np.take(sb_table, codes).view(np.uint8).ravel()
    out = np.take(c_table, codes).view(np.uint8).reshape(rows, n, _FIELD)
    out[:, -1, -1] = ord("\n")
    text = out.ravel()
    sa *= word
    text += sa
    sb[1:] *= word[:-1]
    text += sb
    other = np.nonzero(~fast)
    if other[0].size:
        # one % call for all of them, each text written over its field but
        # the separator, NUL-padded (the longest, "-2.2250738585072014e-308",
        # takes 24 bytes); the padding is dropped below
        texts = _join(values[other].tolist(), "\0").split("\0")
        texts = np.array(texts, dtype=f"S{_FIELD - 1}").view(np.uint8)
        out[other[0], other[1], :-1] = texts.reshape(-1, _FIELD - 1)
    return text[text != 0].tobytes().decode("ascii")
