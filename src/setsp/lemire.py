"""The data lines of a setfn file read back to int64 masks and float64 values
by numpy on uint64 lanes, with the bits `int` and `float` give.

`data_pairs(text, start)` reads the lines `"<mask> <value>\\n"` that follow
byte `start` of a file, in the grammar the writer (`setsp.dragonbox`) keeps to:
one space and one newline per line, the newline last; a mask of 1 to 18
ASCII digits; a value `-?D+(\\.D+)?(e[+-]D{1,3})?` with at most 19
significant digits.  Any other body, and a value it cannot decide, gives
None, and `setsp.io` reads that body with its general parser instead.

The separators are found by one `np.flatnonzero` over the body, which must
alternate space and newline.  Each field is then gathered right-aligned in
little-endian words of 8 bytes, from an unaligned uint64 view of the text,
8,192 lines at a time.  Its bytes are XORed with '0', so that a digit holds
its value, and the bytes before it are cleared; a decimal point is taken
out by a byte shift across the words; and simdjson's digit test and three
multiply-shift steps (Langdale and Lemire, "Parsing gigabytes of JSON per
second", 2019) check and read 8 digits per word.  A value is then
`w * 10**q`, `w` below 10**19:

- Clinger's fast path, one IEEE multiply or divide, when w <= 2**53 and
  |q| <= 22, where both factors are exact doubles;
- the Eisel-Lemire algorithm everywhere else (Lemire, "Number parsing at a
  gigabyte per second", SPE 2021): w times a 128-bit truncated power of
  five, with the second 64-bit product only where the first leaves nine 1
  bits under the mantissa.  Mushtak and Lemire ("Fast number parsing without
  fallback", SPE 2023) prove that this is correctly rounded for every w
  below 10**19.  A subnormal or infinite result, or q outside the table,
  is left undecided, and `float` of its text decides it: one line's
  subnormal keeps its body on this path, and an infinity gives None.

`setsp.io` imports this module on its first parse, so that `import setsp`
does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# Lines read per block; each takes about 290 bytes of temporaries, so a
# block holds about 2.3 MiB besides the arrays of the whole body.
_BLOCK = 1 << 13
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_ONES = np.uint64(0x0101010101010101)
_HIGH = np.uint64(0x8080808080808080)
# A byte v is a digit value when neither v nor v + 6 is above 15.
_SIXES = np.uint64(0x0606060606060606)
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
# `_AFTER[24 + k]` clears the first k bytes of a word, none for k < 0 and all
# for k > 8; `_UPTO[24 + k]` keeps its bytes 0..k, for k in -24..255.
_AFTER = np.array([2**64 - (1 << 8 * min(max(k, 0), 8)) for k in range(-24, 25)], np.uint64)
_UPTO = np.array([(1 << 8 * min(max(k + 1, 0), 8)) - 1 for k in range(-24, 256)], np.uint64)
# Byte i of `_PLACES[j]` is 8 * j + 8 - i, so that the top byte of
# `(1 << 8 * b) * _PLACES[j]` is 8 * j + b + 1, the place plus one of byte b of row j.
_PLACES = np.array([sum(8 * j + 8 - i << 8 * i for i in range(8)) for j in range(3)], np.uint64)
_POW10 = np.array([10.0**k for k in range(23)])  # every one an exact double
_M32 = np.uint64(0xFFFFFFFF)
_Q_MIN, _Q_MAX = -342, 308


@functools.cache
def _table() -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of 5**q for q in [-342, 308], scaled to 128
    bits and truncated, as two uint64 arrays; negative powers are a
    reciprocal rounded up, as in Lemire's table."""
    high, low = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            c = 5**q
        else:
            p = 5**-q
            z = p.bit_length()  # 2**z > p: p is odd
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
        c = c << 128 - c.bit_length() if c.bit_length() <= 128 else c >> c.bit_length() - 128
        high.append(c >> 64)
        low.append(c & 2**64 - 1)
    high, low = np.array(high, np.uint64), np.array(low, np.uint64)
    high.setflags(write=False)
    low.setflags(write=False)
    return high, low


def _text(words: np.ndarray, end: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The `length` bytes before byte `end` of each line, right-aligned in
    the fewest words the longest needs, one row per 8 bytes, the first row
    first.  Each byte is XORed with '0', so that a digit holds its value, and
    the bytes before the text are 0.  Each text starts 24 or more bytes into
    the file."""
    back = 8 * np.arange(-(-int(length.max()) // 8), 0, -1)[:, None]
    return (words[end - back] ^ _ZEROS) & _AFTER[back - length + 24]


def _number(rows: np.ndarray) -> np.ndarray | None:
    """The number the digit values of `rows` spell, or None when a byte is
    not a digit or the number is 10**19 or more.  simdjson's steps on each
    word: digit pairs, then groups of four, then all eight."""
    if ((rows + _SIXES | rows) & _NIBBLES).any():
        return None
    v = rows * 10 + (rows >> 8)
    groups = ((v & 0xFF000000FF) * 0xF424000000064 + (v >> 16 & 0xFF000000FF) * 0x271000000001) >> 32
    if len(groups) == 3 and groups[0].max() >= 1000:
        return None
    total = groups[0]
    for group in groups[1:]:
        total = total * 10**8 + group
    return total


def _point_out(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`rows` (from `_text`) with the '.' of each line taken out, the bytes
    before it shifted one place to the right behind a 0, and the place of
    that '.' in the text of the rows (-1 where there is none).  A line with
    two points keeps at least one, which no digit test passes."""
    x = rows ^ 0x1E1E1E1E1E1E1E1E  # 0 where the text holds '.'
    # a zero byte, and a 1 above one; but a '/' fails the digit test anyway
    found = ((x - _ONES) & ~x & _HIGH) >> 7
    at = ((found * _PLACES[:len(rows), None]).sum(axis=0) >> 56).astype(np.intp) - 1
    moved = rows << 8
    moved[1:] |= rows[:-1] >> 56
    upto = _UPTO[at - 8 * np.arange(len(rows))[:, None] + 24]
    return rows ^ (rows ^ moved) & upto, at


def _mul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products a * b, in 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, cross, other = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross & _M32) + (other & _M32)
    return a1 * b1 + (cross >> 32) + (other >> 32) + (mid >> 32), mid << 32 | low & _M32


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 bits of w * 10**q for nonzero w below 10**19, rounded to
    nearest even, and whether each is left undecided: q outside the table,
    or a subnormal or infinite result."""
    log2 = (w.astype(np.float64).view(np.uint64) >> 52) - np.uint64(1023)  # may round up
    log2 -= (w >> log2) == 0
    w = w << 63 - log2
    high_words, low_words = _table()
    index = q - _Q_MIN
    high, low = _mul(w, high_words.take(index, mode="clip"))
    again = np.flatnonzero(high & 0x1FF == 0x1FF)
    if again.size:
        extra = _mul(w[again], low_words.take(index[again], mode="clip"))[0]
        sum_low = low[again] + extra
        high[again] += sum_low < extra
        low[again] = sum_low
    upper = high >> 63
    mantissa = high >> upper + np.uint64(9)
    # exactly halfway between two doubles: round down to the even one
    near = np.flatnonzero(low <= 1)
    if near.size:
        m, near_q = mantissa[near], q[near]
        mantissa[near] -= ((near_q >= -4) & (near_q <= 23) & (m & 3 == 1)
                           & (m << upper[near] + np.uint64(9) == high[near]))
    mantissa = mantissa + (mantissa & 1) >> 1  # 2**52 to 2**53
    biased = (217706 * q >> 16) + (upper + log2).astype(np.int64) + 1022  # less one
    bits = (biased.astype(np.uint64) << 52) + mantissa  # a carry moves to the exponent
    outside = index.view(np.uint64) > _Q_MAX - _Q_MIN
    return bits, outside | (biased < 0) | (bits >= 0x7FF0000000000000)


def _values(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 bits of w * 10**q (w below 10**19), and the lanes left
    undecided."""
    rest = np.flatnonzero(((w > 1 << 53) | (q < -22) | (q > 22)) & (w != 0))
    if rest.size == w.size:
        bits, undecided = _eisel_lemire(w, q)
        return bits, np.flatnonzero(undecided)
    scale = _POW10[np.minimum(np.abs(q), 22)]
    f = w.astype(np.float64)
    bits = np.where(q < 0, f / scale, f * scale).view(np.uint64)
    if not rest.size:
        return bits, rest
    bits[rest], undecided = _eisel_lemire(w[rest], q[rest])
    return bits, rest[undecided]


def _block(data: np.ndarray, words: np.ndarray, begin: np.ndarray, space: np.ndarray,
           end: np.ndarray):
    """The masks and value bits of the lines [begin, end) whose one space is
    at `space`, or None."""
    size = space - begin
    if size.min() < 1 or size.max() > 18:
        return None
    masks = _number(_text(words, space, size))
    if masks is None:
        return None
    negative = data[space + 1] == 45
    start = space + 1 + negative  # of the digits
    # An exponent, "e", a sign and 1-3 digits, ends the value: the last 'e'
    # in bytes 3..5 of the last word, after the first digit.
    tail = words[end - 8]
    x = tail ^ 0x6565656565656565
    found = (x - _ONES) & ~x & 0x808080000000  # a false mark falls on a 'd' above an 'e'
    # the byte of the highest mark, from the exponent of the mark as a double
    e = ((found.astype(np.float64).view(np.uint64) >> 52) - np.uint64(1030) >> 3).astype(np.intp)
    digits = np.where((found != 0) & (end - 8 + e > start), 6 - e, 0)
    exponent = 0
    if digits.any():
        sign = tail >> (8 * e + 8).astype(np.uint64) & 0xFF
        if ((digits > 0) & (sign != 43) & (sign != 45)).any():
            return None
        exponent = _number(((tail ^ _ZEROS) & _AFTER[32 - digits])[None])
        if exponent is None:
            return None
        exponent = exponent.astype(np.int64)
        exponent[(digits > 0) & (sign == 45)] *= -1
    stop = end - np.where(digits > 0, digits + 2, 0)
    length = stop - start
    if length.min() < 1 or length.max() > 24:
        return None
    rows, point = _point_out(_text(words, stop, length))
    width = 8 * len(rows)
    if ((point >= 0) & ((point <= width - length) | (point == width - 1))).any():
        return None  # a point with no digit before or after it
    w = _number(rows)
    if w is None:
        return None
    bits, undecided = _values(w, exponent - np.where(point >= 0, width - 1 - point, 0))
    if undecided.size:  # `float` of their text decides them; the walk refuses an infinity
        exact = np.array([float(data[a:b].tobytes()) for a, b in zip(space[undecided] + 1,
                                                                      end[undecided])])
        if np.isinf(exact).any():
            return None
        bits[undecided] = exact.view(np.uint64)
    return masks.astype(np.int64), bits | negative.astype(np.uint64) << 63


def data_pairs(text: bytes, start: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The int64 masks and float64 values of the data lines after byte
    `start` (at least 24) of `text`, in the writer's grammar; None for an
    empty body, a body outside that grammar, or a value this module cannot
    decide."""
    data = np.frombuffer(text, np.uint8)
    if start < 24 or data.size <= start or data[-1] != 10:
        return None
    marks = np.flatnonzero(data[start:] <= 32) + start
    space, end = marks[0::2], marks[1::2]
    if space.size != end.size or (data[space] != 32).any() or (data[end] != 10).any():
        return None
    begin = np.concatenate([[start], end[:-1] + 1])
    words = np.ndarray((data.size - 7,), "<u8", text, 0, (1,))
    masks = np.empty(space.size, np.int64)
    bits = np.empty(space.size, np.uint64)
    for i in range(0, space.size, _BLOCK):
        block = slice(i, i + _BLOCK)
        read = _block(data, words, begin[block], space[block], end[block])
        if read is None:
            return None
        masks[block], bits[block] = read
    return masks, bits.view(np.float64)
