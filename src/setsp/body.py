"""The data lines of a setfn file, `f"{mask} {value!r}\\n"`, written and read
by numpy on uint64 lanes, `BLOCK` lines at a time.  `setsp.io` imports this
module on its first write or parse, so that `import setsp` does not compile it.

The grammar is the writer's: one space and one newline per line, the newline
last; a mask of ASCII digits; a value `-?D+(\\.D+)?(e[+-]D{1,3})?`, the
shortest decimal that reads back as the same double, as `repr` writes it.
`data_pairs` reads masks of 1 to 18 digits and values of at most 19
significant digits, to the bits `float` gives; any other body gives None,
and `setsp.io` walks it line by line.  Both directions share the block size,
the byte masks and the table of 128-bit powers of ten.

`write_lines` finds each value's digits with Dragonbox (Junekey Jeon,
"Dragonbox: a new floating-point binary-to-decimal conversion algorithm",
2020): the right end of the value's rounding interval times the exponent's
power of ten is one 54 x 137-bit product in 31-bit columns; its integer part
divided by 1000 gives the digits when the remainder falls below delta, and
the small-divisor step (100) one more digit otherwise.  The products that
decide the parity of a tie run only on the lanes that need them, four steps
strip trailing zeros, and the normal powers of two, whose rounding interval
is lopsided, take their digits from `repr`.  The digits are left-aligned in
a 17-digit field that two SWAR words render; tables indexed by the place of
the decimal point and the digit count clear the bytes past the digits `repr`
shows, insert the point with a one-byte shift across the words and give the
exponent, and one boolean compress drops the zero padding.  When a block's
first values repeat, each distinct bit pattern is formatted once.

`data_pairs` finds the separators by one `np.flatnonzero` over the body (a
first line outside the grammar gives None before it) and gathers each field
right-aligned in 8-byte words from an unaligned uint64 view.  A byte shift
takes out the decimal point, and simdjson's digit test and three
multiply-shift steps (Langdale and Lemire, "Parsing gigabytes of JSON per
second", 2019) check and read 8 digits per word.  A value `w * 10**q`, w
below 10**19, is one IEEE multiply or divide where w <= 2**53 and |q| <= 22
(Clinger's fast path), and Eisel-Lemire elsewhere (Lemire, "Number parsing
at a gigabyte per second", SPE 2021): w times a 128-bit truncated power of
five, with the second 64-bit product only where the first leaves nine 1
bits under the mantissa, correctly rounded for every such w (Mushtak and
Lemire, "Fast number parsing without fallback", SPE 2023).  `float` of its
text decides a subnormal result or q outside the table; an infinity gives
None.

In process on a 2-vCPU Xeon (numpy 2.4.6), a 65,536-line file of random
doubles writes in 15-17 ms and reads in 12-17 ms; a call costs at least
about 0.2 ms whatever its size.  The tests hold the bytes to `repr`.
"""

from __future__ import annotations

import functools

import numpy as np

# Lines per block in both directions; the writer's temporaries take about
# 220 bytes a line and the reader's about 290, so a block holds 2-2.3 MiB
# besides the arrays of the whole body.
BLOCK = 1 << 13
_POW10 = np.array([10**r for r in range(20)], dtype=np.uint64)
_EXACT_POW10 = np.array([10.0**k for k in range(23)])  # every one an exact double
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_ONES = np.uint64(0x0101010101010101)
_HIGH = np.uint64(0x8080808080808080)
# A byte v is a digit value when neither v nor v + 6 is above 15.
_SIXES = np.uint64(0x0606060606060606)
_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_LOW31 = np.uint64(2**31 - 1)
_M32 = np.uint64(0xFFFFFFFF)
# `_AFTER[24 + k]` clears the first k bytes of a word, none for k < 0 and all
# for k > 8; `_UPTO[24 + k]` keeps its bytes 0..k, for k in -24..255.
_AFTER = np.array([2**64 - (1 << 8 * min(max(k, 0), 8)) for k in range(-24, 25)], np.uint64)
_UPTO = np.array([(1 << 8 * min(max(k + 1, 0), 8)) - 1 for k in range(-24, 256)], np.uint64)
# Byte i of `_PLACES[j]` is 8 * j + 8 - i, so that the top byte of
# `(1 << 8 * b) * _PLACES[j]` is 8 * j + b + 1, the place plus one of byte b of row j.
_PLACES = np.array([sum(8 * j + 8 - i << 8 * i for i in range(8)) for j in range(3)], np.uint64)
# `_ENDS[_END_AT + point]` ends a value whose decimal point falls after `point`
# digits: "\n", or `repr`'s exponent and "\n" where it goes scientific.
_END_AT = 330
_ENDS = np.array([int.from_bytes(b"\n" if -4 < point < 17 else
                                 b"e%+03d\n" % (point - 1), "little")
                  for point in range(-_END_AT, _END_AT)], dtype=np.uint64)
# Leading values of a block whose repeats make `data_lines` format each
# distinct bit pattern once.
_SAMPLE = 256
# The powers of ten that Eisel-Lemire reads; the table reaches q = 326 for
# Dragonbox's largest k.
_Q_MIN, _Q_MAX = -342, 308


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of 10**q for q in [-342, 326], scaled to 128
    bits with the top bit set, as two uint64 arrays: 5**q truncated, and for
    negative q a reciprocal rounded up, as in Lemire's table.  Dragonbox's
    phi_k = ceil(10**k * 2**(127 - floor(log2(10**k)))) is this word for k
    in [-27, 55], where it is exact, and the word plus one elsewhere."""
    high, low = [], []
    for q in range(_Q_MIN, 327):
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


@functools.cache
def _table() -> np.ndarray:
    """Dragonbox's constants of each biased exponent 0..2046, one column
    each: the five 31-bit limbs (low first) of C = phi_k * 2**beta, where
    k = 2 - floor(e * log10(2)), beta = e + floor(log2(10**k)) and e is the
    binary exponent of the lowest bit; delta = C >> 127; -k (two's
    complement); and the digits and decimal exponent of `repr` of the power
    of two, 0 and 0 for the zero."""
    high, low = _powers()
    table = np.empty((9, 2047), np.uint64)
    for biased in range(2047):
        e = max(biased, 1) - 1075
        k = 2 - (e * 315653 >> 20)
        log2 = k * 1741647 >> 19
        phi = (int(high[k - _Q_MIN]) << 64 | int(low[k - _Q_MIN])) + (not -27 <= k <= 55)
        c = phi << e + log2
        digits, exponent = 0, 0
        if biased:
            mantissa, _, power = repr(2.0 ** (biased - 1023)).partition("e")
            whole, _, fraction = mantissa.partition(".")
            digits, exponent = int(whole + fraction), int(power or 0) - len(fraction)
            while digits % 10 == 0:
                digits, exponent = digits // 10, exponent + 1
        table[:, biased] = [c >> 31 * i & 2**31 - 1 for i in range(5)] + [
            c >> 127, -k % 2**64, digits, exponent % 2**64]
    table.setflags(write=False)
    return table


def _product(v: np.ndarray, limbs) -> tuple[np.ndarray, np.ndarray]:
    """Bits 128.. of v * C, for v below 2**54 and C below 2**137 in five
    31-bit `limbs`, and whether its bits 64..127 are all 0."""
    a0, a1 = v & _LOW31, v >> 31
    c0, c1, c2, c3, c4 = limbs
    t = (a0 * c0 >> 31) + a0 * c1 + a1 * c0
    t = (t >> 31) + a0 * c2 + a1 * c1
    low2 = t & _LOW31  # bits 62..92
    t = (t >> 31) + a0 * c3 + a1 * c2
    low3 = t & _LOW31
    t = (t >> 31) + a0 * c4 + a1 * c3
    low4 = t & _LOW31  # bits 124..154
    t = (t >> 31) + a1 * c4
    return low4 >> 4 | t << 27, (low2 >> 2 | low3 | low4 & 15) == 0


def shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits and decimal exponent of finite float64 bit patterns (uint64,
    the sign ignored): the value is `digits * 10**exponent` with the fewest
    digits, of those the closest, and of two as close the even one.  Zero
    gives 0 and 0."""
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    # one take per row, not a whole-table gather: at 8,192 lanes those were
    # blocks of 0.4-0.6 MiB that raised a later peak RSS of `cli-files` by 1 MiB
    *limbs, delta, minus_k = [row.take(biased) for row in _table()[:7]]
    fraction = bits & 0xFFFFFFFFFFFFF
    two_fc = (fraction | (biased > 0).astype(np.uint64) << 52) << 1
    even = fraction & 1 == 0  # the rounding interval keeps its ends
    z, z_exact = _product(two_fc | 1, limbs)
    digits = z // 1000
    r = z - digits * 1000
    # An excluded right end that is a multiple of 1000: one less, and the
    # small-divisor step from r = 1000, which exceeds every delta.
    cut = (r == 0) & z_exact & ~even
    digits -= cut
    r += cut * np.uint64(1000)
    small = r > delta
    tie = np.flatnonzero(r == delta)  # the left end decides
    if tie.size:
        x, x_exact = _product(two_fc[tie] - 1, [c[tie] for c in limbs])
        small[tie] = (x & 1 == 0) & ~(x_exact & even[tie])
    dist = r - (delta >> 1) + 50
    step = dist // 100
    digits = np.where(small, digits * 10 + step, digits)
    exponent = minus_k.view(np.int64) + 3 - small
    # A remainder that 100 divides: the parity of y = the value times 10**k
    # tells whether to step down, and a tie goes to the even digit.
    divides = np.flatnonzero(small & (step * 100 == dist))
    if divides.size:
        y, y_exact = _product(two_fc[divides], [c[divides] for c in limbs])
        d = digits[divides]
        digits[divides] = d - (((y ^ dist[divides] ^ 50) & 1 == 1) | (d & 1 == 1) & y_exact)
    zeros = np.flatnonzero(~small & (digits % 10 == 0))
    if zeros.size:
        d, e = digits[zeros], exponent[zeros]
        for places in (8, 4, 2, 1):
            q = d // 10**places
            strip = q * 10**places == d
            d = np.where(strip, q, d)
            e += places * strip
        digits[zeros], exponent[zeros] = d, e
    short = np.flatnonzero(fraction == 0)
    digits[short], exponent[short] = _table()[7:, biased[short]].view(np.int64)
    return digits, exponent


def _swar(groups: np.ndarray) -> np.ndarray:
    """Each group (uint64, below 10**8) as 8 decimal digits, leading zeros
    included, in ASCII from the low byte up.  SWAR: 4-digit lanes, then
    2-digit lanes (`* 5243 >> 19` is `// 100` below 10**4), then digits
    (`* 103 >> 10` is `// 10` below 100)."""
    high = groups // 10000
    words = high | (groups - high * 10000) << 32
    hundreds = words * 5243 >> 19 & 0x7F0000007F
    words = hundreds | (words - hundreds * 100) << 16
    tens = words * 103 >> 10 & 0xF000F000F000F
    return (tens | (words - tens * 10) << 8) + _ZEROS


@functools.cache
def _layout() -> np.ndarray:
    """Byte masks of the 24 bytes of a value's first three words, one column
    per (point, length), at `(point + 4) * 18 + length` for points -4..17 (the
    ends stand for every scientific value) and lengths 1..17.  Before, byte 0
    is the space, byte 1 the sign and byte 7 + i digit i of the 17-digit
    field.  Each word then becomes `word & hold | shifted & shift | fill`,
    where `shifted` holds the next byte of the text: `hold` keeps the head
    and the digits `repr` shows and not the bytes `shift` moves one place
    down, before the decimal point; `fill` is the point, or a lead "0.",
    "0.0", ... that ends at byte 6."""
    masks = bytearray()
    for point in range(-4, 18):
        for length in range(18):
            sci = not -4 < point < 17
            shown = length if sci or point <= 0 else max(length, point + 1)
            at = int(length > 1) if sci else max(point, 0)  # digits before the point
            lead = b"0." + b"0" * -point if not sci and point <= 0 else b""
            hold = bytearray(b"\xff" * (7 + shown) + bytes(17 - shown))
            shift, fill = bytearray(24), bytearray(7 - len(lead)) + lead + bytes(17)
            if at:
                hold[6:7 + at] = bytes(1 + at)
                shift[6:6 + at] = b"\xff" * at
                fill[6 + at] = ord(".")
            masks += hold + shift + fill
    table = np.frombuffer(masks, "<u8").reshape(-1, 9).T.astype(np.uint64)
    table.setflags(write=False)
    return table


def _value_words(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """` {value!r}\\n` of each finite float64 bit pattern (uint64) in 4 words
    of ASCII, with zero bytes between the parts: the space, the sign, a lead
    "0.000" and the first digit; 8 more digits; 8 more; the exponent and the
    newline.  The decimal point sits in the first three words after its
    digit.  As in `repr`, a value is positional when its point falls after
    -4 and at most 16 digits in, with ".0" if integral, and `d.ddde-XX`
    otherwise."""
    digits, exponent = shortest(bits)
    length = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    point = length + exponent
    field = digits * _POW10[17 - length]
    top = field // 10**8
    groups = np.empty((2, bits.size), np.uint64)
    groups[1] = field - top * 10**8
    first = top // 10**8
    groups[0] = top - first * 10**8
    b, c = _swar(groups)
    a = 0x20 | (bits >> 63) * np.uint64(0x2D00) | first + 0x30 << 56
    column = (np.clip(point, -4, 17) + 4) * 18 + length
    hold_a, hold_b, hold_c, shift_a, shift_b, shift_c, fill_a, fill_b, fill_c = [
        row.take(column) for row in _layout()]
    return (a & hold_a | (a >> 8 | b << 56) & shift_a | fill_a,
            b & hold_b | (b >> 8 | c << 56) & shift_b | fill_b,
            c & hold_c | c >> 8 & shift_c | fill_c,
            _ENDS[point + _END_AT])


def data_lines(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The lines of one block of masks and values, as ASCII bytes (a uint8
    array).  Each line is laid out in words padded with zero bytes, leaving
    out the words no line uses, and one compress drops the padding.  When the
    first values of the block repeat, each distinct bit pattern is formatted
    once (+0.0 and -0.0 stay apart)."""
    bits, where = values.view(np.uint64), None
    # not `np.unique` without an inverse: its hash table leaves 0.6 MiB of
    # heap in use after the first call
    sample = np.sort(bits[:_SAMPLE])
    if (sample[1:] == sample[:-1]).any():
        bits, where = np.unique(bits, return_inverse=True)
    texts = np.stack(_value_words(bits))
    texts = texts[texts.max(axis=1) != 0].T
    masks = masks.astype(np.uint64)
    size = np.maximum(np.searchsorted(_POW10, masks, side="right"), 1)
    count = -(-int(size.max()) // 8)
    lines = np.empty((masks.size, count + texts.shape[1]), np.uint64)
    for k in range(count):  # mask words, the last 8 digits last, clear before the first digit
        group = masks // 10 ** (8 * k) % 10**8 if count > 1 else masks
        lines[:, count - 1 - k] = _swar(group) & _AFTER[32 + 8 * k - size]
    lines[:, count:] = texts if where is None else np.take(texts, where, axis=0)
    text = lines.astype("<u8", copy=False).view(np.uint8).reshape(-1)  # text order from the low byte
    return text[text != 0]


def write_lines(fh, masks: np.ndarray | None, values: np.ndarray) -> None:
    """Write the lines of aligned `masks` and `values` to the binary file
    `fh`, one `data_lines` call per `BLOCK` lines; `masks` None stands for
    0, 1, ..., values.size - 1."""
    for start in range(0, values.size, BLOCK):
        stop = min(start + BLOCK, values.size)
        block = np.arange(start, stop) if masks is None else masks[start:stop]
        fh.write(data_lines(block, values[start:stop]))


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
    nearest even, and whether each is left undecided: q outside [-342, 308],
    or a subnormal or infinite result."""
    log2 = (w.astype(np.float64).view(np.uint64) >> 52) - np.uint64(1023)  # may round up
    log2 -= (w >> log2) == 0
    w = w << 63 - log2
    high_words, low_words = _powers()
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
    scale = _EXACT_POW10[np.minimum(np.abs(q), 22)]
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
    decide.  A first line with a tab, a CR or a second space, or a blank
    one, is plainly foreign and gives None before the separator scan."""
    newline = text.find(b"\n", start)
    mask, _, value = text[start:newline if newline > 0 else None].partition(b" ")
    if start < 24 or not mask.isdigit() or not value or min(value) <= 32:
        return None
    return _scan(text, start)


def _scan(text: bytes, start: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`data_pairs` past its look at the first line: one scan for the
    separators, then `_block` per `BLOCK` lines."""
    data = np.frombuffer(text, np.uint8)
    if data[-1] != 10:
        return None
    marks = np.flatnonzero(data[start:] <= 32) + start
    space, end = marks[0::2], marks[1::2]
    if space.size != end.size or (data[space] != 32).any() or (data[end] != 10).any():
        return None
    begin = np.concatenate([[start], end[:-1] + 1])
    words = np.ndarray((data.size - 7,), "<u8", text, 0, (1,))
    masks = np.empty(space.size, np.int64)
    bits = np.empty(space.size, np.uint64)
    for i in range(0, space.size, BLOCK):
        block = slice(i, i + BLOCK)
        read = _block(data, words, begin[block], space[block], end[block])
        if read is None:
            return None
        masks[block], bits[block] = read
    return masks, bits.view(np.float64)
