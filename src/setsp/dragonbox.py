"""The text `repr` writes for float64 values, built by numpy a block at a time.

`data_lines(masks, values)` returns the bytes of `f"{mask} {value!r}\\n"` for
each pair, which is what a setfn file holds (see `setsp.io`).  `repr` writes
the shortest decimal that reads back as the same double, and of those the
closest to it.  Dragonbox (Junekey Jeon, "Dragonbox: a new floating-point
binary-to-decimal conversion algorithm", 2020) computes those digits with one
integer product and divisions by constants, so numpy can run it on uint64
lanes, one lane per value:

- a table built once from exact Python integers holds, for each biased
  exponent, Dragonbox's 128-bit power of ten ceil(10**k * 2**s) (top bit
  set) times 2**beta as five 31-bit limbs, its delta and the decimal exponent;
- the right end of the value's rounding interval times that power is one
  54 x 137-bit product in 31-bit columns; dividing its integer part by 1000
  gives the digits when the remainder falls below delta, and the small-divisor
  step (100) gives one more digit otherwise;
- the two products that decide the parity of a tie run only on the lanes that
  need them, and four steps by 10**8, 10**4, 100 and 10 strip trailing zeros;
- the normal powers of two, whose rounding interval is lopsided, take their
  digits from the table, which reads them off `repr`.

The digits are then left-aligned in a 17-digit field, which two divisions by
10**8 and two SWAR words render.  Tables indexed by the place of the decimal
point and the digit count clear the bytes past the digits `repr` shows,
insert the point with a one-byte shift across the words, and give the
exponent.  Zero bytes pad each line, and one boolean compress drops them.
In process on a 2-vCPU Xeon (numpy 2.4.6), the 8,192-line blocks of a
65,536-line file of random doubles take 15-17 ms, where Ryu's kernel took
33-39 ms, and a call costs at least about 0.2 ms whatever its size.
The tests hold the bytes to `repr` itself.  `setsp.io` imports this module on
its first write, so that `import setsp` does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

_POW10 = np.array([10**r for r in range(20)], dtype=np.uint64)
_LOW31 = np.uint64(2**31 - 1)
# `_TAIL[k]` keeps the last k bytes of a word: the last k digits of a mask.
_TAIL = np.array([2**64 - (1 << 8 * (8 - k)) for k in range(9)], dtype=np.uint64)
# `_ENDS[_END_AT + point]` ends a value whose decimal point falls after `point`
# digits: "\n", or `repr`'s exponent and "\n" where it goes scientific.
_END_AT = 330
_ENDS = np.array([int.from_bytes(b"\n" if -4 < point < 17 else
                                 b"e%+03d\n" % (point - 1), "little")
                  for point in range(-_END_AT, _END_AT)], dtype=np.uint64)
# Leading values of a block whose repeats make `data_lines` format each
# distinct bit pattern once.
_SAMPLE = 256


@functools.cache
def _table() -> np.ndarray:
    """Dragonbox's constants of each biased exponent 0..2046, one column
    each: the five 31-bit limbs (low first) of C = phi * 2**beta, where phi =
    ceil(10**k * 2**(127 - floor(log2(10**k)))), k = 2 - floor(e * log10(2)),
    beta = e + floor(log2(10**k)) and e is the binary exponent of the
    lowest bit; delta = C >> 127; -k (two's complement); and the digits and
    decimal exponent of `repr` of the power of two, 0 and 0 for the zero."""
    table = np.empty((9, 2047), np.uint64)
    for biased in range(2047):
        e = max(biased, 1) - 1075
        k = 2 - (e * 315653 >> 20)
        log2 = k * 1741647 >> 19
        num, den = 10 ** max(k, 0) << max(127 - log2, 0), 10 ** max(-k, 0) << max(log2 - 127, 0)
        c = -(-num // den) << e + log2
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
    return (tens | (words - tens * 10) << 8) + 0x3030303030303030


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
    """`f"{mask} {value!r}\\n"` for each pair of non-negative integer masks
    (below 2**63) and finite float64 values, as ASCII bytes (a uint8 array).
    Each line is laid out in words padded with zero bytes, leaving out the
    words no line uses, and one compress drops the padding.  When the first
    values of the block repeat, each distinct bit pattern is formatted once
    (+0.0 and -0.0 stay apart).  The temporaries take about 220 bytes a
    line, so callers pass blocks (`setsp.io` passes 8,192 lines)."""
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
    for k in range(count):  # mask words, the last 8 digits last
        group = masks // 10 ** (8 * k) % 10**8 if count > 1 else masks
        lines[:, count - 1 - k] = _swar(group) & _TAIL[np.clip(size - 8 * k, 0, 8)]
    lines[:, count:] = texts if where is None else np.take(texts, where, axis=0)
    text = lines.astype("<u8", copy=False).view(np.uint8).reshape(-1)  # text order from the low byte
    return text[text != 0]
