"""The text `repr` writes for float64 values, built by numpy a block at a time.

`data_lines(masks, values)` returns the bytes of `f"{mask} {value!r}\\n"` for
each pair, which is what a setfn file holds (see `setsp.io`).  `repr` writes
the shortest decimal that reads back as the same double, and of those the
closest to it.  Ryu (Ulf Adams, "Ryu: fast float-to-string conversion", PLDI
2018) computes those digits with fixed-width integer arithmetic, so numpy can
run it on uint64 lanes, one lane per value:

- the 126-bit multipliers 5**-q and 5**i are built once, from exact Python
  integers, on the first call;
- vr, vp and vm (the value and its two rounding bounds, scaled by a power of
  ten) come from one 181-bit product in 31-bit columns;
- a binary search over powers of ten finds how many digits to remove, where
  Ryu removes them one at a time, and Ryu's trailing-zero tracking and
  round-half-to-even rule then pick the last digit.

The text is then laid out in words of 8 ASCII bytes, with zero bytes as
padding, and one boolean compress drops the padding.  The tests hold the
bytes to `repr` itself.  `setsp.io` imports this module on its first write,
so that `import setsp` does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# `_POW10[r]` is 10**r, and 2**64 - 1 past 10**19, so that the search for
# digits to remove can step past the end.
_POW10 = np.array([10**r for r in range(20)] + [2**64 - 1] * 12, dtype=np.uint64)
_LOW31 = np.uint64(2**31 - 1)
# "0.", "0.0", "0.00", "0.000": the text before the digits of a positional
# value below 1, as little-endian words.
_LEADS = np.array([0x2E30, 0x302E30, 0x30302E30, 0x3030302E30], dtype=np.uint64)
# `_ascii_words` keeps the last k of 8 digits: it shifts by `_DROP[k]` and
# keeps the low k bytes with `_KEEP[k]`.
_DROP = np.array([56] + [8 * (8 - k) for k in range(1, 9)], dtype=np.uint64)
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# Values formatted per call of `_value_words`, whose temporaries take about
# 290 bytes a value: 4,096 hold them in 1.2 MiB.
_CHUNK = 1 << 12


def _pow5bits(e: int) -> int:
    return (e * 1217359 >> 19) + 1


@functools.cache
def _table() -> np.ndarray:
    """Ryu's constants of each biased exponent 0..2046, one column each, in
    uint64 rows: the 126-bit multiplier (2**k / 5**q rounded up, or 5**i
    scaled to 125 bits) as five 31-bit limbs, low first; the shift j as
    j - 93 and 155 - j, which read bits j.. of columns 3, 4 and 5 of a
    product; the decimal exponent e10 (two's complement); a case (0: e2 >= 0
    and q <= 21, where a remainder by 5**q tells which bound has q trailing
    decimal zeros; 1: e2 < 0 and q <= 1; 2: any other); 5**q in case 0, 1
    elsewhere; and 2**q - 1 where e2 < 0 and q < 63, all ones elsewhere, so
    that vr has q trailing zeros when the bits of 4 * m2 under it are 0."""
    pow5 = [1]
    while len(pow5) < 326:
        pow5.append(pow5[-1] * 5)
    rows = []
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = (e2 * 78913 >> 18) - (e2 > 3)
            k = _pow5bits(q) + 124
            rows.append(((1 << k) // pow5[q] + 1, k + q - e2, q, 0 if q <= 21 else 2,
                         pow5[q] if q <= 21 else 1, -1))
        else:
            q = (-e2 * 732923 >> 20) - (-e2 > 1)
            i = -e2 - q
            rows.append(((pow5[i] << 125) >> _pow5bits(i), q + 125 - _pow5bits(i), q + e2,
                         1 if q <= 1 else 2, 1, (1 << q) - 1 if q < 63 else -1))
    mul, j, e10, case, five, low = zip(*rows)
    table = np.array([[m >> 31 * k & 2**31 - 1 for m in mul] for k in range(5)]
                     + [[x - 93 for x in j], [155 - x for x in j]]
                     + [[x % 2**64 for x in column] for column in (e10, case, five, low)],
                     dtype=np.uint64)
    table.setflags(write=False)
    return table


def shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's digits and decimal exponent of nonzero finite float64 bit
    patterns (uint64, the sign ignored): the value is `digits * 10**exponent`
    with the fewest digits, and of those the closest."""
    biased = (bits >> 52 & 0x7FF).astype(np.intp)
    *mul, down, up, e10, case, five, low = _table()[:, biased]
    fraction = bits & 0xFFFFFFFFFFFFF
    mv = np.where(biased > 0, fraction | 1 << 52, fraction) << 2
    accept = (mv & 4) == 0  # m2 even: a bound that is exact rounds to the value
    mm_shift = ((fraction != 0) | (biased <= 1)).astype(np.uint64)
    mm = mv - 1 - mm_shift
    # vm, vr and vp are (mm + c) * mul >> j for c = 0, 1 + mm_shift and
    # 3 + mm_shift: one product mm * mul in 31-bit columns, with c * mul added
    # to the columns before the carries
    a0, a1 = mm & _LOW31, mm >> 31
    columns = [a0 * mul[0], *(a0 * mul[k] + a1 * mul[k - 1] for k in range(1, 5)), a1 * mul[4]]
    vm, vr, vp = (_high_bits(columns, c, mul, down, up) for c in (None, 1 + mm_shift, 3 + mm_shift))
    # Whether all the digits to remove from vr, and from vm, are 0; vp drops
    # below an upper bound that is exact but excluded.
    vr_tz = mv & low == 0
    vm_tz = accept & (case == 1) & (mm_shift == 1)
    vp -= ~accept & (case == 1)
    by5 = case == 0
    if by5.any():
        mv5 = mv % 5 == 0
        vr_tz = np.where(by5, mv5 & (mv % five == 0), vr_tz)
        vm_tz |= by5 & accept & ~mv5 & (mm % five == 0)
        vp -= by5 & ~accept & ~mv5 & ((mv + 2) % five == 0)
    # Ryu removes digits one at a time while vp and vm differ above them, and
    # then, if vm is exact, while vm ends in 0.  Both tests fail for good
    # once they fail, so a binary search finds how many digits go.
    removed, vm_exact = np.zeros(bits.size, np.intp), vm_tz.any()
    for step in (16, 8, 4, 2, 1):
        p = _POW10[removed + step]
        more = vp // p * p > vm
        if vm_exact:
            more |= vm_tz & (vm // p * p == vm)
        removed += step * more
    p, p1 = _POW10[removed], _POW10[np.maximum(removed - 1, 0)]
    above = vr // p1
    digits = np.where(removed > 0, above // 10, vr)
    last = np.where(removed > 0, above - digits * 10, 0)  # the last digit removed from vr
    vr_tz &= above * p1 == vr
    vm_low = vm // p
    vm_tz &= vm_low * p == vm
    last[vr_tz & (last == 5) & (digits % 2 == 0)] = 4  # ...50..0: round half to even
    digits += (digits == vm_low) & ~(accept & vm_tz) | (last >= 5)
    return digits, e10.view(np.int64) + removed


def _high_bits(columns, c, mul, down, up) -> np.ndarray:
    """Bits j..j+63 of the sum of the 31-bit `columns` and `c * mul`."""
    total = columns[0] if c is None else columns[0] + c * mul[0]
    for k in range(1, 6):
        total = (total >> 31) + columns[k]
        if c is not None and k < 5:
            total += c * mul[k]
        if k == 3:
            limb3 = total & _LOW31
        elif k == 4:
            limb4 = total & _LOW31
    return (limb4 << 31 | limb3) >> down | total << up


def _ascii_words(groups: np.ndarray, shown: np.ndarray) -> np.ndarray:
    """Each group (uint64, below 10**8) as its last `shown` (0..8) decimal
    digits, leading zeros included, in ASCII from the low byte up, and zero
    bytes above them.  SWAR: 4-digit lanes, then 2-digit lanes (`* 5243 >>
    19` is `// 100` below 10**4), then digits (`* 103 >> 10` is `// 10`
    below 100)."""
    high = groups // 10000
    words = high | (groups - high * 10000) << 32
    hundreds = words * 5243 >> 19 & 0x7F0000007F
    words = hundreds | (words - hundreds * 100) << 16
    tens = words * 103 >> 10 & 0xF000F000F000F
    words = (tens | (words - tens * 10) << 8) + 0x3030303030303030
    return words >> _DROP[shown] & _KEEP[shown]


def _ascii_rows(groups: list, shown: list) -> np.ndarray:
    """`_ascii_words` of each row of `groups`; rows that show no digit stay 0."""
    words = np.zeros((len(groups), groups[0].size), np.uint64)
    for k, count in enumerate(shown):
        if count.max() > 0:
            words[k] = _ascii_words(groups[k], count)
    return words


def _split(x: np.ndarray, count: np.ndarray, sizes) -> tuple[list, list]:
    """`x` written with `count` digits (leading zeros included), cut from
    the left into groups of at most `sizes` digits: the groups as numbers,
    and the digits each shows."""
    groups, shown = [], []
    for size in sizes[:-1]:
        rest = np.maximum(count - size, 0)
        if not rest.any():  # the groups left are empty
            break
        p = _POW10[rest]
        top = x // p
        groups.append(top)
        shown.append(count - rest)
        x, count = x - top * p, rest
    empty = [np.zeros_like(count)] * (len(sizes) - len(groups) - 1)
    return groups + [x] + empty, shown + [count] + empty


def _value_words(bits: np.ndarray) -> np.ndarray:
    """` {value!r}\\n` of each finite float64 bit pattern (uint64) in 6
    words of ASCII, with zero bytes between the parts: the space, the sign
    and the first 6 digits before the point (and the point, where it fits);
    8 more; the last 2 and the point; 8 digits after the point; 8 more; the
    last one, the exponent and the newline.  As in `repr`,
    a value is positional when its decimal point falls after -4 and at most
    16 digits in, with ".0" if integral, and `d.ddde-XX` otherwise."""
    digits, exponent = shortest(bits)
    zero = bits << 1 == 0
    digits[zero], exponent[zero] = 0, 0
    length = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    point = length + exponent
    sci = (point <= -4) | (point > 16)
    after = np.where(sci, length - 1, np.maximum(length - np.maximum(point, 0), 0))
    before = np.where(sci, 1, np.maximum(point, 0))
    cut = _POW10[after]
    head = digits // cut
    ints, int_shown = _split(head * _POW10[np.where(sci, 0, np.maximum(point - length, 0))],
                             before, (6, 8, 2))
    fracs, frac_shown = _split(digits - head * cut, after, (8, 8, 1))
    words = _ascii_rows(ints + fracs, int_shown + frac_shown)
    point_text = np.where(~sci & (point <= 0), _LEADS[np.minimum(np.maximum(-point, 0), 3)],
                          np.where(after > 0, np.uint64(0x2E), np.uint64(0)))
    early = before <= 5  # the point fits into the first word
    end = np.where(after > 0, np.uint64(0x0A), np.uint64(0x0A302E))  # "\n" or ".0\n"
    if sci.any():
        e = np.abs(point - 1).astype(np.uint64)
        size = 2 + (e >= 100)
        end = np.where(sci, 0x2B65 + (point < 1) * np.uint64(0x200) | _ascii_words(e, size) << 16
                       | np.uint64(0x0A) << (8 * size + 16).astype(np.uint64), end)
    return np.stack([
        0x20 | (bits >> 63) * np.uint64(0x2D00) | words[0] << 16
        | np.where(early, point_text, 0) << (16 + 8 * np.minimum(before, 5)).astype(np.uint64),
        words[1],
        words[2] | np.where(early, 0, point_text) << 16,
        words[3],
        words[4],
        words[5] | end << (8 * frac_shown[2]).astype(np.uint64),
    ], axis=1)


def data_lines(masks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`f"{mask} {value!r}\\n"` for each pair of non-negative integer masks
    (below 2**63) and finite float64 values, as ASCII bytes (a uint8 array).
    Each distinct bit pattern is formatted once (so +0.0 and -0.0 stay
    apart); each line is laid out in words padded with zero bytes, leaving
    out the words no line uses, and one compress drops the padding."""
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.concatenate([_value_words(bits[i:i + _CHUNK]) for i in range(0, bits.size, _CHUNK)])
    texts = texts[:, texts.any(axis=0)]
    masks = masks.astype(np.uint64)
    size = np.maximum(np.searchsorted(_POW10, masks, side="right"), 1)
    count = -(-int(size.max()) // 8)
    lines = np.empty((masks.size, count + texts.shape[1]), np.uint64)
    for k in range(count):  # mask words, the last 8 digits last
        lines[:, count - 1 - k] = _ascii_words(masks // _POW10[8 * k] % 10**8,
                                               np.minimum(np.maximum(size - 8 * k, 0), 8))
    lines[:, count:] = texts[where]
    text = lines.astype("<u8", copy=False).view(np.uint8).reshape(-1)  # text order from the low byte
    return text[text != 0]
