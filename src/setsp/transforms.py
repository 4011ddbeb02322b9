"""The five powerset Fourier transforms, from one table of 2x2 kernels.

Each transform is the n-fold Kronecker power of a 2x2 kernel, so it factors
into n stages of 2**(n-1) independent 2x2 butterflies; stage i pairs indices
that differ in bit i-1.  All kernels contain only 0 and +-1, hence forward
transforms of integer signals are exact.  Model 5 is the Walsh-Hadamard
transform; its inverse kernel carries the scale 1/2, applied once at the end
as (1/2)**n.

`_TABLE` is the only place the family is written out: one row per (model,
direction) with the 2x2 kernel, whether `dsft_inplace` reverses the array
first, and its stage op.  With the complement reversal J (`values[::-1]`)
applied once first, the kernels of models 1 and 4 factor as a zeta step
times J, [[1,1],[1,0]] = [[1,1],[0,1]].J and [[0,1],[1,-1]] = [[1,0],[-1,1]].J
(Yates; Bjoerklund et al., "Fourier meets Moebius").

Schedule (the FFHT layout of Andoni et al.): the low stages run block by
block in L2, the high ones stream over the array.  Inside a block, the
stages of the low index bits run on a transposed copy, so that every stage
pairs long contiguous rows (of 128 elements or more in a full block), under
a small ufunc buffer that numpy does not copy such rows through; the
reversal of models 1 and 4 is folded into that copy.  Model 5 writes each
stage into a second buffer, two ufuncs a stage, and runs its high stages a
few columns at a time through its two scratch blocks.  Model 2 runs pairs
of stages in six quarter passes instead of eight.  A block of +0.0 skips
its stages unless some kernel row has no positive entry (model 2's w ->
-w): only a sum of negated terms turns +0.0 into -0.0.  None of this
changes an output bit: each output is the same sum, formed in the same
order up to swapping the operands of an addition (see `dsft_inplace`).

Everything else model-specific is derived from the kernel.  Every matrix
entry has the closed form

    entry(row, col) = scale**n * (-1)**|row & col| * [condition(row, col)]

because every nonzero kernel entry is +-scale, the largest |entry|, and the
only negative one sits at (1, 1).  A zero kernel entry at (r, c) zeroes the
matrix entry whenever some element has bit r in the row and bit c in the
column.  With T the elements whose column bit is c (T = col, or N \\ col
when c == 0), the condition is that no element of T has row bit r: row & T
== T when r == 0, row & T == 0 when r == 1 (`_closed_form`).  That is rows
and columns disjoint, covering N, or one a subset of the other; model 5 has
no zero entry and no condition.  `dsft_matrix` materializes these entries.
The elementary shifts of `filters.shift` are derived from the same kernels.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    Spectrum,
    check_model,
    popcount,
)

FORWARD = "forward"
INVERSE = "inverse"

MATRIX_MAX_N = 12  # dense 2**n x 2**n oracles only


def check_direction(direction: str) -> str:
    if direction not in (FORWARD, INVERSE):
        raise ValueError(f"direction must be '{FORWARD}' or '{INVERSE}'")
    return direction


def _infer_n(size: int) -> int:
    n = size.bit_length() - 1
    if n < 0 or 1 << n != size:
        raise ValueError(f"signal length {size} is not a power of two")
    return n


# Stage ops on the halves (u, w) of one butterfly stage, in place.
def _sum_up(u, w):
    np.add(u, w, out=u)  # superset sum: (u, w) -> (u+w, w)


def _diff_down(u, w):
    np.subtract(w, u, out=w)  # subset difference: (u, w) -> (u, w-u)


# The float64 sign bit: XOR with it negates exactly, as np.negative does.
_SIGN_BIT = np.int64(-(1 << 63))


def _negate(x):
    # np.negative in place on a 1-d view with a stride of 8 elements writes
    # the wrong elements in numpy 2.4; the integer XOR has no such loop.
    bits = x.view(np.int64)
    np.bitwise_xor(bits, _SIGN_BIT, out=bits)


def _model2(u, w):
    np.add(u, w, out=u)  # [[1,1],[0,-1]]: (u, w) -> (u+w, -w)
    _negate(w)


def _model2_pair(p, q, r, s):
    """Model 2's stages i and i+1 on the quarters of rows whose bits (i+1, i)
    are 00, 01, 10, 11: six quarter passes instead of eight.  Stage by stage
    they are (p+q)+(r+s), (-q)+(-s), -(r+s) and -(-s); x - y is x + (-y) in
    IEEE arithmetic, and the double negation of s is the identity."""
    np.add(p, q, out=p)
    np.add(r, s, out=r)
    np.add(p, r, out=p)
    _negate(r)
    _negate(q)
    np.subtract(q, s, out=q)


def _model3(u, w):
    np.subtract(u, w, out=w)  # [[1,0],[1,-1]]: (u, w) -> (u, u-w)


def _wht(x, y, i):
    """Model 5's stage i from x into y: (u, w) -> (u+w, u-w), two ufuncs."""
    u, w = _halves(x, i)
    u2, w2 = _halves(y, i)
    np.add(u, w, out=u2)
    np.subtract(u, w, out=w2)


# (model, direction) -> (2x2 kernel, reverse the array first?, stage op); the
# factorisations are in the module and `dsft_inplace` docstrings.
_TABLE = {
    (1, FORWARD): (np.array([[1.0, 1.0], [1.0, 0.0]]), True, _sum_up),
    (1, INVERSE): (np.array([[0.0, 1.0], [1.0, -1.0]]), True, _diff_down),
    (2, FORWARD): (np.array([[1.0, 1.0], [0.0, -1.0]]), False, _model2),
    (2, INVERSE): (np.array([[1.0, 1.0], [0.0, -1.0]]), False, _model2),
    (3, FORWARD): (np.array([[1.0, 0.0], [1.0, -1.0]]), False, _model3),
    (3, INVERSE): (np.array([[1.0, 0.0], [1.0, -1.0]]), False, _model3),
    (4, FORWARD): (np.array([[0.0, 1.0], [1.0, -1.0]]), True, _diff_down),
    (4, INVERSE): (np.array([[1.0, 1.0], [1.0, 0.0]]), True, _sum_up),
    (5, FORWARD): (np.array([[1.0, 1.0], [1.0, -1.0]]), False, _wht),
    (5, INVERSE): (np.array([[0.5, 0.5], [0.5, -0.5]]), False, _wht),
}


def _row(model: int, direction: str):
    check_model(model)
    check_direction(direction)
    return _TABLE[(model, direction)]


def kernel(model: int, direction: str = FORWARD) -> np.ndarray:
    """The 2x2 kernel whose n-fold Kronecker power is the transform matrix."""
    return _row(model, direction)[0].copy()


@cache
def _closed_form(model: int, direction: str) -> tuple[bool, str | None, float]:
    """(T is N \\ col, want, scale) of the closed-form matrix entries: the
    condition is row & T == T for want "all", row & T == 0 for "none", and
    absent for None; see the module docstring for the derivation."""
    k = _row(model, direction)[0]
    scale = float(np.abs(k).max())
    zeros = np.argwhere(k == 0)
    if not zeros.size:
        return False, None, scale
    r, c = zeros[0].tolist()
    return c == 0, "all" if r == 0 else "none", scale


# The low stages pair rows inside aligned blocks of about 2**_BLOCK_BITS
# elements (2**_BLOCK_BITS rows of 1-d input), which stay in L2 while all of
# those stages run.  The dense layer's working set is one such block plus at
# most two scratch blocks: 512 KiB of float64 each, 1.5 MiB of a 2 MiB L2.
# The stages of the low half of a block's index bits run on a transposed
# copy of the block, where they pair long rows instead of short ones.
_BLOCK_BITS = 16
# numpy copies a strided operand through its ufunc buffer whenever a row is
# shorter than the buffer (8192 elements by default); rows of 64 or more
# elements run unbuffered under this size.
_BUFSIZE = 64


def _split(x: np.ndarray, rows: tuple[int, ...]) -> np.ndarray:
    """View of x with axis 0 split into `rows`; never a copy."""
    return x.reshape(rows + x.shape[1:], copy=False)


def _halves(x: np.ndarray, i: int):
    """The halves (u, w) of stage i on x: rows that differ in bit i."""
    v = _split(x, (-1, 2, 1 << i))
    return v[:, 0], v[:, 1]


def _stages(x: np.ndarray, first: int, stop: int, op) -> None:
    i = first
    while i < stop:
        if op is _model2 and i + 1 < stop:
            v = _split(x, (-1, 4, 1 << i))
            _model2_pair(v[:, 0], v[:, 1], v[:, 2], v[:, 3])
            i += 2
        else:
            op(*_halves(x, i))
            i += 1


def _wht_stages(x: np.ndarray, y: np.ndarray, first: int, stop: int):
    """Model 5's stages first..stop-1 from x, alternating between x and y;
    returns (the buffer holding the result, the other one)."""
    for i in range(first, stop):
        _wht(x, y, i)
        x, y = y, x
    return x, y


def _all_plus_zero(block: np.ndarray) -> bool:
    """Whether every bit of `block` is 0: +0.0 only, no -0.0."""
    bits = block.view(np.uint64)
    return not bits.flat[0] and not bits.any()


def _transpose(dst: np.ndarray, src: np.ndarray, bits: int) -> None:
    """dst <- src with the row index's high and low parts swapped: row
    i * 2**k + j of src, where j < 2**k and i < 2**bits, is row j * 2**bits
    + i of dst."""
    np.copyto(_split(dst, (-1, 1 << bits)), _split(src, (1 << bits, -1)).swapaxes(0, 1))


def _block_stages(block, scratch, a: int, b: int, op) -> None:
    """Stages 0..a+b-1 of one block, from scratch[0] into `block`.
    scratch[0] holds the block's input with its low b and high a row bits
    swapped, so that stage i < b is stage a + i there; model 5 also uses
    scratch[1]."""
    low = a + b
    if op is not _wht:
        _stages(scratch[0], a, low, op)
        _transpose(block, scratch[0], b)
        _stages(block, b, low, op)
        return
    x, y = _wht_stages(scratch[0], scratch[1], a, low)
    # a stages are left; start them where an even or odd count ends in block
    start, spare = (block, x) if a % 2 == 0 else (y, block)
    _transpose(start, x, b)
    _wht_stages(start, spare, b, low)


def _wht_high(values: np.ndarray, n: int, low: int, scratch: np.ndarray) -> None:
    """Model 5's stages low..n-1, as many columns of the (2**(n-low), 2**low)
    view at a time as a scratch block holds: the first stage reads them, the
    last writes them back, and those between alternate the scratch blocks."""
    h = n - low
    grid = _split(values, (1 << h, 1 << low))
    bufs = scratch.reshape((2, 1 << h, -1) + values.shape[1:])
    width = bufs.shape[2]  # a power of two, so it divides 2**low
    for j in range(0, 1 << low, width):
        chunk = grid[:, j : j + width]
        x = chunk
        for i in range(h):
            y = chunk if 0 < i == h - 1 else bufs[i % 2]
            _wht(x, y, i)
            x = y
        if h == 1:
            np.copyto(chunk, x)


def dsft_inplace(values: np.ndarray, model: int, direction: str = FORWARD) -> int:
    """Fast transform of `values` in place; returns the add/sub count.

    `values` is a float64 array of length 2**n indexed by subset mask; a 2-d
    array of shape (2**n, m) transforms m signals at once (columns).  Any
    other dtype or number of dimensions is refused before any work.

    Each (model, direction) is one row of `_TABLE`: an optional complement
    reversal J (`values[::-1]` along axis 0) followed by n stages of one
    stage op, stage i pairing rows that differ in bit i.  Kronecker factors
    on different bits commute, so the n-fold power of `op . J` is the n-fold
    power of `op` after the n-fold power of J, a full reversal.  This is the
    zeta/Moebius factorisation of Yates (1937) and of Bjoerklund, Husfeldt,
    Kaski & Koivisto, "Fourier meets Moebius" (STOC 2007):

        model 1 forward = model 4 inverse: reverse, then u += w per stage
        model 1 inverse = model 4 forward: reverse, then w -= u per stage
        model 2: u += w, then w = -w by flipping its sign bit; two stages
                 at once where it can (`_model2_pair`)
        model 3: w = u - w
        model 5: (u, w) -> (u+w, u-w), written into a second buffer

    Model 2 also factors as [[1,1],[0,-1]] = [[1,-1],[0,1]].diag(1,-1): one
    parity-sign pass, then u -= w per stage, with no negations.  That path
    is not taken because it changes bits: a sum that cancels exactly is
    +0.0 whatever sign it carries, so some zeros come out with the other
    sign (for [0, 0, 1, -1], entry 2 is -0.0 here and +0.0 there).

    Schedule (the cache blocking of FFHT, Andoni et al., NeurIPS 2015): the
    stages i < low only pair rows inside aligned blocks of 2**low rows, a
    block holding about 2**_BLOCK_BITS elements, so they all run on one
    block before moving to the next, while the block is in L2.  Then the
    stages i >= low stream over the whole array.  2-d input is blocked
    along axis 0.

    On a block, stage i pairs rows of 2**i contiguous elements, and numpy
    runs short rows slowly: one inner loop per row, each copied through
    the ufunc buffer.  So the block's row bits are split into b = low // 2
    low bits and a = low - b high ones.  The block is copied into a scratch
    block with the two parts swapped (a transpose of its (2**a, 2**b)
    view), where stages 0..b-1 are stages a..low-1 on rows of at least 2**a
    elements.  It is copied back swapped again, and stages b..low-1 run in
    place on rows of at least 2**b.  The reversal of models 1 and 4 is
    folded into the first copy: block k is loaded from block nb-1-k read
    backwards, so blocks are loaded in mirrored pairs, both before either
    is written.

    A block whose bits are all 0 is not loaded unless some row of the kernel
    has no positive entry: only a sum of negated terms (model 2's w -> -w)
    turns +0.0 into -0.0.  Under models 1 and 4 its mirrored partner
    must be zero too.  Bits are tested, so a block holding -0.0 runs, and
    the first element before the rest, so a dense input pays about one
    branch per block.

    Model 5 cannot run in place in two ufuncs, so each stage writes into a
    second buffer.  In a block, its stages alternate between the two
    scratch blocks, then between the block and a scratch block, starting
    where the stage count makes the last one end in the block.  Its high
    stages run as many columns of the (blocks, rows per block) view at a
    time as a scratch block holds: the first reads them from the array, the
    ones between alternate the two scratch blocks, and the last writes them
    back.

    Scratch memory is one block for models 2 and 3 and two for models 1, 4
    and 5, grown for model 5 to one column of 2**(n-low) rows if that is
    larger; it allocates nothing else (the L2 budget is at `_BLOCK_BITS`).

    The stage ufuncs run under a ufunc buffer of _BUFSIZE elements, so rows
    of 64 elements or more are not copied through it.  The setting lives in
    numpy's error-state context variable: `np.errstate()` restores it on
    exit, also when an error is raised, and other threads never see it.

    The bits do not depend on the schedule or on batching: every output is
    the same tree of additions as the per-stage 2x2 butterfly in ascending
    stage order.  Reordering independent butterflies or moving a value to
    another buffer changes no operand, and reversing first only relabels
    which slot holds a value, turning u + w into w + u, which IEEE addition
    makes exact; likewise x - y is x + (-y).  (Which NaN payload or sign a
    NaN output carries, IEEE arithmetic leaves open.)
    """
    kern, reverse, op = _row(model, direction)
    if values.dtype != np.float64 or values.ndim not in (1, 2):
        raise ValueError("in-place transform requires a 1-d or 2-d float64 array")
    n = _infer_n(values.shape[0])
    if n == 0 or values.size == 0:
        return 0
    *_, scale = _closed_form(model, direction)
    # zero blocks skip unless a kernel row has no positive entry: +0.0 -> -0.0
    skip_zero = not any((r <= 0).all() for r in kern)
    # row bits of a block: 2**low rows of m = values.size >> n elements
    low = min(n, max(1, _BLOCK_BITS - ((values.size >> n) - 1).bit_length()))
    b = low // 2
    nb = 1 << (n - low)
    blocks = _split(values, (nb, 1 << low))
    rows = max(low, n - low) if op is _wht else low
    scratch = np.empty((2 if reverse or op is _wht else 1, 1 << rows) + values.shape[1:])
    block_scratch = scratch[:, : 1 << low]
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        for k in range(max(nb // 2, 1) if reverse else nb):
            if reverse:  # blocks k and nb-1-k trade places, each read backwards
                pairs = [(k, nb - 1 - k), (nb - 1 - k, k)][: min(nb, 2)]
            else:
                pairs = [(k, k)]
            if skip_zero and all(_all_plus_zero(blocks[src]) for _, src in pairs):
                continue
            for j, (_, src) in enumerate(pairs):
                _transpose(block_scratch[j], blocks[src][::-1] if reverse else blocks[src], low - b)
            for j, (dst, _) in enumerate(pairs):
                _block_stages(blocks[dst], block_scratch[j:], low - b, b, op)
        if op is not _wht:
            _stages(values, low, n, op)
        elif n > low:
            _wht_high(values, n, low, scratch)

    if scale != 1.0:
        values *= scale**n
    # one addition per butterfly output beyond its first term
    return n * (values.size // 2) * (int(np.count_nonzero(kern)) - 2)


def dsft(model: int, s: SetFunction) -> Spectrum:
    """Forward transform of a dense set function (out-of-place)."""
    arr = np.array(s.values)
    dsft_inplace(arr, model, FORWARD)
    return Spectrum.wrap(s.ground, model, arr)


def idsft(model: int, spectrum: Spectrum) -> SetFunction:
    """Inverse transform; the spectrum's model tag must match."""
    check_model(model)
    if spectrum.model != model:
        raise ValueError(
            f"spectrum is tagged model {spectrum.model}, cannot invert as model {model}"
        )
    arr = np.array(spectrum.coeffs)
    dsft_inplace(arr, model, INVERSE)
    return SetFunction.wrap(spectrum.ground, arr)


def _closed_entries(model: int, direction: str, rows, cols, n: int) -> np.ndarray:
    """Matrix entries at the given (broadcastable) row/col mask arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    complement, want, scale = _closed_form(model, direction)
    out = 1.0 - 2.0 * (popcount(rows & cols) & 1)
    if want is not None:
        tests = cols ^ ((1 << n) - 1) if complement else cols
        out = np.where((rows & tests) == (tests if want == "all" else 0), out, 0.0)
    return out * scale**n


def dsft_matrix(model: int, direction: str, n: int) -> np.ndarray:
    """Dense 2**n x 2**n transform matrix from the closed-form entries.

    For forward matrices rows are frequencies B and columns are sets A; for
    inverses the roles swap.  Guarded to n <= 12; this is an oracle for
    testing, not a compute path.
    """
    _row(model, direction)  # refuses a bad model or direction before n
    if n > MATRIX_MAX_N:
        raise ValueError(f"dense transform matrices are limited to n <= {MATRIX_MAX_N}")
    masks = np.arange(1 << n, dtype=np.int64)
    return _closed_entries(model, direction, masks[:, None], masks[None, :], n)


def fourier_basis_vector(model: int, ground: GroundSet, B: int) -> SetFunction:
    """The B-th Fourier basis vector: column B of the inverse transform,
    evaluated entrywise without materializing the matrix."""
    check_model(model)
    B = ground.check_mask(B)
    masks = ground.masks()
    values = _closed_entries(model, INVERSE, masks, B, ground.n)
    return SetFunction.wrap(ground, np.ascontiguousarray(values, dtype=np.float64))
