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
(Yates; Bjoerklund et al., "Fourier meets Moebius").  The low stages run
block by block in L2, the high ones stream (the FFHT layout of Andoni et
al.).  Neither changes an output bit: each output is the same sum, formed in
the same order up to swapping the operands of an addition.

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
no zero entry and no condition.  `dsft_matrix` materializes these entries and
`fourier_basis_entry` evaluates single entries lazily in O(1) popcount work.
The elementary shifts of `filters.shift` are derived from the same kernels.
"""

from __future__ import annotations

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


# Stage ops on the halves (u, w) of one butterfly stage; `tmp` is a flat
# scratch buffer at least as large as u, used by model 5 only.
def _sum_up(u, w, tmp):
    np.add(u, w, out=u)  # superset sum: (u, w) -> (u+w, w)


def _diff_down(u, w, tmp):
    np.subtract(w, u, out=w)  # subset difference: (u, w) -> (u, w-u)


# The float64 sign bit: XOR with it negates exactly, as np.negative does.
_SIGN_BIT = np.int64(-(1 << 63))


def _model2(u, w, tmp):
    np.add(u, w, out=u)  # [[1,1],[0,-1]]: (u, w) -> (u+w, -w)
    # np.negative in place on a 1-d view with a stride of 8 elements writes
    # the wrong elements in numpy 2.4; the integer XOR has no such loop.
    bits = w.view(np.int64)
    np.bitwise_xor(bits, _SIGN_BIT, out=bits)


def _model3(u, w, tmp):
    np.subtract(u, w, out=w)  # [[1,0],[1,-1]]: (u, w) -> (u, u-w)


def _wht(u, w, tmp):
    t = tmp[: u.size].reshape(u.shape)  # [[1,1],[1,-1]]: (u, w) -> (u+w, u-w)
    np.subtract(u, w, out=t)
    np.add(u, w, out=u)
    np.copyto(w, t)


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


# Stages i < _BLOCK_BITS pair rows inside aligned blocks of 2**_BLOCK_BITS
# rows (256 KiB of float64 for 1-d input), which stay in L2 while all of
# those stages run.
_BLOCK_BITS = 15


def _stage(x: np.ndarray, i: int, op, tmp) -> None:
    """Stage i (0-based) of the butterfly on x: pairs rows differing in bit i.

    The halves have shape (pairs, 2**i).  On 1-d input, stages 1 and 2 run
    the op once per column of the halves instead: a strided 1-d view whose
    inner loop is long, not 2 or 4 elements.
    """
    v = x.reshape((-1, 2, 1 << i) + x.shape[1:])
    u, w = v[:, 0], v[:, 1]
    if x.ndim == 1 and i in (1, 2):
        for uj, wj in zip(u.T, w.T):
            op(uj, wj, tmp)
    else:
        op(u, w, tmp)


def dsft_inplace(values: np.ndarray, model: int, direction: str = FORWARD) -> int:
    """Fast transform of `values` in place; returns the add/sub count.

    `values` is a float64 array of length 2**n indexed by subset mask; a 2-d
    array of shape (2**n, m) transforms m signals at once (columns).

    Each (model, direction) is one row of `_TABLE`: an optional complement
    reversal J (`values[::-1]` along axis 0) followed by n stages of one
    stage op, stage i pairing rows that differ in bit i.  Kronecker factors
    on different bits commute, so the n-fold power of `op . J` is the n-fold
    power of `op` after the n-fold power of J, a full reversal.  This is the
    zeta/Moebius factorisation of Yates (1937) and of Bjoerklund, Husfeldt,
    Kaski & Koivisto, "Fourier meets Moebius" (STOC 2007):

        model 1 forward = model 4 inverse: reverse, then u += w per stage
        model 1 inverse = model 4 forward: reverse, then w -= u per stage
        model 2: u += w, then w = -w by flipping its sign bit
        model 3: w = u - w
        model 5: (u, w) -> (u+w, u-w), through a half-size temp

    Model 2 also factors as [[1,1],[0,-1]] = [[1,-1],[0,1]].diag(1,-1): one
    parity-sign pass, then u -= w per stage, with no negations.  That path
    is not taken because it changes bits: a sum that cancels exactly is
    +0.0 whatever sign it carries, so some zeros come out with the other
    sign (for [0, 0, 1, -1], entry 2 is -0.0 here and +0.0 there).

    Schedule (the cache blocking of FFHT, Andoni et al., NeurIPS 2015): the
    stages i < _BLOCK_BITS only pair rows inside aligned blocks of
    2**_BLOCK_BITS rows, so they all run on one block before moving to the
    next, while the block is in L2.  The reversal is folded into that pass:
    block k is swapped with block nb-1-k, both reversed, through a
    block-sized buffer.  The stages i >= _BLOCK_BITS then stream over the
    whole array.  2-d input is blocked along axis 0.  Scratch memory is one
    block for models 1 and 4 and a half-size temp for model 5.

    The bits do not depend on the schedule or on batching: every output is
    the same tree of additions as the per-stage 2x2 butterfly in ascending
    stage order.  Reordering independent butterflies changes no operand, and
    reversing first only relabels which slot holds a value, turning u + w
    into w + u, which IEEE addition makes exact.
    """
    check_model(model)
    check_direction(direction)
    if values.dtype != np.float64:
        raise ValueError("in-place transform requires a float64 array")
    n = _infer_n(values.shape[0])
    if n == 0:
        return 0
    kern, reverse, op = _TABLE[(model, direction)]
    *_, scale = _closed_form(model, direction)
    batch = values.shape[1:]
    low = min(n, _BLOCK_BITS)
    nb = 1 << (n - low)
    blocks = values.reshape((nb, 1 << low) + batch)
    tmp = np.empty(values.size // 2) if op is _wht else None
    scratch = np.empty_like(blocks[0]) if reverse else None
    for k in range(max(nb // 2, 1)):
        head, tail = blocks[k], blocks[nb - 1 - k]
        if reverse:
            np.copyto(scratch, head)
            if nb > 1:
                np.copyto(head, tail[::-1])
            np.copyto(tail, scratch[::-1])
        for block in (head, tail) if nb > 1 else (head,):
            for i in range(low):
                _stage(block, i, op, tmp)
    for i in range(low, n):
        _stage(values, i, op, tmp)

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
    check_model(model)
    check_direction(direction)
    if n > MATRIX_MAX_N:
        raise ValueError(f"dense transform matrices are limited to n <= {MATRIX_MAX_N}")
    masks = np.arange(1 << n, dtype=np.int64)
    return _closed_entries(model, direction, masks[:, None], masks[None, :], n)


def fourier_basis_entry(model: int, ground: GroundSet, B: int, A: int) -> float:
    """Entry A of the model's B-th Fourier basis vector, in O(1)."""
    check_model(model)
    B = ground.check_mask(B)
    A = ground.check_mask(A)
    return float(_closed_entries(model, INVERSE, A, B, ground.n))


def fourier_basis_vector(model: int, ground: GroundSet, B: int) -> SetFunction:
    """The B-th Fourier basis vector: column B of the inverse transform,
    evaluated entrywise without materializing the matrix."""
    check_model(model)
    B = ground.check_mask(B)
    masks = ground.masks()
    values = _closed_entries(model, INVERSE, masks, B, ground.n)
    return SetFunction.wrap(ground, np.ascontiguousarray(values, dtype=np.float64))
