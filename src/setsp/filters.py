"""Shift operators, powerset convolutions, and filtering.

Each model has n elementary shifts, one per ground-set element; shifting by a
set X composes the elementary shifts of its elements (order does not matter,
the shifts commute).  A filter is a sparse linear combination of X-fold
shifts, and convolution applies it:

    convolve(model, h, s)[A] = sum_X h_X * (X-fold shift of s)[A]

Convolution can run directly (per tap) or through the spectral path
(transform, multiply by the frequency response, inverse transform); both give
the same result.  The frequency response of models 1-4 is computed with the
model-1 transform, model 5 uses the WHT.

On the direct path, models 3-5 are index remaps: (h * s)[A] is the sum of
h_Q * s at A \\ Q, A u Q or A xor Q over the taps Q.  The output is filled one
aligned block of 2**min(n, transforms._BLOCK_BITS) elements at a time, the
transforms' block, which stays in L2 with the one scratch block that every
tap's products go through instead of a full-size temporary.  Each output
still starts at +0.0 and adds weight * value once per tap, in the order of
the taps' arrays (the order they were given in), so its bits are those of
one full-array pass per tap, whatever the block size.  That order fixes
them: floating-point addition is not associative, so other tap orders can
round differently.  A tap of weight +-1.0 adds or subtracts with no product,
and one on bit 0 or 1 runs on transposed views (see `_convolve_direct`).
Models 1 and 2 keep one composed shift per tap, because their X-fold shift
is not a remap: each output sums 2**|X| values of s.

The elementary shift needs no table of its own.  The transform diagonalizes
it, with the frequency response r of the one-element delta on the diagonal,
so on the pair (value without x_i, value with x_i) it acts as the 2x2 kernel
K_inv . diag(r) . K_fwd of `transforms.kernel`: r = (1, 0) for models 1-4,
(1, -1) for model 5.  The products are exact and every entry is 0 or 1, so
each output half is u + w, u, w or 0: `shift` copies and adds, and never
multiplies (0 * inf would give nan where a copy gives 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MODELS,
    GroundSet,
    SetFunction,
    SparseSetFunction,
    _scatter,
    check_model,
    require_same_ground,
)
from . import transforms
from .transforms import FORWARD, INVERSE, dsft_inplace, kernel


def _response_model(model: int) -> int:
    """The transform that gives the model's frequency responses."""
    return 5 if model == 5 else 1


# model -> the elementary shift's 2x2 kernel as rows of 0/1 flags; row 0
# gives the output without x_i, row 1 the one with it, from (u, w).
_SHIFTS = {
    model: (kernel(model, INVERSE) @ np.diag(kernel(_response_model(model))[:, 1])
            @ kernel(model)).astype(bool).tolist()
    for model in MODELS
}


@dataclass(frozen=True)
class Filter:
    """Sparse filter taps h_X indexed by subset mask X; `SparseSetFunction`
    refuses a tap that is not finite.  Dense taps, a `SetFunction`, keep
    their nonzero entries (`to_sparse`), so a +-0.0 tap is dropped."""

    ground: GroundSet
    taps: SparseSetFunction

    def __post_init__(self):
        if isinstance(self.taps, SetFunction):
            object.__setattr__(self, "taps", self.taps.to_sparse())
        require_same_ground(self, self.taps)

    @classmethod
    def from_taps(cls, ground: GroundSet, taps: dict[int, float]) -> "Filter":
        return cls(ground, SparseSetFunction(ground, list(taps), list(taps.values())))

    @classmethod
    def moving_average(cls, ground: GroundSet) -> "Filter":
        """h = () + sum_i {x_i}, the low-pass example filter."""
        taps = {0: 1.0}
        for i in range(ground.n):
            taps[1 << i] = 1.0
        return cls.from_taps(ground, taps)

    def __len__(self) -> int:
        return len(self.taps)


def shift(model: int, i: int, s: SetFunction) -> SetFunction:
    """Elementary shift by x_i (1-based) of a dense set function."""
    check_model(model)
    i = s.ground.check_element(i)
    xs = s.values.reshape(-1, 2, 1 << (i - 1))
    out = np.empty_like(s.values)
    xo = out.reshape(xs.shape)
    u, w = xs[:, 0], xs[:, 1]
    for half, (take_u, take_w) in enumerate(_SHIFTS[model]):
        if take_u and take_w:
            np.add(u, w, out=xo[:, half])
        else:
            xo[:, half] = u if take_u else w if take_w else 0.0
    return SetFunction.wrap(s.ground, out)


def shift_by_set(model: int, X: int, s: SetFunction) -> SetFunction:
    """X-fold shift: elementary shifts composed over the elements of X."""
    check_model(model)
    X = s.ground.check_mask(X)
    out = s
    for i in range(s.ground.n):
        if X >> i & 1:
            out = shift(model, i + 1, out)
    return out


def frequency_response(model: int, h: Filter) -> np.ndarray:
    """Per-frequency filter multipliers, indexed by frequency mask B: the
    transform of the taps, model 1 for models 1-4, model 5 for the WHT."""
    check_model(model)
    arr = _scatter(h.ground, h.taps.masks, h.taps.values)
    dsft_inplace(arr, _response_model(model), FORWARD)
    return arr


def convolve(model: int, h: Filter, s: SetFunction, path: str = "auto") -> SetFunction:
    """Convolve a filter with a set function.

    `path` is "auto", "direct", or "spectral".  Auto picks direct when the
    filter has at most n taps, except for model 2 whose direct form is the
    most expensive of the five and defaults to the spectral route.
    """
    check_model(model)
    require_same_ground(h, s)
    if path == "auto":
        path = "direct" if model != 2 and len(h) <= s.ground.n else "spectral"
    if path == "direct":
        return _convolve_direct(model, h, s)
    if path == "spectral":
        return _convolve_spectral(model, h, s)
    raise ValueError(f"path must be auto, direct, or spectral, got {path!r}")


def _convolve_direct(model: int, h: Filter, s: SetFunction) -> SetFunction:
    """Sum the taps' X-fold shifts, each output from +0.0 in tap order.

    Block schedule for models 3-5: the n index bits split into L =
    min(n, _BLOCK_BITS) low bits and n - L high ones, so mask A is a
    position in block k = A >> L, and tap Q splits into Qhi = Q >> L and the
    low bits.  Output block k reads only source block k & ~Qhi (model 3),
    k | Qhi (model 4) or k ^ Qhi (model 5), at the positions the low bits of
    Q remap: a strided view of that block's L-axis cube, one per tap, built
    once.  Per output block, each tap writes weight * view into one scratch
    block and adds that to the output block, all in L2.  This moves where a
    product is held, never an operand, so every output adds the same values
    in the same order as one full-array pass per tap would.  A tap of weight
    +-1.0 adds or subtracts the view itself: 1.0 * v is v, and x - v is
    x + (-v).  The view of a tap on bit 0 or 1 leaves contiguous runs of 1
    or 2 elements, so its ufuncs run on block and view transposed, the cube
    axes above that bit innermost, in order 'C': a few strided loops over
    2**(L-2) or more elements per block.

    Models 1 and 2 sum 2**|Q| values per X-fold shift, so they add one
    composed `shift_by_set` per tap.
    """
    out = np.zeros_like(s.values)
    taps = zip(h.taps.masks.tolist(), h.taps.values.tolist())
    if model in (1, 2):
        for Q, weight in taps:
            out += weight * shift_by_set(model, Q, s).values
        return SetFunction.wrap(s.ground, out)
    low = min(s.ground.n, transforms._BLOCK_BITS)
    cube = (2,) * low
    src = s.values.reshape(-1, *cube)
    dst = out.reshape(src.shape)
    # on the cube axes of Q's low bits (the first axis is the block's highest
    # bit) read index 0 (broadcast), index 1 (broadcast) or the reversed axis
    on_q = {3: slice(0, 1), 4: slice(1, 2), 5: slice(None, None, -1)}[model]
    remap = {3: lambda k, q: k & ~q, 4: lambda k, q: k | q, 5: lambda k, q: k ^ q}[model]
    terms = []
    for Q, weight in taps:
        view = tuple(on_q if Q >> i & 1 else slice(None) for i in reversed(range(low)))
        source, target, order = src[(slice(None),) + view], dst, "K"
        i = (Q & -Q).bit_length() - 1  # Q's lowest bit
        if 0 <= i < min(2, low):  # iterate with the cube axes above bit i innermost
            axes = (0, *range(low - i, low + 1), *range(1, low - i))
            source, target, order = source.transpose(axes), dst.transpose(axes), "C"
        terms.append((Q >> low, source, target, weight, order))
    scratch = np.empty(cube)
    for k in range(dst.shape[0]):
        for q_high, source, target, weight, order in terms:
            acc, term = target[k, ...], source[remap(k, q_high)]
            if weight in (1.0, -1.0):
                (np.add if weight > 0 else np.subtract)(acc, term, out=acc, order=order)
            else:
                np.multiply(term, weight, out=scratch, order=order)
                np.add(acc, scratch, out=acc, order=order)
    return SetFunction.wrap(s.ground, out)


def _convolve_spectral(model: int, h: Filter, s: SetFunction) -> SetFunction:
    arr = np.array(s.values)
    dsft_inplace(arr, model, FORWARD)
    arr *= frequency_response(model, h)
    dsft_inplace(arr, model, INVERSE)
    return SetFunction.wrap(s.ground, arr)
