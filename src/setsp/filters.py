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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    check_model,
    require_same_ground,
)
from . import transforms
from .transforms import FORWARD, INVERSE, dsft_inplace

# 2x2 kernels of the elementary shift matrices phi(x_i), acting on the pair
# (value without x_i, value with x_i).
SHIFT_KERNELS = {
    1: np.array([[0.0, 0.0], [1.0, 1.0]]),
    2: np.array([[1.0, 1.0], [0.0, 0.0]]),
    3: np.array([[1.0, 0.0], [1.0, 0.0]]),
    4: np.array([[0.0, 1.0], [0.0, 1.0]]),
    5: np.array([[0.0, 1.0], [1.0, 0.0]]),
}

FILTER_MATRIX_MAX_N = 10


@dataclass(frozen=True)
class Filter:
    """Sparse filter taps h_X indexed by subset mask X."""

    ground: GroundSet
    taps: SparseSetFunction

    def __post_init__(self):
        if self.taps.ground != self.ground:
            raise ValueError("filter taps must live on the filter's ground set")

    @classmethod
    def from_taps(cls, ground: GroundSet, taps: dict[int, float]) -> "Filter":
        return cls(ground, SparseSetFunction(ground, taps))

    @classmethod
    def identity(cls, ground: GroundSet) -> "Filter":
        """The single tap h_() = 1; identity for every model."""
        return cls.from_taps(ground, {0: 1.0})

    @classmethod
    def delta(cls, ground: GroundSet, mask: int, value: float = 1.0) -> "Filter":
        return cls.from_taps(ground, {ground.check_mask(mask): value})

    @classmethod
    def moving_average(cls, ground: GroundSet) -> "Filter":
        """h = () + sum_i {x_i}, the low-pass example filter."""
        taps = {0: 1.0}
        for i in range(ground.n):
            taps[1 << i] = 1.0
        return cls.from_taps(ground, taps)

    def __len__(self) -> int:
        return len(self.taps)


@dataclass(frozen=True)
class FrequencyResponse:
    """Per-frequency filter multipliers, indexed by frequency mask B."""

    ground: GroundSet
    model: int
    values: np.ndarray

    def __post_init__(self):
        check_model(self.model)


def shift(model: int, i: int, s: SetFunction) -> SetFunction:
    """Elementary shift by x_i (1-based) of a dense set function."""
    check_model(model)
    i = s.ground.check_element(i)
    v = s.values
    out = np.empty_like(v)
    step = 1 << (i - 1)
    xs = v.reshape(-1, 2, step)
    xo = out.reshape(-1, 2, step)
    u = xs[:, 0]
    w = xs[:, 1]
    if model == 1:
        xo[:, 0] = 0.0
        np.add(u, w, out=xo[:, 1])
    elif model == 2:
        np.add(u, w, out=xo[:, 0])
        xo[:, 1] = 0.0
    elif model == 3:
        xo[:, 0] = u
        xo[:, 1] = u
    elif model == 4:
        xo[:, 0] = w
        xo[:, 1] = w
    else:
        xo[:, 0] = w
        xo[:, 1] = u
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


def shift_matrix(model: int, i: int, n: int) -> np.ndarray:
    """Dense matrix of the elementary shift by x_i: I (x) kernel (x) I."""
    check_model(model)
    if n > transforms.MATRIX_MAX_N:
        raise ValueError(f"dense shift matrices are limited to n <= {transforms.MATRIX_MAX_N}")
    if not 1 <= i <= n:
        raise ValueError(f"element index {i} out of range 1..{n}")
    k = SHIFT_KERNELS[model]
    return np.kron(np.eye(1 << (n - i)), np.kron(k, np.eye(1 << (i - 1))))


def frequency_response(model: int, h: Filter) -> FrequencyResponse:
    """Transform of the taps: model 1 for models 1-4, model 5 for the WHT."""
    check_model(model)
    arr = np.array(h.taps.to_dense().values)
    dsft_inplace(arr, 1 if model != 5 else 5, FORWARD)
    return FrequencyResponse(h.ground, model, arr)


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
    out = np.zeros_like(s.values)
    if model in (3, 4, 5):
        # s_{A\Q}, s_{A u Q}, s_{A delta Q} as strided views of the n-axis
        # cube, whose axis 0 is the highest bit: on Q's axes read index 0
        # (broadcast), index 1 (broadcast) or the reversed axis.
        n = s.ground.n
        cube = s.values.reshape((2,) * n)
        out_cube = out.reshape((2,) * n)
        on_q = {3: slice(0, 1), 4: slice(1, 2), 5: slice(None, None, -1)}[model]
        for Q, weight in h.taps.entries.items():
            view = tuple(on_q if Q >> i & 1 else slice(None) for i in reversed(range(n)))
            out_cube += weight * cube[view]
    else:
        for Q, weight in h.taps.entries.items():
            out += weight * shift_by_set(model, Q, s).values
    return SetFunction.wrap(s.ground, out)


def _convolve_spectral(model: int, h: Filter, s: SetFunction) -> SetFunction:
    fr = frequency_response(model, h)
    arr = np.array(s.values)
    dsft_inplace(arr, model, FORWARD)
    arr *= fr.values
    dsft_inplace(arr, model, INVERSE)
    return SetFunction.wrap(s.ground, arr)


def filter_matrix(model: int, h: Filter) -> np.ndarray:
    """Dense filter matrix sum_X h_X * prod_{y in X} phi(y); oracle only."""
    check_model(model)
    n = h.ground.n
    if n > FILTER_MATRIX_MAX_N:
        raise ValueError(f"dense filter matrices are limited to n <= {FILTER_MATRIX_MAX_N}")
    size = 1 << n
    out = np.zeros((size, size))
    for X, weight in h.taps.entries.items():
        term = np.eye(size)
        for i in range(n):
            if X >> i & 1:
                term = shift_matrix(model, i + 1, n) @ term
        out += weight * term
    return out
