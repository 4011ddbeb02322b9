"""Ground sets, subset bit masks, and set-function containers.

A subset A of the ground set {x_1, ..., x_n} is encoded as an integer mask
with bit (i-1) set iff x_i is in A.  With this encoding the unsigned integer
order of masks coincides with the lexicographic subset order used throughout
the library: for n=3 the masks 0..7 enumerate
{}, {x1}, {x2}, {x1,x2}, {x3}, {x1,x3}, {x2,x3}, {x1,x2,x3}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Dense containers hold 2**n float64 values; 8 GiB at n=30 is the hard cap.
DENSE_MAX_N = 30
# Sparse containers only need masks to fit comfortably in int64.
MAX_N = 62

MODELS = (1, 2, 3, 4, 5)


def popcount(masks):
    """Number of set bits; works on a plain int or elementwise on arrays."""
    if isinstance(masks, (int, np.integer)):
        return int(masks).bit_count()
    arr = np.asarray(masks)
    return np.bitwise_count(arr.astype(np.uint64)).astype(np.int64)


def is_subset(a, b):
    """True iff A is a subset of B (elementwise for arrays)."""
    return (a & ~b) == 0


def check_model(model: int) -> int:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


@dataclass(frozen=True)
class GroundSet:
    """The ground set {x_1, ..., x_n} of an index domain of size 2**n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise TypeError(f"ground set size must be an integer, got {self.n!r}")
        if not 0 <= self.n <= MAX_N:
            raise ValueError(f"ground set size must be in [0, {MAX_N}], got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def size(self) -> int:
        """Number of subsets, 2**n."""
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> int:
        mask = int(mask)
        if not 0 <= mask < self.size:
            raise ValueError(f"mask {mask} out of range for n={self.n}")
        return mask

    def check_element(self, i: int) -> int:
        """Validate a 1-based element index x_i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"element index {i} out of range 1..{self.n}")
        return int(i)

    def complement(self, mask: int) -> int:
        return self.full_mask & ~self.check_mask(mask)

    def masks(self) -> np.ndarray:
        """All subset masks 0..2**n-1 in lexicographic (= integer) order."""
        if self.n > DENSE_MAX_N:
            raise ValueError(f"cannot enumerate 2**{self.n} masks densely")
        return np.arange(self.size, dtype=np.int64)

    def elements(self, mask: int) -> tuple[int, ...]:
        """1-based indices of the elements of the subset `mask`."""
        mask = self.check_mask(mask)
        return tuple(i + 1 for i in range(self.n) if mask >> i & 1)

    def mask_of(self, elements) -> int:
        """Mask of the subset containing the given 1-based element indices."""
        mask = 0
        for i in elements:
            mask |= 1 << (self.check_element(i) - 1)
        return mask

    def label(self, mask: int) -> str:
        """Human-readable subset label such as '{x1,x3}'."""
        return "{" + ",".join(f"x{i}" for i in self.elements(mask)) + "}"


def require_same_ground(a, b) -> GroundSet:
    if a.ground != b.ground:
        raise ValueError(f"mismatched ground sets: n={a.ground.n} vs n={b.ground.n}")
    return a.ground


def _frozen_array(values, length: int | None = None, *, copy: bool) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=copy or None)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d value vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected {length} values, got {arr.shape[0]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SetFunction:
    """Dense set function: one real value per subset, in mask order."""

    ground: GroundSet
    values: np.ndarray

    def __post_init__(self):
        if self.ground.n > DENSE_MAX_N:
            raise ValueError(f"dense set functions require n <= {DENSE_MAX_N}")
        object.__setattr__(
            self, "values", _frozen_array(self.values, self.ground.size, copy=True)
        )

    @classmethod
    def wrap(cls, ground: GroundSet, values: np.ndarray) -> "SetFunction":
        """Take ownership of `values` without copying; the caller must not
        mutate the array afterwards."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ground", ground)
        object.__setattr__(
            obj, "values", _frozen_array(values, ground.size, copy=False)
        )
        return obj

    def __call__(self, mask: int) -> float:
        return float(self.values[self.ground.check_mask(mask)])

    def to_sparse(self) -> "SparseSetFunction":
        nz = np.nonzero(self.values)[0]
        return SparseSetFunction(self.ground, {int(m): float(self.values[m]) for m in nz})


@dataclass(frozen=True)
class SparseSetFunction:
    """Sparse set function: mask -> value map, absent masks read as zero."""

    ground: GroundSet
    entries: dict[int, float]

    def __post_init__(self):
        size = 1 << self.ground.n
        clean: dict[int, float] = {}
        for mask, value in self.entries.items():
            mask = int(mask)
            if not 0 <= mask < size:
                raise ValueError(f"mask {mask} out of range for n={self.ground.n}")
            if mask in clean:
                raise ValueError(f"duplicate mask {mask}")
            clean[mask] = float(value)
        object.__setattr__(self, "entries", clean)

    def __call__(self, mask: int) -> float:
        return self.entries.get(self.ground.check_mask(mask), 0.0)

    def __len__(self) -> int:
        return len(self.entries)

    def support(self) -> np.ndarray:
        """Masks with stored values, ascending."""
        return np.array(sorted(self.entries), dtype=np.int64)

    def to_dense(self) -> SetFunction:
        values = np.zeros(self.ground.size)
        for mask, value in self.entries.items():
            values[mask] = value
        return SetFunction.wrap(self.ground, values)


@dataclass(frozen=True)
class Spectrum:
    """Dense Fourier coefficients of one of the five models, in mask order."""

    ground: GroundSet
    model: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_model(self.model)
        if self.ground.n > DENSE_MAX_N:
            raise ValueError(f"dense spectra require n <= {DENSE_MAX_N}")
        object.__setattr__(
            self, "coeffs", _frozen_array(self.coeffs, self.ground.size, copy=True)
        )

    @classmethod
    def wrap(cls, ground: GroundSet, model: int, coeffs: np.ndarray) -> "Spectrum":
        """Take ownership of `coeffs` without copying."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ground", ground)
        object.__setattr__(obj, "model", check_model(model))
        object.__setattr__(obj, "coeffs", _frozen_array(coeffs, ground.size, copy=False))
        return obj

    def __call__(self, mask: int) -> float:
        return float(self.coeffs[self.ground.check_mask(mask)])


def _support_order(freqs: np.ndarray) -> np.ndarray:
    """The permutation that sorts masks by (cardinality, mask) ascending."""
    return np.lexsort((freqs, popcount(freqs)))


def _first_bad(what: str, values: np.ndarray, bad: np.ndarray) -> None:
    if bad.any():
        raise ValueError(f"{what} {values[bad][0]} at position {np.flatnonzero(bad)[0]}")


@dataclass(frozen=True)
class SparseSupport:
    """Distinct frequency masks sorted by (cardinality, mask) ascending.

    Sums over a sparse spectrum run in this order, so each of them has one
    set of bits however the support was given.  The order also makes
    T_ij = [B_j subseteq B_i] lower triangular with a unit diagonal, which
    `sampling.reconstruct` relies on.
    """

    ground: GroundSet
    freqs: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.freqs)
        if given.ndim != 1:
            raise ValueError("support must be a 1-d mask array")
        if given.dtype.kind == "f":
            bad = ~np.isfinite(given) | (np.trunc(given) != given)
            _first_bad("non-integer support mask", given, bad)
        freqs = given.astype(np.int64)
        if freqs.size and (freqs.min() < 0 or freqs.max() >= self.ground.size):
            raise ValueError(f"support masks out of range for n={self.ground.n}")
        if np.unique(freqs).size != freqs.size:
            raise ValueError("duplicate support entries")
        freqs = freqs[_support_order(freqs)]
        freqs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True)
class SparseSpectrum:
    """Finite Fourier coefficients of one of the five models on a sparse
    support, aligned with `support.freqs`; absent frequencies read as zero."""

    support: SparseSupport
    model: int
    coeffs: np.ndarray

    def __post_init__(self):
        check_model(self.model)
        coeffs = _frozen_array(self.coeffs, len(self.support), copy=True)
        _first_bad("non-finite coefficient", coeffs, ~np.isfinite(coeffs))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def ground(self) -> GroundSet:
        return self.support.ground


def masks_by_cardinality(ground: GroundSet):
    """Every mask, lazily, in (cardinality, mask) ascending order.

    Within a cardinality, Gosper's hack steps to the next larger mask with as
    many bits, so the cost is the number of masks taken, for any n.
    """
    for bits in range(ground.n + 1):
        mask = (1 << bits) - 1
        while mask <= ground.full_mask:
            yield mask
            if mask == 0:
                break
            low = mask & -mask
            high = mask + low
            mask = high | (((mask ^ high) >> 2) // low)


def subsets_of_cardinality_at_most(ground: GroundSet, m: int) -> np.ndarray:
    """All masks B with |B| <= m, ordered by (cardinality, mask) ascending.

    The cost is the output size even when 2**n is far too large to scan
    (e.g. n=46, m=2 yields 1082 masks).
    """
    if not 0 <= m <= ground.n:
        raise ValueError(f"order m={m} out of range 0..{ground.n}")
    count = sum(math.comb(ground.n, bits) for bits in range(m + 1))
    return np.fromiter(itertools.islice(masks_by_cardinality(ground), count), np.int64, count)
