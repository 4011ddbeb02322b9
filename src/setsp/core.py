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
from functools import cached_property

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


def check_count(value, name: str, low: int = 0, high: float = math.inf) -> int:
    """`value` as an int in [low, high].  A bool, a value that is not an
    integer (1.5, 2.0, "2") or one out of range raises ValueError naming the
    parameter `name`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def check_model(model: int) -> int:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


@dataclass(frozen=True)
class GroundSet:
    """The ground set {x_1, ..., x_n} of an index domain of size 2**n."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_count(self.n, "ground set size n", 0, MAX_N))

    @property
    def size(self) -> int:
        """Number of subsets, 2**n."""
        return 1 << self.n

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> int:
        return int(self.check_masks(mask))

    def check_masks(self, masks, what: str = "mask") -> np.ndarray:
        """`masks`, of any shape, as an int64 array; an int64 array is returned
        without a copy.  An array of bool, complex, str or bytes raises
        ValueError naming its dtype; the first entry that is not an integer
        in [0, 2**n) raises ValueError naming it and its position in the
        flattened array."""
        given = np.asarray(masks)
        if given.dtype.kind in "bcSU":
            raise ValueError(f"{what} must be an integer, got dtype {given.dtype}")
        bad = (given < 0) | (given >= self.size)
        if given.dtype.kind == "f":
            bad |= np.trunc(given) != given  # nan; +-inf are out of range
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            value = given.flat[at]
            if given.dtype.kind == "f" and not float(value).is_integer():
                raise ValueError(f"non-integer {what} {value} at position {at}")
            raise ValueError(f"{what} {value} out of range for n={self.n} at position {at}")
        return given.astype(np.int64, copy=False)

    def check_element(self, i: int) -> int:
        """Validate a 1-based element index x_i."""
        return check_count(i, "element index", 1, self.n)

    def masks(self) -> np.ndarray:
        """All subset masks 0..2**n-1 in lexicographic (= integer) order."""
        if self.n > DENSE_MAX_N:
            raise ValueError(f"cannot enumerate 2**{self.n} masks densely")
        return np.arange(self.size, dtype=np.int64)

    def elements(self, mask: int) -> tuple[int, ...]:
        """1-based indices of the elements of the subset `mask`."""
        mask = self.check_mask(mask)
        return tuple(i + 1 for i in range(self.n) if mask >> i & 1)

    def label(self, mask: int) -> str:
        """Human-readable subset label such as '{x1,x3}'."""
        return "{" + ",".join(f"x{i}" for i in self.elements(mask)) + "}"


def require_same_ground(a, b) -> GroundSet:
    if a.ground != b.ground:
        raise ValueError(f"mismatched ground sets: n={a.ground.n} vs n={b.ground.n}")
    return a.ground


def _check_finite(values: np.ndarray, masks) -> None:
    """Refuse the first value that is not finite, naming its mask."""
    bad = ~np.isfinite(values)
    if bad.any():
        at = np.flatnonzero(bad)[0]
        raise ValueError(f"value {values[at]} at mask {masks[at]} is not finite")


def _built(cls, **fields):
    """A frozen `cls` holding `fields` as given, without `__post_init__`: for
    arrays the library computed or has already checked."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _frozen_array(values, length: int, *, check: bool) -> np.ndarray:
    """`values` as a read-only float64 vector of `length`: with `check` a
    checked copy (`_check_finite`), and without it the array as it is."""
    arr = np.array(values, dtype=np.float64, copy=check or None)
    if arr.shape != (length,):
        raise ValueError(f"expected {length} values in a 1-d array, got shape {arr.shape}")
    if check:
        _check_finite(arr, range(length))
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
            self, "values", _frozen_array(self.values, self.ground.size, check=True)
        )

    @classmethod
    def wrap(cls, ground: GroundSet, values: np.ndarray) -> "SetFunction":
        """Take ownership of `values`, an array the library computed, without
        a copy or a pass over it: unlike the constructor, it does not refuse
        non-finite values.  The caller must not mutate the array afterwards."""
        return _built(cls, ground=ground, values=_frozen_array(values, ground.size, check=False))

    def __call__(self, mask: int) -> float:
        return float(self.values[self.ground.check_mask(mask)])

    def to_sparse(self) -> "SparseSetFunction":
        nz = np.flatnonzero(self.values)
        return SparseSetFunction(self.ground, nz, self.values[nz])


def _support_order(freqs: np.ndarray) -> np.ndarray:
    """The permutation that sorts masks by (cardinality, mask) ascending."""
    return np.lexsort((freqs, popcount(freqs)))


def _taken(order, masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of aligned `masks` and `values`, taken in `order`."""
    masks, values = masks[order], values[order]
    masks.setflags(write=False)
    values.setflags(write=False)
    return masks, values


def _checked_pairs(ground: GroundSet, masks, values, *, sort: bool, what: str = "mask"):
    """Read-only int64 `masks` and float64 `values`, copied and checked once:
    both 1-d and of one length, every mask an integer in [0, 2**n)
    (`GroundSet.check_masks`), no mask repeated and every value finite.  The
    first fault raises ValueError naming it.  With `sort` both come in the
    masks' (cardinality, mask) order, where a repeated mask is two equal
    neighbours; without it they stay in the order given."""
    masks, values = np.asarray(masks), np.array(values, dtype=np.float64)
    if masks.ndim != 1 or values.ndim != 1:
        raise ValueError(f"masks and values must be 1-d, got shapes "
                         f"{masks.shape} and {values.shape}")
    if masks.size != values.size:
        raise ValueError(f"got {masks.size} masks and {values.size} values")
    masks = np.array(ground.check_masks(masks, what))
    if sort:
        order = _support_order(masks)
        masks, values = masks[order], values[order]
    ordered = masks if sort else np.sort(masks)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate {what} {repeated[0]}")
    _check_finite(values, masks)
    masks.setflags(write=False)
    values.setflags(write=False)
    return masks, values


@dataclass(frozen=True, eq=False)
class SparseSetFunction:
    """Sparse set function: aligned, read-only int64 `masks` and float64
    `values` in the order given; absent masks read as zero.

    The arrays are copied and checked once, here, by `_checked_pairs`: its
    first fault raises ValueError naming it.
    """

    ground: GroundSet
    masks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        masks, values = _checked_pairs(self.ground, self.masks, self.values, sort=False)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "values", values)

    def __call__(self, mask: int) -> float:
        at = np.flatnonzero(self.masks == self.ground.check_mask(mask))
        return float(self.values[at[0]]) if at.size else 0.0

    def __len__(self) -> int:
        return self.masks.size

    def to_dense(self) -> SetFunction:
        values = np.zeros(self.ground.size)
        values[self.masks] = self.values
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
            self, "coeffs", _frozen_array(self.coeffs, self.ground.size, check=True)
        )

    @classmethod
    def wrap(cls, ground: GroundSet, model: int, coeffs: np.ndarray) -> "Spectrum":
        """Take ownership of `coeffs` as `SetFunction.wrap` takes its values:
        no copy, no pass over them, no check that they are finite."""
        return _built(cls, ground=ground, model=check_model(model),
                      coeffs=_frozen_array(coeffs, ground.size, check=False))

    def __call__(self, mask: int) -> float:
        return float(self.coeffs[self.ground.check_mask(mask)])


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
        freqs, _ = _checked_pairs(self.ground, given, np.zeros(given.size), sort=True,
                                  what="support mask")
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True, eq=False)
class SparseSpectrum:
    """Fourier coefficients of one of the five models at distinct
    frequencies; absent frequencies read as zero.

    `freqs` and `coeffs` are aligned (frequency, coefficient) pairs in any
    order.  They are checked once, as a `SparseSetFunction`'s masks and
    values are, and held as read-only copies in support order: by
    (cardinality, mask), each coefficient with its frequency.
    """

    ground: GroundSet
    model: int
    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        check_model(self.model)
        freqs, coeffs = _checked_pairs(self.ground, self.freqs, self.coeffs, sort=True)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def support(self) -> SparseSupport:
        """`freqs` as a SparseSupport, without a second check or sort."""
        return _built(SparseSupport, ground=self.ground, freqs=self.freqs)


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
    m = check_count(m, "order m", 0, ground.n)
    count = sum(math.comb(ground.n, bits) for bits in range(m + 1))
    return np.fromiter(itertools.islice(masks_by_cardinality(ground), count), np.int64, count)
