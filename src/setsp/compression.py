"""Band-limited approximation of expensive set-function oracles.

The model-4 coefficient at frequency B needs only 2**|B| oracle queries:

    s4_B = sum over C subseteq B of (-1)**|C| * s_{(N\\B) u C}

For |B| <= 2 these are the three classic cases s_N, s_{N\\{x}} - s_N, and
s_{N\\{x,y}} - s_{N\\{x}} - s_{N\\{y}} + s_N.  `compress_band` evaluates all
frequencies up to a cardinality cutoff with a shared memo, so the distinct
oracle evaluations are exactly the sets N, N\\{x}, N\\{x,y}, ...

The WHT baseline estimates model-5 coefficients on the same frequency band by
least squares over randomly sampled signal values, and `estimate_relative_error`
Monte-Carlo-probes any approximation against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    check_model,
    popcount,
    subsets_of_cardinality_at_most,
)
from .transforms import INVERSE, _closed_entries

# Subset sampling uses numpy's seeded PCG64 generator; the identifier is
# recorded in CSV output for reproducibility.
RNG_ALGORITHM = "pcg64"


class SetFunctionOracle:
    """Query interface A -> s_A with an evaluation counter.

    The evaluator must be deterministic: repeated queries at the same mask
    return identical values.  The counter increments once per evaluation
    (len(masks) for batched queries).
    """

    def __init__(self, ground: GroundSet, fn: Callable[[int], float], batch_fn=None):
        self.ground = ground
        self._fn = fn
        self._batch_fn = batch_fn
        self.queries = 0

    def query(self, mask: int) -> float:
        self.ground.check_mask(mask)
        self.queries += 1
        return float(self._fn(int(mask)))

    def query_many(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        bad = (masks < 0) | (masks >= self.ground.size)
        if bad.any():
            raise ValueError(f"mask {masks[bad][0]} out of range for n={self.ground.n}")
        self.queries += masks.size
        if self._batch_fn is not None:
            return np.asarray(self._batch_fn(masks), dtype=np.float64)
        return np.array([float(self._fn(int(m))) for m in masks.ravel()]).reshape(
            masks.shape
        )

    @classmethod
    def from_setfunction(cls, s: SetFunction) -> "SetFunctionOracle":
        return cls(s.ground, lambda m: s.values[m], batch_fn=lambda ms: s.values[ms])

    @classmethod
    def from_sparse(cls, s: SparseSetFunction) -> "SetFunctionOracle":
        return cls(s.ground, lambda m: s.entries.get(m, 0.0))


@dataclass(frozen=True)
class BandlimitedApprox:
    """Spectral coefficients on an explicit frequency support."""

    ground: GroundSet
    model: int
    support: np.ndarray  # frequency masks, distinct
    coeffs: np.ndarray

    def __post_init__(self):
        check_model(self.model)
        support = np.asarray(self.support, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if support.ndim != 1 or support.shape != coeffs.shape:
            raise ValueError("support and coeffs must be aligned 1-d arrays")
        if np.unique(support).size != support.size:
            raise ValueError("support entries must be distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return int(self.support.size)


def _submasks(B: int):
    """All C subseteq B, empty set first, then descending submask order."""
    yield 0
    sub = B
    while sub:
        yield sub
        sub = (sub - 1) & B


def dsft4_coefficient_by_queries(
    oracle: SetFunctionOracle, B: int, memo: dict[int, float] | None = None
) -> float:
    """Model-4 coefficient at B from exactly 2**|B| oracle queries (fewer
    when a shared memo already holds some of them)."""
    B = oracle.ground.check_mask(B)
    base = oracle.ground.full_mask & ~B
    total = 0.0
    for C in _submasks(B):
        mask = base | C
        if memo is None:
            value = oracle.query(mask)
        else:
            value = memo.get(mask)
            if value is None:
                value = oracle.query(mask)
                memo[mask] = value
        total += -value if popcount(C) & 1 else value
    return total


def compress_band(oracle: SetFunctionOracle, m: int) -> BandlimitedApprox:
    """Model-4 band-limited approximation of order m.

    The support is every frequency B with |B| <= m in (cardinality, mask)
    order; coefficients come from `dsft4_coefficient_by_queries` with a memo
    shared across frequencies, so the oracle sees each of the distinct query
    sets N, N\\{x}, N\\{x,y}, ... exactly once.
    """
    support = subsets_of_cardinality_at_most(oracle.ground, m)
    memo: dict[int, float] = {}
    coeffs = np.array(
        [dsft4_coefficient_by_queries(oracle, int(B), memo) for B in support]
    )
    return BandlimitedApprox(oracle.ground, 4, support, coeffs)


def eval_bandlimited(approx: BandlimitedApprox, A: int) -> float:
    """sum of coeff_B * f^B_A over the support, with lazy basis entries."""
    A = approx.ground.check_mask(A)
    basis = _closed_entries(approx.model, INVERSE, A, approx.support, approx.ground.n)
    return float(basis @ approx.coeffs)


def eval_bandlimited_many(approx: BandlimitedApprox, masks) -> np.ndarray:
    """Vectorized `eval_bandlimited` over an array of subset masks."""
    masks = np.asarray(masks, dtype=np.int64)
    flat = masks.ravel()
    out = np.zeros(flat.shape[0])
    # loop over the (small) support, vectorize over the probes
    for B, c in zip(approx.support, approx.coeffs):
        out += c * _closed_entries(approx.model, INVERSE, flat, int(B), approx.ground.n)
    return out.reshape(masks.shape)


def wht_regression(samples, support, ground: GroundSet) -> BandlimitedApprox:
    """Model-5 coefficients on `support` by least squares on sampled values.

    `samples` is a sequence of (mask, value) pairs with distinct masks.  The
    design matrix holds the lazy WHT-inverse entries (1/2)**n * (-1)**|A & B|;
    rank-deficient systems get the minimum-norm solution.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("wht_regression requires at least one sample")
    sample_masks = np.array([m for m, _ in samples], dtype=np.int64)
    values = np.array([v for _, v in samples], dtype=np.float64)
    if np.unique(sample_masks).size != sample_masks.size:
        raise ValueError("sample masks must be distinct")
    support = np.asarray(support, dtype=np.int64)
    design = _closed_entries(
        5, INVERSE, sample_masks[:, None], support[None, :], ground.n
    )
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return BandlimitedApprox(ground, 5, support, coeffs)


def estimate_relative_error(
    oracle: SetFunctionOracle,
    evaluate,
    m_samples: int = 1_000_000,
    *,
    seed: int,
) -> float:
    """Monte-Carlo relative reconstruction error over random subset probes.

    Draws `m_samples` masks uniformly with replacement (seeded PCG64), and
    returns ||s_C - s'_C||_2 / ||s_C||_2.  `evaluate` is a BandlimitedApprox
    or any callable mapping a mask array to approximate values.  A nan or
    +-inf value on either side raises ValueError, naming the first probe
    that returned one.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    rng = np.random.default_rng(seed)
    size = 1 << oracle.ground.n
    probes = rng.integers(0, size, size=m_samples, dtype=np.uint64).astype(np.int64)
    truth = oracle.query_many(probes)
    _check_finite("oracle", probes, truth)
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ValueError("relative error undefined: all sampled oracle values are zero")
    if isinstance(evaluate, BandlimitedApprox):
        approx_values = eval_bandlimited_many(evaluate, probes)
    else:
        approx_values = np.asarray(evaluate(probes), dtype=np.float64)
    _check_finite("approximation", probes, approx_values)
    return float(np.linalg.norm(truth - approx_values) / denom)


def _check_finite(source: str, probes: np.ndarray, values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{source} returned non-finite value {values[first]!r} at mask {probes[first]}"
        )
