"""Band-limited approximation of expensive set-function oracles.

The model-4 coefficient at frequency B needs only 2**|B| oracle queries:

    s4_B = sum over C subseteq B of (-1)**|C| * s_{(N\\B) u C}

For |B| <= 2 these are the three classic cases s_N, s_{N\\{x}} - s_N, and
s_{N\\{x,y}} - s_{N\\{x}} - s_{N\\{y}} + s_N.  The sets N \\ (B \\ C) that
these sums need for every |B| <= m are exactly the sets N \\ D, |D| <= m, so
`compress_band` queries them in one batch, once each, and then sums all
coefficients of a cardinality c together, each from +0.0, one term at a time:
D = B \\ C is B first, then the other submasks of B in ascending order, with
sign (-1)**(c - |D|); that is C = {}, then the rest in descending order.

The WHT baseline fits model-5 coefficients on the same band by least squares
over randomly sampled values.  Both give a `core.SparseSpectrum`, evaluated by
`sampling.eval_sparse_many`; `estimate_relative_errors` scores evaluators by
Monte-Carlo probes against one pass of oracle queries.
"""

from __future__ import annotations

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    SparseSupport,
    _check_finite,
    check_count,
    popcount,
    require_same_ground,
    subsets_of_cardinality_at_most,
)
from .transforms import INVERSE, _closed_entries

# Subset sampling uses numpy's seeded PCG64 generator; the identifier is
# recorded in CSV output for reproducibility.
RNG_ALGORITHM = "pcg64"


class SetFunctionOracle:
    """Query interface A -> s_A with an evaluation counter.

    `evaluate` maps a 1-d int64 array of masks to their values; it is the
    oracle's only evaluation path, called once per `query_many` (`query` is
    a one-mask batch).  It must be deterministic: repeated queries at the
    same mask return identical values, and a mask's value must not depend on
    the rest of the batch.  A batch that holds at least 2**n masks is
    evaluated once per distinct mask, and the values are expanded back to
    the batch's order and shape.  `query_many` checks the masks going in and
    the values coming out: the first mask outside [0, 2**n), or the first
    value in batch order that is nan or +-inf, raises ValueError naming its
    set (`oracle value inf at mask 5 is not finite`), with no numpy overflow
    or invalid-value warning first.  The counter counts every probe: it grows by 1 per
    `query` and by masks.size per `query_many`, repeats included.
    """

    def __init__(self, ground: GroundSet, evaluate):
        self.ground = ground
        self._evaluate = evaluate
        self.queries = 0

    def query(self, mask: int) -> float:
        """The value at one mask.  The library calls `query_many`; this one
        stays because the bench tracer's `ATTRS` names it."""
        return float(self.query_many(mask))

    def query_many(self, masks) -> np.ndarray:
        masks = self.ground.check_masks(masks)
        self.queries += masks.size
        probes = masks.ravel()
        points, inverse = _distinct(probes, self.ground.size)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused below
            values = np.asarray(self._evaluate(points), dtype=np.float64)
        if inverse is not None:
            values = values[inverse]
        _check_finite(values, probes, "oracle value")
        return values.reshape(masks.shape)

    @classmethod
    def from_setfunction(cls, s: SetFunction) -> "SetFunctionOracle":
        return cls(s.ground, lambda masks: s.values[masks])

    @classmethod
    def from_sparse(cls, s: SparseSetFunction) -> "SetFunctionOracle":
        """Each mask's stored value, or +0.0, found by binary search in the
        sorted masks; the sentinel 2**n at their end is above every mask, so
        every search lands on an entry."""
        order = np.argsort(s.masks)
        keys = np.append(s.masks[order], s.ground.size)
        values = np.append(s.values[order], 0.0)

        def evaluate(masks):
            at = np.searchsorted(keys, masks)
            return np.where(keys[at] == masks, values[at], 0.0)

        return cls(s.ground, evaluate)


def _distinct(masks: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, inverse) with points[inverse] == masks, for 1-d masks in
    [0, size).  When there are at least `size` masks, the points are the
    distinct masks, ascending, found through a presence table of `size`
    entries; otherwise the masks are their own points and inverse is None,
    so the table is never larger than the masks."""
    if masks.size < size:
        return masks, None
    present = np.zeros(size, dtype=bool)
    present[masks] = True
    points = np.flatnonzero(present)
    slot = np.empty(size, dtype=np.intp)
    slot[points] = np.arange(points.size)
    return points, slot[masks]


def compress_band(oracle: SetFunctionOracle, m: int) -> SparseSpectrum:
    """Model-4 band-limited approximation of order m.

    The support is every frequency B with |B| <= m in (cardinality, mask)
    order.  One `query_many` asks each set N \\ B of the support once.
    """
    freqs = subsets_of_cardinality_at_most(oracle.ground, m)
    values = oracle.query_many(oracle.ground.full_mask ^ freqs)
    order, sizes = np.argsort(freqs), popcount(freqs)
    coeffs = 0.0 + values  # +0.0 plus each sum's first term, D = B
    with np.errstate(over="ignore", invalid="ignore"):  # SparseSpectrum refuses inf, nan
        for c in range(1, m + 1):
            group = sizes == c
            B, total = freqs[group], coeffs[group]
            D = np.zeros_like(B)
            for i in range((1 << c) - 1):  # D is the i-th submask of B, |D| = |i|
                term = values[order[np.searchsorted(freqs, D, sorter=order)]]
                total += -term if (c - i.bit_count()) & 1 else term
                D = (D - B) & B
            coeffs[group] = total
    return SparseSpectrum(oracle.ground, 4, freqs, coeffs)


def wht_regression(samples: SparseSetFunction, support: SparseSupport) -> SparseSpectrum:
    """Model-5 coefficients on `support` by least squares on sampled values.

    `samples` holds the sampled masks and their values, on the support's
    ground set.  The design matrix holds the lazy WHT-inverse entries
    (1/2)**n * (-1)**|A & B|; rank-deficient systems get the minimum-norm
    solution.
    """
    require_same_ground(samples, support)
    if not len(samples):
        raise ValueError("wht_regression requires at least one sample")
    design = _closed_entries(
        5, INVERSE, samples.masks[:, None], support.freqs[None, :], support.ground.n
    )
    coeffs, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
    return SparseSpectrum(support.ground, 5, support.freqs, coeffs)


def estimate_relative_error(
    oracle: SetFunctionOracle, evaluate, m_samples: int = 1_000_000, *, seed: int
) -> float:
    """`estimate_relative_errors` of one evaluator.  The library calls the
    batch form; this one stays because `bench/workloads.py` calls it and the
    bench tracer reads its self time."""
    return estimate_relative_errors(oracle, [evaluate], m_samples, seed=seed)[0]


def estimate_relative_errors(
    oracle: SetFunctionOracle, evaluators, m_samples: int = 1_000_000, *, seed: int
) -> list[float]:
    """Monte-Carlo relative reconstruction errors over one set of probes.

    Draws `m_samples` masks uniformly with replacement (seeded PCG64),
    queries the oracle there once, and returns ||s_C - s'_C||_2 / ||s_C||_2
    for each evaluator, in order.  An evaluator is a callable mapping a mask
    array to approximate values, such as `sampling.eval_sparse_many` bound to
    a spectrum; like the oracle's batch function, its value at a mask must
    not depend on the rest of the batch, since with m_samples >= 2**n it
    sees each distinct probe once.  A nan or +-inf value raises ValueError
    naming the first probe in draw order that returned one: the oracle's
    own check (`SetFunctionOracle.query_many`) refuses its values, and an
    evaluator's are refused with its index (`evaluator 0 value nan at mask
    6 is not finite`).
    """
    evaluators = list(evaluators)
    if not evaluators:
        raise ValueError("estimate_relative_errors requires at least one evaluator")
    m_samples = check_count(m_samples, "m_samples", 1)
    rng = np.random.default_rng(seed)
    size = 1 << oracle.ground.n
    probes = rng.integers(0, size, size=m_samples, dtype=np.uint64).astype(np.int64)
    truth = oracle.query_many(probes)
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ValueError("relative error undefined: all sampled oracle values are zero")
    points, inverse = _distinct(probes, size)
    errors = []
    for index, evaluate in enumerate(evaluators):
        approx_values = np.asarray(evaluate(points), dtype=np.float64)
        if inverse is not None:
            approx_values = approx_values[inverse]
        _check_finite(approx_values, probes, f"evaluator {index} value")
        errors.append(float(np.linalg.norm(truth - approx_values) / denom))
    return errors

