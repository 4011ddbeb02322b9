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

    `evaluate` maps a 1-d int64 array of masks to as many values; it is the
    oracle's only evaluation path, called once per `query_many` (`query` is
    a one-mask batch).  It must be deterministic, and a mask's value must
    not depend on the rest of the batch.  `query_many` refuses the first
    mask outside [0, 2**n), and `_evaluated` a result of the wrong shape or
    the first nan or +-inf in batch order (`oracle value inf at mask 5 is
    not finite`).  The counter grows by masks.size per `query_many` (by 1
    per `query`), repeats included.
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
        return next(_evaluated(self.ground, masks, [(self._evaluate, "oracle")]))

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


def _evaluated(ground: GroundSet, masks: np.ndarray, calls):
    """For each (evaluate, source) in `calls`, in turn, `evaluate`'s values at
    checked `masks`, in their shape: the one path by which an oracle's or an
    evaluator's values enter.  Every `evaluate` gets the same 1-d masks: the
    distinct ones, ascending, found once through a presence table of 2**n
    entries when there are at least 2**n; else the masks as given.  A result
    of the wrong shape or a nan or +-inf raises ValueError naming `source`."""
    probes = masks.ravel()
    points, inverse = probes, slice(None)
    if probes.size >= ground.size:
        present = np.zeros(ground.size, dtype=bool)
        present[probes] = True
        points = np.flatnonzero(present)
        slot = np.empty(ground.size, dtype=np.intp)
        slot[points] = np.arange(points.size)
        inverse = slot[probes]
    for evaluate, source in calls:
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused below
            values = np.asarray(evaluate(points), dtype=np.float64)
        if values.shape != points.shape:
            raise ValueError(f"{source} gave shape {values.shape} for {points.size} masks")
        values = values[inverse]
        _check_finite(values, probes, f"{source} value")
        yield values.reshape(masks.shape)


def compress_band(oracle: SetFunctionOracle, m: int) -> SparseSpectrum:
    """Model-4 band-limited approximation of order m.

    The support is every frequency B with |B| <= m in (cardinality, mask)
    order.  One `query_many` asks each set N \\ B of the support once.  A
    sum that overflows or is nan raises ValueError naming its frequency
    (`coefficient inf at frequency 3 is not finite`), with no float warning.
    """
    freqs = subsets_of_cardinality_at_most(oracle.ground, m)
    values = oracle.query_many(oracle.ground.full_mask ^ freqs)
    order, sizes = np.argsort(freqs), popcount(freqs)
    coeffs = 0.0 + values  # +0.0 plus each sum's first term, D = B
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused below
        for c in range(1, m + 1):
            group = sizes == c
            B, total = freqs[group], coeffs[group]
            D = np.zeros_like(B)
            for i in range((1 << c) - 1):  # D is the i-th submask of B, |D| = |i|
                term = values[order[np.searchsorted(freqs, D, sorter=order)]]
                total += -term if (c - i.bit_count()) & 1 else term
                D = (D - B) & B
            coeffs[group] = total
    _check_finite(coeffs, freqs, "coefficient", "frequency")
    return SparseSpectrum(oracle.ground, 4, freqs, coeffs)


def wht_regression(samples: SparseSetFunction, support: SparseSupport) -> SparseSpectrum:
    """Model-5 coefficients on `support` by least squares on sampled values.

    `samples` holds the sampled masks and their values, on the support's
    ground set.  The design matrix holds the lazy WHT-inverse entries
    (1/2)**n * (-1)**|A & B|; rank-deficient systems get the minimum-norm
    solution.  A coefficient that overflows is refused by its frequency.
    """
    require_same_ground(samples, support)
    if not len(samples):
        raise ValueError("wht_regression requires at least one sample")
    design = _closed_entries(
        5, INVERSE, samples.masks[:, None], support.freqs[None, :], support.ground.n
    )
    coeffs, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
    _check_finite(coeffs, support.freqs, "coefficient", "frequency")
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

    Draws `m_samples` masks uniformly with replacement (seeded PCG64), queries
    the oracle there once, and returns ||s_C - s'_C||_2 / ||s_C||_2 for each
    evaluator, in order.  An evaluator maps a mask array to approximate
    values, as `sampling.eval_sparse_many` bound to a spectrum does; its
    values enter as the oracle's do (`_evaluated`), and a refusal names its
    index (`evaluator 0 value nan at mask 6 is not finite`).  The oracle's
    values, and each gap s_C - s'_C, are scaled by the power of two that
    brings their largest magnitude into [1/2, 1) before their norm, so no sum
    of squares overflows or vanishes; a ratio past the range is inf.
    """
    evaluators = list(evaluators)
    if not evaluators:
        raise ValueError("estimate_relative_errors requires at least one evaluator")
    m_samples = check_count(m_samples, "m_samples", 1)
    rng = np.random.default_rng(seed)
    probes = rng.integers(0, oracle.ground.size, size=m_samples, dtype=np.uint64).astype(np.int64)
    truth = oracle.query_many(probes)
    _, e = np.frexp(max(truth.max(), -truth.min()))  # norms of values scaled into [1/2, 1)
    truth = np.ldexp(truth, -e)
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ValueError("relative error undefined: all sampled oracle values are zero")
    calls = ((evaluate, f"evaluator {index}") for index, evaluate in enumerate(evaluators))
    errors = []
    for approx in _evaluated(oracle.ground, probes, calls):
        with np.errstate(over="ignore"):  # a value or a ratio past the float range is inf
            gap = np.ldexp(approx, -e) - truth  # numpy subtracts into ldexp's temporary
            _, f = np.frexp(max(gap.max(), -gap.min()))  # the gap scaled as the truth is
            errors.append(float(np.ldexp(np.linalg.norm(np.ldexp(gap, -f, out=gap)) / denom, f)))
        del gap  # freed before the next evaluator allocates its values
    return errors
