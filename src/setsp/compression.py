"""Band-limited approximation of expensive set-function oracles.

The model-4 coefficient at frequency B needs only 2**|B| oracle queries:

    s4_B = sum over C subseteq B of (-1)**|C| * s_{(N\\B) u C}

For |B| <= 2 these are the three classic cases s_N, s_{N\\{x}} - s_N, and
s_{N\\{x,y}} - s_{N\\{x}} - s_{N\\{y}} + s_N.  The sets N \\ (B \\ C) that
these sums need for every |B| <= m are exactly the sets N \\ D, |D| <= m, so
`compress_band` queries them in one batch, once each, and forms every sum
from that memo.

The WHT baseline estimates model-5 coefficients on the same frequency band by
least squares over randomly sampled signal values, and `estimate_relative_errors`
Monte-Carlo-probes approximations against one pass of oracle queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    check_model,
    popcount,
    subsets_of_cardinality_at_most,
)
from .transforms import INVERSE, _closed_entries, _closed_form

# Subset sampling uses numpy's seeded PCG64 generator; the identifier is
# recorded in CSV output for reproducibility.
RNG_ALGORITHM = "pcg64"

# Probes per block of `eval_bandlimited_many`: its masks, buffers, parity
# signs and slice of the output take 33 bytes per probe for n <= 32, so
# 2**16 probes (2.1 MiB) stay in L2 while the support is swept over them.
_EVAL_CHUNK = 1 << 16


class SetFunctionOracle:
    """Query interface A -> s_A with an evaluation counter.

    `evaluate` maps a 1-d int64 array of masks to their values; it is the
    oracle's only evaluation path, and `query` passes it a one-mask array.
    It must be deterministic: repeated queries at the same mask return
    identical values, and a mask's value must not depend on the rest of the
    batch.  A batch that holds at least 2**n masks is evaluated once per
    distinct mask, and the values are expanded back to the batch's order and
    shape.  The counter counts every probe: it grows by 1 per `query` and by
    masks.size per `query_many`, repeats included.
    """

    def __init__(self, ground: GroundSet, evaluate):
        self.ground = ground
        self._evaluate = evaluate
        self.queries = 0

    def query(self, mask: int) -> float:
        mask = self.ground.check_mask(mask)
        self.queries += 1
        return float(self._evaluate(np.array([mask], dtype=np.int64))[0])

    def query_many(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        bad = (masks < 0) | (masks >= self.ground.size)
        if bad.any():
            raise ValueError(f"mask {masks[bad][0]} out of range for n={self.ground.n}")
        self.queries += masks.size
        points, inverse = _distinct(masks.ravel(), self.ground.size)
        values = np.asarray(self._evaluate(points), dtype=np.float64)
        return (values if inverse is None else values[inverse]).reshape(masks.shape)

    @classmethod
    def from_setfunction(cls, s: SetFunction) -> "SetFunctionOracle":
        return cls(s.ground, lambda masks: s.values[masks])

    @classmethod
    def from_sparse(cls, s: SparseSetFunction) -> "SetFunctionOracle":
        get = s.entries.get
        return cls(s.ground, lambda masks: np.array([get(m, 0.0) for m in masks.tolist()]))


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
    when a shared memo already holds some of them), asked in one batch."""
    B = oracle.ground.check_mask(B)
    base = oracle.ground.full_mask & ~B
    memo = {} if memo is None else memo
    subs = list(_submasks(B))
    missing = [base | C for C in subs if base | C not in memo]
    if missing:
        memo.update(zip(missing, oracle.query_many(np.array(missing, dtype=np.int64)).tolist()))
    total = 0.0
    for C in subs:
        value = memo[base | C]
        total += -value if popcount(C) & 1 else value
    return total


def compress_band(oracle: SetFunctionOracle, m: int) -> BandlimitedApprox:
    """Model-4 band-limited approximation of order m.

    The support is every frequency B with |B| <= m in (cardinality, mask)
    order.  One `query_many` at the sets N \\ B of the support fills a memo
    that holds every set `dsft4_coefficient_by_queries` asks for, so the
    oracle sees each of N, N\\{x}, N\\{x,y}, ... exactly once, in one batch,
    and each coefficient is the sum that function forms.
    """
    support = subsets_of_cardinality_at_most(oracle.ground, m)
    sets = oracle.ground.full_mask ^ support
    memo = dict(zip(sets.tolist(), oracle.query_many(sets).tolist()))
    coeffs = np.array(
        [dsft4_coefficient_by_queries(oracle, int(B), memo) for B in support]
    )
    return BandlimitedApprox(oracle.ground, 4, support, coeffs)


def eval_bandlimited(approx: BandlimitedApprox, A: int) -> float:
    """sum of coeff_B * f^B_A over the support: `eval_bandlimited_many` at A."""
    A = approx.ground.check_mask(A)
    return float(eval_bandlimited_many(approx, np.array([A]))[0])


def eval_bandlimited_many(approx: BandlimitedApprox, masks) -> np.ndarray:
    """`eval_bandlimited` at each mask of an array of any shape.

    Each probe A sums c_B * f^B_A from +0.0 in support order, with f^B_A =
    scale * [A & T == want] * (-1)**|A & B| and T = B or N \\ B
    (`transforms._closed_form`).  Under a condition (-1)**|want| folds into
    c_B, leaving (-1)**|A| for T = N \\ B; model 5 keeps (-1)**|A & B|.
    Probes run in blocks of `_EVAL_CHUNK`, narrowed to the smallest type that
    holds 2**n - 1.  Terms are branch-free: [condition] * c_B (an infinite
    c_B still gives nan), its sign bit flipped by the parity, an exact
    product by -1.  A zero term's sign is immaterial: the sum is never -0.0.
    """
    complement, want, scale = _closed_form(approx.model, INVERSE)
    ground = approx.ground
    narrow = np.min_scalar_type(ground.full_mask)
    tests = approx.support ^ ground.full_mask if complement else approx.support
    targets = tests if want == "all" else np.zeros_like(tests)
    coeffs = approx.coeffs * scale**ground.n
    coeffs = np.where(popcount(targets) & 1, -coeffs, coeffs)
    coeffs = coeffs.view(np.uint64) if want is None else coeffs
    terms = list(zip(tests.astype(narrow), targets.astype(narrow), coeffs))

    masks = np.asarray(masks, dtype=np.int64)
    flat = masks.ravel()
    out = np.zeros(flat.size)
    width = min(_EVAL_CHUNK, flat.size)
    hit, cond, term = np.empty(width, narrow), np.empty(width, bool), np.empty(width)
    for start in range(0, flat.size, _EVAL_CHUNK):
        probes = flat[start : start + _EVAL_CHUNK].astype(narrow)
        acc = out[start : start + _EVAL_CHUNK]
        h, m, t = hit[: probes.size], cond[: probes.size], term[: probes.size]
        bits = t.view(np.uint64)
        if complement:  # (-1)**|A|, as the sign bit
            signs = np.bitwise_count(probes).astype(np.uint64) << np.uint64(63)
        for T, target, c in terms:
            np.bitwise_and(probes, T, out=h)
            if want is None:
                np.bitwise_count(h, out=bits)
                np.left_shift(bits, 63, out=bits)
                np.bitwise_xor(bits, c, out=bits)
            else:
                np.equal(h, target, out=m)
                np.multiply(m, c, out=t)
                if complement:
                    np.bitwise_xor(bits, signs, out=bits)
            np.add(acc, t, out=acc)
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
    oracle: SetFunctionOracle, evaluate, m_samples: int = 1_000_000, *, seed: int
) -> float:
    """`estimate_relative_errors` of one evaluator."""
    return estimate_relative_errors(oracle, [evaluate], m_samples, seed=seed)[0]


def estimate_relative_errors(
    oracle: SetFunctionOracle, evaluators, m_samples: int = 1_000_000, *, seed: int
) -> list[float]:
    """Monte-Carlo relative reconstruction errors over one set of probes.

    Draws `m_samples` masks uniformly with replacement (seeded PCG64),
    queries the oracle there once, and returns ||s_C - s'_C||_2 / ||s_C||_2
    for each evaluator, in order.  An evaluator is a BandlimitedApprox or any
    callable mapping a mask array to approximate values; like the oracle's
    batch function, its value at a mask must not depend on the rest of the
    batch, since with m_samples >= 2**n it sees each distinct probe once.  A
    nan or +-inf value on either side raises ValueError, naming the first
    probe in draw order that returned one and, for an approximation, the
    evaluator's index.
    """
    evaluators = list(evaluators)
    if not evaluators:
        raise ValueError("estimate_relative_errors requires at least one evaluator")
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
    points, inverse = _distinct(probes, size)
    errors = []
    for index, evaluate in enumerate(evaluators):
        if isinstance(evaluate, BandlimitedApprox):
            approx_values = eval_bandlimited_many(evaluate, points)
        else:
            approx_values = np.asarray(evaluate(points), dtype=np.float64)
        if inverse is not None:
            approx_values = approx_values[inverse]
        _check_finite("approximation", probes, approx_values, f" (evaluator {index})")
        errors.append(float(np.linalg.norm(truth - approx_values) / denom))
    return errors


def _check_finite(source: str, probes: np.ndarray, values: np.ndarray, where="") -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{source} returned non-finite value {values[first]!r} at mask "
            f"{probes[first]}{where}"
        )
