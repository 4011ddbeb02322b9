import hashlib
import inspect
import math
import re

import numpy as np
import pytest

from functools import partial

from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    SparseSupport,
    subsets_of_cardinality_at_most,
)
from setsp.compression import (
    SetFunctionOracle,
    compress_band,
    estimate_relative_error,
    estimate_relative_errors,
    wht_regression,
)
from setsp.coverage import GaussianModel, entropy_setfunction
from setsp.experiments import entropy_oracle, random_rbf_covariance, score_compression
from setsp.sampling import eval_sparse_many, oracle_from_sparse_spectrum, reconstruct
from setsp.transforms import INVERSE, dsft, dsft_inplace

from reference import band_coefficient_reference


def _dense_oracle(values, n):
    return SetFunctionOracle.from_setfunction(SetFunction(GroundSet(n), values))


def test_coefficient_empty_set_is_one_query():
    oracle = _dense_oracle([1.0, 2.0, 3.0, 4.0], 2)
    band = compress_band(oracle, 0)
    assert band.support.freqs.tolist() == [0] and band.coeffs.tolist() == [4.0]
    assert oracle.queries == 1


def test_coefficient_singleton_example():
    # s4_{x1} = s_{N \ {x1}} - s_N = 3 - 4
    oracle = _dense_oracle([1.0, 2.0, 3.0, 4.0], 2)
    band = compress_band(oracle, 1)
    assert band.coeffs[band.support.freqs == 0b01].tolist() == [-1.0]
    assert oracle.queries == 3


def test_coefficient_pair_vanishes_on_modular():
    n = 5
    g = GroundSet(n)
    w = np.arange(1.0, n + 1)
    masks = g.masks()
    values = np.zeros(g.size)
    for i in range(n):
        values += w[i] * ((masks >> i) & 1)
    oracle = _dense_oracle(values, n)
    band = compress_band(oracle, 2)
    pairs = np.bitwise_count(band.support.freqs) == 2
    assert pairs.sum() == 10 and np.abs(band.coeffs[pairs]).max() < 1e-12
    assert oracle.queries == 1 + n + 10


def test_band_queries_are_one_batch_with_the_per_coefficient_bits():
    rng = np.random.default_rng(23)
    n = 8
    freqs = np.unique(rng.integers(0, 1 << n, size=40))
    truth = SparseSpectrum(GroundSet(n), 4, freqs, rng.standard_normal(freqs.size))
    oracle = oracle_from_sparse_spectrum(truth)
    oracle.query = None  # only query_many may be asked
    calls, evaluate = [], oracle._evaluate
    oracle._evaluate = lambda masks: (calls.append(masks.tolist()), evaluate(masks))[1]
    band = compress_band(oracle, n)
    assert calls == [list(range(1 << n))] and oracle.queries == 1 << n
    single = oracle_from_sparse_spectrum(truth)
    for B in (0, 0b1, 0b10110101, (1 << n) - 1):
        want = band_coefficient_reference(lambda A: single.query_many([A])[0], n, B)
        assert np.float64(want).tobytes() == band.coeffs[band.support.freqs == B].tobytes()
    assert single.queries == 1 + 2 + (1 << 5) + (1 << n)


@pytest.mark.parametrize("values, message", [
    ([1.7e308, -1.7e308, -1.7e308, 1.7e308], "coefficient -inf at frequency 1"),
    ([1.0, 2.0, math.inf, math.inf], "oracle value inf at mask 3"),
], ids=["values0", "values1"])
def test_band_sum_that_is_not_finite_is_refused_without_a_float_warning(values, message):
    # an overflow (-1.7e308 - 1.7e308) in a coefficient sum is refused naming
    # the coefficient's frequency, and no numpy warning comes first; an inf
    # oracle value is refused where it enters, before any sum
    oracle = SetFunctionOracle(GroundSet(2), lambda masks: np.array(values)[masks])
    with pytest.raises(ValueError, match=f"^{message} is not finite$"):
        compress_band(oracle, 1)


def test_a_coefficient_that_overflows_is_refused_naming_its_frequency():
    # every set the band asks reads 1.7e308; the sum at B = {x1, x2} overflows
    over = SparseSpectrum(GroundSet(3), 4, [0, 7], [1.7e308, 1.7e308])
    with pytest.raises(ValueError, match="^coefficient inf at frequency 3 is not finite$"):
        compress_band(oracle_from_sparse_spectrum(over), 2)
    # reconstruct: s_{x2} - s_N at B = {x1} overflows, alone or beside a clean oracle
    ground = GroundSet(2)
    values = np.array([0.0, 0.0, -1.7e308, 1.7e308])
    bad = SetFunctionOracle(ground, lambda masks: values[masks])
    clean = SetFunctionOracle(ground, lambda masks: 1.0 + masks)
    support = SparseSupport(ground, [0, 1])
    for oracles in (bad, [clean, bad]):
        with pytest.raises(ValueError, match="^coefficient -inf at frequency 1 is not finite$"):
            reconstruct(oracles, support)


@pytest.mark.parametrize("n", (1, 4, 8))
def test_coefficients_match_dense_transform(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(1 << n)
    spec = dsft(4, SetFunction(GroundSet(n), values))
    band = compress_band(_dense_oracle(values, n), n)
    assert np.abs(band.coeffs - spec.coeffs[band.support.freqs]).max() < 1e-10


def test_compress_band_full_order_reproduces():
    rng = np.random.default_rng(7)
    n = 5
    values = rng.standard_normal(1 << n)
    approx = compress_band(_dense_oracle(values, n), n)
    probes = np.array([0, 3, 17, 31])
    assert np.abs(eval_sparse_many(approx, probes) - values[probes]).max() < 1e-10


def test_compress_band_query_accounting():
    rng = np.random.default_rng(8)
    n = 8
    values = rng.standard_normal(1 << n)
    oracle = _dense_oracle(values, n)
    approx = compress_band(oracle, 2)
    expected_distinct = 1 + n + n * (n - 1) // 2
    assert oracle.queries == expected_distinct
    assert len(approx.support) == expected_distinct
    assert approx.model == 4


def test_compress_band_wide_ground_set():
    # the support alone: 1 + 46 + C(46,2) low-order frequencies
    n = 46
    g = GroundSet(n)
    w = np.linspace(0.5, 2.0, n)

    def modular(mask: int) -> float:
        return sum(w[i] for i in range(n) if mask >> i & 1)

    oracle = SetFunctionOracle(g, lambda masks: np.array([modular(m) for m in masks.tolist()]))
    approx = compress_band(oracle, 2)
    assert len(approx.support) == 1082
    assert oracle.queries == 1082
    pair_coeffs = approx.coeffs[np.bitwise_count(approx.support.freqs) == 2]
    assert np.abs(pair_coeffs).max() < 1e-9


# SHA-256 of the coefficient bytes of the order-2 band of the n=20 entropy
# oracles that the benchmark's `oracle-compress` trials compress, recorded
# from the per-coefficient Python float sums.  The bits were the same under
# one and two BLAS threads.
FULL_BAND_SHA256 = {
    10000: "264c2eb5f1caa0cfb33dc88e4a78141e7b7de37ff676d83aa766f183360c1773",
    10001: "fc72e9a6d6511661a843691f756bf0786ffce05b5f2a5dc3cb35ed61d5b69221",
    10002: "2d3bc92dd942bf6e52d1ed75a5b29cc4c8c85c30daa992725b558487e51c3cbc",
}


@pytest.mark.parametrize("seed", sorted(FULL_BAND_SHA256))
def test_full_size_compress_band_golden_bits(seed):
    oracle = entropy_oracle(GaussianModel(random_rbf_covariance(20, seed)))
    band = compress_band(oracle, 2)
    assert oracle.queries == len(band.support) == 211
    assert hashlib.sha256(band.coeffs.tobytes()).hexdigest() == FULL_BAND_SHA256[seed]


def test_eval_bandlimited_examples():
    # the coefficients 2 at {} and 3 at {x1} under each model, at the four
    # subsets of n=2: the columns of the inverse transform that they weigh
    g = GroundSet(2)
    want = {1: [0.0, 0.0, 3.0, -1.0], 2: [5.0, -3.0, 0.0, 0.0], 3: [2.0, -1.0, 2.0, -1.0],
            4: [5.0, 2.0, 5.0, 2.0], 5: [1.25, -0.25, 1.25, -0.25]}
    for model, values in want.items():
        approx = SparseSpectrum(g, model, [0, 1], [2.0, 3.0])
        assert eval_sparse_many(approx, np.arange(4)).tolist() == values


@pytest.mark.parametrize("model", range(1, 6))
def test_scalar_and_batched_band_eval_agree_bitwise(model):
    g = GroundSet(10)
    support = subsets_of_cardinality_at_most(g, 2)
    coeffs = np.random.default_rng(model).standard_normal(support.size)
    approx = SparseSpectrum(g, model, support, coeffs)
    masks = g.masks()
    scalar = np.concatenate([eval_sparse_many(approx, [A]) for A in masks])
    assert scalar.tobytes() == eval_sparse_many(approx, masks).tobytes()


# SHA-256 of the output bytes, recorded from the support-loop evaluator that
# formed each basis column with `_closed_entries` and summed c * column.
BAND_EVAL_SHA256 = {
    4: "68cdec1f480ed4be57944ed6219227d2364c31e6ca1b39b567e4dd41c8241e2a",
    5: "9811c7271979eb8af1ff9a27184d0012046da460163c311656a4e3c495434c7b",
}


@pytest.mark.parametrize("model", sorted(BAND_EVAL_SHA256))
def test_band_eval_golden_bits(model):
    # 69000 probes in a 2-d array: one full block of 2**16 and a partial one
    g = GroundSet(12)
    support = subsets_of_cardinality_at_most(g, 2)
    coeffs = np.random.default_rng(5).standard_normal(support.size)
    masks = np.random.default_rng(6).integers(0, g.size, size=(300, 230))
    out = eval_sparse_many(SparseSpectrum(g, model, support, coeffs), masks)
    assert out.shape == masks.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == BAND_EVAL_SHA256[model]


# SHA-256 of the output bytes at the benchmark's size, recorded from the
# evaluator that swept model 5 with one signed term per probe and term.  The
# evaluator is numpy element-wise work only, so the bits do not depend on
# the BLAS thread count.
FULL_BAND_EVAL_SHA256 = {
    4: "34a2aa92aa538663bf632018997252a16d83e5b5358360ada4f6c3e1d5bab2e2",
    5: "8ac0ddbb607b455285ec0095fea3cf605d5f2d430d2b8d6b80c0036caa8e72c0",
}


@pytest.mark.parametrize("model", sorted(FULL_BAND_EVAL_SHA256))
def test_full_size_band_eval_golden_bits(model):
    # the order-2 band at n=20 (211 terms, a tenth of them +-0.0) at 100k
    # probes: the `oracle-compress` scoring, several probe blocks long
    g = GroundSet(20)
    support = subsets_of_cardinality_at_most(g, 2)
    rng = np.random.default_rng(20)
    coeffs = rng.standard_normal(support.size)
    zero = rng.random(support.size) < 0.1
    coeffs[zero] = np.copysign(0.0, coeffs[zero])
    masks = np.random.default_rng(21).integers(0, g.size, size=100_000)
    out = eval_sparse_many(SparseSpectrum(g, model, support, coeffs), masks)
    assert hashlib.sha256(out.tobytes()).hexdigest() == FULL_BAND_EVAL_SHA256[model]


def test_wht_regression_square_system_is_exact():
    rng = np.random.default_rng(12)
    n = 4
    g = GroundSet(n)
    values = rng.standard_normal(16)
    spec = dsft(5, SetFunction(g, values))
    approx = wht_regression(SparseSetFunction(g, range(16), values), SparseSupport(g, range(16)))
    assert np.abs(approx.coeffs - spec.coeffs[approx.support.freqs]).max() < 1e-9


def test_wht_regression_recovers_bandlimited():
    rng = np.random.default_rng(13)
    n = 6
    g = GroundSet(n)
    support = subsets_of_cardinality_at_most(g, 2)
    coeffs = np.zeros(g.size)
    coeffs[support] = rng.standard_normal(support.size)
    signal = np.array(coeffs)
    dsft_inplace(signal, 5, INVERSE)
    approx = wht_regression(SparseSetFunction(g, g.masks(), signal), SparseSupport(g, support))
    assert np.abs(approx.coeffs - coeffs[support]).max() < 1e-9
    assert np.abs(eval_sparse_many(approx, g.masks()) - signal).max() < 1e-9


@pytest.mark.parametrize("n", (6, 8, 10))
def test_full_lattice_wht_regression_is_the_projection_the_band_cannot_beat(n):
    # Both order-2 bands span the same degree-2 functions.  Regression on all
    # 2**n values is the orthogonal projection onto that space (the truncated
    # WHT), so no order-2 band, the exact model-4 band included, has a smaller
    # full-lattice error.
    model = GaussianModel(random_rbf_covariance(n, n))
    s = entropy_setfunction(model)
    g = s.ground
    support = SparseSupport(g, subsets_of_cardinality_at_most(g, 2))
    masks = g.masks()
    projection = wht_regression(SparseSetFunction(g, masks, s.values), support)
    truncated = dsft(5, s).coeffs[support.freqs]
    assert np.abs(projection.coeffs - truncated).max() <= 1e-12 * np.abs(truncated).max()
    band = compress_band(entropy_oracle(model), 2)
    band_error = np.linalg.norm(eval_sparse_many(band, masks) - s.values)
    projection_error = np.linalg.norm(eval_sparse_many(projection, masks) - s.values)
    assert band_error >= projection_error


def test_wht_regression_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError, match="at least one"):
        wht_regression(SparseSetFunction(g, [], []), SparseSupport(g, [0]))
    with pytest.raises(ValueError, match="mismatched ground sets: n=3 vs n=2"):
        wht_regression(SparseSetFunction(GroundSet(3), [5], [0.5]), SparseSupport(g, [0]))
    # a fitted coefficient that overflows is refused by its frequency
    over = SparseSetFunction(g, [0, 1, 2, 3], [1.7e308, -1.7e308, 1.7e308, -1.7e308])
    with pytest.raises(ValueError, match="^coefficient inf at frequency 1 is not finite$"):
        wht_regression(over, SparseSupport(g, [0, 1, 2, 3]))


def test_estimate_error_exact_approx_is_zero():
    rng = np.random.default_rng(14)
    n = 6
    values = rng.standard_normal(1 << n)
    approx = compress_band(_dense_oracle(values, n), n)
    err = estimate_relative_error(_dense_oracle(values, n), partial(eval_sparse_many, approx),
                                  2000, seed=5)
    assert err < 1e-12


def test_estimate_error_deterministic_and_positive():
    rng = np.random.default_rng(15)
    n = 7
    values = rng.standard_normal(1 << n)
    approx = partial(eval_sparse_many, compress_band(_dense_oracle(values, n), 1))
    a = estimate_relative_error(_dense_oracle(values, n), approx, 5000, seed=7)
    b = estimate_relative_error(_dense_oracle(values, n), approx, 5000, seed=7)
    c = estimate_relative_error(_dense_oracle(values, n), approx, 5000, seed=8)
    assert a == b
    assert a > 0.0
    assert a != c


def test_estimate_error_default_probe_count():
    params = inspect.signature(estimate_relative_error).parameters
    assert params["m_samples"].default == 10**6


@pytest.mark.parametrize("bad", [10.5, np.float64(3.0), True, False, 0, -2, "7", None])
def test_estimate_errors_refuse_an_m_samples_that_is_no_count(bad):
    oracle = _dense_oracle(np.arange(8.0) + 1.0, 3)
    zero = lambda masks: masks * 0.0  # noqa: E731
    message = f"^m_samples must be an integer >= 1, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        estimate_relative_error(oracle, zero, bad, seed=1)
    with pytest.raises(ValueError, match=message):
        estimate_relative_errors(oracle, [zero], bad, seed=1)
    assert oracle.queries == 0
    # a numpy integer is a count
    assert estimate_relative_error(oracle, zero, np.int64(5), seed=1) == 1.0


def test_estimate_error_rejects_zero_signal():
    oracle = _dense_oracle(np.zeros(8), 3)
    approx = partial(eval_sparse_many, SparseSpectrum(GroundSet(3), 4, [0], [0.0]))
    with pytest.raises(ValueError, match="zero"):
        estimate_relative_error(oracle, approx, 10, seed=1)


@pytest.mark.parametrize("side", ["oracle", "approximation"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_error_rejects_non_finite_values(side, bad):
    def tainted(masks):
        return np.where(masks == 5, bad, 1.0 + masks)

    def clean(masks):
        return 1.0 + masks

    oracle_fn, approx_fn = (tainted, clean) if side == "oracle" else (clean, tainted)
    oracle = SetFunctionOracle(GroundSet(3), oracle_fn)
    source = "oracle" if side == "oracle" else "evaluator 0"
    with pytest.raises(ValueError, match=f"^{source} value {bad} at mask 5 is not finite$"):
        estimate_relative_error(oracle, approx_fn, 200, seed=1)


def test_estimate_errors_share_one_oracle_pass():
    rng = np.random.default_rng(17)
    n = 8
    values = rng.standard_normal(1 << n) + 2.0
    oracle = _dense_oracle(values, n)
    band = compress_band(_dense_oracle(values, n), 1)
    masks = np.arange(0, 1 << n, 3)
    wht = wht_regression(SparseSetFunction(GroundSet(n), masks, values[masks]), band.support)
    band, wht = partial(eval_sparse_many, band), partial(eval_sparse_many, wht)
    noisy = lambda masks: values[masks] + 0.01  # noqa: E731
    errors = estimate_relative_errors(oracle, [band, wht, noisy], 3000, seed=9)
    assert oracle.queries == 3000
    separate = [
        estimate_relative_error(_dense_oracle(values, n), e, 3000, seed=9)
        for e in (band, wht, noisy)
    ]
    assert np.array(errors).tobytes() == np.array(separate).tobytes()
    assert len(set(errors)) == 3


@pytest.mark.parametrize("side", ["oracle", "approximation"])
def test_non_finite_value_names_the_first_probe_drawn_on_a_covered_lattice(side):
    # 64 probes cover the 8 masks, so each distinct probe is evaluated once,
    # in ascending order; the error must still name the first probe drawn
    def tainted(masks):
        return np.where((masks == 2) | (masks == 6), np.nan, 1.0 + masks)

    def clean(masks):
        return 1.0 + masks

    drawn = np.random.default_rng(0).integers(0, 8, size=64, dtype=np.uint64)
    assert next(int(m) for m in drawn if m in (2, 6)) == 6
    oracle_fn, approx_fn = (tainted, clean) if side == "oracle" else (clean, tainted)
    oracle = SetFunctionOracle(GroundSet(3), oracle_fn)
    source = "oracle" if side == "oracle" else "evaluator 1"
    with pytest.raises(ValueError, match=f"^{source} value nan at mask 6 is not finite$"):
        estimate_relative_errors(oracle, [clean, approx_fn], 64, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_oracle_value_is_refused_naming_its_set(bad):
    # the oracle refuses the value where it enters, so each caller names the
    # set it asked, not a frequency computed from the value
    ground = GroundSet(3)
    oracle = SetFunctionOracle(ground, lambda masks: np.where(masks == 5, bad, 1.0 + masks))
    calls = {
        "query": lambda: oracle.query(5),
        "query_many": lambda: oracle.query_many([[1, 5], [2, 3]]),
        "compress_band": lambda: compress_band(oracle, 1),  # asks N - {x2} = 5
        "reconstruct": lambda: reconstruct(oracle, SparseSupport(ground, [0, 2])),
        "estimate_relative_errors": lambda: estimate_relative_errors(
            oracle, [lambda masks: 1.0 + masks], 200, seed=1),
        # order 0 asks only N = 7; the 8 WHT samples then ask every set
        "score_compression": lambda: score_compression(oracle, order=0, wht_samples=8,
                                                       probes=10, seed=1),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match=f"^oracle value {bad} at mask 5 is not finite$"):
            call()
    assert oracle.queries == 1 + 4 + 4 + 2 + 200 + 1 + 8
    # a batch of 2**n masks or more is evaluated once per distinct mask, in
    # ascending order; the first bad probe in batch order is still the one named
    late = SetFunctionOracle(ground, lambda masks: np.where(masks >= 5, bad, 1.0))
    for batch, first in (([1, 7, 5], 7), ([0, 6, 1, 2, 3, 4, 5, 7], 6)):
        with pytest.raises(ValueError, match=f"^oracle value {bad} at mask {first} is not"):
            late.query_many(batch)


def test_an_oracle_sum_that_overflows_is_refused_without_a_float_warning():
    # under the suite's warnings-as-errors filter a RuntimeWarning would fail this
    overflow = SparseSpectrum(GroundSet(3), 4, [0, 7], [1.7e308, 1.7e308])
    with pytest.raises(ValueError, match="^oracle value inf at mask 0 is not finite$"):
        oracle_from_sparse_spectrum(overflow).query(0)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310, 5e-324])
def test_relative_errors_hold_at_the_ends_of_the_float_range(scale):
    # s**2 overflows at 1e200 and underflows at 1e-200 and below; the norms
    # are taken at a power-of-two scale, so the errors are those at scale 1
    oracle = SetFunctionOracle(GroundSet(3), lambda masks: np.full(masks.shape, scale))
    twice = lambda masks: np.full(masks.shape, 2 * scale)  # noqa: E731
    exact = lambda masks: np.full(masks.shape, scale)  # noqa: E731
    for probes in (5, 200):
        assert estimate_relative_errors(oracle, [twice, exact], probes, seed=1) == [1.0, 0.0]


@pytest.mark.parametrize("truth, approx, error", [
    (1e-300, 1e300, math.inf),  # the approximation, scaled as the truth is, overflows
    (1e-150, 1e150, 1e300),  # the gap's sum of squares would overflow unscaled
    (2.0**-1023, -1.0, 2.0**1023),  # a subnormal truth, whose square vanishes unscaled
])
def test_relative_errors_past_the_range_of_a_square(truth, approx, error):
    # under the suite's warnings-as-errors filter a RuntimeWarning would fail this
    oracle = SetFunctionOracle(GroundSet(3), lambda masks: np.full(masks.shape, truth))
    got = estimate_relative_errors(oracle, [lambda masks: np.full(masks.shape, approx)], 100,
                                   seed=1)
    assert got == [pytest.approx(error, rel=1e-15)]


@pytest.mark.parametrize("probes", [5, 64])  # as given, and once per distinct mask
@pytest.mark.parametrize("wrong", ["column", "scalar", "short"])
def test_an_evaluate_result_of_the_wrong_shape_is_refused(wrong, probes):
    # a column would broadcast against the truth, and a short result would
    # leave probes without a value; 64 probes (seed 0) cover the 8 masks
    result = {"column": lambda masks: (1.0 + masks)[:, None],
              "scalar": lambda masks: 1.0,
              "short": lambda masks: (1.0 + masks)[1:]}[wrong]
    given = min(probes, 8)
    shape = {"column": (given, 1), "scalar": (), "short": (given - 1,)}[wrong]
    gave = re.escape(f"gave shape {shape} for {given} masks")
    clean = lambda masks: 1.0 + masks  # noqa: E731
    oracle = SetFunctionOracle(GroundSet(3), clean)
    with pytest.raises(ValueError, match=f"^evaluator 1 {gave}$"):
        estimate_relative_errors(oracle, [clean, result], probes, seed=0)
    wrong_oracle = SetFunctionOracle(GroundSet(3), result)
    with pytest.raises(ValueError, match=f"^oracle {gave}$"):
        wrong_oracle.query_many(np.arange(probes) % 8)
    assert wrong_oracle.queries == probes


def test_an_evaluator_sum_that_overflows_is_refused_without_a_float_warning():
    # under the suite's warnings-as-errors filter a RuntimeWarning would fail this
    overflow = SparseSpectrum(GroundSet(3), 4, [0, 7], [1.7e308, 1.7e308])
    oracle = SetFunctionOracle(GroundSet(3), lambda masks: 1.0 + masks)
    for probes in (5, 200):
        with pytest.raises(ValueError, match="^evaluator 0 value inf at mask 0 is not finite$"):
            estimate_relative_errors(oracle, [partial(eval_sparse_many, overflow)], probes,
                                     seed=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_errors_name_the_failing_evaluator(bad):
    oracle = SetFunctionOracle(GroundSet(3), lambda masks: 1.0 + masks)
    clean = lambda masks: 1.0 + masks  # noqa: E731
    tainted = lambda masks: np.where(masks == 5, bad, 1.0 + masks)  # noqa: E731
    with pytest.raises(ValueError, match=f"^evaluator 1 value {bad} at mask 5 is not finite$"):
        estimate_relative_errors(oracle, [clean, tainted, clean], 200, seed=1)
    with pytest.raises(ValueError, match="at least one evaluator"):
        estimate_relative_errors(oracle, [], 200, seed=1)


def test_monte_carlo_close_to_exhaustive():
    rng = np.random.default_rng(16)
    n = 10
    values = rng.standard_normal(1 << n) + 3.0
    approx = partial(eval_sparse_many, compress_band(_dense_oracle(values, n), 2))
    approx_values = approx(np.arange(1 << n))
    exact = float(
        np.linalg.norm(values - approx_values) / np.linalg.norm(values)
    )
    mc = estimate_relative_error(_dense_oracle(values, n), approx, 10**6, seed=21)
    assert math.isclose(mc, exact, rel_tol=0.02)


def test_oracle_counter_and_determinism():
    calls = []

    def evaluate(masks):
        calls.append(masks.tolist())
        return masks.astype(np.float64)

    oracle = SetFunctionOracle(GroundSet(3), evaluate)
    assert oracle.query_many([5]).tolist() == [5.0]
    assert oracle.query_many([5]).tolist() == [5.0]
    assert oracle.queries == 2
    assert oracle.query_many(np.array([1, 2])).tolist() == [1.0, 2.0]
    assert oracle.queries == 4
    # one batch per call; `query` is a one-mask batch through the same function
    assert oracle.query(5) == 5.0
    assert oracle.queries == 5
    assert calls == [[5], [5], [1, 2], [5]]
    with pytest.raises(ValueError):
        oracle.query(8)
    # query_many validates like query, before counting; a dense oracle would
    # otherwise wrap -1 around to s_N
    dense = SetFunctionOracle.from_setfunction(SetFunction(GroundSet(3), np.arange(8.0)))
    for mask in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            dense.query_many([1, mask])
    assert dense.queries == 0
