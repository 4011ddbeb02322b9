import hashlib
import inspect
import math

import numpy as np
import pytest

from functools import partial

from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSpectrum,
    SparseSupport,
    subsets_of_cardinality_at_most,
)
from setsp.compression import (
    SetFunctionOracle,
    compress_band,
    dsft4_coefficient_by_queries,
    estimate_relative_error,
    estimate_relative_errors,
    wht_regression,
)
from setsp.coverage import GaussianModel, entropy_setfunction
from setsp.experiments import entropy_oracle, random_rbf_covariance
from setsp.sampling import eval_sparse_many, oracle_from_sparse_spectrum
from setsp.transforms import INVERSE, dsft, dsft_inplace


def _dense_oracle(values, n):
    return SetFunctionOracle.from_setfunction(SetFunction(GroundSet(n), values))


def _band(ground, model, freqs, coeffs):
    return SparseSpectrum(SparseSupport(ground, freqs), model, coeffs)


def test_coefficient_empty_set_is_one_query():
    oracle = _dense_oracle([1.0, 2.0, 3.0, 4.0], 2)
    assert dsft4_coefficient_by_queries(oracle, 0) == 4.0
    assert oracle.queries == 1


def test_coefficient_singleton_example():
    oracle = _dense_oracle([1.0, 2.0, 3.0, 4.0], 2)
    assert dsft4_coefficient_by_queries(oracle, 0b01) == -1.0
    assert oracle.queries == 2


def test_coefficient_pair_vanishes_on_modular():
    n = 5
    g = GroundSet(n)
    w = np.arange(1.0, n + 1)
    masks = g.masks()
    values = np.zeros(g.size)
    for i in range(n):
        values += w[i] * ((masks >> i) & 1)
    oracle = _dense_oracle(values, n)
    assert abs(dsft4_coefficient_by_queries(oracle, 0b00011)) < 1e-12
    assert oracle.queries == 4  # 2**|B| without a memo


def test_coefficient_queries_are_one_batch_with_the_memoised_bits():
    rng = np.random.default_rng(23)
    n = 8
    freqs = np.unique(rng.integers(0, 1 << n, size=40))
    truth = _band(GroundSet(n), 4, freqs, rng.standard_normal(freqs.size))
    memoised = compress_band(oracle_from_sparse_spectrum(truth), n)
    for B in (0, 0b1, 0b10110101, (1 << n) - 1):
        oracle = oracle_from_sparse_spectrum(truth)
        oracle.query = None  # only query_many may be asked
        got = dsft4_coefficient_by_queries(oracle, B)
        assert oracle.queries == 1 << bin(B).count("1")
        want = memoised.coeffs[np.flatnonzero(memoised.support.freqs == B)[0]]
        assert np.float64(got).tobytes() == want.tobytes()

    # a memo that holds some sets already: only the others are asked
    B = 0b10110101
    base = ((1 << n) - 1) & ~B
    held = [base, base | 0b1, base | B]
    memo = dict(zip(held, oracle_from_sparse_spectrum(truth).query_many(np.array(held)).tolist()))
    oracle = oracle_from_sparse_spectrum(truth)
    got = dsft4_coefficient_by_queries(oracle, B, memo)
    assert oracle.queries == (1 << 5) - len(held)
    assert len(memo) == 1 << 5
    assert np.float64(got).tobytes() == memoised.coeffs[memoised.support.freqs == B].tobytes()


@pytest.mark.parametrize("n", (1, 4, 8))
def test_coefficients_match_dense_transform(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(1 << n)
    spec = dsft(4, SetFunction(GroundSet(n), values))
    oracle = _dense_oracle(values, n)
    memo = {}
    for B in range(1 << n):
        got = dsft4_coefficient_by_queries(oracle, B, memo)
        assert abs(got - spec.coeffs[B]) < 1e-10


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


def test_eval_bandlimited_examples():
    # the coefficients 2 at {} and 3 at {x1} under each model, at the four
    # subsets of n=2: the columns of the inverse transform that they weigh
    g = GroundSet(2)
    want = {1: [0.0, 0.0, 3.0, -1.0], 2: [5.0, -3.0, 0.0, 0.0], 3: [2.0, -1.0, 2.0, -1.0],
            4: [5.0, 2.0, 5.0, 2.0], 5: [1.25, -0.25, 1.25, -0.25]}
    for model, values in want.items():
        approx = _band(g, model, [0, 1], [2.0, 3.0])
        assert eval_sparse_many(approx, np.arange(4)).tolist() == values


@pytest.mark.parametrize("model", range(1, 6))
def test_scalar_and_batched_band_eval_agree_bitwise(model):
    g = GroundSet(10)
    support = subsets_of_cardinality_at_most(g, 2)
    coeffs = np.random.default_rng(model).standard_normal(support.size)
    approx = _band(g, model, support, coeffs)
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
    out = eval_sparse_many(_band(g, model, support, coeffs), masks)
    assert out.shape == masks.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == BAND_EVAL_SHA256[model]


def test_wht_regression_square_system_is_exact():
    rng = np.random.default_rng(12)
    n = 4
    g = GroundSet(n)
    values = rng.standard_normal(16)
    spec = dsft(5, SetFunction(g, values))
    approx = wht_regression([(A, float(values[A])) for A in range(16)], SparseSupport(g, range(16)))
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
    approx = wht_regression([(A, float(signal[A])) for A in range(g.size)],
                            SparseSupport(g, support))
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
    projection = wht_regression(zip(masks.tolist(), s.values.tolist()), support)
    truncated = dsft(5, s).coeffs[support.freqs]
    assert np.abs(projection.coeffs - truncated).max() <= 1e-12 * np.abs(truncated).max()
    band = compress_band(entropy_oracle(model), 2)
    band_error = np.linalg.norm(eval_sparse_many(band, masks) - s.values)
    projection_error = np.linalg.norm(eval_sparse_many(projection, masks) - s.values)
    assert band_error >= projection_error


def test_wht_regression_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError, match="at least one"):
        wht_regression([], SparseSupport(g, [0]))
    with pytest.raises(ValueError, match="distinct"):
        wht_regression([(1, 0.5), (1, 0.5)], SparseSupport(g, [0]))


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


def test_estimate_error_rejects_zero_signal():
    oracle = _dense_oracle(np.zeros(8), 3)
    approx = partial(eval_sparse_many, _band(GroundSet(3), 4, [0], [0.0]))
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
    with pytest.raises(ValueError, match=f"{side} returned non-finite value .* at mask 5"):
        estimate_relative_error(oracle, approx_fn, 200, seed=1)


def test_estimate_errors_share_one_oracle_pass():
    rng = np.random.default_rng(17)
    n = 8
    values = rng.standard_normal(1 << n) + 2.0
    oracle = _dense_oracle(values, n)
    band = compress_band(_dense_oracle(values, n), 1)
    wht = wht_regression([(A, float(values[A])) for A in range(0, 1 << n, 3)], band.support)
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
    with pytest.raises(ValueError, match=f"{side} returned non-finite value .* at mask 6( |$)"):
        estimate_relative_errors(oracle, [clean, approx_fn], 64, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_errors_name_the_failing_evaluator(bad):
    oracle = SetFunctionOracle(GroundSet(3), lambda masks: 1.0 + masks)
    clean = lambda masks: 1.0 + masks  # noqa: E731
    tainted = lambda masks: np.where(masks == 5, bad, 1.0 + masks)  # noqa: E731
    with pytest.raises(ValueError, match=r"non-finite value .* at mask 5 \(evaluator 1\)"):
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
    assert oracle.query(5) == 5.0
    assert oracle.query(5) == 5.0
    assert oracle.queries == 2
    assert oracle.query_many(np.array([1, 2])).tolist() == [1.0, 2.0]
    assert oracle.queries == 4
    # `query` is a one-mask batch through the same function
    assert calls == [[5], [5], [1, 2]]
    with pytest.raises(ValueError):
        oracle.query(8)
    # query_many validates like query, before counting; a dense oracle would
    # otherwise wrap -1 around to s_N
    dense = SetFunctionOracle.from_setfunction(SetFunction(GroundSet(3), np.arange(8.0)))
    for mask in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            dense.query_many([1, mask])
    assert dense.queries == 0
