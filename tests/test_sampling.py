import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from setsp import sampling
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSpectrum,
    SparseSupport,
    Spectrum,
    popcount,
    subsets_of_cardinality_at_most,
)
from setsp.compression import SetFunctionOracle, estimate_relative_errors
from setsp.coverage import GaussianModel, gaussian_entropy, gaussian_entropy_many
from setsp.sampling import (
    eval_sparse_many,
    load_sparse_spectrum,
    load_support,
    oracle_from_sparse_spectrum,
    reconstruct,
    sampling_indices,
    save_sparse_spectrum,
    save_support,
    select_support,
    synthetic_sparse_spectrum,
)
from setsp.transforms import INVERSE, dsft_matrix, idsft

from reference import (
    bandlimited_eval_reference,
    forward_substitution_reference,
    sparse_eval_reference,
)


def test_sampling_indices_examples():
    g = GroundSet(2)
    assert sampling_indices(SparseSupport(g, np.array([0]))).tolist() == [3]
    assert sampling_indices(SparseSupport(g, np.array([0, 1]))).tolist() == [3, 2]
    full = SparseSupport(g, np.arange(4))
    assert sorted(sampling_indices(full).tolist()) == [0, 1, 2, 3]


def test_support_sorting_and_validation():
    g = GroundSet(3)
    support = SparseSupport(g, np.array([6, 1, 0, 7]))
    assert support.freqs.tolist() == [0, 1, 6, 7]  # (cardinality, mask) order
    with pytest.raises(ValueError, match="duplicate"):
        SparseSupport(g, np.array([1, 1]))
    with pytest.raises(ValueError, match="out of range"):
        SparseSupport(g, np.array([8]))
    # masks are not rounded; the message names the first entry that is no mask
    assert SparseSupport(g, np.array([5.0, 2.0])).freqs.tolist() == [2, 5]
    with pytest.raises(ValueError, match="non-integer support mask 1.7 at position 0"):
        SparseSupport(g, [1.7, 2.2])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"non-integer support mask {bad} at position 1"):
            SparseSupport(g, [2.0, bad, 0.5])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectrum_refuses_non_finite_coefficients(bad):
    # an infinite coefficient would give inf where its condition holds and
    # nan, 0 * inf, where a product adds it as a zero term
    g = GroundSet(3)
    for model in range(1, 6):
        with pytest.raises(ValueError, match=f"^value {bad} at mask 1 is not finite$"):
            SparseSpectrum(g, model, [0, 1, 2], [1.0, bad, -np.inf])
    with pytest.raises(ValueError, match="^got 3 masks and 2 values$"):
        SparseSpectrum(g, 4, [0, 1, 2], [1.0, 2.0])
    with pytest.raises(ValueError, match="model must be one of"):
        SparseSpectrum(g, 6, [0, 1, 2], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("model", range(1, 6))
def test_spectrum_keeps_each_coefficient_with_its_frequency(model):
    # (cardinality, mask) order puts 1 before 6: sorting the frequencies
    # alone would put 10.0 at mask 1
    g = GroundSet(3)
    spec = SparseSpectrum(g, model, [6, 1], [10.0, -1.0])
    dense = np.zeros(g.size)
    dense[[6, 1]] = [10.0, -1.0]
    want = idsft(model, Spectrum(g, model, dense)).values
    assert eval_sparse_many(spec, g.masks()).tolist() == want.tolist()
    assert spec.freqs.tolist() == [1, 6] and spec.coeffs.tolist() == [-1.0, 10.0]
    assert not spec.freqs.flags.writeable and not spec.coeffs.flags.writeable
    assert spec.support.freqs is spec.freqs and spec.support.ground == g


@pytest.mark.parametrize("n", (2, 4, 8))
def test_triangularity_of_sampling_matrix(n):
    rng = np.random.default_rng(n)
    g = GroundSet(n)
    k = min(12, g.size)
    support = SparseSupport(g, rng.choice(g.size, size=k, replace=False))
    queries = sampling_indices(support)
    Minv = dsft_matrix(4, INVERSE, n)
    T = Minv[np.ix_(queries, support.freqs)]
    assert np.array_equal(np.diag(T), np.ones(k))
    assert np.abs(np.triu(T, 1)).max() == 0.0
    # and T really is the subset-indicator matrix
    expected = (support.freqs[None, :] & ~support.freqs[:, None]) == 0
    assert np.array_equal(T, expected.astype(float))


def test_reconstruct_two_frequency_example():
    g = GroundSet(2)
    oracle = SetFunctionOracle.from_setfunction(SetFunction(g, [0.0, 0.0, 5.0, 2.0]))
    spec = reconstruct(oracle, SparseSupport(g, np.array([0, 1])))
    assert spec.coeffs.tolist() == [2.0, 3.0]
    assert oracle.queries == 2


def test_reconstruct_constant_function():
    g = GroundSet(3)
    oracle = SetFunctionOracle(g, lambda masks: np.full(masks.shape, 4.25))
    spec = reconstruct(oracle, SparseSupport(g, np.array([0])))
    assert spec.coeffs.tolist() == [4.25]


@pytest.mark.parametrize("trial", range(3))
def test_reconstruct_exact_recovery(trial):
    g = GroundSet(20)
    truth = synthetic_sparse_spectrum(g, 199, seed=300 + trial)
    oracle = oracle_from_sparse_spectrum(truth)
    got = reconstruct(oracle, truth.support)
    assert oracle.queries == len(truth.support) == 200
    scale = np.abs(truth.coeffs).max()
    assert np.abs(got.coeffs - truth.coeffs).max() <= 1e-8 * scale


def test_eval_sparse_examples():
    g = GroundSet(2)
    spec = SparseSpectrum(g, 4, [0, 1], [2.0, 3.0])
    assert eval_sparse_many(spec, np.array([0, 1, 2, 3])).tolist() == [5.0, 2.0, 5.0, 2.0]
    empty = SparseSpectrum(g, 4, [], [])
    assert eval_sparse_many(empty, [3, 0]).tolist() == [0.0, 0.0]
    assert eval_sparse_many(spec, np.zeros((2, 0), dtype=np.int64)).shape == (2, 0)


@pytest.mark.parametrize("n,freqs,coeffs,masks,want", [
    # 0.5 - 0.5 cancels exactly in the sign frame of {x0}, where the plain
    # sum has 0.5 + -0.5; back in frame 0 that zero is -0.0 until + 0.0
    (1, [0, 1], [1.0, 1.0], [1, 0], [0.0, 1.0]),
    (3, [], [], [0, 5, 7], [0.0, 0.0, 0.0]),
    (3, [0], [-2.0], [0, 5, 7], [-0.25, -0.25, -0.25]),
    (3, [0], [-0.0], [0, 5], [0.0, 0.0]),
])
def test_model5_eval_of_edge_supports_keeps_its_bits(n, freqs, coeffs, masks, want):
    out = eval_sparse_many(SparseSpectrum(GroundSet(n), 5, freqs, coeffs), masks)
    assert out.tobytes() == np.array(want).tobytes()


X17 = 0b1_0110_0000_0110_1001  # a mask at n=17


@pytest.mark.parametrize("bad", [X17 | 1 << 40, X17 - (1 << 17), X17 | 1 << 17, -1])
def test_eval_sparse_many_refuses_masks_out_of_range(bad):
    # folding onto the low n bits would return the value at X17; counting the
    # cardinality of the raw int64 mask would return a wrong value
    spec = synthetic_sparse_spectrum(GroundSet(17), 30, seed=17)
    oracle = oracle_from_sparse_spectrum(spec)
    for evaluate in (lambda m: oracle.query_many([X17, m, X17]),
                     lambda m: eval_sparse_many(spec, np.array([X17, m, X17]))):
        with pytest.raises(ValueError, match=f"mask {bad} out of range for n=17"):
            evaluate(bad)
    assert oracle.queries == 0


@pytest.mark.parametrize("bad,message", [
    (1.5, "non-integer mask 1.5 at position"),
    (2**63, "out of range for n=3 at position"),
])
def test_oracle_boundaries_refuse_what_is_no_mask(bad, message):
    # casting to int64 first read 1.5 as mask 1 and overflowed on 2**63
    spec = SparseSpectrum(GroundSet(3), 4, [0, 3], np.ones(2))
    oracle = oracle_from_sparse_spectrum(spec)
    model = GaussianModel(np.diag([1.0, 4.0, 9.0]))
    for evaluate in (lambda: eval_sparse_many(spec, [2, bad]), lambda: oracle.query_many([bad]),
                     lambda: oracle.query_many([2, bad]), lambda: gaussian_entropy(model, bad),
                     lambda: gaussian_entropy_many(model, [[2, bad]])):
        with pytest.raises(ValueError, match=message):
            evaluate()
    assert oracle.queries == 0


def test_eval_sparse_many_on_a_large_support_stays_within_its_output():
    # 2**16 probes against 2**14 terms: the hit words of all of them at once
    # would take 128 MiB, one group of one probe block 256 KiB
    spec = synthetic_sparse_spectrum(GroundSet(20), (1 << 14) - 1, seed=20)
    probes = np.random.default_rng(20).integers(0, 1 << 20, size=1 << 16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = eval_sparse_many(spec, probes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (4 << 20)


def test_model5_band_eval_holds_its_sign_planes_in_a_few_mib():
    # the order-3 band at n=20 recurs in 34 steps; 32 planes of every probe
    # would take 8 MiB per 2**15 probes
    g = GroundSet(20)
    support = subsets_of_cardinality_at_most(g, 3)
    spec = SparseSpectrum(g, 5, support, np.random.default_rng(3).standard_normal(support.size))
    probes = np.random.default_rng(20).integers(0, 1 << 20, size=1 << 15)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = eval_sparse_many(spec, probes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (3 << 20), f"peak {peak / 2**20:.1f} MiB"


class _NumpyCountingAddAt:
    """numpy as the sampling module sees it, counting the calls of np.add.at."""

    def __init__(self):
        self.add_at_calls = 0
        self.add = lambda *args, **kwargs: np.add(*args, **kwargs)
        self.add.at = self._add_at

    def _add_at(self, *args):
        self.add_at_calls += 1
        np.add.at(*args)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("model", [1, 2])
def test_terms_with_a_small_t_never_reach_the_tables(model):
    # T = N \ B, so |T| falls along the support: the terms with
    # |T| >= _TABLE_MIN_CARD come first, and they alone go to the tables
    g = GroundSet(10)
    low = subsets_of_cardinality_at_most(g, 2)
    rng = np.random.default_rng(22)
    spec = SparseSpectrum(g, model, np.concatenate((low, g.full_mask ^ low)),
                          rng.standard_normal(2 * low.size))
    probes = rng.integers(0, g.size, size=2000)
    with mock.patch.object(sampling, "_add_table_hits", wraps=sampling._add_table_hits) as spy:
        got = eval_sparse_many(spec, probes)
    tabled = np.concatenate([call.args[1] for call in spy.call_args_list])
    tests = spec.freqs ^ g.full_mask
    assert tabled.tolist() == tests[popcount(tests) >= sampling._TABLE_MIN_CARD].tolist()
    want = bandlimited_eval_reference(model, g.n, spec.freqs.tolist(), spec.coeffs.tolist(),
                                      probes.tolist())
    assert got.tobytes() == np.array(want).tobytes()


def test_probes_that_hit_every_table_term_stay_within_a_few_slices():
    # every empty-set probe hits all 1,024 |T| = 5 terms: expanded, the 2**21
    # hits of one probe block would take 97 MiB and a scattered add each, so
    # every step sweeps its terms instead
    rng = np.random.default_rng(21)
    draws = np.array([rng.choice(20, 5, replace=False) for _ in range(1200)])
    freqs = np.unique((1 << draws).sum(axis=1))[:1024]
    spec = SparseSpectrum(GroundSet(20), 4, freqs, rng.standard_normal(1024))
    probes = np.zeros(1 << 16, dtype=np.int64)
    counting = _NumpyCountingAddAt()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with mock.patch.object(sampling, "np", counting):
            out = eval_sparse_many(spec, probes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + (20 << 20)
    assert counting.add_at_calls == 0
    want = sparse_eval_reference(spec.support.freqs.tolist(), spec.coeffs.tolist(), [0])
    assert out.tobytes() == np.full(out.size, want[0]).tobytes()


def test_dense_table_blocks_are_one_sweep_per_term_group():
    # every empty-set probe hits all 2,500 |T| = 5 terms, so all 32 probe
    # blocks of each of the three term groups are dense: one sweep per group
    rng = np.random.default_rng(21)
    draws = np.array([rng.choice(20, 5, replace=False) for _ in range(3000)])
    freqs = np.unique((1 << draws).sum(axis=1))[:2500]
    spec = SparseSpectrum(GroundSet(20), 4, freqs, rng.standard_normal(2500))
    probes = np.zeros(1 << 16, dtype=np.int64)
    with mock.patch.object(sampling, "_sweep", wraps=sampling._sweep) as spy:
        out = eval_sparse_many(spec, probes)
    swept = [(call.args[0].size, call.args[1].tolist()) for call in spy.call_args_list
             if call.args[1].size]
    group = 64 * sampling._TABLE_WORDS
    assert swept == [(probes.size, freqs[i : i + group].tolist())
                     for i in range(0, freqs.size, group)]
    want = sparse_eval_reference(freqs.tolist(), spec.coeffs.tolist(), [0])
    assert out.tobytes() == np.full(out.size, want[0]).tobytes()


def test_an_oracle_and_its_fit_share_one_table_plan_and_keep_nothing():
    # the elicitation of a 499-term bidder at n=20: its oracle keeps the plan
    # of its 100k probes, and the fit on the same support applies and drops it
    truth = synthetic_sparse_spectrum(GroundSet(20), 499, seed=9000)
    fit = SparseSpectrum(truth.ground, 4, truth.freqs, truth.coeffs * 1.5)
    kept = []

    def fitted(masks):
        kept.append(sampling._kept_plan is not None)
        return eval_sparse_many(fit, masks)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        error, = estimate_relative_errors(oracle_from_sparse_spectrum(truth), [fitted],
                                          100_000, seed=9000)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept == [True] and sampling._kept_plan is None
    assert held < 1 << 16, f"{held} bytes held"
    assert error == pytest.approx(0.5, rel=1e-12)


def test_sparse_to_dense_consistency():
    g = GroundSet(6)
    spec = synthetic_sparse_spectrum(g, 10, seed=4)
    dense = np.zeros(g.size)
    dense[spec.support.freqs] = spec.coeffs
    for model in range(1, 6):
        want = idsft(model, Spectrum(g, model, dense)).values
        got = eval_sparse_many(SparseSpectrum(g, model, spec.freqs, spec.coeffs), g.masks())
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max(), model


def _sparse(ground, entries, model=4):
    return SparseSpectrum(ground, model, list(entries), list(entries.values()))


def test_select_support_exact_sparse_training():
    g = GroundSet(4)
    spec = _sparse(g, {0: 5.0, 3: -2.0, 9: 1.0})
    support = select_support([spec], 3)
    assert set(support.freqs.tolist()) == {0, 3, 9}


def test_select_support_tie_break():
    g = GroundSet(3)
    support = select_support([_sparse(g, {2: 1.0}), _sparse(g, {4: 1.0})], 1)
    assert support.freqs.tolist() == [2]  # equal scores: lower mask wins
    support = select_support([_sparse(g, {3: 1.0}), _sparse(g, {4: 1.0})], 1)
    assert support.freqs.tolist() == [4]  # then lower cardinality before lower mask


def test_select_support_pads_with_the_lowest_zero_score_masks():
    g = GroundSet(3)
    # one frequency scores above zero; a stored zero ranks like any absent mask
    support = select_support([_sparse(g, {5: 1.0, 6: 0.0})], 4)
    assert support.freqs.tolist() == [0, 1, 2, 5]
    # padding skips what is already chosen
    assert select_support([_sparse(g, {1: 2.0})], 3).freqs.tolist() == [0, 1, 2]
    assert select_support([_sparse(g, {1: 2.0})], 8).freqs.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
    assert len(select_support([_sparse(g, {1: 2.0})], 0)) == 0


def test_select_support_past_the_dense_cap():
    g = GroundSet(62)
    top = 1 << 61
    support = select_support([_sparse(g, {top: -3.0, 6: 0.5}), _sparse(g, {6: 0.5})], 4)
    assert support.freqs.tolist() == [0, 1, top, 6]  # (cardinality, mask) order


def test_select_support_validation():
    with pytest.raises(ValueError, match="at least one"):
        select_support([], 1)
    g = GroundSet(2)
    with pytest.raises(TypeError, match="sparse model 4"):
        select_support([Spectrum(g, 4, np.zeros(4))], 1)
    with pytest.raises(TypeError, match="sparse model 4, got a model-5 SparseSpectrum"):
        select_support([_sparse(g, {0: 1.0}), _sparse(g, {0: 1.0}, model=5)], 1)
    with pytest.raises(ValueError, match="^mismatched ground sets: n=2 vs n=3$"):
        select_support([_sparse(g, {0: 1.0}), _sparse(GroundSet(3), {0: 1.0})], 1)
    with pytest.raises(ValueError, match=r"^support size k must be an integer in \[0, 4\], "
                                         r"got 5$"):
        select_support([_sparse(g, {0: 1.0})], 5)


def test_synthetic_spectrum_properties():
    g = GroundSet(12)
    spec = synthetic_sparse_spectrum(g, 30, seed=9)
    again = synthetic_sparse_spectrum(g, 30, seed=9)
    assert np.array_equal(spec.coeffs, again.coeffs)
    assert np.array_equal(spec.support.freqs, again.support.freqs)
    assert len(spec.support) == 31  # 30 frequencies plus the empty set
    assert spec.support.freqs[0] == 0
    nonzero = spec.coeffs[1:]
    assert spec.coeffs[0] >= np.abs(nonzero).sum()  # dominant offset
    zero = synthetic_sparse_spectrum(g, 0, seed=9)
    assert eval_sparse_many(zero, [7]).tolist() == [0.0]


def test_synthetic_spectrum_frequencies():
    # k distinct nonempty frequencies of the lattice, as many as it holds
    g = GroundSet(3)
    spec = synthetic_sparse_spectrum(g, 7, seed=2)
    assert sorted(spec.support.freqs.tolist()) == list(range(8))
    with pytest.raises(ValueError, match=r"^number of nonempty frequencies must be an integer "
                                         r"in \[0, 7\], got 8$"):
        synthetic_sparse_spectrum(g, 8, seed=2)


def test_serialization_roundtrip(tmp_path):
    g = GroundSet(8)
    spec = synthetic_sparse_spectrum(g, 12, seed=3)
    spec_path = tmp_path / "spec.setfn"
    save_sparse_spectrum(spec_path, spec)
    back = load_sparse_spectrum(spec_path)
    assert np.array_equal(back.support.freqs, spec.support.freqs)
    assert np.array_equal(back.coeffs, spec.coeffs)

    # a spectrum of any model keeps its model
    other = SparseSpectrum(g, 2, spec.freqs, spec.coeffs)
    save_sparse_spectrum(spec_path, other)
    back = load_sparse_spectrum(spec_path)
    assert back.model == 2 and np.array_equal(back.support.freqs, spec.support.freqs)
    assert np.array_equal(back.coeffs, spec.coeffs)

    support_path = tmp_path / "support.setfn"
    save_support(support_path, spec.support)
    support = load_support(support_path)
    assert np.array_equal(support.freqs, spec.support.freqs)


def test_batched_reconstruct_on_a_whole_lattice():
    # rows include up to 63 others, and coefficients span 26 decades, so a
    # summation order other than the per-row `.sum()` shows in the bits
    g = GroundSet(6)
    rng = np.random.default_rng(66)
    support = SparseSupport(g, np.arange(g.size))
    truths = [
        SparseSpectrum(g, 4, rng.choice(g.size, 40, replace=False),
                       rng.standard_normal(40) * 10.0 ** rng.uniform(-13, 13, 40))
        for _ in range(4)
    ]
    oracles = [oracle_from_sparse_spectrum(truth) for truth in truths]
    batched = reconstruct(oracles, support)
    assert [oracle.queries for oracle in oracles] == [g.size] * 4
    queries = sampling_indices(support)
    for truth, got in zip(truths, batched):
        one = reconstruct(oracle_from_sparse_spectrum(truth), support)
        assert got.coeffs.tobytes() == one.coeffs.tobytes()
        want = forward_substitution_reference(support.freqs.tolist(),
                                              eval_sparse_many(truth, queries).tolist())
        assert one.coeffs.tobytes() == want.tobytes()


def test_reconstruct_refuses_an_oracle_on_another_ground_set():
    # the queries N - B_i of a support on n=3 name other sets at n=5
    truth = SparseSpectrum(GroundSet(5), 4, [0, 1, 16], [4.0, 1.0, 2.0])
    support = SparseSupport(GroundSet(3), np.array([0, 1]))
    same = oracle_from_sparse_spectrum(synthetic_sparse_spectrum(GroundSet(3), 2, seed=3))
    other = oracle_from_sparse_spectrum(truth)
    for oracles in (other, [same, other]):
        with pytest.raises(ValueError, match="^mismatched ground sets: n=5 vs n=3$"):
            reconstruct(oracles, support)
    assert same.queries == other.queries == 0


def test_reconstruct_matches_partial_spectrum():
    # an oracle that is NOT sparse: reconstruction must still match it on the
    # queried subsets
    rng = np.random.default_rng(31)
    n = 6
    g = GroundSet(n)
    values = rng.standard_normal(g.size)
    oracle = SetFunctionOracle.from_setfunction(SetFunction(g, values))
    support = SparseSupport(g, rng.choice(g.size, size=10, replace=False))
    spec = reconstruct(oracle, support)
    queries = sampling_indices(support)
    assert np.abs(eval_sparse_many(spec, queries) - values[queries]).max() < 1e-9


def test_scalar_and_batched_queries_return_the_same_bits():
    # one-probe calls and the oracle's batch path add the disjoint
    # coefficients sequentially from +0.0; a pairwise sum would differ on 575
    # of these 1024 masks
    g = GroundSet(10)
    spectrum = synthetic_sparse_spectrum(g, 499, seed=3)
    oracle = oracle_from_sparse_spectrum(spectrum)
    batch = oracle.query_many(np.arange(g.size))
    scalar = np.concatenate([eval_sparse_many(spectrum, [m]) for m in range(g.size)])
    assert scalar.tobytes() == batch.tobytes()
    queried = np.concatenate([oracle.query_many([m]) for m in range(0, g.size, 31)])
    assert queried.tobytes() == batch[::31].tobytes()


def test_sparse_eval_and_reconstruct_golden_bits():
    # digests recorded from the unblocked per-frequency loop; 75000 probes
    # cross a block edge of eval_sparse_many
    spec = synthetic_sparse_spectrum(GroundSet(16), 499, seed=1013)
    probes = np.random.default_rng(1013).integers(0, 1 << 16, size=(300, 250))
    values = eval_sparse_many(spec, probes)
    assert values.shape == (300, 250)
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "6fb351011d8a775c7642a121576f265022cf55469f2e9a2d68cba09a1bb08583"
    )
    got = reconstruct(oracle_from_sparse_spectrum(spec), spec.support)
    assert hashlib.sha256(got.coeffs.tobytes()).hexdigest() == (
        "20b1197c3ac091661d490c2d15c2e963d8c661c043a0e5c0f5f56d4f18c5f72e"
    )
