import hashlib

import numpy as np
import pytest

from setsp.core import GroundSet, SetFunction, SparseSpectrum, SparseSupport, Spectrum
from setsp.compression import SetFunctionOracle
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

from reference import forward_substitution_reference


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
    support = SparseSupport(GroundSet(3), np.array([0, 1, 2]))
    for model in range(1, 6):
        with pytest.raises(ValueError, match=f"non-finite coefficient {bad} at position 1"):
            SparseSpectrum(support, model, [1.0, bad, -np.inf])
    with pytest.raises(ValueError, match="expected 3 values"):
        SparseSpectrum(support, 4, [1.0, 2.0])
    with pytest.raises(ValueError, match="model must be one of"):
        SparseSpectrum(support, 6, [1.0, 2.0, 3.0])


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
    spec = SparseSpectrum(SparseSupport(g, np.array([0, 1])), 4, np.array([2.0, 3.0]))
    assert eval_sparse_many(spec, np.array([0, 1, 2, 3])).tolist() == [5.0, 2.0, 5.0, 2.0]
    empty = SparseSpectrum(SparseSupport(g, np.array([], dtype=np.int64)), 4, np.array([]))
    assert eval_sparse_many(empty, [3, 0]).tolist() == [0.0, 0.0]
    assert eval_sparse_many(spec, np.zeros((2, 0), dtype=np.int64)).shape == (2, 0)


X17 = 0b1_0110_0000_0110_1001  # a mask at n=17


@pytest.mark.parametrize("bad", [X17 | 1 << 40, X17 - (1 << 17), X17 | 1 << 17, -1])
def test_eval_sparse_many_refuses_masks_out_of_range(bad):
    # folding onto the low n bits would return the value at X17; counting the
    # cardinality of the raw int64 mask would return a wrong value
    spec = synthetic_sparse_spectrum(GroundSet(17), 30, seed=17)
    oracle = oracle_from_sparse_spectrum(spec)
    for evaluate in (oracle.query, lambda m: eval_sparse_many(spec, np.array([X17, m, X17]))):
        with pytest.raises(ValueError, match=f"mask {bad} out of range for n=17"):
            evaluate(bad)
    assert oracle.queries == 0


def test_sparse_to_dense_consistency():
    g = GroundSet(6)
    spec = synthetic_sparse_spectrum(g, 10, seed=4)
    dense = np.zeros(g.size)
    dense[spec.support.freqs] = spec.coeffs
    for model in range(1, 6):
        want = idsft(model, Spectrum(g, model, dense)).values
        got = eval_sparse_many(SparseSpectrum(spec.support, model, spec.coeffs), g.masks())
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max(), model


def _sparse(ground, entries, model=4):
    support = SparseSupport(ground, np.array(list(entries), dtype=np.int64))
    return SparseSpectrum(support, model, np.array([entries[int(B)] for B in support.freqs]))


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
    with pytest.raises(ValueError, match="ground"):
        select_support([_sparse(g, {0: 1.0}), _sparse(GroundSet(3), {0: 1.0})], 1)
    with pytest.raises(ValueError, match="cannot select 5 of 4"):
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


def test_synthetic_spectrum_pool():
    g = GroundSet(10)
    pool = np.array([3, 17, 40, 100, 512])
    spec = synthetic_sparse_spectrum(g, 4, seed=2, freq_pool=pool)
    assert set(spec.support.freqs.tolist()) - {0} <= set(pool.tolist())


def test_serialization_roundtrip(tmp_path):
    g = GroundSet(8)
    spec = synthetic_sparse_spectrum(g, 12, seed=3)
    spec_path = tmp_path / "spec.setfn"
    save_sparse_spectrum(spec_path, spec)
    back = load_sparse_spectrum(spec_path)
    assert np.array_equal(back.support.freqs, spec.support.freqs)
    assert np.array_equal(back.coeffs, spec.coeffs)

    # a spectrum of any model keeps its model
    other = SparseSpectrum(spec.support, 2, spec.coeffs)
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
        SparseSpectrum(SparseSupport(g, rng.choice(g.size, 40, replace=False)), 4,
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
    truth = SparseSpectrum(SparseSupport(GroundSet(5), np.array([0, 1, 16])), 4,
                           np.array([4.0, 1.0, 2.0]))
    support = SparseSupport(GroundSet(3), np.array([0, 1]))
    same = oracle_from_sparse_spectrum(synthetic_sparse_spectrum(GroundSet(3), 2, seed=3))
    other = oracle_from_sparse_spectrum(truth)
    for oracles in (other, [same, other]):
        with pytest.raises(ValueError, match="oracle on n=5 cannot answer a support on n=3"):
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
    queried = np.array([oracle.query(m) for m in range(0, g.size, 31)])
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
