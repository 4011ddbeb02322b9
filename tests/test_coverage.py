import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from setsp import coverage
from setsp.core import GroundSet, SetFunction, SparseSetFunction, Spectrum
from setsp.coverage import (
    CoverageRepresentation,
    GaussianModel,
    coverage_dense,
    coverage_from_setfunction,
    entropy_setfunction,
    fragment_weights_spectrum,
    gaussian_entropy,
    gaussian_entropy_many,
    intersection_weights,
    mi_check,
    pairwise_mutual_information,
)
from setsp.transforms import dsft, idsft

from reference import coverage_eval, coverage_reference, gaussian_entropy_reference

H_UNIT = 0.5 * (1.0 + math.log(2.0 * math.pi))  # entropy of a unit Gaussian


def _rep(ground, offset, weights: dict) -> CoverageRepresentation:
    """The representation of fragment weights given as {mask: weight}."""
    return CoverageRepresentation(
        offset, SparseSetFunction(ground, list(weights), list(weights.values())))


def _weights(rep) -> dict:
    return dict(zip(rep.fragments.masks.tolist(), rep.fragments.values.tolist()))


def _random_pd(n, rng):
    W = rng.standard_normal((n, n))
    return W @ W.T / n + 0.5 * np.eye(n)


def test_coverage_eval_examples():
    # the definition in `reference`, and the library's batch form at the same subsets
    g = GroundSet(2)
    rep = _rep(g, 1.0, {0b01: 1.0, 0b10: 2.0, 0b11: 0.0})
    assert coverage_eval(rep, 0) == 1.0
    assert coverage_eval(rep, 0b01) == 2.0
    assert coverage_eval(rep, 0b11) == 4.0
    assert coverage_dense(rep).values.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_coverage_eval_constant():
    rep = _rep(GroundSet(3), 5.0, {})
    assert [coverage_eval(rep, A) for A in range(8)] == [5.0] * 8
    assert coverage_dense(rep).values.tolist() == [5.0] * 8


def test_coverage_venn_example():
    # U = {a, b, c}, S1 = {a, b}, S2 = {b, c}, w = (1, 2, 3), c = 0:
    # fragments T_{1} = {a} -> 1, T_{2} = {c} -> 3, T_{12} = {b} -> 2
    g = GroundSet(2)
    rep = _rep(g, 0.0, {0b01: 1.0, 0b10: 3.0, 0b11: 2.0})
    assert coverage_dense(rep).values.tolist() == [0.0, 3.0, 5.0, 6.0]
    assert intersection_weights(rep).coeffs.tolist() == [0.0, -3.0, -5.0, -2.0]
    assert fragment_weights_spectrum(rep).coeffs.tolist() == [6.0, -1.0, -3.0, -2.0]


def test_coverage_dense_matches_pointwise():
    rng = np.random.default_rng(3)
    g = GroundSet(6)
    weights = {int(m): float(w) for m, w in zip(range(1, 64, 3), rng.standard_normal(21))}
    rep = _rep(g, 0.7, weights)
    expected = coverage_reference(0.7, weights, 6)
    assert np.abs(coverage_dense(rep).values - expected).max() < 1e-12
    for A in (0, 5, 63):
        assert abs(coverage_eval(rep, A) - expected[A]) < 1e-12


def test_fragment_zero_rep():
    rep = _rep(GroundSet(3), 5.0, {})
    s3 = intersection_weights(rep)
    assert s3.coeffs.tolist() == [5.0] + [0.0] * 7


def test_coverage_from_setfunction_example():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    rep = coverage_from_setfunction(s)
    assert rep.offset_c == 1.0
    # the zero-weight fragment T_{12} is dropped from the sparse map
    assert _weights(rep) == {0b01: 1.0, 0b10: 2.0}
    assert coverage_dense(rep).values.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_modular_has_singleton_fragments_only():
    rng = np.random.default_rng(5)
    g = GroundSet(6)
    w = rng.standard_normal(6)
    masks = g.masks()
    values = np.zeros(64)
    for i in range(6):
        values += w[i] * ((masks >> i) & 1)
    rep = coverage_from_setfunction(SetFunction(g, values))
    assert all(m.bit_count() == 1 for m in rep.fragments.masks.tolist())
    # modular functions are 1-band-limited in models 3 and 4
    for model in (3, 4):
        spec = dsft(model, SetFunction(g, values))
        high = np.bitwise_count(masks) > 1
        assert np.abs(spec.coeffs[high]).max() < 1e-10


def test_constant_function_has_no_fragments():
    rep = coverage_from_setfunction(SetFunction(GroundSet(4), np.full(16, 2.5)))
    assert len(rep.fragments) == 0
    assert rep.offset_c == 2.5


@pytest.mark.parametrize("n", (1, 3, 5, 8))
def test_spectra_theorems_random_weights(n):
    rng = np.random.default_rng(n)
    g = GroundSet(n)
    weights = {
        int(m): float(v)
        for m, v in zip(range(1, g.size), rng.standard_normal(g.size - 1))
    }
    rep = _rep(g, float(rng.standard_normal()), weights)
    dense = coverage_dense(rep)
    assert np.abs(dsft(3, dense).coeffs - intersection_weights(rep).coeffs).max() < 1e-10
    assert np.abs(dsft(4, dense).coeffs - fragment_weights_spectrum(rep).coeffs).max() < 1e-10


@pytest.mark.parametrize("n", (1, 4, 9))
def test_roundtrip_random_setfunctions(n):
    rng = np.random.default_rng(20 + n)
    g = GroundSet(n)
    s = SetFunction(g, rng.standard_normal(g.size))
    rep = coverage_from_setfunction(s)
    assert np.abs(coverage_dense(rep).values - s.values).max() < 1e-10


def test_coverage_from_setfunction_refuses_what_the_dropped_weights_move():
    # every fragment weight, 9e-13, falls below WEIGHT_DROP_TOL and is
    # dropped; together the 8191 of them move s_N by 7.37e-9, above the 1e-9
    # of the check
    g = GroundSet(13)
    coeffs = np.full(g.size, -9e-13)
    coeffs[0] = 0.0
    s = idsft(4, Spectrum(g, 4, coeffs))
    with pytest.raises(ValueError, match=r"^coverage representation failed to reproduce the "
                                         r"input \(err=7\.3719e-09\)$"):
        coverage_from_setfunction(s)


def test_fragment_mask_validation():
    with pytest.raises(ValueError, match="nonempty"):
        _rep(GroundSet(2), 0.0, {1: 1.0, 0: 1.0})
    with pytest.raises(ValueError, match="mask 7 out of range for n=2 at position 1"):
        _rep(GroundSet(2), 0.0, {1: 1.0, 7: 1.0, 9: 1.0})
    with pytest.raises(ValueError, match="non-integer mask 1.5 at position 0"):
        _rep(GroundSet(2), 0.0, {1.5: 1.0})


def test_many_fragments_are_checked_at_once():
    # one scalar mask check per fragment took 0.25 s for these 65,535
    masks, weights = np.arange(1, 1 << 16)[::-1], np.full((1 << 16) - 1, 0.5)
    start = time.perf_counter()
    rep = CoverageRepresentation(0.0, SparseSetFunction(GroundSet(16), masks, weights))
    assert time.perf_counter() - start < 0.1
    assert rep.fragments.masks.tolist() == list(range(1, 1 << 16))
    assert rep.total_weight == 0.5 * 65535


def test_gaussian_model_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianModel(np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        GaussianModel(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        GaussianModel(np.zeros((2, 3)))
    # a nan passes the symmetry test and the Cholesky does not flag it
    for bad in ([[np.nan]], [[1.0, np.inf], [np.inf, 1.0]], [[2.0, 0.0], [0.0, -np.inf]]):
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            GaussianModel(np.array(bad))


def test_gaussian_entropy_values():
    model = GaussianModel(np.eye(3))
    assert gaussian_entropy(model, 0) == 0.0
    assert abs(gaussian_entropy(model, 0b001) - H_UNIT) < 1e-12
    assert abs(gaussian_entropy(model, 0b111) - 3 * H_UNIT) < 1e-12

    model2 = GaussianModel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = 0.5 * math.log(0.75) + (1.0 + math.log(2.0 * math.pi))
    assert abs(gaussian_entropy(model2, 0b11) - expected) < 1e-12
    assert abs(expected - 2.694036030183455) < 1e-12


def test_gaussian_entropy_many_matches_scalar():
    # n=12 reaches diagonals of 8 and more entries, where numpy's sum is
    # pairwise: every mask must still get the bits of a lone factorization
    rng = np.random.default_rng(9)
    model = GaussianModel(_random_pd(12, rng))
    masks = rng.integers(0, 1 << 12, size=400)
    batched = gaussian_entropy_many(model, masks)
    single = [gaussian_entropy(model, int(m)) for m in masks]
    want = [gaussian_entropy_reference(model.covariance, int(m)) for m in masks]
    assert batched.tobytes() == np.array(want).tobytes()
    assert np.array(single).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("block", (1, 3, None))
@pytest.mark.parametrize("n", (1, 2, 20, 62))
def test_gaussian_entropy_many_is_the_one_matrix_factorization(n, block):
    # 0, N, the top bit alone, and three masks of every cardinality, shuffled,
    # so that every set-bit position, bit 61 included, is peeled
    rng = np.random.default_rng(n)
    model = GaussianModel(_random_pd(n, rng))
    masks = [0, (1 << n) - 1, 1 << (n - 1)]
    masks += [sum(1 << int(i) for i in rng.choice(n, k, replace=False))
              for k in range(n + 1) for _ in range(3)]
    masks = rng.permutation(np.array(masks, dtype=np.int64))
    size = coverage._ENTROPY_BLOCK if block is None else block
    with mock.patch.object(coverage, "_ENTROPY_BLOCK", size):
        got = gaussian_entropy_many(model, masks)
    want = [gaussian_entropy_reference(model.covariance, int(m)) for m in masks]
    assert got.tobytes() == np.array(want).tobytes()


def test_gaussian_entropy_many_stays_within_its_output_and_a_few_blocks():
    rng = np.random.default_rng(16)
    model = GaussianModel(_random_pd(20, rng))
    masks = rng.integers(0, 1 << 20, size=1 << 16)
    # positions, submatrices and factors of a full block at the most common
    # cardinality (a block of k=13 takes 1.7 of these), beside the output and
    # the masks' cardinalities
    block = coverage._ENTROPY_BLOCK * (8 * 10 + 16 * 10**2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = gaussian_entropy_many(model, masks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + 4 * block


def test_gaussian_entropy_refuses_masks_out_of_range():
    # mask 8 read as {x1} and -1 as uninitialized memory before the check
    model = GaussianModel(np.diag([1.0, 4.0, 9.0]))
    for mask in (8, -1):
        with pytest.raises(ValueError, match=f"mask {mask} out of range for n=3"):
            gaussian_entropy_many(model, [1, mask])
        with pytest.raises(ValueError, match="out of range"):
            gaussian_entropy(model, mask)


def test_gaussian_model_of_no_variables():
    model = GaussianModel(np.zeros((0, 0)))
    assert model.n == 0 and model.ground == GroundSet(0)
    assert gaussian_entropy(model, 0) == 0.0
    assert gaussian_entropy_many(model, [0, 0]).tolist() == [0.0, 0.0]
    assert entropy_setfunction(model).values.tolist() == [0.0]


def test_pairwise_mutual_information():
    model = GaussianModel(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = -0.5 * math.log(0.75)
    got = pairwise_mutual_information(model, 1, 2)
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.14384103622589045) < 1e-12
    s3 = dsft(3, entropy_setfunction(model))
    assert abs(s3.coeffs[0b11] + expected) < 1e-12
    with pytest.raises(ValueError):
        pairwise_mutual_information(model, 1, 1)


def test_independent_gaussians_have_flat_spectra():
    model = GaussianModel(np.eye(4))
    s3 = dsft(3, entropy_setfunction(model))
    high = np.bitwise_count(np.arange(16)) >= 2
    assert np.abs(s3.coeffs[high]).max() < 1e-12
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert abs(pairwise_mutual_information(model, i, j)) < 1e-12


def test_joint_entropy_is_empty_model4_coefficient():
    rng = np.random.default_rng(13)
    model = GaussianModel(_random_pd(5, rng))
    s4 = dsft(4, entropy_setfunction(model))
    assert abs(s4.coeffs[0] - gaussian_entropy(model, 0b11111)) < 1e-10


def test_mi_check_report():
    rng = np.random.default_rng(23)
    report = mi_check(GaussianModel(_random_pd(6, rng)))
    assert report.ok
    assert report.max_pair_gap <= 1e-9
    assert report.joint_entropy_gap <= 1e-9


@pytest.mark.parametrize("n", (1, 2, 7))
def test_mi_check_reads_the_gaps_that_per_pair_entropy_queries_give(n):
    # each matrix is factored alone, so the densified entropies are the ones
    # a query of that mask alone returns, bit for bit
    model = GaussianModel(_random_pd(n, np.random.default_rng(30 + n)))
    s3 = dsft(3, entropy_setfunction(model)).coeffs
    s4 = dsft(4, entropy_setfunction(model)).coeffs
    max_pair = 0.0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pair = (1 << (i - 1)) | (1 << (j - 1))
            max_pair = max(max_pair, abs(float(s3[pair]) + pairwise_mutual_information(model, i, j)))
    report = mi_check(model)
    assert report.max_pair_gap.hex() == max_pair.hex()
    assert report.joint_entropy_gap.hex() == abs(
        float(s4[0]) - gaussian_entropy(model, model.ground.full_mask)).hex()


def test_coverage_serialization_roundtrip(tmp_path):
    from setsp.coverage import load_coverage
    from setsp import io as setfn_io

    g = GroundSet(3)
    rep = _rep(g, 1.5, {1: 2.0, 6: -0.5})
    # the file is literally the sparse model-4 spectrum of the fragments
    spectrum = fragment_weights_spectrum(rep)
    path = tmp_path / "frag.setfn"
    setfn_io.write_entries(path, 3, "sparse", 4,
                           [(m, float(spectrum.coeffs[m])) for m in (0, 1, 6)])
    back = load_coverage(path)
    assert back.offset_c == rep.offset_c
    assert _weights(back) == _weights(rep)
    assert np.array_equal(fragment_weights_spectrum(back).coeffs, spectrum.coeffs)


def test_load_coverage_sums_the_offset_left_to_right_in_file_order(tmp_path):
    from setsp.coverage import load_coverage
    from setsp import io as setfn_io

    # 1,023 fragments in shuffled file order: numpy's pairwise sum and a sum
    # in mask order both round differently from the sum in file order
    rng = np.random.default_rng(0)
    masks = rng.permutation(np.arange(1, 1 << 10))
    coeffs = rng.standard_normal(masks.size)
    s_n = 0.1
    path = tmp_path / "frag.setfn"
    setfn_io.write_entries(path, 10, "sparse", 4, [(0, s_n)] + list(zip(masks.tolist(),
                                                                      coeffs.tolist())))
    weights = -coeffs
    want = s_n - sum(weights.tolist())
    assert want != s_n - float(np.sum(weights))
    assert want != s_n - sum(weights[np.argsort(masks)].tolist())
    rep = load_coverage(path)
    assert rep.offset_c.hex() == want.hex()
    assert rep.fragments.masks.tolist() == list(range(1, 1 << 10))


def test_entropy_function_is_submodular():
    rng = np.random.default_rng(29)
    n = 7
    model = GaussianModel(_random_pd(n, rng))
    s = entropy_setfunction(model).values
    masks = np.arange(1 << n)
    for x in range(n):
        for y in range(x + 1, n):
            bx, by = 1 << x, 1 << y
            A = masks[(masks & bx == 0) & (masks & by == 0)]
            lhs = s[A | bx] + s[A | by]
            rhs = s[A | bx | by] + s[A]
            assert (lhs - rhs).min() >= -1e-9
