import math

import numpy as np
import pytest

from setsp.core import GroundSet, SetFunction
from setsp.coverage import (
    CoverageRepresentation,
    GaussianModel,
    coverage_dense,
    coverage_eval,
    coverage_from_setfunction,
    entropy_setfunction,
    fragment_weights_spectrum,
    gaussian_entropy,
    gaussian_entropy_many,
    intersection_weights,
    mi_check,
    pairwise_mutual_information,
)
from setsp.transforms import dsft

from reference import coverage_reference

H_UNIT = 0.5 * (1.0 + math.log(2.0 * math.pi))  # entropy of a unit Gaussian


def _random_pd(n, rng):
    W = rng.standard_normal((n, n))
    return W @ W.T / n + 0.5 * np.eye(n)


def test_coverage_eval_examples():
    g = GroundSet(2)
    rep = CoverageRepresentation(g, 1.0, {0b01: 1.0, 0b10: 2.0, 0b11: 0.0})
    assert coverage_eval(rep, 0) == 1.0
    assert coverage_eval(rep, 0b01) == 2.0
    assert coverage_eval(rep, 0b11) == 4.0


def test_coverage_eval_constant():
    rep = CoverageRepresentation(GroundSet(3), 5.0, {})
    assert [coverage_eval(rep, A) for A in range(8)] == [5.0] * 8


def test_coverage_venn_example():
    # U = {a, b, c}, S1 = {a, b}, S2 = {b, c}, w = (1, 2, 3), c = 0:
    # fragments T_{1} = {a} -> 1, T_{2} = {c} -> 3, T_{12} = {b} -> 2
    g = GroundSet(2)
    rep = CoverageRepresentation(g, 0.0, {0b01: 1.0, 0b10: 3.0, 0b11: 2.0})
    assert coverage_dense(rep).values.tolist() == [0.0, 3.0, 5.0, 6.0]
    assert intersection_weights(rep).coeffs.tolist() == [0.0, -3.0, -5.0, -2.0]
    assert fragment_weights_spectrum(rep).coeffs.tolist() == [6.0, -1.0, -3.0, -2.0]


def test_coverage_dense_matches_pointwise():
    rng = np.random.default_rng(3)
    g = GroundSet(6)
    weights = {int(m): float(w) for m, w in zip(range(1, 64, 3), rng.standard_normal(21))}
    rep = CoverageRepresentation(g, 0.7, weights)
    expected = coverage_reference(0.7, weights, 6)
    assert np.abs(coverage_dense(rep).values - expected).max() < 1e-12
    for A in (0, 5, 63):
        assert abs(coverage_eval(rep, A) - expected[A]) < 1e-12


def test_fragment_zero_rep():
    rep = CoverageRepresentation(GroundSet(3), 5.0, {})
    s3 = intersection_weights(rep)
    assert s3.coeffs.tolist() == [5.0] + [0.0] * 7


def test_coverage_from_setfunction_example():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    rep = coverage_from_setfunction(s)
    assert rep.offset_c == 1.0
    # the zero-weight fragment T_{12} is dropped from the sparse map
    assert rep.fragment_weights == {0b01: 1.0, 0b10: 2.0}
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
    assert all(m.bit_count() == 1 for m in rep.fragment_weights)
    # modular functions are 1-band-limited in models 3 and 4
    for model in (3, 4):
        spec = dsft(model, SetFunction(g, values))
        high = np.bitwise_count(masks) > 1
        assert np.abs(spec.coeffs[high]).max() < 1e-10


def test_constant_function_has_no_fragments():
    rep = coverage_from_setfunction(SetFunction(GroundSet(4), np.full(16, 2.5)))
    assert rep.fragment_weights == {}
    assert rep.offset_c == 2.5


@pytest.mark.parametrize("n", (1, 3, 5, 8))
def test_spectra_theorems_random_weights(n):
    rng = np.random.default_rng(n)
    g = GroundSet(n)
    weights = {
        int(m): float(v)
        for m, v in zip(range(1, g.size), rng.standard_normal(g.size - 1))
    }
    rep = CoverageRepresentation(g, float(rng.standard_normal()), weights)
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


def test_fragment_mask_validation():
    with pytest.raises(ValueError, match="nonempty"):
        CoverageRepresentation(GroundSet(2), 0.0, {0: 1.0})
    with pytest.raises(ValueError):
        CoverageRepresentation(GroundSet(2), 0.0, {7: 1.0})


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
    rng = np.random.default_rng(9)
    model = GaussianModel(_random_pd(7, rng))
    masks = rng.integers(0, 128, size=60)
    batched = gaussian_entropy_many(model, masks)
    single = [gaussian_entropy(model, int(m)) for m in masks]
    assert np.abs(batched - single).max() < 1e-11


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


def test_coverage_serialization_roundtrip(tmp_path):
    from setsp.coverage import load_coverage, save_coverage
    from setsp import io as setfn_io

    g = GroundSet(3)
    rep = CoverageRepresentation(g, 1.5, {1: 2.0, 6: -0.5})
    path = tmp_path / "frag.setfn"
    save_coverage(path, rep)
    back = load_coverage(path)
    assert back.offset_c == rep.offset_c
    assert back.fragment_weights == rep.fragment_weights
    # the file is literally the sparse model-4 spectrum
    rec = setfn_io.parse_setfn(path)
    assert rec.model == 4
    spectrum = fragment_weights_spectrum(rep)
    for mask, value in rec.pairs:
        assert value == spectrum.coeffs[mask]


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
