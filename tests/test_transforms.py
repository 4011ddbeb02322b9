import hashlib
from unittest import mock

import numpy as np
import pytest

from setsp.core import MODELS, GroundSet, SetFunction, Spectrum
from setsp import filters, transforms
from setsp.transforms import (
    FORWARD,
    INVERSE,
    dsft,
    dsft_inplace,
    dsft_matrix,
    fourier_basis_vector,
    idsft,
    kernel,
)

from reference import dsft_reference, idsft_reference, kronecker_matrix

DIRECTIONS = (FORWARD, INVERSE)


def test_kernel_table():
    # 2x2 kernels, verbatim
    assert kernel(1).tolist() == [[1, 1], [1, 0]]
    assert kernel(2).tolist() == [[1, 1], [0, -1]]
    assert kernel(3).tolist() == [[1, 0], [1, -1]]
    assert kernel(4).tolist() == [[0, 1], [1, -1]]
    assert kernel(5).tolist() == [[1, 1], [1, -1]]
    assert kernel(1, INVERSE).tolist() == [[0, 1], [1, -1]]
    assert kernel(2, INVERSE).tolist() == [[1, 1], [0, -1]]
    assert kernel(3, INVERSE).tolist() == [[1, 0], [1, -1]]
    assert kernel(4, INVERSE).tolist() == [[1, 1], [1, 0]]
    assert kernel(5, INVERSE).tolist() == [[0.5, 0.5], [0.5, -0.5]]
    # a copy: writing to it leaves the table alone
    k = kernel(4)
    k[0, 0] = 7.0
    assert kernel(4)[0, 0] == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_kernel_forward_inverse_2x2(model):
    prod = kernel(model, FORWARD) @ kernel(model, INVERSE)
    assert np.allclose(prod, np.eye(2))


def test_matrix_n1_values():
    assert dsft_matrix(1, FORWARD, 1).tolist() == [[1, 1], [1, 0]]
    assert dsft_matrix(1, INVERSE, 1).tolist() == [[0, 1], [1, -1]]


def test_small_transform_values():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    assert dsft(1, s).coeffs.tolist() == [10.0, 4.0, 3.0, 1.0]
    assert dsft(2, s).coeffs.tolist() == [10.0, -6.0, -7.0, 4.0]
    assert dsft(3, s).coeffs.tolist() == [1.0, -1.0, -2.0, 0.0]
    # the same numbers must fall out of the defining sums
    for model in (1, 2, 3):
        assert dsft(model, s).coeffs.tolist() == dsft_reference(model, s.values, 2)


def test_wht_two_point():
    s = SetFunction(GroundSet(1), [1.0, 2.0])
    assert dsft(5, s).coeffs.tolist() == [3.0, -1.0]


def test_model3_self_inverse():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    twice = dsft(3, SetFunction(g, dsft(3, s).coeffs))
    assert twice.coeffs.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert np.array_equal(dsft_matrix(3, FORWARD, 4), dsft_matrix(3, INVERSE, 4))


def test_model4_inverse_example():
    g = GroundSet(2)
    spec = Spectrum(g, 4, [4.0, -1.0, -2.0, 0.0])
    assert idsft(4, spec).values.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_model5_roundtrip_n10():
    rng = np.random.default_rng(8)
    g = GroundSet(10)
    s = SetFunction(g, rng.standard_normal(1024))
    back = idsft(5, dsft(5, s))
    assert np.abs(back.values - s.values).max() < 1e-12


def test_idsft_model_mismatch():
    spec = Spectrum(GroundSet(1), 3, [1.0, 2.0])
    with pytest.raises(ValueError, match="model"):
        idsft(4, spec)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", range(0, 7))
def test_fast_matches_reference_sums(model, n):
    rng = np.random.default_rng(100 * model + n)
    values = rng.standard_normal(1 << n)
    fwd = np.array(values)
    dsft_inplace(fwd, model, FORWARD)
    assert np.abs(fwd - dsft_reference(model, values, n)).max() < 1e-10
    inv = np.array(values)
    dsft_inplace(inv, model, INVERSE)
    assert np.abs(inv - idsft_reference(model, values, n)).max() < 1e-10


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("direction", DIRECTIONS)
def test_closed_form_equals_kronecker(model, direction):
    for n in range(0, 7):
        assert np.array_equal(
            dsft_matrix(model, direction, n), kronecker_matrix(model, direction, n)
        )


def test_matrix_guard():
    with pytest.raises(ValueError, match="n <= 12"):
        dsft_matrix(1, FORWARD, 13)
    with pytest.raises(ValueError, match="n <= 12"):
        kronecker_matrix(5, INVERSE, 13)


def test_model4_forward_entries():
    M = dsft_matrix(4, FORWARD, 2)
    B, A = 0b01, 0b10
    assert M[B, A] == 1.0
    assert M[0b01, 0b11] == -1.0


@pytest.mark.parametrize("model", MODELS)
def test_integer_roundtrip_exact(model):
    rng = np.random.default_rng(42 + model)
    g = GroundSet(8)
    s = SetFunction(g, rng.integers(-50, 50, size=256).astype(np.float64))
    back = idsft(model, dsft(model, s))
    assert np.array_equal(back.values, s.values)


def test_basis_vector_model3_empty_is_constant_one():
    g = GroundSet(4)
    vec = fourier_basis_vector(3, g, 0)
    assert np.array_equal(vec.values, np.ones(16))


def test_basis_vector_model4_indicator():
    g = GroundSet(3)
    B = 0b101
    vec = fourier_basis_vector(4, g, B)
    expected = [(1.0 if (A & B) == 0 else 0.0) for A in range(8)]
    assert vec.values.tolist() == expected


def test_basis_vector_model5_scaled():
    vec = fourier_basis_vector(5, GroundSet(1), 1)
    assert vec.values.tolist() == [0.5, -0.5]


@pytest.mark.parametrize("model", MODELS)
def test_basis_vector_is_inverse_column(model):
    g = GroundSet(5)
    Minv = dsft_matrix(model, INVERSE, 5)
    rng = np.random.default_rng(model)
    for B in rng.integers(0, 32, size=6):
        vec = fourier_basis_vector(model, g, int(B))
        assert np.array_equal(vec.values, Minv[:, int(B)])
        assert fourier_basis_vector(model, g, int(B)).values[7] == Minv[7, int(B)]


@pytest.mark.parametrize("model", (1, 2, 3, 4))
def test_addition_count_models_1_to_4(model):
    for n in (3, 6, 10):
        values = np.zeros(1 << n)
        assert dsft_inplace(values, model, FORWARD) == n * (1 << (n - 1))
        values = np.zeros(1 << n)
        assert dsft_inplace(values, model, INVERSE) == n * (1 << (n - 1))


def test_addition_count_model5():
    values = np.zeros(1 << 9)
    additions = dsft_inplace(values, 5, FORWARD)
    assert additions == 9 * (1 << 9)
    assert type(additions) is int  # a plain int, so that JSON can hold it


def test_batched_transform_matches_columns():
    rng = np.random.default_rng(17)
    n, m = 6, 9
    block = rng.standard_normal((1 << n, m))
    batched = np.array(block)
    dsft_inplace(batched, 2, FORWARD)
    for j in range(m):
        col = np.array(block[:, j])
        dsft_inplace(col, 2, FORWARD)
        assert np.array_equal(batched[:, j], col)


@pytest.mark.parametrize("model", MODELS)
def test_batched_transform_of_no_columns(model):
    for direction in DIRECTIONS:
        assert dsft_inplace(np.zeros((1 << 17, 0)), model, direction) == 0


def test_inplace_requires_float64():
    with pytest.raises(ValueError, match="float64"):
        dsft_inplace(np.zeros(4, dtype=np.float32), 1)
    with pytest.raises(ValueError, match="power of two"):
        dsft_inplace(np.zeros(6), 1)
    with pytest.raises(ValueError, match="signal length 0 is not a power of two"):
        dsft_inplace(np.zeros(0), 1)
    # a (2**n, m, k) array is not a batch of signals, and a 0-d one no signal
    for shape in ((8, 2, 2), (4, 1, 1, 1), ()):
        values = np.arange(float(np.prod(shape))).reshape(shape)
        want = values.copy()
        for model in MODELS:
            with pytest.raises(ValueError, match="1-d or 2-d float64"):
                dsft_inplace(values, model, FORWARD)
        assert values.tobytes() == want.tobytes()


def test_transform_preserves_input():
    g = GroundSet(4)
    s = SetFunction(g, np.arange(16.0))
    dsft(3, s)
    assert np.array_equal(s.values, np.arange(16.0))


# SHA-256 of `dsft_inplace` of `_zero_padded_signal()`, recorded from the
# transform that ran the stages of every block, zero or not.
ZERO_PADDED_SHA256 = {
    (1, "forward"): "61493a3ba4e1e88747eb8fb9c9fd0e09d9343d5861421aeb2698fa96ec0af665",
    (1, "inverse"): "55ff0d1a854614d09c5292d39019e40d219caded1a486320c619a995b0b086b4",
    (2, "forward"): "68f3dca6597a8c2e7a26219df640a46eb17583897dfdda73ba520132cd7cb7d7",
    (2, "inverse"): "68f3dca6597a8c2e7a26219df640a46eb17583897dfdda73ba520132cd7cb7d7",
    (3, "forward"): "e9b91f7f32d869abfef4d1d34689e93770816f8e3e921ad458416202ff8e9ba3",
    (3, "inverse"): "e9b91f7f32d869abfef4d1d34689e93770816f8e3e921ad458416202ff8e9ba3",
    (4, "forward"): "55ff0d1a854614d09c5292d39019e40d219caded1a486320c619a995b0b086b4",
    (4, "inverse"): "61493a3ba4e1e88747eb8fb9c9fd0e09d9343d5861421aeb2698fa96ec0af665",
    (5, "forward"): "9dd30775f1f4756ff5a06a6d9da4d3b4077cbf6de6b80ecff8c21ce88bd3fcbf",
    (5, "inverse"): "df4194172943228a0c2722a9225e7ad811d09ace8daaebcfe78a87e6507591a7",
}


def _zero_padded_signal() -> np.ndarray:
    # n=18: random values in the first 2**16 entries (one block), a -0.0
    # inside block 2 and +0.0 everywhere else
    x = np.zeros(1 << 18)
    x[: 2 << 15] = np.random.default_rng(18).standard_normal(2 << 15)
    x[5 << 15] = -0.0
    return x


@pytest.mark.parametrize("model,direction", sorted(ZERO_PADDED_SHA256))
def test_zero_padded_transform_golden_bits(model, direction):
    x = _zero_padded_signal()
    dsft_inplace(x, model, direction)
    assert hashlib.sha256(x.tobytes()).hexdigest() == ZERO_PADDED_SHA256[(model, direction)]


def _full_size_outputs() -> dict:
    """Every `_TABLE` row on 1-d and 3-column input, and the moving
    average's direct convolution under models 3-5, at n=17."""
    n = 17
    rng = np.random.default_rng(n)
    flat = rng.standard_normal(1 << n)
    flat[1 << 15 : 3 << 15] = 0.0  # two of four blocks of 2**15, or half of each of 2**16
    grid = rng.standard_normal((1 << n, 3))
    out = {}
    for model, direction in transforms._TABLE:
        for x in (flat, grid):
            y = x.copy()
            dsft_inplace(y, model, direction)
            out[model, direction, x.ndim] = y.tobytes()
    g = GroundSet(n)
    h, s = filters.Filter.moving_average(g), SetFunction.wrap(g, flat)
    for model in (3, 4, 5):
        out[model, "direct"] = filters._convolve_direct(model, h, s).values.tobytes()
    return out


def test_full_size_schedules_give_the_same_bits():
    # n=17 under blocks of 2**15 and of the default size: 4 or 2 blocks of
    # 1-d input, 2**13 or 2**14 rows of 3 columns, and model 5 with one or
    # more high stages (one runs its copy back); the direct convolution's
    # taps on bits 15-16 or 16 read other blocks
    want = _full_size_outputs()
    with mock.patch.object(transforms, "_BLOCK_BITS", 15):
        got = _full_size_outputs()
    assert transforms._BLOCK_BITS != 15
    for key in want:
        assert got[key] == want[key], key
