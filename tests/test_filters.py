import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from setsp.core import MODELS, GroundSet, SetFunction, SparseSetFunction
from setsp import io as setfn_io
from setsp.filters import (
    Filter,
    _convolve_direct,
    convolve,
    frequency_response,
    shift,
    shift_by_set,
)
from setsp import transforms
from setsp.transforms import dsft

from reference import convolve_reference, filter_matrix, shift_matrix, shift_reference


def _random_filter(ground, rng, taps=3):
    masks = rng.choice(ground.size, size=taps, replace=False)
    return Filter.from_taps(
        ground, {int(m): float(v) for m, v in zip(masks, rng.standard_normal(taps))}
    )


def _tap_dict(h) -> dict:
    return dict(zip(h.taps.masks.tolist(), h.taps.values.tolist()))


def _filter_matrix(model, h):
    """`reference.filter_matrix`, which reads the taps as a {mask: weight}
    dict, of a `Filter`."""
    return filter_matrix(model, SimpleNamespace(ground=h.ground,
                                                taps=SimpleNamespace(entries=_tap_dict(h))))


def test_shift_small_examples():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    assert shift(1, 1, s).values.tolist() == [0.0, 3.0, 0.0, 7.0]
    assert shift(2, 1, s).values.tolist() == [3.0, 0.0, 7.0, 0.0]
    assert shift(3, 1, s).values.tolist() == [1.0, 1.0, 3.0, 3.0]
    assert shift(4, 1, s).values.tolist() == [2.0, 2.0, 4.0, 4.0]
    assert shift(5, 1, s).values.tolist() == [2.0, 1.0, 4.0, 3.0]
    with pytest.raises(ValueError):
        shift(1, 3, s)


@pytest.mark.parametrize("model", MODELS)
def test_shift_matches_reference(model):
    rng = np.random.default_rng(21 + model)
    g = GroundSet(5)
    s = SetFunction(g, rng.standard_normal(32))
    for i in range(1, 6):
        expected = shift_reference(model, i, s.values, 5)
        assert np.abs(shift(model, i, s).values - expected).max() == 0.0


@pytest.mark.parametrize("model", MODELS)
def test_shift_matrix_matches_operator(model):
    rng = np.random.default_rng(31 + model)
    g = GroundSet(4)
    s = SetFunction(g, rng.standard_normal(16))
    for i in range(1, 5):
        M = shift_matrix(model, i, 4)
        assert np.array_equal(M @ s.values, shift(model, i, s).values)


def test_shift_by_set_examples():
    g = GroundSet(2)
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    assert shift_by_set(1, 0, s) is s  # empty product of shifts
    assert shift_by_set(4, 3, s).values.tolist() == [4.0, 4.0, 4.0, 4.0]
    assert np.array_equal(shift_by_set(1, 1, s).values, shift(1, 1, s).values)


@pytest.mark.parametrize("model", MODELS)
def test_shift_by_set_order_independent(model):
    rng = np.random.default_rng(51 + model)
    g = GroundSet(6)
    s = SetFunction(g, rng.standard_normal(64))
    X = 0b101100
    forward_order = shift_by_set(model, X, s)
    reverse = s
    for i in reversed(range(6)):
        if X >> i & 1:
            reverse = shift(model, i + 1, reverse)
    if model in (3, 4, 5):
        # pure index remaps compose exactly
        assert np.array_equal(forward_order.values, reverse.values)
    else:
        # models 1 and 2 sum values, so ordering only reassociates the adds
        assert np.abs(forward_order.values - reverse.values).max() < 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_shifts_commute(model):
    rng = np.random.default_rng(61 + model)
    g = GroundSet(5)
    s = SetFunction(g, rng.standard_normal(32))
    for i, j in ((1, 2), (2, 5), (3, 4)):
        ij = shift(model, i, shift(model, j, s))
        ji = shift(model, j, shift(model, i, s))
        assert np.abs(ij.values - ji.values).max() < 1e-10


def test_shift_algebra_idempotence_involution():
    n = 4
    for i in range(1, n + 1):
        for model in (1, 2):
            M = shift_matrix(model, i, n)
            assert np.array_equal(M @ M, M)
        M5 = shift_matrix(5, i, n)
        assert np.array_equal(M5 @ M5, np.eye(1 << n))


def test_convolve_covering_product_example():
    g = GroundSet(1)
    h = Filter.from_taps(g, {0: 1.0, 1: 1.0})
    s = SetFunction(g, [1.0, 1.0])
    assert convolve(1, h, s, path="direct").values.tolist() == [1.0, 3.0]


def test_convolve_model3_example():
    g = GroundSet(2)
    h = Filter.from_taps(g, {0: 1.0, 1: 1.0})
    s = SetFunction(g, [1.0, 2.0, 3.0, 4.0])
    assert convolve(3, h, s, path="direct").values.tolist() == [2.0, 3.0, 6.0, 7.0]


@pytest.mark.parametrize("model", MODELS)
def test_identity_filter(model):
    rng = np.random.default_rng(71 + model)
    g = GroundSet(5)
    s = SetFunction(g, rng.standard_normal(32))
    out = convolve(model, Filter.from_taps(g, {0: 1.0}), s)
    assert np.abs(out.values - s.values).max() < 1e-12


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", (1, 3, 5, 7))
def test_convolve_matches_reference(model, n):
    rng = np.random.default_rng(10 * model + n)
    g = GroundSet(n)
    s = SetFunction(g, rng.standard_normal(g.size))
    h = _random_filter(g, rng, taps=min(3, g.size))
    expected = convolve_reference(model, _tap_dict(h), s.values, n)
    for path in ("direct", "spectral"):
        got = convolve(model, h, s, path=path)
        assert np.abs(got.values - expected).max() < 1e-9, (model, n, path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_filter_refuses_non_finite_taps(bad):
    g = GroundSet(3)
    with pytest.raises(ValueError, match=f"value {bad} at mask 5 is not finite"):
        Filter(g, SparseSetFunction(g, [0, 5], [1.0, bad]))
    with pytest.raises(ValueError, match=f"value {bad} at mask 0 is not finite"):
        Filter.from_taps(g, {0: bad})
    with pytest.raises(ValueError, match=f"value {bad} at mask 6 is not finite"):
        Filter.from_taps(g, {6: bad})


@pytest.mark.parametrize("model", MODELS)
def test_dense_taps_act_as_their_nonzero_entries(model):
    # a dense SetFunction, as `read_setfn` reads a dense taps file, keeps its
    # nonzero taps: the -0.0 tap and the +0.0 ones are dropped
    g = GroundSet(4)
    values = np.zeros(g.size)
    values[[0, 3, 6, 9]] = [0.5, -1.0, -0.0, 2.0]
    dense = SetFunction(g, values)
    h, want = Filter(g, dense), Filter(g, dense.to_sparse())
    assert h.taps.masks.tolist() == [0, 3, 9] and len(h) == 3
    s = SetFunction(g, np.random.default_rng(5 + model).standard_normal(g.size))
    for path in ("auto", "direct", "spectral"):
        got, expected = convolve(model, h, s, path=path), convolve(model, want, s, path=path)
        assert got.values.tobytes() == expected.values.tobytes(), path
    assert frequency_response(model, h).tobytes() == frequency_response(model, want).tobytes()


def test_filter_refuses_taps_on_another_ground_set():
    taps = SparseSetFunction(GroundSet(4), [0, 9], [1.0, 0.5])
    with pytest.raises(ValueError, match="^mismatched ground sets: n=3 vs n=4$"):
        Filter(GroundSet(3), taps)


def test_direct_convolution_needs_one_scratch_block():
    # n=18: a 2 MiB output; the taps' weighted values go through one block
    # of 2**_BLOCK_BITS elements, not a full-size temporary per tap, and
    # +-1.0 and low-bit taps through views only
    g = GroundSet(18)
    s = SetFunction.wrap(g, np.random.default_rng(18).standard_normal(g.size))
    low_bits = Filter.from_taps(g, {0: 1.0, 1: -1.0, 2: 0.5, 3: -1.0, 6: 1.0, 1 << 17 | 1: -0.25})
    block = np.dtype(np.float64).itemsize << transforms._BLOCK_BITS
    for model, h in [(3, Filter.moving_average(g))] + [(m, low_bits) for m in (3, 4, 5)]:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _convolve_direct(model, h, s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= s.values.nbytes + 2 * block, (model, peak)


def test_convolve_path_validation():
    g = GroundSet(2)
    s = SetFunction(g, np.zeros(4))
    with pytest.raises(ValueError, match="path"):
        convolve(1, Filter.from_taps(g, {0: 1.0}), s, path="sideways")
    other = SetFunction(GroundSet(3), np.zeros(8))
    with pytest.raises(ValueError, match="mismatched"):
        convolve(1, Filter.from_taps(g, {0: 1.0}), other)


def test_moving_average_frequency_response():
    # the low-pass example: response 1 + |N \ B| for models 1-4
    for n in (1, 3, 6):
        g = GroundSet(n)
        h = Filter.moving_average(g)
        expected = 1.0 + (n - np.bitwise_count(np.arange(g.size)))
        for model in (1, 2, 3, 4):
            fr = frequency_response(model, h)
            assert np.array_equal(fr, expected), (model, n)


def test_moving_average_n3_values():
    fr = frequency_response(1, Filter.moving_average(GroundSet(3)))
    assert fr.tolist() == [4.0, 3.0, 3.0, 2.0, 3.0, 2.0, 2.0, 1.0]


def test_delta_filter_response_is_flat():
    g = GroundSet(4)
    for model in MODELS:
        fr = frequency_response(model, Filter.from_taps(g, {0: 1.0}))
        assert np.array_equal(fr, np.ones(16))


def test_frequency_response_uses_model1_transform():
    rng = np.random.default_rng(77)
    g = GroundSet(5)
    h = _random_filter(g, rng, taps=5)
    dense_taps = h.taps.to_dense()
    for model in (1, 2, 3, 4):
        fr = frequency_response(model, h)
        assert np.array_equal(fr, dsft(1, dense_taps).coeffs)
    fr5 = frequency_response(5, h)
    assert np.array_equal(fr5, dsft(5, dense_taps).coeffs)


@pytest.mark.parametrize("model", MODELS)
def test_convolution_theorem(model):
    # models 1, 3, 5 carry the classic convolution theorem; for 2 and 4 the
    # same pointwise form follows from their frequency response, verified here
    rng = np.random.default_rng(91 + model)
    for n in (2, 4, 6):
        g = GroundSet(n)
        s = SetFunction(g, rng.standard_normal(g.size))
        h = _random_filter(g, rng, taps=min(4, g.size))
        lhs = dsft(model, convolve(model, h, s, path="direct")).coeffs
        rhs = frequency_response(model, h) * dsft(model, s).coeffs
        assert np.abs(lhs - rhs).max() < 1e-9, (model, n)


@pytest.mark.parametrize("model", MODELS)
def test_shift_invariance(model):
    rng = np.random.default_rng(111 + model)
    g = GroundSet(5)
    s = SetFunction(g, rng.standard_normal(32))
    h = _random_filter(g, rng)
    for i in (1, 3, 5):
        lhs = shift(model, i, convolve(model, h, s, path="direct"))
        rhs = convolve(model, h, shift(model, i, s), path="direct")
        assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_filter_matrix_worked_example():
    # 8x8 model-1 matrix of h = a*{} + b*{x2} + c*{x1,x3} + d*{x1,x2,x3}
    a, b, c, d = 1.25, -0.5, 2.0, 0.75
    g = GroundSet(3)
    h = Filter.from_taps(g, {0: a, 0b010: b, 0b101: c, 0b111: d})
    expected = np.array(
        [
            [a, 0, 0, 0, 0, 0, 0, 0],
            [0, a, 0, 0, 0, 0, 0, 0],
            [b, 0, a + b, 0, 0, 0, 0, 0],
            [0, b, 0, a + b, 0, 0, 0, 0],
            [0, 0, 0, 0, a, 0, 0, 0],
            [c, c, 0, 0, c, a + c, 0, 0],
            [0, 0, 0, 0, b, 0, a + b, 0],
            [d, d, c + d, c + d, d, b + d, c + d, a + b + c + d],
        ]
    )
    assert np.array_equal(_filter_matrix(1, h), expected)


def test_filter_matrix_single_taps():
    g = GroundSet(3)
    assert np.array_equal(
        _filter_matrix(3, Filter.from_taps(g, {0b001: 1.0})), shift_matrix(3, 1, 3)
    )
    X = 0b110
    M = _filter_matrix(5, Filter.from_taps(g, {X: 1.0}))
    perm = np.zeros((8, 8))
    for A in range(8):
        perm[A ^ X, A] = 1.0
    assert np.array_equal(M, perm)


@pytest.mark.parametrize("model", MODELS)
def test_filter_matrix_matches_convolve(model):
    rng = np.random.default_rng(131 + model)
    g = GroundSet(5)
    s = SetFunction(g, rng.standard_normal(32))
    h = _random_filter(g, rng, taps=4)
    M = _filter_matrix(model, h)
    direct = convolve(model, h, s, path="direct")
    assert np.abs(M @ s.values - direct.values).max() < 1e-10


def test_filter_matrix_guard():
    g = GroundSet(11)
    with pytest.raises(ValueError, match="n <= 10"):
        filter_matrix(1, Filter.from_taps(g, {0: 1.0}))


def test_filter_serialization(tmp_path):
    g = GroundSet(4)
    h = Filter.from_taps(g, {0: 1.0, 5: -2.5})
    path = tmp_path / "taps.setfn"
    setfn_io.write_setfn(path, h.taps)
    back = setfn_io.read_setfn(path)
    assert isinstance(back, SparseSetFunction)
    assert back.masks.tolist() == [0, 5] and back.values.tolist() == [1.0, -2.5]


# SHA-256 of the outputs at n=18 (eight blocks of 2**15), recorded from the
# direct path that multiplied every tap and ran low-bit taps on strided
# views, and from the transform that ran every block.
CONVOLVE_SHA256 = {
    (3, "direct"): "ec7263325bbd13c0051be83556c4796d3005b5d927ea88515e7bbb9fe75be768",
    (3, "spectral"): "9ec8d55c6afe5a80c38aafd66a0b519e1fea895db1348266ee11da90a3628129",
    (4, "direct"): "c89a535112aae1c0dbafbe75e6a572bff57106433319dd237b26ec838ed7b38b",
    (4, "spectral"): "0e417d6193a55fd7a31d30ce6dae6e340cb7fe09344776a79533336bd6a7cfa9",
    (5, "direct"): "aaec19d37eeed625d7384c1835f2519e070d229ee1ee5cd6f72c388b81327810",
    (5, "spectral"): "224fdc60c4df6bd0b19b370341982a058436835841f18fbd146241649d1d905a",
}
FREQUENCY_RESPONSE_SHA256 = {
    (3, "moving_average"): "06f7696daab138bf6d41df8d750e6f2b590adf8e1821ba0cc8520976668fba1b",
    (3, "sparse"): "36d18a56784c66a9924c4325ed5b594172a46200f18722827b8f5b8dc82da1fb",
    (5, "moving_average"): "eef18580e6cdffdc4b80108a00a9b59d484a2418496b520bb9ad6b6f712f56b4",
    (5, "sparse"): "3e7ac9f2ab3f292f609015096f050b7c845e6610f6515c27d8117c8aedac0cef",
}


def _golden_filters(g):
    # the moving average, and a few taps with a -0.0 alone in block 6
    return {"moving_average": Filter.moving_average(g),
            "sparse": Filter.from_taps(g, {0: 1.0, 3: -0.5, (1 << 17) | 5: 2.0, 6 << 15: -0.0})}


@pytest.mark.parametrize("model,path", sorted(CONVOLVE_SHA256))
def test_moving_average_convolution_golden_bits(model, path):
    g = GroundSet(18)
    s = SetFunction.wrap(g, np.random.default_rng(18).standard_normal(g.size))
    out = convolve(model, Filter.moving_average(g), s, path=path).values
    assert hashlib.sha256(out.tobytes()).hexdigest() == CONVOLVE_SHA256[(model, path)]


@pytest.mark.parametrize("model,name", sorted(FREQUENCY_RESPONSE_SHA256))
def test_frequency_response_golden_bits(model, name):
    out = frequency_response(model, _golden_filters(GroundSet(18))[name])
    assert hashlib.sha256(out.tobytes()).hexdigest() == FREQUENCY_RESPONSE_SHA256[(model, name)]
