import contextlib
import math
import re
from unittest import mock

import numpy as np
import pytest

from setsp import core, experiments
from setsp import io as setfn_io
from setsp.compression import SetFunctionOracle, compress_band, wht_regression
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    SparseSupport,
    Spectrum,
    popcount,
    subsets_of_cardinality_at_most,
)
from setsp.coverage import (
    CoverageRepresentation,
    GaussianModel,
    coverage_dense,
    fragment_weights_spectrum,
    intersection_weights,
    pairwise_mutual_information,
)
from setsp.experiments import random_bidder_pool, sampling_experiment, score_compression
from setsp.filters import Filter, frequency_response, shift
from setsp.sampling import random_nonempty_masks, select_support, synthetic_sparse_spectrum


def test_subset_ops_basics():
    g = GroundSet(3)
    x1, x2 = 0b001, 0b010
    assert g.elements(x1 | x2) == (1, 2)
    assert x1 & x2 == 0
    assert 5 ^ 5 == 0
    assert g.elements(g.full_mask ^ x1) == (2, 3)
    assert popcount(0b101) == len(g.elements(0b101)) == 2
    assert 0b111 & ~0b101 == 0b010


def test_popcount_scalar_and_array():
    assert popcount(0) == 0
    assert popcount((1 << 45) | 7) == 4
    arr = np.array([0, 1, 3, 255], dtype=np.int64)
    assert popcount(arr).tolist() == [0, 1, 2, 8]


def test_cardinality_union_intersection_identity():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 20, size=500)
    b = rng.integers(0, 1 << 20, size=500)
    lhs = popcount(a | b) + popcount(a & b)
    rhs = popcount(a) + popcount(b)
    assert np.array_equal(lhs, rhs)


def test_lexicographic_order_n3():
    g = GroundSet(3)
    decoded = [g.elements(m) for m in range(8)]
    assert decoded == [
        (),
        (1,),
        (2,),
        (1, 2),
        (3,),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_order_is_recursive(n):
    # first half: subsets without x_n, in the same order; second half adds x_n
    g = GroundSet(n)
    half = 1 << (n - 1)
    for m in range(half):
        assert g.elements(m + half) == g.elements(m) + (n,)
        assert n not in g.elements(m)


def test_ground_set_bounds():
    GroundSet(0)
    GroundSet(62)
    with pytest.raises(ValueError):
        GroundSet(63)
    with pytest.raises(ValueError):
        GroundSet(-1)
    with pytest.raises(ValueError):
        GroundSet(4).check_mask(16)


def test_check_masks_passes_int64_and_names_the_first_non_mask():
    g = GroundSet(3)
    masks = np.array([[1, 7], [0, 2]], dtype=np.int64)
    assert g.check_masks(masks) is masks
    assert g.check_masks([5.0, True, np.uint64(6)]).tolist() == [5, 1, 6]
    assert g.check_mask(np.float64(4.0)) == 4 and type(g.check_mask(4)) is int
    for bad, message in [
        ([1.7, 2.2], "non-integer mask 1.7 at position 0"),
        ([[2.0, np.inf]], "non-integer mask inf at position 1"),
        ([3, 8, 9.5], "mask 8.0 out of range for n=3 at position 1"),
        ([2**63 + 2], "mask 9223372036854775810 out of range for n=3 at position 0"),
        ([-(2**64)], "mask -18446744073709551616 out of range for n=3 at position 0"),
        (-1, "mask -1 out of range for n=3 at position 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            g.check_masks(bad)
    with pytest.raises(ValueError, match="non-integer mask 0.5 at position 0"):
        g.check_mask(0.5)


@pytest.mark.parametrize("masks,dtype", [
    (True, "bool"), ([True, False], "bool"), (np.ones(2, dtype=bool), "bool"),
    (1 + 0j, "complex128"), ([1 + 0j, 2], "complex128"), (np.ones(2, np.complex64), "complex64"),
    ("1", "<U1"), (["1", "2"], "<U1"), (b"1", "|S1"), (np.array([b"12"]), "|S2"),
])
def test_check_masks_refuses_bool_complex_and_text_dtypes(masks, dtype):
    # a ComplexWarning would fail the test: pytest turns warnings into errors
    message = f"mask must be an integer, got dtype {re.escape(dtype)}$"
    with pytest.raises(ValueError, match=f"^{message}"):
        GroundSet(3).check_masks(masks)
    with pytest.raises(ValueError, match=f"^support {message}"):
        SparseSupport(GroundSet(3), np.atleast_1d(masks))


def _dense_cap(n: int) -> str:
    return rf"^n={n} is too large for a dense array of 2\*\*n values \(n <= 30\)$"


def test_dense_container_cap():
    with pytest.raises(ValueError, match=_dense_cap(31)):
        SetFunction(GroundSet(31), np.zeros(8))
    with pytest.raises(ValueError, match=_dense_cap(31)):
        Spectrum(GroundSet(31), 4, np.zeros(8))
    with pytest.raises(ValueError, match=_dense_cap(31)):
        SetFunction.wrap(GroundSet(31), np.zeros(8))
    with pytest.raises(ValueError, match=_dense_cap(31)):
        Spectrum.wrap(GroundSet(31), 4, np.zeros(8))


def test_densifying_a_sparse_container_or_file_past_the_cap_is_refused(tmp_path):
    # each path that builds 2**n values from sparse data refuses n=40 before
    # it allocates (at 8 TiB the request would fail, or take the machine)
    ground = GroundSet(40)
    taps = SparseSetFunction(ground, [1, 6, (1 << 40) - 1], [1.0, 0.5, -2.0])
    rep = CoverageRepresentation(1.5, taps)
    path = tmp_path / "spec.setfn"
    setfn_io.write_setfn(path, SparseSpectrum(ground, 4, taps.masks, taps.values))
    densify = {
        "masks": ground.masks,
        "to_dense": taps.to_dense,
        "read_spectrum": lambda: setfn_io.read_spectrum(path),
        "coverage_dense": lambda: coverage_dense(rep),
        "fragment_weights_spectrum": lambda: fragment_weights_spectrum(rep),
        "intersection_weights": lambda: intersection_weights(rep),
        "frequency_response": lambda: frequency_response(4, Filter(ground, taps)),
    }
    for name, call in densify.items():
        with pytest.raises(ValueError, match=_dense_cap(40)):
            call()
    assert setfn_io.parse_setfn(path).masks.size == 3  # the file itself is valid


def test_setfunction_immutable():
    s = SetFunction(GroundSet(2), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0
    assert s(3) == 4.0
    with pytest.raises(ValueError):
        s(4)


def test_spectrum_model_tag():
    with pytest.raises(ValueError):
        Spectrum(GroundSet(1), 7, [0.0, 0.0])


def test_sparse_roundtrip_on_support():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(32)
    values[rng.random(32) < 0.5] = 0.0
    dense = SetFunction(GroundSet(5), values)
    sparse = dense.to_sparse()
    assert sparse.masks.tolist() == np.flatnonzero(values).tolist()
    assert np.array_equal(sparse.values, values[sparse.masks])
    assert np.array_equal(sparse.to_dense().values, values)


def test_sparse_validation():
    g = GroundSet(2)
    sp = SparseSetFunction(g, [3], [1.5])
    assert sp.to_dense().values.tolist() == [0.0, 0.0, 0.0, 1.5]
    assert sp(0) == 0.0 and sp(3) == 1.5
    with pytest.raises(ValueError):
        SparseSetFunction(g, [4], [1.0])
    # sparse containers go beyond the dense cap
    SparseSetFunction(GroundSet(45), [(1 << 45) - 1], [2.0])


def test_subsets_of_cardinality_at_most():
    g = GroundSet(3)
    assert subsets_of_cardinality_at_most(g, 1).tolist() == [0, 1, 2, 4]
    assert subsets_of_cardinality_at_most(g, 3).tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
    with pytest.raises(ValueError):
        subsets_of_cardinality_at_most(g, 4)


def test_subsets_order_and_large_n():
    masks = subsets_of_cardinality_at_most(GroundSet(4), 2)
    cards = popcount(masks)
    assert np.all(np.diff(cards) >= 0)
    for k in (0, 1, 2):
        block = masks[cards == k]
        assert np.all(np.diff(block) > 0) or block.size <= 1
    # the low-order frequency count for a 46-element ground set
    assert len(subsets_of_cardinality_at_most(GroundSet(46), 2)) == 1082


def test_require_same_ground():
    a = SetFunction(GroundSet(2), np.zeros(4))
    b = SetFunction(GroundSet(3), np.zeros(8))
    with pytest.raises(ValueError, match="mismatched"):
        core.require_same_ground(a, b)


# One table for the sparse (mask, value) inputs: `SparseSetFunction` and
# the callables that take their masks and values through it, and the dense
# containers, given the values at those masks and zero elsewhere.  Each bad
# input sits at position 1 of three (masks 2, 5, 3 at n=4), so the message
# must name the faulty entry, not the first one.
_G = GroundSet(4)
_MASKS, _VALUES = [2, 5, 3], [0.5, -1.0, 2.0]


def _at(items, item):
    return items[:1] + [item] + items[2:]


def _dense(masks, values):
    dense = np.zeros(_G.size)
    dense[masks] = values
    return dense


_BOUNDARY_CASES = [
    ("mask-1", _at(_MASKS, -1), _VALUES, "mask -1 out of range for n=4 at position 1"),
    ("mask-2**n", _at(_MASKS, 16), _VALUES, "mask 16 out of range for n=4 at position 1"),
    ("mask-99", _at(_MASKS, 99), _VALUES, "mask 99 out of range for n=4 at position 1"),
    ("mask-1.5", _at(_MASKS, 1.5), _VALUES, r"non-integer mask 1\.5 at position 1"),
    ("mask-2**63", _at(_MASKS, 2**63), _VALUES,
     r"mask 9\.223372036854776e\+18 out of range for n=4 at position 1"),
    ("mask-nan", _at(_MASKS, math.nan), _VALUES, "non-integer mask nan at position 1"),
    ("repeated-mask", [2, 3, 3], _VALUES, "duplicate mask 3"),
    ("value-nan", _MASKS, _at(_VALUES, math.nan), "value nan at mask 5 is not finite"),
    ("value-inf", _MASKS, _at(_VALUES, math.inf), "value inf at mask 5 is not finite"),
    ("value--inf", _MASKS, _at(_VALUES, -math.inf), "value -inf at mask 5 is not finite"),
    ("2-d-masks", [[2, 5], [3, 4]], [0.5, -1.0],
     r"masks and values must be 1-d, got shapes \(2, 2\) and \(2,\)"),
    ("lengths", _MASKS, _VALUES[:2], "got 3 masks and 2 values"),
]

# callable -> (call(masks, values, path), the cases its input form cannot hold):
# a dict has no repeated key, no list key and one value per key; pairs have
# one value per mask; a dense array has one value at every mask
_MASK_CASES = {case for case, _, _, _ in _BOUNDARY_CASES if not case.startswith("value-")}
_BOUNDARY_CALLS = {
    "SetFunction": (lambda m, v, path: SetFunction(_G, _dense(m, v)), _MASK_CASES),
    "Spectrum": (lambda m, v, path: Spectrum(_G, 4, _dense(m, v)), _MASK_CASES),
    "SparseSetFunction": (lambda m, v, path: SparseSetFunction(_G, m, v), set()),
    "SparseSpectrum": (lambda m, v, path: SparseSpectrum(_G, 4, m, v), set()),
    "Filter.from_taps": (lambda m, v, path: Filter.from_taps(_G, dict(zip(m, v))),
                         {"repeated-mask", "2-d-masks", "lengths"}),
    "CoverageRepresentation": (
        lambda m, v, path: CoverageRepresentation(0.0, SparseSetFunction(_G, m, v)), set()),
    "wht_regression": (lambda m, v, path: wht_regression(SparseSetFunction(_G, m, v),
                                                         SparseSupport(_G, [0, 1])), set()),
    "write_entries": (lambda m, v, path: setfn_io.write_entries(path, 4, "sparse", None,
                                                                list(zip(m, v))),
                      {"lengths"}),
}


@pytest.mark.parametrize("call, masks, values, message", [
    pytest.param(call, masks, values, message, id=f"{name}-{case}")
    for name, (call, inexpressible) in _BOUNDARY_CALLS.items()
    for case, masks, values, message in _BOUNDARY_CASES
    if case not in inexpressible
])
def test_sparse_inputs_refuse_what_is_no_mask_or_value(call, masks, values, message,
                                                       tmp_path):
    path = tmp_path / "out.setfn"
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(masks, values, path)
    assert not path.exists()


@pytest.mark.parametrize("name", _BOUNDARY_CALLS)
def test_sparse_inputs_take_the_table_s_valid_input(name, tmp_path):
    _BOUNDARY_CALLS[name][0](_MASKS, _VALUES, tmp_path / "out.setfn")


def _oracle():
    return SetFunctionOracle.from_setfunction(SetFunction(_G, np.arange(16.0) + 1.0))


# One table for the count parameters: callable -> (call(count), the name its
# message gives the count, the range it takes, with no top for inf).  Each
# callable refuses a bool, a float (integral or not), a string and the
# integers just outside its range with one message; `m_samples` has its own
# test in tests/test_compression.py.
_COUNT_CALLS = {
    "GroundSet": (GroundSet, "ground set size n", 0, 62),
    "check_element": (_G.check_element, "element index", 1, 4),
    "shift": (lambda c: shift(3, c, SetFunction(_G, np.arange(16.0))), "element index", 1, 4),
    "pairwise_mutual_information": (
        lambda c: pairwise_mutual_information(GaussianModel(np.eye(4)), 2, c),
        "element index", 1, 4),
    "subsets_of_cardinality_at_most": (lambda c: subsets_of_cardinality_at_most(_G, c),
                                       "order m", 0, 4),
    "compress_band": (lambda c: compress_band(_oracle(), c), "order m", 0, 4),
    "random_nonempty_masks": (lambda c: random_nonempty_masks(_G, c, np.random.default_rng(1)),
                              "number of nonempty frequencies", 0, 15),
    "synthetic_sparse_spectrum": (lambda c: synthetic_sparse_spectrum(_G, c, seed=1),
                                  "number of nonempty frequencies", 0, 15),
    "select_support": (lambda c: select_support([SparseSpectrum(_G, 4, [3], [1.0])], c),
                       "support size k", 0, 16),
    "score_compression": (lambda c: score_compression(_oracle(), wht_samples=c, probes=50,
                                                      seed=1),
                          "wht_samples", 1, 16),
    "random_bidder_pool": (lambda c: random_bidder_pool(_G, c, 9), "size", 1, 16),
    "sampling_experiment-pool_size": (lambda c: _sampling_experiment(pool_size=c),
                                      "pool_size", 1, 16),
    "sampling_experiment-n_train": (lambda c: _sampling_experiment(n_train=c),
                                    "n_train", 1, math.inf),
    "sampling_experiment-n_test": (lambda c: _sampling_experiment(n_test=c),
                                   "n_test", 1, math.inf),
}


class _Drawn(Exception):
    """Raised in place of the sampling experiment's first draw."""


def _sampling_experiment(**counts):
    # up to the pool's draw: the counts must be checked before it
    with (mock.patch.object(experiments, "random_bidder_pool", side_effect=_Drawn),
          contextlib.suppress(_Drawn)):
        sampling_experiment(**{"n": 4, "pool_size": 8, "n_train": 3, "n_test": 3,
                               "k_support": 4, "seed": 1, **counts})


def _count_cases(low, high):
    cases = {"bool": True, "float": 1.5, "integral-float": np.float64(2.0), "str": "2",
             "below": low - 1}
    return cases if high == math.inf else {**cases, "above": high + 1}


def _count_range(low, high):
    return f">= {low}" if high == math.inf else f"in \\[{low}, {high}\\]"


@pytest.mark.parametrize("call, bad, message", [
    pytest.param(call, bad, f"^{name} must be an integer {_count_range(low, high)}, "
                            f"got {re.escape(repr(bad))}$", id=f"{callable_name}-{case}")
    for callable_name, (call, name, low, high) in _COUNT_CALLS.items()
    for case, bad in _count_cases(low, high).items()
])
def test_counts_refuse_what_is_no_integer_in_their_range(call, bad, message):
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize("name", _COUNT_CALLS)
def test_counts_take_both_ends_of_their_range(name):
    call, _, low, high = _COUNT_CALLS[name]
    call(low)
    call(np.int64(high if high < math.inf else low + 1))


def test_sparse_setfunction_holds_read_only_copies_in_the_order_given():
    masks, values = np.array([9, 3, 0]), np.array([1.5, -0.0, 2.0])
    sp = SparseSetFunction(GroundSet(4), masks, values)
    masks[0], values[0] = 1, 7.0
    assert sp.masks.dtype == np.int64 and sp.masks.tolist() == [9, 3, 0]
    assert sp.values.dtype == np.float64 and sp.values.tolist() == [1.5, -0.0, 2.0]
    assert not sp.masks.flags.writeable and not sp.values.flags.writeable
    assert len(sp) == 3


def test_sparse_setfunction_reads_a_stored_negative_zero_back():
    sp = SparseSetFunction(GroundSet(4), [9, 3], [1.5, -0.0])
    assert math.copysign(1.0, sp(3)) == -1.0
    assert math.copysign(1.0, sp(5)) == 1.0 and sp(9) == 1.5


def _dict_lookup(sp):
    get = dict(zip(sp.masks.tolist(), sp.values.tolist())).get
    return lambda masks: np.array([get(m, 0.0) for m in masks.tolist()], dtype=np.float64)


_TOP = 1 << 61  # the highest mask bit at n=62


@pytest.mark.parametrize("n, masks, values", [
    (4, [9, 3, 0, 14, 5], [1.5, -0.0, 2.0, -3.25, 1e-300]),
    (4, [], []),
    (62, [_TOP | 5, 3, _TOP, (1 << 62) - 1, 0], [-0.0, 2.5, -1.0, 7.0, 0.25]),
], ids=["unsorted", "empty", "n62"])
def test_oracle_from_sparse_is_the_dict_lookup_bit_for_bit(n, masks, values):
    sp = SparseSetFunction(GroundSet(n), masks, values)
    full = (1 << n) - 1
    near = {min(max(m + d, 0), full) for m in masks for d in (-1, 0, 1)}
    probes = np.array(sorted(near | {0, 1, full}), dtype=np.int64)
    batches = [np.concatenate([probes[::-1], probes])]  # repeats, both orders
    if n < 8:  # 2**n masks or more are looked up once per distinct mask
        batches.append(np.arange(1 << n).repeat(2))
    for batch in batches:
        got = SetFunctionOracle.from_sparse(sp).query_many(batch)
        assert got.tobytes() == _dict_lookup(sp)(batch).tobytes()
