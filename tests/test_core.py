import numpy as np
import pytest

from setsp import core
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    Spectrum,
    popcount,
    subsets_of_cardinality_at_most,
)


def test_subset_ops_basics():
    g = GroundSet(3)
    x1, x2 = 0b001, 0b010
    assert g.elements(x1 | x2) == (1, 2)
    assert x1 & x2 == 0
    assert 5 ^ 5 == 0
    assert g.elements(g.complement(x1)) == (2, 3)
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


def test_dense_container_cap():
    with pytest.raises(ValueError, match="dense"):
        SetFunction(GroundSet(31), np.zeros(8))
    with pytest.raises(ValueError, match="dense"):
        Spectrum(GroundSet(31), 4, np.zeros(8))


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
    assert set(sparse.entries) == set(np.nonzero(values)[0])
    assert np.array_equal(sparse.to_dense().values, values)


def test_sparse_validation():
    g = GroundSet(2)
    sp = SparseSetFunction(g, {3: 1.5})
    assert sp.to_dense().values.tolist() == [0.0, 0.0, 0.0, 1.5]
    assert sp(0) == 0.0 and sp(3) == 1.5
    with pytest.raises(ValueError):
        SparseSetFunction(g, {4: 1.0})
    # sparse containers go beyond the dense cap
    SparseSetFunction(GroundSet(45), {(1 << 45) - 1: 2.0})


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
