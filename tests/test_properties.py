"""Property tests: the fast paths against plain formulas, bit for bit where
both sum in the same order, to 1e-12 of the output scale where they do not.

The transform's schedule only shows at n > _BLOCK_BITS, so these tests shrink
the block to 2**2..2**5 rows, the transposed low part to 1 or 2 bits and with
them model 5's column chunks, which are its scratch blocks: then n <= 8 crosses
several blocks, the paired-block reversal of models 1 and 4, both phases of a
block, and model 5's ping-pong with odd and even stage counts.  Likewise the
sparse evaluator's probe blocks, hit tables and term groups and reconstruct's
row blocks shrink to a few entries.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from setsp import filters, sampling, transforms
from setsp.compression import (
    SetFunctionOracle,
    compress_band,
    estimate_relative_errors,
)
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSpectrum,
    SparseSupport,
    subsets_of_cardinality_at_most,
)
from setsp.coverage import GaussianModel
from setsp.experiments import entropy_oracle
from setsp.sampling import (
    eval_sparse_many,
    lattice_norms,
    oracle_from_sparse_spectrum,
    reconstruct,
    select_support,
)
from setsp.transforms import FORWARD, INVERSE, dsft_inplace

from reference import (
    band_coefficient_reference,
    bandlimited_eval_reference,
    butterfly_reference,
    forward_substitution_reference,
    lattice_norm_reference,
    relative_errors_reference,
    select_support_reference,
    sparse_eval_reference,
)

PAIRS = [(model, direction) for model in range(1, 6) for direction in (FORWARD, INVERSE)]

# Zero or of magnitude 1e-6..1e6: every partial sum stays a normal float, so
# scaling by 0.5 once per stage or by 0.5**n at the end gives the same bits.
VALUES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-6),
)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


# _BLOCK_BITS: on 1-d input, blocks of 2..5 row bits split into b = low // 2
# transposed and a = low - b in-place stages, (b, a) odd/odd, odd/even,
# even/even and even/odd, so that model 5's two ping-pong phases each run an
# odd and an even count.  Model 5's high stages run on chunks of as many of
# the 2**low columns as a scratch block holds: 2**(low - h) of them for h
# high stages, one column through scratch blocks grown past the block when h
# > low, and one stage copied back when h == 1 (the explicit examples below
# reach both).  Chunk and block are powers of two of the same rows, so
# no chunk is ragged; 3-column input runs them on rows of 3 elements.
SCHEDULES = [2, 3, 4, 5]


def _zero_block_values(data, shape) -> np.ndarray:
    """Runs of 2**g rows, each all +0.0, +0.0 but for one -0.0, +0.0 but for
    one nonzero in its first or last row, or drawn from VALUES."""
    values = np.zeros(shape)
    rows = 1 << data.draw(st.integers(0, shape[0].bit_length() - 1))
    nonzero = VALUES.filter(lambda v: v != 0.0)
    for start in range(0, shape[0], rows):
        run = values[start : start + rows]
        kind = data.draw(st.sampled_from(["zero", "minus zero", "edge", "dense"]))
        if kind == "dense":
            run[...] = data.draw(arrays(np.float64, run.shape, elements=VALUES))
        elif kind != "zero":
            at = data.draw(st.integers(0, run.size - 1) if kind == "minus zero"
                           else st.sampled_from([0, run.size - 1]))
            run.flat[at] = -0.0 if kind == "minus zero" else data.draw(nonzero)
    return values


def _keeps_plus_zero(model, direction) -> bool:
    """Whether the stage op of the `_TABLE` row maps a pair of +0.0 to a
    pair of +0.0, found by running it on one."""
    op = transforms._TABLE[(model, direction)][2]
    x, y = np.zeros(2), np.zeros(2)
    if op is transforms._wht:
        op(x, y, 0)  # from x into y
    else:
        op(*transforms._halves(y, 0))
    return not y.view(np.uint64).any()


def _loaded_blocks(values, model, direction, block_bits) -> int:
    """How many blocks `dsft_inplace` loads: all of them when the stage op
    turns +0.0 into -0.0 (model 2's negation), else those not all +0.0
    (under models 1 and 4, those in a mirrored pair not all +0.0)."""
    n = values.shape[0].bit_length() - 1
    low = min(n, max(1, block_bits - ((values.size >> n) - 1).bit_length()))
    zero = [not b.view(np.uint64).any() for b in values.reshape(1 << (n - low), -1)]
    if not _keeps_plus_zero(model, direction):
        return len(zero)
    if transforms._TABLE[(model, direction)][1]:
        zero = [z and mirror for z, mirror in zip(zero, reversed(zero))]
    return zero.count(False)


@pytest.mark.parametrize("model,direction", PAIRS)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), columns=st.integers(0, 3), blocks=st.booleans())
@example(data=None, n=5, columns=0, blocks=True)
@example(data=None, n=6, columns=0, blocks=False)
@example(data=None, n=4, columns=3, blocks=False)
def test_blocked_transform_is_the_plain_butterfly(model, direction, data, n, columns, blocks):
    # explicit examples: all +0.0 in 8 blocks under the first schedule, where
    # each row's kernel rule meets the stage op run on +0.0 (_loaded_blocks);
    # standard normal values, where model 5's last schedule runs one high
    # stage and, on 1-d input, the first runs h = 4 > low = 2
    shape = (1 << n, columns) if columns else (1 << n,)
    if data is None:
        values = np.zeros(shape) if blocks else np.random.default_rng(n).standard_normal(shape)
    elif blocks:
        values = _zero_block_values(data, shape)
    else:
        values = data.draw(arrays(np.float64, shape, elements=VALUES))
    cols = values.reshape(1 << n, -1)
    want = np.column_stack(
        [butterfly_reference(model, direction, cols[:, j].tolist(), n) for j in range(cols.shape[1])]
    ).reshape(shape)
    for block_bits in SCHEDULES:
        got = values.copy()
        with mock.patch.object(transforms, "_BLOCK_BITS", block_bits), \
                mock.patch.object(transforms, "_transpose", wraps=transforms._transpose) as copies:
            additions = dsft_inplace(got, model, direction)
        assert additions == n * (values.size // 2) * (2 if model == 5 else 1)
        assert _same_bits(got, want)
        # each loaded block is copied into scratch and back
        loaded = _loaded_blocks(values, model, direction, block_bits) if n else 0
        assert copies.call_count == 2 * loaded


@pytest.mark.parametrize("model,direction", PAIRS)
def test_transform_writes_through_strided_views_and_restores_the_bufsize(model, direction):
    # at n = 7 above a block of 2**4 rows: several blocks and high stages
    rng = np.random.default_rng(model)
    n = 7
    flat = rng.standard_normal(2 << n)
    grid = np.asfortranarray(rng.standard_normal((1 << n, 3)))
    want_flat, want_grid = flat[::2].copy(), grid.copy(order="C")
    saved = np.getbufsize()
    np.setbufsize(4096)
    try:
        with mock.patch.object(transforms, "_BLOCK_BITS", 4):
            for contiguous, view in ((want_flat, flat[::2]), (want_grid, grid)):
                dsft_inplace(contiguous, model, direction)
                dsft_inplace(view, model, direction)
                assert _same_bits(view, contiguous)
                assert np.getbufsize() == 4096
            # read-only input fails inside the transform's buffer-size scope
            frozen = np.zeros(1 << n)
            frozen.setflags(write=False)
            with pytest.raises(ValueError, match="read-only"):
                dsft_inplace(frozen, model, direction)
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(saved)
    assert _same_bits(flat[1::2], np.random.default_rng(model).standard_normal(2 << n)[1::2])


REMAP = {
    3: lambda masks, Q: masks & ~Q,
    4: lambda masks, Q: masks | Q,
    5: lambda masks, Q: masks ^ Q,
}


@pytest.mark.parametrize("model", (3, 4, 5))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 8))
def test_direct_convolution_is_the_index_remap(model, data, n):
    size = 1 << n
    weight = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]),
                       st.floats(min_value=-1e3, max_value=1e3))
    # taps whose lowest bit is 0 or 1, with any bits above
    low_bit = st.tuples(st.integers(0, size - 1), st.sampled_from([1, 2, 3])).map(
        lambda t: (t[0] & ~3 | t[1]) & (size - 1))
    taps = {0: data.draw(weight)}
    taps.update(data.draw(st.dictionaries(st.integers(0, size - 1), weight, max_size=5)))
    taps.update(data.draw(st.dictionaries(low_bit, weight, max_size=3)))
    taps[size - 1] = data.draw(weight)
    values = data.draw(arrays(np.float64, size, elements=VALUES))
    ground = GroundSet(n)
    h = filters.Filter.from_taps(ground, taps)
    masks = np.arange(size, dtype=np.int64)
    want = np.zeros(size)
    for Q, w in taps.items():  # the filter keeps the dict's order
        want += w * values[REMAP[model](masks, Q)]
    # blocks of 2, 4 and 8 elements make the taps' high bits read other blocks
    for block_bits in (1, 2, 3, transforms._BLOCK_BITS):
        with mock.patch.object(transforms, "_BLOCK_BITS", block_bits):
            got = filters._convolve_direct(model, h, SetFunction.wrap(ground, values)).values
        assert _same_bits(got, want)


@pytest.mark.parametrize("model", range(1, 6))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 8))
def test_direct_and_spectral_convolution_agree(model, data, n):
    size = 1 << n
    taps = data.draw(st.dictionaries(st.integers(0, size - 1), st.floats(-1e3, 1e3),
                                     min_size=1, max_size=6))
    values = data.draw(arrays(np.float64, size, elements=VALUES))
    _assert_convolution_paths_agree(model, n, taps, values)


def test_direct_and_spectral_convolution_agree_below_the_normal_range():
    # the product 1.5 * 2**-1074 rounds to 2**-1073 on the direct path, and
    # the spectral path's 2**-1074 is one subnormal ulp from it
    _assert_convolution_paths_agree(1, 1, {0: 5e-324}, np.array([1.5, 1.5]))


def _assert_convolution_paths_agree(model, n, taps, values):
    ground = GroundSet(n)
    h = filters.Filter.from_taps(ground, taps)
    signal = SetFunction.wrap(ground, values)
    direct = filters.convolve(model, h, signal, path="direct").values
    spectral = filters.convolve(model, h, signal, path="spectral").values
    # every output and every partial sum of either path is at most this
    scale = sum(abs(w) for w in taps.values()) * float(np.abs(values).sum())
    # A product that underflows is off by up to half a subnormal ulp
    # (2**-1074) absolutely, which no relative bound covers; additions of
    # subnormals are exact.  That is one product per tap on the direct path,
    # and on the spectral path one per frequency, which the inverse's n
    # stages sum with weights of magnitude at most 1.
    underflow = (len(taps) + (1 << n)) * 2.0**-1074
    assert float(np.abs(direct - spectral).max()) <= 1e-12 * scale + underflow


# Small n, plus the edges of the narrow mask types eval_sparse_many uses.
SPARSE_N = st.one_of(st.integers(0, 10), st.sampled_from([16, 17, 32, 33, 62]))
# Half of the draws with room for more than 64 terms, so for several table words.
WIDE_N = st.one_of(st.integers(7, 10), SPARSE_N)


def _support(data, n: int, max_size: int) -> SparseSupport:
    size = 1 << n
    freqs = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                               max_size=min(size, max_size)))
    return SparseSupport(GroundSet(n), np.array(freqs, dtype=np.int64))


def _edge_masks(n: int):
    """The empty set, N and the sets of size 1 and n - 1, which the
    complemented models swap, or any mask: a frequency T = 0 or N reaches
    every probe or one, and the table of a chunk of all-zero or all-one bits
    passes every term or none."""
    full = (1 << n) - 1
    singles = [1 << i for i in range(n)]
    edge = st.sampled_from([0, full] + singles + [full ^ m for m in singles])
    return st.one_of(edge, st.integers(0, full))


def _wide_spectrum(data, n: int, coeff, model: int = 4, band: bool = False) -> SparseSpectrum:
    """Up to a dozen drawn edge masks and up to 200 more from a drawn seed,
    so that the hit tables fill several words and groups without
    Hypothesis drawing each term; half of the coefficients come from a
    drawn pool of `coeff` values, so signed zeros, subnormals and
    overflowing sums show up among the many terms.  With `band`, half of
    the supports are instead every |B| <= 0..3 (at most 700 terms), in
    which the steps between neighbours recur."""
    size = 1 << n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if band and data.draw(st.booleans()):
        orders = [k for k in range(min(n, 3) + 1)
                  if sum(math.comb(n, j) for j in range(k + 1)) <= 700]
        freqs = subsets_of_cardinality_at_most(GroundSet(n), data.draw(st.sampled_from(orders)))
    else:
        edges = data.draw(st.lists(_edge_masks(n), max_size=12))
        most = min(size, 200)
        uniform = rng.integers(0, size, data.draw(st.one_of(st.just(most), st.integers(0, most))))
        freqs = np.unique(np.concatenate((np.array(edges, dtype=np.int64), uniform)))
    pool = data.draw(st.lists(coeff, min_size=1, max_size=8))
    coeffs = np.where(rng.random(freqs.size) < 0.5, rng.choice(pool, freqs.size),
                      rng.uniform(-1e6, 1e6, freqs.size))
    return SparseSpectrum(GroundSet(n), model, freqs, coeffs)


def _small_tables(data, n: int):
    """Patches the sparse evaluator's routing threshold over 0..n+1, and its
    table width, probe blocks, term groups, dense-step bound, sweep blocks
    and sign-plane count and bytes down to a few."""
    bits = data.draw(st.integers(1, 6))
    return mock.patch.multiple(
        sampling, _TABLE_MIN_CARD=data.draw(st.integers(0, n + 1)),
        _table_bits=lambda size: bits, _TABLE_PROBES=data.draw(st.integers(1, 9)),
        _TABLE_WORDS=data.draw(st.integers(1, 3)), _TABLE_HIT_BYTES=data.draw(st.integers(1, 5)),
        _EVAL_CHUNK=data.draw(st.integers(1, 5)), _SIGN_PLANES=data.draw(st.integers(0, 40)),
        _SIGN_PLANE_BYTES=data.draw(st.integers(8, 40)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=WIDE_N,
       shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7))
def test_blocked_sparse_eval_is_the_sequential_sum(data, n, shape):
    # model 4 against its own disjointness reference; the spectrum refuses
    # infinite coefficients, so sums that overflow stand in for them
    coeff = st.one_of(VALUES, st.sampled_from([1e308, -1e308]))
    spectrum = _wide_spectrum(data, n, coeff)
    masks = data.draw(arrays(np.int64, shape, elements=_edge_masks(n)))
    with _small_tables(data, n), np.errstate(over="ignore"):
        got = eval_sparse_many(spectrum, masks)
        scalar = [eval_sparse_many(spectrum, [m])[0] for m in masks.ravel().tolist()]
    want = sparse_eval_reference(spectrum.support.freqs.tolist(), spectrum.coeffs.tolist(),
                                 masks.ravel().tolist())
    assert got.shape == masks.shape
    assert _same_bits(got, np.reshape(want, masks.shape))
    assert _same_bits(np.array(scalar, dtype=np.float64), want)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=SPARSE_N, rows=st.integers(1, 4))
def test_sampling_theorem_recovers_exactly_sparse_spectra(data, n, rows):
    # integer coefficients keep every partial sum exact, so recovery is exact
    support = _support(data, n, 24)
    coeffs = np.array(
        data.draw(st.lists(st.integers(-1000, 1000), min_size=len(support),
                           max_size=len(support))),
        dtype=np.float64,
    )
    oracle = oracle_from_sparse_spectrum(SparseSpectrum(support.ground, 4, support.freqs, coeffs))
    with mock.patch.object(sampling, "_RECONSTRUCT_ROWS", rows):
        got = reconstruct(oracle, support)
    assert oracle.queries == len(support)
    assert np.array_equal(got.support.freqs, support.freqs)
    assert np.array_equal(got.coeffs, coeffs)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=SPARSE_N, rows=st.integers(1, 4), count=st.integers(1, 5))
def test_batched_reconstruct_is_per_oracle_reconstruct(data, n, rows, count):
    # inexact coefficients, some of them off the support, so that another
    # summation order shows in the last bits; a few low masks recur, so that
    # some rows include 8 or more others, where a strided gather would sum
    # them in another order
    size = 1 << n
    mask = st.one_of(st.integers(0, min(size, 16) - 1), st.integers(0, size - 1))
    k = data.draw(st.one_of(st.integers(0, 1), st.integers(0, min(size, 24))))
    freqs = data.draw(st.lists(mask, unique=True, min_size=k, max_size=k))
    support = SparseSupport(GroundSet(n), np.array(freqs, dtype=np.int64))
    coeff = st.one_of(VALUES, st.floats(-1e3, 1e3))
    truths = [_sparse_spectrum(data, n, 16, coeff) for _ in range(count)]
    oracles = [oracle_from_sparse_spectrum(truth) for truth in truths]
    with mock.patch.object(sampling, "_RECONSTRUCT_ROWS", rows):
        batched = reconstruct(oracles, support)
        single = [reconstruct(oracle_from_sparse_spectrum(truth), support) for truth in truths]
    assert [oracle.queries for oracle in oracles] == [k] * count
    assert len(batched) == count
    queries = sampling.sampling_indices(support)
    for truth, many, one in zip(truths, batched, single):
        assert np.array_equal(many.support.freqs, support.freqs)
        assert _same_bits(many.coeffs, one.coeffs)
        want = forward_substitution_reference(support.freqs.tolist(),
                                              eval_sparse_many(truth, queries).tolist())
        assert _same_bits(one.coeffs, want)


@pytest.mark.parametrize("model", range(1, 6))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=WIDE_N,
       shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7))
def test_blocked_band_eval_is_the_sequential_sum(model, data, n, shape):
    # arbitrary finite coefficients, so that another summation order shows in
    # the last bits, with signed zeros, subnormals and sums that overflow;
    # the sweep and the tables split the terms anywhere, and one-probe calls
    # match the batch; under model 5, half of the supports are bands, which
    # keep sign planes across blocks of 1 to 5 probes
    coeff = st.one_of(VALUES, st.floats(-1e6, 1e6),
                      st.sampled_from([1e308, -1e308, 5e-324, -5e-324]))
    spectrum = _wide_spectrum(data, n, coeff, model, band=model == 5)
    masks = data.draw(arrays(np.int64, shape, elements=_edge_masks(n)))
    with _small_tables(data, n), np.errstate(over="ignore"):
        got = eval_sparse_many(spectrum, masks)
        scalar = [eval_sparse_many(spectrum, [m])[0] for m in masks.ravel().tolist()]
    want = bandlimited_eval_reference(model, n, spectrum.support.freqs.tolist(),
                                      spectrum.coeffs.tolist(), masks.ravel().tolist())
    assert got.shape == masks.shape
    assert _same_bits(got, np.reshape(want, masks.shape))
    assert _same_bits(np.array(scalar, dtype=np.float64), want)


def _sparse_spectrum(data, n: int, max_size: int, coeff) -> SparseSpectrum:
    support = _support(data, n, max_size)
    coeffs = data.draw(st.lists(coeff, min_size=len(support), max_size=len(support)))
    return SparseSpectrum(support.ground, 4, support.freqs, coeffs)


def _on(freqs: np.ndarray, spectrum) -> np.ndarray:
    """The spectrum's coefficients placed on the ascending masks `freqs`."""
    out = np.zeros(freqs.size)
    out[np.searchsorted(freqs, spectrum.support.freqs)] = spectrum.coeffs
    return out


# A coefficient whose square is subnormal: unscaled, its Gram norm is off
# by 5e-10 relative.
_TINY = SparseSpectrum(GroundSet(1), 4, [0], [5.035903750086117e-158])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), fixed=st.none())
@example(data=None, n=1, fixed=(_TINY, _TINY.support))
def test_gram_norms_are_the_lattice_norms(data, n, fixed):
    # the sampling experiment's two gaps: truth and truth - reconstruction
    truth, support = fixed or (
        _sparse_spectrum(data, n, 24, st.one_of(VALUES, st.floats(-1e3, 1e3))),
        _support(data, n, 24),
    )
    recon = reconstruct(oracle_from_sparse_spectrum(truth), support)
    freqs = np.unique(np.concatenate((truth.support.freqs, support.freqs)))
    columns = np.column_stack((_on(freqs, truth), _on(freqs, truth) - _on(freqs, recon)))
    got = lattice_norms(GroundSet(n), freqs, columns)
    scale = lattice_norm_reference(n, truth.support.freqs.tolist(), truth.coeffs.tolist())
    gap = lattice_norm_reference(n, freqs.tolist(), columns[:, 1].tolist())
    assert abs(got[0] - scale) <= 1e-12 * scale
    assert abs(got[1] - gap) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 12))
def test_gram_norm_of_an_exact_reconstruction_is_zero(data, n):
    # integer coefficients on a support inside the queried one recover exactly
    truth = _sparse_spectrum(data, n, 16, st.integers(-1000, 1000))
    freqs = np.union1d(truth.support.freqs, _support(data, n, 8).freqs)
    recon = reconstruct(oracle_from_sparse_spectrum(truth), SparseSupport(GroundSet(n), freqs))
    gap = _on(freqs, truth) - _on(freqs, recon)
    assert not gap.any()
    assert lattice_norms(GroundSet(n), freqs, gap[:, None]).tolist() == [0.0]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 10), count=st.integers(1, 4))
def test_sparse_select_support_is_the_lattice_ranking(data, n, count):
    size = 1 << n
    ground = GroundSet(n)
    # a few low masks and magnitudes recur, so supports overlap and scores tie
    mask = st.one_of(st.integers(0, min(size, 8) - 1), st.integers(0, size - 1))
    coeff = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0]), st.floats(-10, 10))
    spectra = []
    for _ in range(count):
        entries = data.draw(st.dictionaries(mask, coeff, max_size=min(size, 12)))
        spectra.append(SparseSpectrum(ground, 4, list(entries), list(entries.values())))
    # mostly few enough that the cut falls among the masks that score
    k = data.draw(st.one_of(st.integers(0, min(size, 24)), st.integers(0, size)))
    got = select_support(spectra, k)
    want = select_support_reference(
        n, [(sp.support.freqs.tolist(), sp.coeffs.tolist()) for sp in spectra], k)
    assert sorted(got.freqs.tolist()) == want


ORACLE_KINDS = ["dense", "sparse4", "gaussian"]


def _oracle(kind: str, data, n: int) -> SetFunctionOracle:
    """A dense, sparse model-4 or Gaussian-entropy oracle on n elements."""
    ground = GroundSet(n)
    if kind == "dense":
        values = data.draw(arrays(np.float64, 1 << n, elements=VALUES))
        return SetFunctionOracle.from_setfunction(SetFunction(ground, values))
    if kind == "sparse4":
        return oracle_from_sparse_spectrum(
            _sparse_spectrum(data, n, 12, st.one_of(VALUES, st.floats(-1e3, 1e3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="covariance"))
    W = rng.standard_normal((n, n))
    return entropy_oracle(GaussianModel(W @ W.T / n + 0.5 * np.eye(n)))


def _recording(oracle: SetFunctionOracle) -> list[np.ndarray]:
    """The mask arrays the oracle's batch function is called with, from now on."""
    calls, evaluate = [], oracle._evaluate
    oracle._evaluate = lambda masks: (calls.append(masks.copy()), evaluate(masks))[1]
    return calls


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), rows=st.sampled_from([None, 1, 2, 3]))
def test_query_many_on_a_covered_lattice_is_per_mask_query(kind, data, n, rows):
    oracle = _oracle(kind, data, n)
    size = 1 << n
    # at least 2**n masks, 1-d or 2-d, from a pool that may be small: repeats
    cols = data.draw(st.integers(-(-size // (rows or 1)), 2 * size + 3))
    shape = (cols,) if rows is None else (rows, cols)
    pool = data.draw(st.integers(1, size))
    masks = data.draw(arrays(np.int64, shape, elements=st.integers(0, pool - 1)))
    calls = _recording(oracle)
    got = oracle.query_many(masks)
    assert oracle.queries == masks.size
    assert [c.tolist() for c in calls] == [np.unique(masks).tolist()]
    assert got.shape == masks.shape
    want = np.concatenate([oracle.query_many([m]) for m in masks.ravel()])
    assert _same_bits(got.ravel(), want)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), model=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_deduplicated_error_estimate_is_the_per_probe_estimate(kind, data, n, model, seed):
    oracle = _oracle(kind, data, n)
    size = 1 << n
    m_samples = data.draw(st.integers(size, 3 * size))
    freqs = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=min(size, 8)))
    coeffs = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(freqs), max_size=len(freqs)))
    band = SparseSpectrum(GroundSet(n), model, freqs, coeffs)
    seen = []

    def affine(masks):
        seen.append(masks.copy())
        return masks * 0.25 - 1.0

    try:
        got = estimate_relative_errors(oracle, [lambda masks: eval_sparse_many(band, masks),
                                                affine], m_samples, seed=seed)
    except ValueError as exc:
        assert "all sampled oracle values are zero" in str(exc)
        return
    assert oracle.queries == m_samples
    assert len(seen) == 1 and np.all(np.diff(seen[0]) > 0)  # each probe once
    want = relative_errors_reference(
        lambda A: oracle.query_many([A])[0],
        [lambda A: eval_sparse_many(band, [A])[0], lambda A: A * 0.25 - 1.0],
        m_samples, seed, n)
    assert _same_bits(np.array(got), want)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(0, 8))
def test_batched_compress_band_is_the_per_frequency_sum(kind, data, n):
    oracle = _oracle(kind, data, n)
    m = data.draw(st.integers(0, n), label="m")
    calls = _recording(oracle)
    band = compress_band(oracle, m)
    assert len(calls) == 1
    assert oracle.queries == len(band.support)
    # each coefficient from its own 2**|B| one-mask queries
    want = [band_coefficient_reference(lambda A: oracle.query_many([A])[0], n, int(B))
            for B in band.support.freqs]
    assert _same_bits(band.coeffs, want)


def test_a_failing_property_leaves_the_session_running(tmp_path):
    # Hypothesis imports libcst to report a falsifying example, which warns;
    # under the suite's filterwarnings = error an unignored warning there ends
    # the session with INTERNALERROR and the later tests never run
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_plain():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q",
         probe.name], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
