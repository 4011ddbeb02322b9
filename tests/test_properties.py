"""Property tests: the fast paths against plain formulas, bit for bit where
both sum in the same order, to 1e-12 of the output scale where they do not.

The transform's cache blocking only shows at n > _BLOCK_BITS, so these tests
shrink the block to 2**2 or 2**3 rows: then n <= 8 crosses several blocks and
the paired-block reversal of models 1 and 4.  Likewise the sparse and band
evaluators' probe blocks and reconstruct's row blocks shrink to a few entries.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from setsp import compression, filters, sampling, transforms
from setsp.compression import BandlimitedApprox, eval_bandlimited, eval_bandlimited_many
from setsp.core import GroundSet, SetFunction
from setsp.sampling import (
    SparseSpectrum4,
    SparseSupport,
    eval_sparse,
    eval_sparse_many,
    lattice_norms,
    oracle_from_sparse_spectrum,
    reconstruct,
    select_support,
)
from setsp.transforms import FORWARD, INVERSE, dsft_inplace

from reference import (
    bandlimited_eval_reference,
    butterfly_reference,
    forward_substitution_reference,
    lattice_norm_reference,
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


def _same_bits_or_nan(got: np.ndarray, want) -> bool:
    """Bit-identical, except that any nan matches any nan."""
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and _same_bits(got[~nan], want[~nan])


@pytest.mark.parametrize("model,direction", PAIRS)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 8), columns=st.integers(0, 3),
       block_bits=st.sampled_from([2, 3]))
def test_blocked_transform_is_the_plain_butterfly(model, direction, data, n, columns,
                                                  block_bits):
    shape = (1 << n, columns) if columns else (1 << n,)
    values = data.draw(arrays(np.float64, shape, elements=VALUES))
    got = values.copy()
    with mock.patch.object(transforms, "_BLOCK_BITS", block_bits):
        additions = dsft_inplace(got, model, direction)
    assert additions == n * (values.size // 2) * (2 if model == 5 else 1)
    cols = values.reshape(1 << n, -1)
    want = np.column_stack(
        [butterfly_reference(model, direction, cols[:, j].tolist(), n) for j in range(cols.shape[1])]
    )
    assert _same_bits(got, want.reshape(shape))


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
    weight = st.floats(min_value=-1e3, max_value=1e3)
    taps = {0: data.draw(weight)}
    taps.update(data.draw(st.dictionaries(st.integers(0, size - 1), weight, max_size=5)))
    taps[size - 1] = data.draw(weight)
    values = data.draw(arrays(np.float64, size, elements=VALUES))
    ground = GroundSet(n)
    h = filters.Filter.from_taps(ground, taps)
    got = filters._convolve_direct(model, h, SetFunction.wrap(ground, values)).values

    masks = np.arange(size, dtype=np.int64)
    want = np.zeros(size)
    for Q, w in h.taps.entries.items():
        want += w * values[REMAP[model](masks, Q)]
    assert _same_bits(got, want)


@pytest.mark.parametrize("model", range(1, 6))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 8))
def test_direct_and_spectral_convolution_agree(model, data, n):
    size = 1 << n
    taps = data.draw(st.dictionaries(st.integers(0, size - 1), st.floats(-1e3, 1e3),
                                     min_size=1, max_size=6))
    values = data.draw(arrays(np.float64, size, elements=VALUES))
    ground = GroundSet(n)
    h = filters.Filter.from_taps(ground, taps)
    signal = SetFunction.wrap(ground, values)
    direct = filters.convolve(model, h, signal, path="direct").values
    spectral = filters.convolve(model, h, signal, path="spectral").values
    # every output and every partial sum of either path is at most this
    scale = sum(abs(w) for w in taps.values()) * float(np.abs(values).sum())
    assert float(np.abs(direct - spectral).max()) <= 1e-12 * scale


# Small n, plus the edges of the narrow mask types eval_sparse_many uses.
SPARSE_N = st.one_of(st.integers(0, 10), st.sampled_from([16, 17, 32, 33, 62]))


def _support(data, n: int, max_size: int) -> SparseSupport:
    size = 1 << n
    freqs = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                               max_size=min(size, max_size)))
    return SparseSupport(GroundSet(n), np.array(freqs, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=SPARSE_N, chunk=st.integers(1, 5),
       shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7))
def test_blocked_sparse_eval_is_the_sequential_sum(data, n, chunk, shape):
    # infinite coefficients too: skipping a term is exact for inf and nan sums
    coeff = st.one_of(VALUES, st.sampled_from([np.inf, -np.inf]))
    support = _support(data, n, 16)
    coeffs = data.draw(st.lists(coeff, min_size=len(support), max_size=len(support)))
    spectrum = SparseSpectrum4(support, np.array(coeffs, dtype=np.float64))
    masks = data.draw(arrays(np.int64, shape, elements=st.integers(0, (1 << n) - 1)))
    with mock.patch.object(sampling, "_EVAL_CHUNK", chunk), np.errstate(invalid="ignore"):
        got = eval_sparse_many(spectrum, masks)
        scalar = [eval_sparse(spectrum, int(m)) for m in masks.ravel()]
    want = sparse_eval_reference(support.freqs.tolist(), coeffs, masks.ravel().tolist())
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
    oracle = oracle_from_sparse_spectrum(SparseSpectrum4(support, coeffs))
    with mock.patch.object(sampling, "_RECONSTRUCT_ROWS", rows):
        got = reconstruct(oracle, support)
    assert oracle.queries == len(support)
    assert np.array_equal(got.support.freqs, support.freqs)
    assert np.array_equal(got.coeffs, coeffs)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=SPARSE_N, chunk=st.integers(1, 5),
       shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9))
def test_cardinality_sorted_eval_is_the_sequential_sum(data, n, chunk, shape):
    # probes crowd the cardinalities where the reachable prefix is all or
    # nothing: the empty set, N and the sets |A| = n - 1; the support holds
    # the empty set and N, the frequencies that reach every and one probe
    full = (1 << n) - 1
    edge = st.sampled_from([0, full] + [full ^ (1 << i) for i in range(n)])
    mask = st.one_of(edge, st.integers(0, full))
    freqs = sorted(set(data.draw(st.lists(mask, max_size=12))) | {0, full})
    coeff = st.one_of(VALUES, st.floats(-1e3, 1e3))
    coeffs = data.draw(st.lists(coeff, min_size=len(freqs), max_size=len(freqs)))
    spectrum = SparseSpectrum4(SparseSupport(GroundSet(n), np.array(freqs, dtype=np.int64)),
                               np.array(coeffs, dtype=np.float64))
    masks = data.draw(arrays(np.int64, shape, elements=mask))
    with mock.patch.object(sampling, "_EVAL_CHUNK", chunk):
        got = eval_sparse_many(spectrum, masks)
    want = sparse_eval_reference(spectrum.support.freqs.tolist(), spectrum.coeffs.tolist(),
                                 masks.ravel().tolist())
    assert got.shape == masks.shape
    assert _same_bits(got, np.reshape(want, masks.shape))


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
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 10), chunk=st.integers(1, 5),
       shape=array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7))
def test_blocked_band_eval_is_the_sequential_sum(model, data, n, chunk, shape):
    # arbitrary finite coefficients, so that another summation order shows in
    # the last bits; infinite ones give inf, or nan where a zero entry meets them
    coeff = st.one_of(VALUES, st.floats(-1e6, 1e6), st.sampled_from([np.inf, -np.inf]))
    size = 1 << n
    freqs = data.draw(st.lists(st.integers(0, size - 1), unique=True,
                               max_size=min(size, 12)))
    coeffs = data.draw(st.lists(coeff, min_size=len(freqs), max_size=len(freqs)))
    approx = BandlimitedApprox(GroundSet(n), model, np.array(freqs, dtype=np.int64),
                               np.array(coeffs, dtype=np.float64))
    masks = data.draw(arrays(np.int64, shape, elements=st.integers(0, size - 1)))
    with mock.patch.object(compression, "_EVAL_CHUNK", chunk), np.errstate(invalid="ignore"):
        got = eval_bandlimited_many(approx, masks)
        scalar = [eval_bandlimited(approx, int(m)) for m in masks.ravel()]
    want = bandlimited_eval_reference(model, n, freqs, coeffs, masks.ravel().tolist())
    assert got.shape == masks.shape
    assert _same_bits_or_nan(got, want)
    assert _same_bits_or_nan(np.array(scalar), want)


def _sparse_spectrum(data, n: int, max_size: int, coeff) -> SparseSpectrum4:
    support = _support(data, n, max_size)
    coeffs = data.draw(st.lists(coeff, min_size=len(support), max_size=len(support)))
    return SparseSpectrum4(support, np.array(coeffs, dtype=np.float64))


def _on(freqs: np.ndarray, spectrum) -> np.ndarray:
    """The spectrum's coefficients placed on the ascending masks `freqs`."""
    out = np.zeros(freqs.size)
    out[np.searchsorted(freqs, spectrum.support.freqs)] = spectrum.coeffs
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 12))
def test_gram_norms_are_the_lattice_norms(data, n):
    # the sampling experiment's two gaps: truth and truth - reconstruction
    truth = _sparse_spectrum(data, n, 24, st.one_of(VALUES, st.floats(-1e3, 1e3)))
    support = _support(data, n, 24)
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
        support = SparseSupport(ground, np.array(list(entries), dtype=np.int64))
        coeffs = np.array([entries[int(B)] for B in support.freqs], dtype=np.float64)
        spectra.append(SparseSpectrum4(support, coeffs))
    # mostly few enough that the cut falls among the masks that score
    k = data.draw(st.one_of(st.integers(0, min(size, 24)), st.integers(0, size)))
    got = select_support(spectra, k)
    want = select_support_reference(
        n, [(sp.support.freqs.tolist(), sp.coeffs.tolist()) for sp in spectra], k)
    assert sorted(got.freqs.tolist()) == want
