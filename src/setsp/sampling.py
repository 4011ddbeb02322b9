"""Sparse spectra: evaluation for all five models, and model-4 sampling.

If a set function is model-4 Fourier sparse with known support {B_1..B_k}
(sorted by cardinality then mask), querying it at A_i = N \\ B_i yields a
unit-lower-triangular linear system

    s_{A_i} = sum_j [B_j subseteq B_i] * coeff_j

solved by forward substitution: k queries, O(k^2) arithmetic, no divisions.
Exactly-sparse oracles reconstruct perfectly; approximately sparse ones get
the unique spectrum agreeing with the oracle on the queried subsets.  The
matrix depends only on the support, so `reconstruct` solves any number of
oracles on one support with one substitution, one right-hand side each, and
every right-hand side gets the bits it would get alone.

A sparse spectrum of any of the five models evaluates as its inverse
transform restricted to the support (`eval_sparse_many`); the compression
band and the sampling support are both such spectra.

Norms over the whole lattice need no lattice either: the model-4 basis
vectors f^B_A = [A & B == 0] have the Gram matrix <f^B, f^C> = 2**(n - |B | C|),
so the l2 norm of a sparse spectrum is a quadratic form on its support
(`lattice_norms`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    GroundSet,
    SparseSpectrum,
    SparseSupport,
    _support_order,
    is_subset,
    masks_by_cardinality,
    popcount,
)
from .compression import SetFunctionOracle
from . import io as setfn_io
from .transforms import INVERSE, _closed_form


# Probes per block of `eval_sparse_many`: the block's masks and cardinalities,
# its hit, disjointness and term buffers and its slice of the output take at
# most 26 bytes per probe for n <= 32, so 2**16 probes (1.7 MiB) stay in a
# 2 MiB L2 while the support is swept over them.
_EVAL_CHUNK = 1 << 16
# Frequencies with |T| at least this add their coefficient through
# `np.add(..., where=)`, the others as a 0/1 product then a full add.  The
# masked add gets cheaper as the hit rate 2**-|T| falls, and the product
# costs the same at every rate: per 2**16-probe block at n=20, 635 against
# 107 us at |T| = 1, 73 against 88 us at |T| = 5 and 50 against 95 at 6
# (2-vCPU Xeon, numpy 2.4.6).
_MASKED_ADD_MIN_CARD = 5
# Rows of `reconstruct`'s inclusion pattern built at once: a k=500 support
# takes two blocks, and a 2**16 one holds 16 MiB of it at a time, not 4 GiB.
_RECONSTRUCT_ROWS = 256


def sampling_indices(support: SparseSupport) -> np.ndarray:
    """The query sets A_i = N \\ B_i, in support order."""
    return support.ground.full_mask ^ support.freqs


def eval_sparse_many(spectrum: SparseSpectrum, masks) -> np.ndarray:
    """The set function of a sparse spectrum at an array of masks, any shape.

    Masks outside [0, 2**n) raise ValueError before any work, as in
    `SetFunctionOracle.query_many`.  Each probe A sums c_B * f^B_A from +0.0
    in support order, with f^B_A = scale**n * (-1)**|A & B| * [condition]
    (`transforms._closed_form`).  Under models 1-4 the condition is
    P & T == 0, with P = A or N \\ A and T = B or N \\ B, and the sign is
    (-1)**|T| when P = N \\ A, folded into c_B, times (-1)**|A| when
    T = N \\ B, applied once per probe at the end as a sign-bit flip
    followed by + 0.0, so that no -0.0 appears (negating every term of a sum
    negates the sum exactly).  P and T can be disjoint only if
    |P| + |T| <= n, so the probes P are sorted once by cardinality, and each
    run of frequencies with one |T| sweeps only the prefix of each block of
    `_EVAL_CHUNK` probes (which stays in L2) with |P| <= n - |T|.  A failed
    term is skipped or added as 0 * c_B = +-0.0; neither moves a bit, since
    the sum starts at +0.0 and cannot become -0.0.  Model 5 adds every c_B,
    its sign bit flipped by the parity of |A & B|.
    """
    ground, n = spectrum.ground, spectrum.ground.n
    masks = np.asarray(masks, dtype=np.int64)
    flat = masks.ravel()
    bad = (flat < 0) | (flat >= ground.size)
    if bad.any():
        raise ValueError(f"mask {flat[bad][0]} out of range for n={n}")
    complement, want, scale = _closed_form(spectrum.model, INVERSE)
    full = ground.full_mask
    tests = spectrum.support.freqs ^ full if complement else spectrum.support.freqs
    coeffs = spectrum.coeffs * scale**n
    if want == "all":
        coeffs = np.where(popcount(tests) & 1, -coeffs, coeffs)
    narrow = np.min_scalar_type(full)
    probes = flat ^ full if want == "all" else flat
    cards = np.bitwise_count(probes).astype(np.uint8)
    order = np.argsort(cards, kind="stable")
    cards = cards[order]
    sorted_probes = probes[order].astype(narrow)
    acc_sorted = np.zeros(flat.size)
    width = min(_EVAL_CHUNK, flat.size)
    hit, disjoint, term = np.empty(width, narrow), np.empty(width, bool), np.empty(width)
    terms = list(zip(tests.astype(narrow),
                     coeffs.view(np.uint64) if want is None else coeffs.tolist()))
    # runs of terms with one |T|, which reach the probes |P| <= n - |T|
    sizes = popcount(tests) if want else np.zeros(tests.size, dtype=np.int64)
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    runs = [(int(sizes[a]), terms[a:b]) for a, b in zip(starts, [*starts[1:], len(terms)])]
    cutoffs = np.arange(n + 1, dtype=np.uint8)
    for start in range(0, flat.size, _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        # limit[r]: how many probes of this block have |P| <= r
        limit = np.searchsorted(cards[start:stop], cutoffs, side="right").tolist()
        for size, run in runs:
            w = limit[n - size]
            if not w:
                continue
            P, acc = sorted_probes[start : start + w], acc_sorted[start : start + w]
            h, d, t = hit[:w], disjoint[:w], term[:w]
            if want is None:
                bits = t.view(np.uint64)
                for T, c in run:
                    np.bitwise_and(P, T, out=h)
                    np.bitwise_count(h, out=bits)
                    np.left_shift(bits, 63, out=bits)
                    np.bitwise_xor(bits, c, out=bits)
                    np.add(acc, t, out=acc)
            elif size >= _MASKED_ADD_MIN_CARD:
                for T, c in run:
                    np.bitwise_and(P, T, out=h)
                    np.logical_not(h, out=d)
                    np.add(acc, c, out=acc, where=d)
            else:
                for T, c in run:
                    np.bitwise_and(P, T, out=h)
                    np.logical_not(h, out=d)
                    np.multiply(d, c, out=t)
                    np.add(acc, t, out=acc)
    out = np.empty(flat.size)
    out[order] = acc_sorted
    if complement:
        bits = out.view(np.uint64)
        bits ^= np.bitwise_count(flat).astype(np.uint64) << np.uint64(63)
        out += 0.0
    return out.reshape(masks.shape)


def oracle_from_sparse_spectrum(spectrum: SparseSpectrum) -> SetFunctionOracle:
    return SetFunctionOracle(spectrum.ground, lambda masks: eval_sparse_many(spectrum, masks))


def reconstruct(oracles, support: SparseSupport) -> SparseSpectrum | list[SparseSpectrum]:
    """Recover the model-4 coefficients on `support` from exactly k queries
    per oracle.

    `oracles` is one oracle, which gives one SparseSpectrum, or a sequence
    of oracles on the support's ground set, which gives a list of them in
    the same order.  Each oracle is queried at N \\ B_i, and one forward
    substitution (`_forward_substitution`) solves all of them at once.
    """
    single = isinstance(oracles, SetFunctionOracle)
    oracles = [oracles] if single else list(oracles)
    for oracle in oracles:
        if oracle.ground != support.ground:
            raise ValueError(f"oracle on n={oracle.ground.n} cannot answer a support "
                             f"on n={support.ground.n}")
    queries = sampling_indices(support)
    values = np.empty((len(support), len(oracles)))
    for t, oracle in enumerate(oracles):
        values[:, t] = oracle.query_many(queries)
    coeffs = _forward_substitution(support.freqs, values)
    spectra = [SparseSpectrum(support, 4, row) for row in coeffs.T]
    return spectra[0] if single else spectra


def _forward_substitution(freqs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Solve sum_j [B_j subseteq B_i] * coeff_j = values_i in support order.

    `values` is (k, m), one column per right-hand side, and so is the
    result.  The strictly lower inclusion pattern is built once per
    block of `_RECONSTRUCT_ROWS` rows and shared by all columns.  Row i
    needs the rows j < i with B_j subseteq B_i, and each of those has fewer
    included predecessors than row i (theirs are row i's too, and B_j is
    not its own).  So rows with the same number L of them never depend on
    each other, and a block is solved L by L, ascending, all rows of one L
    at once.  Their predecessors are gathered with `take(..., axis=1)` from
    a right-hand-side-major (m, k) array into an (m, rows, L) array whose
    length-L rows are contiguous, so `.sum(axis=2)` is, for every row and
    column, the pairwise sum that numpy's `.sum()` of that row's included
    coefficients in support order gives: the bits depend neither on m nor
    on the grouping.  (A plain `coeffs[:, preds]` comes out strided and
    sums in another order.)
    """
    rhs = values.T
    coeffs = np.zeros(rhs.shape)
    for start in range(0, freqs.size, _RECONSTRUCT_ROWS):
        stop = min(start + _RECONSTRUCT_ROWS, freqs.size)
        inside = is_subset(freqs[None, :stop], freqs[start:stop, None])
        # strictly lower: j > i is never included, since B_j is then larger
        # or a different set of the same size
        np.fill_diagonal(inside[:, start:], False)
        rows, cols = np.divmod(np.flatnonzero(inside), stop)
        counts = np.bincount(rows, minlength=stop - start)
        firsts = np.cumsum(counts) - counts
        order = np.argsort(counts, kind="stable")
        edges = [0, *(np.flatnonzero(np.diff(counts[order])) + 1).tolist(), order.size]
        for first, last in zip(edges, edges[1:]):
            group = order[first:last]
            preds = cols[firsts[group][:, None] + np.arange(counts[group[0]])]
            targets = start + group
            coeffs[:, targets] = rhs[:, targets] - coeffs.take(preds, axis=1).sum(axis=2)
    return coeffs.T


def lattice_norms(ground: GroundSet, freqs, coeffs) -> np.ndarray:
    """l2 norms over all 2**n subsets of model-4 spectra given on `freqs`.

    Column j of `coeffs` holds one spectrum, its row i the coefficient at
    mask freqs[i].  With the Gram matrix G_ij = 2**(n - |B_i | B_j|) of the
    basis vectors, each squared norm is the quadratic form d^T G d:
    O(len(freqs)**2) work for any n.  G is positive semi-definite, so a
    negative form is rounding and reads as 0; a zero column gives exactly 0.

    Each column is scaled by the power of two 2**-e that brings its largest
    |coefficient| into [1/2, 1), and its norm by 2**e after.  A power-of-two
    scaling is exact while every value stays normal, so this moves no bit
    except where an unscaled square would have been subnormal.
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    gram = np.ldexp(1.0, ground.n - popcount(freqs[:, None] | freqs[None, :]))
    _, exps = np.frexp(np.abs(coeffs).max(axis=0, initial=0.0))
    scaled = np.ldexp(coeffs, -exps)
    forms = np.einsum("ij,ij->j", scaled, gram @ scaled)
    return np.ldexp(np.sqrt(np.maximum(forms, 0.0)), exps)


def select_support(training_spectra, k: int) -> SparseSupport:
    """Rank frequencies by mean absolute coefficient over sparse model-4
    training spectra and return the top k as a SparseSupport.

    Ties break by ascending (cardinality, mask), so selection is
    deterministic.  Only the union of the training supports can score above
    zero, so only it is ranked; when fewer than k of its masks score above
    zero, the rest are the first zero-score masks in (cardinality, mask)
    order, the same masks a ranking of the whole lattice would pick.
    """
    spectra = list(training_spectra)
    if not spectra:
        raise ValueError("select_support requires at least one training spectrum")
    ground = spectra[0].ground
    for sp in spectra:
        if not isinstance(sp, SparseSpectrum) or sp.model != 4:
            raise TypeError(f"training spectra must be sparse model 4, got a "
                            f"model-{sp.model} {type(sp).__name__}")
        if sp.ground != ground:
            raise ValueError("training spectra must share a ground set")
    if not 0 <= k <= ground.size:
        raise ValueError(f"cannot select {k} of {ground.size} frequencies")
    union = np.unique(np.concatenate([sp.support.freqs for sp in spectra]))
    score = np.zeros(union.size)
    for sp in spectra:
        score[np.searchsorted(union, sp.support.freqs)] += np.abs(sp.coeffs)
    score /= len(spectra)
    order = np.lexsort((union, popcount(union), -score))
    ranked = union[order][score[order] > 0][:k]
    chosen = set(ranked.tolist())
    pad = itertools.islice(
        (m for m in masks_by_cardinality(ground) if m not in chosen), k - ranked.size
    )
    return SparseSupport(ground, np.concatenate((ranked, np.fromiter(pad, np.int64))))


def synthetic_sparse_spectrum(
    ground: GroundSet,
    k: int,
    *,
    seed=None,
    rng: np.random.Generator | None = None,
    freq_pool: np.ndarray | None = None,
    mag_low: float = 1e-3,
    mag_high: float = 1.0,
    empty_factor: float = 2.0,
) -> SparseSpectrum:
    """Random k-sparse model-4 spectrum standing in for an auction bidder.

    Picks k distinct nonempty frequencies (uniform over the powerset, or
    uniform from `freq_pool` when given), gives them log-uniform magnitudes
    with random signs, and adds a dominant empty-set coefficient
    empty_factor * sum|coeffs| so the signal stays positive.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if freq_pool is not None:
        pool = np.asarray(freq_pool, dtype=np.int64)
        pool = pool[pool != 0]
        if k > pool.size:
            raise ValueError(f"pool holds {pool.size} frequencies, cannot pick {k}")
        freqs = rng.choice(pool, size=k, replace=False)
    else:
        freqs = random_nonempty_masks(ground, k, rng)
    mags = np.exp(rng.uniform(np.log(mag_low), np.log(mag_high), size=k))
    signs = rng.choice([-1.0, 1.0], size=k)
    return with_dominant_offset(ground, freqs, mags * signs, empty_factor)


def random_nonempty_masks(ground: GroundSet, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct nonempty masks drawn uniformly, in ascending order."""
    if not 0 <= k < ground.size:
        raise ValueError(f"cannot pick {k} distinct nonempty frequencies for n={ground.n}")
    chosen: set[int] = set()
    while len(chosen) < k:
        draw = rng.integers(1, ground.size, size=k - len(chosen), dtype=np.uint64)
        chosen.update(int(m) for m in draw)
    return np.array(sorted(chosen), dtype=np.int64)


def with_dominant_offset(
    ground: GroundSet, freqs: np.ndarray, coeffs: np.ndarray, empty_factor: float
) -> SparseSpectrum:
    """The model-4 spectrum of `coeffs` at the distinct nonempty `freqs` plus the
    empty-set coefficient empty_factor * sum|coeffs|, in support order.

    The offset dominates: every value of the set function is at least
    (empty_factor - 1) * sum|coeffs|.
    """
    freqs = np.concatenate(([0], freqs))
    coeffs = np.concatenate(([empty_factor * np.abs(coeffs).sum()], coeffs))
    order = _support_order(freqs)
    return SparseSpectrum(SparseSupport(ground, freqs[order]), 4, coeffs[order])


def save_sparse_spectrum(path, spectrum: SparseSpectrum) -> None:
    pairs = [(int(B), float(c)) for B, c in zip(spectrum.support.freqs, spectrum.coeffs)]
    setfn_io.write_entries(path, spectrum.ground.n, "sparse", spectrum.model, pairs)


def load_sparse_spectrum(path) -> SparseSpectrum:
    """A sparse spectrum file of any model."""
    rec = setfn_io.parse_setfn(path)
    if rec.model is None or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse spectrum")
    order = _support_order(rec.masks)
    return SparseSpectrum(SparseSupport(rec.ground, rec.masks[order]), rec.model,
                          rec.values[order])


def save_support(path, support: SparseSupport) -> None:
    """Supports serialize as sparse model-4 files with unit coefficients."""
    save_sparse_spectrum(path, SparseSpectrum(support, 4, np.ones(len(support))))


def load_support(path) -> SparseSupport:
    return load_sparse_spectrum(path).support
