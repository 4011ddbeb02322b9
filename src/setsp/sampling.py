"""Sparse-spectrum sampling and reconstruction for model 4.

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

Evaluating a sparse spectrum at a subset A is the model-4 inverse restricted
to the support: s_A = sum of the coefficients at frequencies disjoint from A.
A frequency B can be disjoint from A only if |A| + |B| <= n, so the batched
evaluator never visits the probes too large for B.  Every evaluator here
forms the sum the same way, adding the terms one at a time in support order
onto +0.0, so the scalar and the batched path return the same bits for every
mask, whichever probes a term skips.

Norms over the whole lattice need no lattice either: the basis vectors
f^B_A = [A & B == 0] have the Gram matrix <f^B, f^C> = 2**(n - |B | C|), so
the l2 norm of a sparse spectrum is a quadratic form on its support
(`lattice_norms`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    DENSE_MAX_N,
    GroundSet,
    SetFunction,
    Spectrum,
    is_subset,
    masks_by_cardinality,
    popcount,
)
from .compression import SetFunctionOracle
from . import io as setfn_io
from .transforms import INVERSE, dsft_inplace


# Probes per block of `eval_sparse_many`: the block's masks and cardinalities,
# its hit and disjointness buffers and its slice of the output take at most
# 18 bytes per probe for n <= 32, so 2**16 probes (1.1 MiB) stay in a 2 MiB
# L2 while the support is swept over them.
_EVAL_CHUNK = 1 << 16
# Rows of `reconstruct`'s inclusion pattern built at once: a k=500 support
# takes two blocks, and a 2**16 one holds 16 MiB of it at a time, not 4 GiB.
_RECONSTRUCT_ROWS = 256


def _support_order(freqs: np.ndarray) -> np.ndarray:
    """The permutation that sorts masks by (cardinality, mask) ascending."""
    return np.lexsort((freqs, popcount(freqs)))


@dataclass(frozen=True)
class SparseSupport:
    """Distinct frequency masks sorted by (cardinality, mask) ascending.

    The sort order makes T_ij = [B_j subseteq B_i] lower triangular with a
    unit diagonal, which is what `reconstruct` relies on.
    """

    ground: GroundSet
    freqs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.int64)
        if freqs.ndim != 1:
            raise ValueError("support must be a 1-d mask array")
        if freqs.size and (freqs.min() < 0 or freqs.max() >= self.ground.size):
            raise ValueError(f"support masks out of range for n={self.ground.n}")
        if np.unique(freqs).size != freqs.size:
            raise ValueError("duplicate support entries")
        freqs = freqs[_support_order(freqs)]
        freqs.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True)
class SparseSpectrum4:
    """Model-4 coefficients aligned with a sparse support."""

    support: SparseSupport
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != self.support.freqs.shape:
            raise ValueError("coeffs must align with the support")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def ground(self) -> GroundSet:
        return self.support.ground

    def _dense_coeffs(self) -> np.ndarray:
        if self.ground.n > DENSE_MAX_N:
            raise ValueError(
                f"densifying needs n <= DENSE_MAX_N = {DENSE_MAX_N}, got n={self.ground.n}"
            )
        dense = np.zeros(self.ground.size)
        dense[self.support.freqs] = self.coeffs
        return dense

    def to_spectrum(self) -> Spectrum:
        """Densify (n <= DENSE_MAX_N)."""
        return Spectrum.wrap(self.ground, 4, self._dense_coeffs())

    def to_setfunction(self) -> SetFunction:
        """Densify and invert (n <= DENSE_MAX_N)."""
        dense = self._dense_coeffs()
        dsft_inplace(dense, 4, INVERSE)
        return SetFunction.wrap(self.ground, dense)


def sampling_indices(support: SparseSupport) -> np.ndarray:
    """The query sets A_i = N \\ B_i, in support order."""
    return support.ground.full_mask ^ support.freqs


def eval_sparse(spectrum: SparseSpectrum4, A: int) -> float:
    """sum of coefficients at frequencies disjoint from A; O(k).

    The sum runs sequentially from +0.0 in support order (a cumulative sum,
    not numpy's pairwise `sum`), so it returns the bits `eval_sparse_many`
    returns for A.
    """
    A = spectrum.ground.check_mask(A)
    terms = spectrum.coeffs[(spectrum.support.freqs & A) == 0]
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def eval_sparse_many(spectrum: SparseSpectrum4, masks) -> np.ndarray:
    """Vectorized `eval_sparse` over an array of subset masks, any shape.

    Masks outside [0, 2**n) raise ValueError before any work, as in
    `eval_sparse` and `SetFunctionOracle.query_many`.

    A probe A can be disjoint from a frequency B only if |A| + |B| <= n.  So
    the probes are sorted once by cardinality (a stable sort on uint8 keys),
    and since the support ascends in cardinality, each frequency B sweeps
    only the prefix of each block whose probes have |A| <= n - |B|; the sums
    are scattered back through the permutation.  The probes run in blocks of
    `_EVAL_CHUNK` that stay in L2; within a block the support is swept in
    order, and each frequency adds its coefficient to the probes disjoint
    from it, through preallocated buffers.  Every probe thus sums the same
    terms in the same order as a loop over the whole support would, so the
    bits do not move.  Skipping a non-disjoint term instead of adding 0.0 is
    exact: the accumulator starts at +0.0 and cannot become -0.0, and x + 0.0
    is x for every other x, inf and nan included.

    The masks are narrowed to the smallest unsigned type that holds 2**n - 1
    (2 to 8 times fewer bytes per mask pass for n <= 32).
    """
    ground = spectrum.ground
    masks = np.asarray(masks, dtype=np.int64)
    flat = masks.ravel()
    bad = (flat < 0) | (flat >= ground.size)
    if bad.any():
        raise ValueError(f"mask {flat[bad][0]} out of range for n={ground.n}")
    narrow = np.min_scalar_type(ground.full_mask)
    cards = np.bitwise_count(flat).astype(np.uint8)
    order = np.argsort(cards, kind="stable")
    cards = cards[order]
    sorted_probes = flat[order].astype(narrow)
    acc_sorted = np.zeros(flat.size)
    width = min(_EVAL_CHUNK, flat.size)
    hit = np.empty(width, dtype=narrow)
    disjoint = np.empty(width, dtype=bool)
    terms = list(zip(spectrum.support.freqs.astype(narrow), spectrum.coeffs.tolist()))
    # runs of terms with one room n - |B|; the room shrinks along the support
    rooms = ground.n - popcount(spectrum.support.freqs)
    starts = np.flatnonzero(np.diff(rooms, prepend=-1)).tolist()
    runs = [(int(rooms[a]), terms[a:b]) for a, b in zip(starts, [*starts[1:], len(terms)])]
    cutoffs = np.arange(ground.n + 1, dtype=np.uint8)
    for start in range(0, flat.size, _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        # limit[r]: how many probes of this block have |A| <= r
        limit = np.searchsorted(cards[start:stop], cutoffs, side="right").tolist()
        for room, run in runs:
            w = limit[room]
            if not w:
                break
            probes, acc = sorted_probes[start : start + w], acc_sorted[start : start + w]
            h, d = hit[:w], disjoint[:w]
            for B, c in run:
                np.bitwise_and(probes, B, out=h)
                np.logical_not(h, out=d)
                np.add(acc, c, out=acc, where=d)
    out = np.empty(flat.size)
    out[order] = acc_sorted
    return out.reshape(masks.shape)


def oracle_from_sparse_spectrum(spectrum: SparseSpectrum4) -> SetFunctionOracle:
    return SetFunctionOracle(
        spectrum.ground,
        lambda m: eval_sparse(spectrum, m),
        batch_fn=lambda ms: eval_sparse_many(spectrum, ms),
    )


def reconstruct(oracles, support: SparseSupport) -> SparseSpectrum4 | list[SparseSpectrum4]:
    """Recover the coefficients on `support` from exactly k queries per oracle.

    `oracles` is one oracle, which gives one SparseSpectrum4, or a sequence
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
    spectra = [SparseSpectrum4(support, row) for row in coeffs.T]
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
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    gram = np.ldexp(1.0, ground.n - popcount(freqs[:, None] | freqs[None, :]))
    forms = np.einsum("ij,ij->j", coeffs, gram @ coeffs)
    return np.sqrt(np.maximum(forms, 0.0))


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
        if not isinstance(sp, SparseSpectrum4):
            raise TypeError(
                f"training spectra must be sparse model 4 (SparseSpectrum4), got {type(sp).__name__}"
            )
        if sp.ground != ground:
            raise ValueError("training spectra must share a ground set")
        if not np.isfinite(sp.coeffs).all():
            raise ValueError("training coefficients must be finite")
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
) -> SparseSpectrum4:
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
) -> SparseSpectrum4:
    """The spectrum of `coeffs` at the distinct nonempty `freqs` plus the
    empty-set coefficient empty_factor * sum|coeffs|, in support order.

    The offset dominates: every value of the set function is at least
    (empty_factor - 1) * sum|coeffs|.
    """
    freqs = np.concatenate(([0], freqs))
    coeffs = np.concatenate(([empty_factor * np.abs(coeffs).sum()], coeffs))
    order = _support_order(freqs)
    return SparseSpectrum4(SparseSupport(ground, freqs[order]), coeffs[order])


def save_sparse_spectrum(path, spectrum: SparseSpectrum4) -> None:
    pairs = [(int(B), float(c)) for B, c in zip(spectrum.support.freqs, spectrum.coeffs)]
    setfn_io.write_entries(path, spectrum.ground.n, "sparse", 4, pairs)


def load_sparse_spectrum(path) -> SparseSpectrum4:
    rec = setfn_io.parse_setfn(path)
    if rec.model != 4 or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse model-4 spectrum")
    entries = rec.entries()
    support = SparseSupport(rec.ground, np.array(sorted(entries), dtype=np.int64))
    coeffs = np.array([entries[int(B)] for B in support.freqs])
    return SparseSpectrum4(support, coeffs)


def save_support(path, support: SparseSupport) -> None:
    """Supports serialize as sparse model-4 files with unit coefficients."""
    pairs = [(int(B), 1.0) for B in support.freqs]
    setfn_io.write_entries(path, support.ground.n, "sparse", 4, pairs)


def load_support(path) -> SparseSupport:
    rec = setfn_io.parse_setfn(path)
    if rec.model != 4 or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse model-4 support file")
    return SparseSupport(rec.ground, np.array([m for m, _ in rec.pairs], dtype=np.int64))
