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
band and the sampling support are both such spectra.  Terms that reach few
probes find them through bitset tables (Four Russians); the rest are swept.
The tables are read one step at a time, as many probes as fill 512 KiB of
hit words (a quarter of a 2 MiB L2), and each block of 2,048 probes in a step
whose hits are dense sweeps its terms instead.  The hits depend on the
probes and the terms alone: their plan is kept for one more call, so an
oracle and its fit on one support, scored at the same probes, plan once.
Model 5's sweep holds each probe's sum in the sign frame of the last term,
so that a term costs one sign-bit XOR and one scalar add.

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
    _built,
    _check_finite,
    _support_order,
    _taken,
    check_count,
    is_subset,
    masks_by_cardinality,
    popcount,
    require_same_ground,
)
from .compression import SetFunctionOracle
from . import io as setfn_io
from .transforms import INVERSE, _closed_form


# Probes per block of `_sweep`, and at most of `_sign_sweep`: the block's
# masks, its hit, disjointness and term buffers and its slice of the output
# take at most 25 bytes per probe for n <= 32, so 2**16 probes (1.6 MiB) stay
# in a 2 MiB L2 while the swept frequencies pass over them.
_EVAL_CHUNK = 1 << 16
# Sign planes `_sign_sweep` keeps per probe block for the steps that recur
# most, and the bytes they may take: the blocks shrink from `_EVAL_CHUNK`
# probes so that the kept planes (8 bytes per probe each) fit in a 2 MiB L2.
# The order-2 band at n=20 keeps 19 planes, in blocks of 13,797 probes.  The
# cap bounds the call overhead of narrow blocks: 2,000 random frequencies at
# n=16 recur in 237 steps, and at 100k probes all 237 planes (1,106-probe
# blocks) took 672 ms against 454 ms for 32 (8,192-probe blocks; min of 9
# runs on a shared 2-vCPU Xeon).
_SIGN_PLANES = 32
_SIGN_PLANE_BYTES = 1 << 21
# Models 1-4 look the terms with |T| at least this up in hit tables and sweep
# the rest: a term hits 2**-|T| of random probes, each hit costs a scattered
# add, and a swept term four passes at every rate.
_TABLE_MIN_CARD = 5
# Probes per sweep decision and 64-term words per group of the hit tables.
_TABLE_PROBES = 1 << 11
_TABLE_WORDS = 16
# Hit words per table step: a group of w words takes the probes of
# 2**16 // (w * `_TABLE_PROBES`) blocks at once (8,192 probes for 8 words,
# 4,096 for 16), whose hit words (512 KiB) stay in a 2 MiB L2 with the
# tables and the step's temporaries.  A step has at most 2**16 probes, so a
# hit's probe offset fits in uint16.
_TABLE_STEP_WORDS = 1 << 16
# Nonzero hit bytes one block of `_TABLE_PROBES` probes may have: a block
# with more sweeps its terms.  One expansion of a step's other blocks takes
# at most as many, which holds the index and value arrays of at most 2**18
# hits (13 MiB at n=20).  A block of random probes has far fewer (at most
# 21k in the benchmark's workloads).
_TABLE_HIT_BYTES = 1 << 15
# The last plan of `_add_table_hits` and its key.
_kept_plan = None
# Rows of `reconstruct`'s inclusion pattern built at once: a k=500 support
# takes two blocks, and a 2**16 one holds 16 MiB of it at a time, not 4 GiB.
_RECONSTRUCT_ROWS = 256


def sampling_indices(support: SparseSupport) -> np.ndarray:
    """The query sets A_i = N \\ B_i, in support order."""
    return support.ground.full_mask ^ support.freqs


def eval_sparse_many(spectrum: SparseSpectrum, masks) -> np.ndarray:
    """The set function of a sparse spectrum at an array of masks, any shape.

    Masks that are not integers in [0, 2**n) raise ValueError before any
    work (`GroundSet.check_masks`).  Each probe A sums c_B * f^B_A from +0.0
    in support order, with f^B_A = scale**n * (-1)**|A & B| * [condition]
    (`transforms._closed_form`).  Under models 1-4 the condition is
    P & T == 0, with P = A or N \\ A and T = B or N \\ B, and the sign is
    (-1)**|T| when P = N \\ A, folded into c_B, times (-1)**|A| when
    T = N \\ B, applied once per probe at the end as a sign-bit flip
    followed by + 0.0, so that no -0.0 appears (negating every term of a sum
    negates the sum exactly).  Under models 1-4 the terms with
    |T| >= `_TABLE_MIN_CARD` add only their hits (`_add_table_hits`).  |T| is
    monotone along the support, so they are one run, first where T = N \\ B
    and last elsewhere.  The others are swept (`_sweep`): a swept term that
    fails adds 0 * c_B = +-0.0, which moves no bit, since the sum starts at
    +0.0 and cannot become -0.0.  Model 5's sweep (`_sign_sweep`) holds each
    sum times the sign of the last term added and adds c_B itself, which
    gives the plain sum's bits up to the sign of an exact zero: its last
    step moves the sums back to sign +1 and adds + 0.0, as models 1 and 2
    do after their (-1)**|A| flip.
    """
    ground, n = spectrum.ground, spectrum.ground.n
    masks = ground.check_masks(masks)
    flat = masks.ravel()
    complement, want, scale = _closed_form(spectrum.model, INVERSE)
    full = ground.full_mask
    tests = spectrum.freqs ^ full if complement else spectrum.freqs
    coeffs = spectrum.coeffs * scale**n
    if want == "all":
        coeffs = np.where(popcount(tests) & 1, -coeffs, coeffs)
    probes = flat ^ full if want == "all" else flat
    out = np.zeros(flat.size)
    tabled = np.count_nonzero(popcount(tests) >= _TABLE_MIN_CARD) if want else 0
    cut = tabled if complement else tests.size - tabled
    for run, table in ((slice(cut), complement), (slice(cut, None), not complement)):
        if not table:
            sweep = _sign_sweep if want is None else _sweep
            sweep(probes, tests[run], coeffs[run], n, out)
        elif tabled:
            _add_table_hits(probes, tests[run], coeffs[run], n, out)
    if complement:
        bits = out.view(np.uint64)
        bits ^= np.bitwise_count(flat).astype(np.uint64) << np.uint64(63)
        out += 0.0
    return out.reshape(masks.shape)


def _sweep(probes, tests, coeffs, n: int, out: np.ndarray) -> None:
    """Add each term (T, c) in order onto every out[p]: c * [probes[p] & T == 0]."""
    narrow = np.min_scalar_type((1 << n) - 1)
    width = min(_EVAL_CHUNK, probes.size)
    hit, disjoint, term = np.empty(width, narrow), np.empty(width, bool), np.empty(width)
    terms = list(zip(tests.astype(narrow), coeffs.tolist()))
    for start in range(0, probes.size, _EVAL_CHUNK):
        P, acc = probes[start : start + width].astype(narrow), out[start : start + width]
        h, d, t = hit[: P.size], disjoint[: P.size], term[: P.size]
        for T, c in terms:
            np.bitwise_and(P, T, out=h)
            np.logical_not(h, out=d)
            np.multiply(d, c, out=t)
            np.add(acc, t, out=acc)


def _sign_sweep(probes, tests, coeffs, n: int, out: np.ndarray) -> None:
    """Add each term (T, c) in order onto every out[p]: c, its sign bit
    flipped by the parity of |probes[p] & T|.

    Each probe's sum is held in the sign frame of the last term added, that
    is times (-1)**|p & T|.  The next term U moves the frame: one XOR flips
    the sum's sign bit by the parity of |p & (T ^ U)| (a sign plane), and
    one scalar add adds c.  Negation is exact and round-to-nearest
    symmetric, so -(-s + c) is s + (-c) bit for bit, except where the two
    cancel exactly: both give +0.0, so the held sum reads -0.0 where the
    plain sum has +0.0.  A last term (0, +0.0) moves the sums back to frame
    0 and turns that -0.0 into +0.0.

    The planes of the `_SIGN_PLANES` steps T ^ U that recur most (in the
    order-2 band, the adjacent pairs {i - 1, i}) are built once per probe
    block, and the blocks shrink from `_EVAL_CHUNK` probes to fit them in
    `_SIGN_PLANE_BYTES`; unless their reuses make up a third of the steps,
    none is kept.  Every other step builds its plane in one scratch plane.
    In random frequencies a few steps recur, too rarely to pay for the
    narrower blocks: at 100k probes (min of 9, as for `_SIGN_PLANES`), 500
    at n=20 (7 planes, 9 reuses) took 121 ms with their planes against
    114 ms without, and 2,000 at n=20 (32 planes, 542 reuses in 1,999
    steps) 528 ms against 414 ms.
    """
    narrow = np.min_scalar_type((1 << n) - 1)
    frames = np.append(tests, 0).astype(narrow)
    steps = frames ^ np.roll(frames, 1)  # the first step starts from frame 0
    kinds, first, where, counts = np.unique(steps, return_index=True, return_inverse=True,
                                            return_counts=True)
    kept = np.argsort(-counts, kind="stable")[:_SIGN_PLANES]
    kept = kept[(counts[kept] > 1) & (kinds[kept] != 0)]
    if 3 * (counts[kept].sum() - kept.size) < steps.size:
        kept = kept[:0]  # too few reuses to pay for the narrower blocks
    slot = np.full(kinds.size, kept.size)  # the scratch plane
    slot[kept] = np.arange(kept.size)
    slots = slot[where]
    build = slots == kept.size  # a scratch plane at every use, a kept one at its first
    build[first[kept]] = True
    terms = list(zip(steps.tolist(), slots.tolist(), build.tolist(),
                     np.append(coeffs, 0.0).tolist()))
    block = max(1, min(_EVAL_CHUNK, _SIGN_PLANE_BYTES // (8 * max(kept.size, 1))))
    width = min(block, probes.size)
    hit, planes = np.empty(width, narrow), np.empty((kept.size + 1, width), np.uint64)
    for start in range(0, probes.size, block):
        P, acc = probes[start : start + width].astype(narrow), out[start : start + width]
        h, bits, views = hit[: P.size], acc.view(np.uint64), list(planes[:, : P.size])
        for D, s, fresh, c in terms:
            if D:
                plane = views[s]
                if fresh:
                    np.bitwise_and(P, D, out=h)
                    np.bitwise_count(h, out=plane)
                    np.left_shift(plane, 63, out=plane)
                np.bitwise_xor(bits, plane, out=bits)
            np.add(acc, c, out=acc)


def _table_bits(probes: int) -> int:
    """Mask bits per hit table: about half of log2 of the batch size."""
    return min(max(probes.bit_length() // 2, 4), 10)


def _add_table_hits(probes, tests, coeffs, n: int, out: np.ndarray) -> None:
    """Add c_T onto out[p] for each term T, in order, with probes[p] & T == 0.

    Each step of the plan (`_table_plan`) adds its hits with `np.add.at`,
    which applies repeated indices in order, or sweeps its terms over its
    probes.  A plan that fits with its key (n, the terms and the probes in
    the narrow mask type) in 8 * `_TABLE_HIT_BYTES` hits of 4 bytes is kept
    for the next call, which applies it, if its key is the same, and drops it.
    """
    global _kept_plan
    narrow = np.min_scalar_type((1 << n) - 1)
    key = (n, tests.astype(narrow), probes.astype(narrow))
    room = 32 * _TABLE_HIT_BYTES - key[1].nbytes - key[2].nbytes
    kept, _kept_plan = _kept_plan, None
    if kept and all(map(np.array_equal, kept[0], key)):
        steps, plan = kept[1], None
    else:
        steps, plan = _table_plan(probes, tests, n), [] if room >= 0 else None
    for start, stop, first, last, hits in steps:
        if hits is None:
            _sweep(probes[start:stop], tests[first:last], coeffs[first:last], n, out[start:stop])
        else:
            np.add.at(out[start:stop], hits[0], coeffs[first:last][hits[1]])
            room -= 2 * hits[0].nbytes
        if room < 0:
            plan = None  # too large to keep: the rest is applied as it is planned
        elif plan is not None:
            plan.append((start, stop, first, last, hits))
    if plan is not None:
        _kept_plan = key, plan


def _table_plan(probes, tests, n: int):
    """The steps of `_add_table_hits`, in order: (start, stop, first, last,
    hits) for the probes [start, stop) and the terms [first, last), where
    `hits` is None for a sweep, else the (probe, term) offsets of the hits,
    uint16, probe by probe in ascending term order.

    The method of Four Russians: the n mask bits are split into chunks of
    b = `_table_bits` bits, and the chunk at bit s gets a table whose row v
    is the bitset of the terms with T & (v << s) == 0, 64 terms to a word in
    little bit order.  A probe's hit words are the AND of its chunks' rows,
    taken for one group of `_TABLE_WORDS` words at a time, in steps of as
    many probes as fill `_TABLE_STEP_WORDS` hit words.  A step's blocks of
    `_TABLE_PROBES` probes are planned in runs (`_block_runs`): a run of
    blocks of one group, each with more than `_TABLE_HIT_BYTES` nonzero hit
    bytes, is one sweep, and a step's other blocks are expanded together, as
    many at once as hold `_TABLE_HIT_BYTES` nonzero hit bytes.
    """
    padded = np.pad(tests, (0, -tests.size % 64), constant_values=-1)  # hits nothing
    b = _table_bits(probes.size)
    shifts = range(0, max(n, 1), b)
    for first in range(0, padded.size, 64 * _TABLE_WORDS):
        group = padded[first : first + 64 * _TABLE_WORDS]
        last = min(first + len(group), tests.size)  # without the padding
        words = len(group) // 64
        tables = []
        for s in shifts:
            table = np.packbits(group != -1, bitorder="little").view(np.uint64)[None]
            for bit in range(s, min(s + b, n)):
                clear = np.packbits(group & (1 << bit) == 0, bitorder="little")
                table = np.concatenate((table, table & clear.view(np.uint64)))
            tables.append(table)
        step = max(_TABLE_STEP_WORDS // (words * _TABLE_PROBES), 1) * _TABLE_PROBES
        swept = None  # the first probe of a run of dense blocks
        for start in range(0, probes.size, step):
            P = probes[start : start + step]
            hits = np.take(tables[0], P & (len(tables[0]) - 1), axis=0)
            for s, table in zip(shifts[1:], tables[1:]):
                hits &= np.take(table, (P >> s) & (len(table) - 1), axis=0)
            for lo, hi, dense in _block_runs(hits):
                if dense:
                    swept = start + lo if swept is None else swept
                    continue
                if swept is not None:
                    yield swept, start + lo, first, last, None
                    swept = None
                yield start + lo, start + hi, first, last, _block_hits(hits[lo:hi], words)
        if swept is not None:
            yield swept, probes.size, first, last, None


def _block_runs(hits):
    """The rows of a step's hit words, in blocks of `_TABLE_PROBES`, as runs
    (lo, hi, dense): a dense block, with more than `_TABLE_HIT_BYTES` nonzero
    hit bytes, alone, and consecutive other blocks with at most as many
    together.  Each block's bytes are counted on a uint8 view, so a dense
    block builds no index."""
    byte = hits.view(np.uint8)
    lo = held = 0  # the rows [lo, at) and their nonzero bytes, not yet given
    for at in range(0, len(hits), _TABLE_PROBES):
        count = np.count_nonzero(byte[at : at + _TABLE_PROBES])
        dense = count > _TABLE_HIT_BYTES
        if at > lo and (dense or held + count > _TABLE_HIT_BYTES):
            yield lo, at, False
            lo, held = at, 0
        if dense:
            lo = min(at + _TABLE_PROBES, len(hits))
            yield at, lo, True
        else:
            held += count
    if lo < len(hits):
        yield lo, len(hits), False


def _block_hits(hits, words: int):
    """The hits of consecutive probes' hit words, `words` to a probe, as
    `_table_plan` gives them."""
    # the nonzero words, then their nonzero bytes, then the set bits
    hits = hits.ravel()
    word = np.flatnonzero(hits != 0)
    byte = hits[word].view(np.uint8)
    nonzero = np.flatnonzero(byte != 0)
    at = np.flatnonzero(np.unpackbits(byte[nonzero], bitorder="little").view(bool))
    at = nonzero[at >> 3] << 3 | at & 7  # the hit's bit in `byte`
    probe, term = np.divmod(word[at >> 6], words)
    term <<= 6
    term |= at & 63
    return probe.astype(np.uint16), term.astype(np.uint16)


def oracle_from_sparse_spectrum(spectrum: SparseSpectrum) -> SetFunctionOracle:
    return SetFunctionOracle(spectrum.ground, lambda masks: eval_sparse_many(spectrum, masks))


def reconstruct(oracles, support: SparseSupport) -> SparseSpectrum | list[SparseSpectrum]:
    """Recover the model-4 coefficients on `support` from exactly k queries
    per oracle.

    `oracles` is one oracle, which gives one SparseSpectrum, or a sequence
    of oracles on the support's ground set, which gives a list of them in
    the same order.  Each oracle is queried at N \\ B_i, and one forward
    substitution (`_forward_substitution`) solves all of them at once.  A
    coefficient that overflows or is nan raises ValueError naming its
    frequency (`coefficient -inf at frequency 1 is not finite`).
    """
    single = isinstance(oracles, SetFunctionOracle)
    oracles = [oracles] if single else list(oracles)
    for oracle in oracles:
        require_same_ground(oracle, support)
    queries = sampling_indices(support)
    values = np.empty((len(support), len(oracles)))
    for t, oracle in enumerate(oracles):
        values[:, t] = oracle.query_many(queries)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, nan: refused below
        coeffs = _forward_substitution(support.freqs, values)
    for row in coeffs.T:
        _check_finite(row, support.freqs, "coefficient", "frequency")
    spectra = [SparseSpectrum(support.ground, 4, support.freqs, row) for row in coeffs.T]
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
    powers = np.ldexp(1.0, np.arange(ground.n, -1, -1))  # 2**(n - c) at c
    gram = powers[np.bitwise_count(freqs[:, None] | freqs[None, :])]
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
        require_same_ground(spectra[0], sp)
    k = check_count(k, "support size k", 0, ground.size)
    union, where = np.unique(np.concatenate([sp.freqs for sp in spectra]), return_inverse=True)
    score = np.zeros(union.size)
    np.add.at(score, where, np.abs(np.concatenate([sp.coeffs for sp in spectra])))
    score /= len(spectra)
    order = np.lexsort((union, popcount(union), -score))
    ranked = union[order][score[order] > 0][:k]
    chosen = set(ranked.tolist())
    pad = itertools.islice(
        (m for m in masks_by_cardinality(ground) if m not in chosen), k - ranked.size
    )
    return SparseSupport(ground, np.concatenate((ranked, np.fromiter(pad, np.int64))))


def synthetic_sparse_spectrum(ground: GroundSet, k: int, *, seed=None) -> SparseSpectrum:
    """Random k-sparse model-4 spectrum standing in for an auction bidder.

    Picks k distinct nonempty frequencies uniformly over the powerset, gives
    them magnitudes log-uniform on [1e-3, 1) with random signs, and adds a
    dominant empty-set coefficient 2 * sum|coeffs| so the signal stays
    positive.
    """
    rng = np.random.default_rng(seed)
    freqs = random_nonempty_masks(ground, k, rng)
    mags = np.exp(rng.uniform(np.log(1e-3), np.log(1.0), size=k))
    signs = rng.choice([-1.0, 1.0], size=k)
    return with_dominant_offset(ground, freqs, mags * signs, 2.0)


def random_nonempty_masks(ground: GroundSet, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct nonempty masks drawn uniformly, in ascending order."""
    k = check_count(k, "number of nonempty frequencies", 0, ground.size - 1)
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
    return SparseSpectrum(ground, 4, np.concatenate(([0], freqs)),
                          np.concatenate(([empty_factor * np.abs(coeffs).sum()], coeffs)))


def save_sparse_spectrum(path, spectrum: SparseSpectrum) -> None:
    setfn_io.write_setfn(path, spectrum)


def load_sparse_spectrum(path) -> SparseSpectrum:
    """A sparse spectrum file of any model."""
    rec = setfn_io.parse_setfn(path)
    if rec.model is None or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse spectrum")
    # the file's checks stand: only the support order is left to make
    freqs, coeffs = _taken(_support_order(rec.masks), rec.masks, rec.values)
    return _built(SparseSpectrum, ground=rec.ground, model=rec.model, freqs=freqs, coeffs=coeffs)


def save_support(path, support: SparseSupport) -> None:
    """Supports serialize as sparse model-4 files with unit coefficients."""
    save_sparse_spectrum(path, SparseSpectrum(support.ground, 4, support.freqs,
                                              np.ones(len(support))))


def load_support(path) -> SparseSupport:
    return load_sparse_spectrum(path).support
