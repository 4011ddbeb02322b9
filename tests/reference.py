"""Brute-force reference implementations used as independent test oracles.

Everything here evaluates the defining sums directly with plain Python loops
over subsets; nothing is shared with the fast library code paths.  The numpy
reductions are the row sum of `forward_substitution_reference`, whose
pairwise order is the one `reconstruct` must reproduce, the norms of
`relative_errors_reference`, which `estimate_relative_errors` must reproduce,
and the fragment sum of `coverage_eval`, a coverage representation's value at
one subset by its definition.
`parse_setfn_reference` is the line-by-line setfn parser that the array-native
`setsp.io.parse_setfn` replaced, `write_setfn_reference` the line-at-a-time
writer whose bytes the block writer `setsp.body.write_lines` must reproduce,
and `gaussian_entropy_reference` the one-matrix Cholesky that
`setsp.coverage.gaussian_entropy_many` must reproduce bit for bit.  The dense matrix oracles (`kronecker_matrix`,
`shift_matrix`, `filter_matrix`) build their matrices from kernels written
out here, not from the library's kernel table.
"""

import math

import numpy as np

from setsp.core import DENSE_MAX_N, MAX_N
from setsp.io import MAGIC, SetFnFile, SetFnFormatError
from setsp.transforms import MATRIX_MAX_N

FILTER_MATRIX_MAX_N = 10
LOG_2PI = math.log(2.0 * math.pi)


def bits(x: int) -> int:
    return bin(x).count("1")


def sign(x: int) -> float:
    return -1.0 if bits(x) & 1 else 1.0


def dsft_reference(model: int, values, n: int) -> list[float]:
    """Forward transform coefficient sums, one frequency at a time."""
    size = 1 << n
    full = size - 1
    out = [0.0] * size
    for B in range(size):
        acc = 0.0
        for A in range(size):
            if model == 1:
                if A & B == 0:
                    acc += values[A]
            elif model == 2:
                if B & ~A == 0:
                    acc += sign(A & B) * values[A]
            elif model == 3:
                if A & ~B == 0:
                    acc += sign(A) * values[A]
            elif model == 4:
                if A | B == full:
                    acc += sign(A & B) * values[A]
            elif model == 5:
                acc += sign(A & B) * values[A]
            else:
                raise ValueError(model)
        out[B] = acc
    return out


def idsft_reference(model: int, coeffs, n: int) -> list[float]:
    """Inverse transform sums."""
    size = 1 << n
    full = size - 1
    out = [0.0] * size
    for A in range(size):
        acc = 0.0
        for B in range(size):
            if model == 1:
                if A | B == full:
                    acc += sign(A & B) * coeffs[B]
            elif model == 2:
                if A & ~B == 0:
                    acc += sign(A & B) * coeffs[B]
            elif model == 3:
                if B & ~A == 0:
                    acc += sign(B) * coeffs[B]
            elif model == 4:
                if A & B == 0:
                    acc += coeffs[B]
            elif model == 5:
                acc += sign(A & B) * coeffs[B]
            else:
                raise ValueError(model)
        out[A] = acc * (0.5**n if model == 5 else 1.0)
    return out


# 2x2 kernels per (model, direction): the n=1 transform matrices, written
# out from the defining sums above (rows are outputs, columns inputs).
BUTTERFLY_KERNELS = {
    (1, "forward"): ((1.0, 1.0), (1.0, 0.0)),
    (1, "inverse"): ((0.0, 1.0), (1.0, -1.0)),
    (2, "forward"): ((1.0, 1.0), (0.0, -1.0)),
    (2, "inverse"): ((1.0, 1.0), (0.0, -1.0)),
    (3, "forward"): ((1.0, 0.0), (1.0, -1.0)),
    (3, "inverse"): ((1.0, 0.0), (1.0, -1.0)),
    (4, "forward"): ((0.0, 1.0), (1.0, -1.0)),
    (4, "inverse"): ((1.0, 1.0), (1.0, 0.0)),
    (5, "forward"): ((1.0, 1.0), (1.0, -1.0)),
    (5, "inverse"): ((0.5, 0.5), (0.5, -0.5)),
}


def kronecker_matrix(model: int, direction: str, n: int) -> np.ndarray:
    """Dense transform matrix by explicit Kronecker recursion (n <= 12)."""
    if n > MATRIX_MAX_N:
        raise ValueError(f"dense transform matrices are limited to n <= {MATRIX_MAX_N}")
    k = np.array(BUTTERFLY_KERNELS[(model, direction)])
    out = np.array([[1.0]])
    for _ in range(n):
        out = np.kron(k, out)
    return out


# 2x2 kernels of the elementary shift matrices phi(x_i), acting on the pair
# (value without x_i, value with x_i): `shift_reference` at n=1.
SHIFT_KERNELS = {
    1: ((0.0, 0.0), (1.0, 1.0)),
    2: ((1.0, 1.0), (0.0, 0.0)),
    3: ((1.0, 0.0), (1.0, 0.0)),
    4: ((0.0, 1.0), (0.0, 1.0)),
    5: ((0.0, 1.0), (1.0, 0.0)),
}


def shift_matrix(model: int, i: int, n: int) -> np.ndarray:
    """Dense matrix of the elementary shift by x_i: I (x) kernel (x) I."""
    if n > MATRIX_MAX_N:
        raise ValueError(f"dense shift matrices are limited to n <= {MATRIX_MAX_N}")
    if not 1 <= i <= n:
        raise ValueError(f"element index {i} out of range 1..{n}")
    k = np.array(SHIFT_KERNELS[model])
    return np.kron(np.eye(1 << (n - i)), np.kron(k, np.eye(1 << (i - 1))))


def filter_matrix(model: int, h) -> np.ndarray:
    """Dense filter matrix sum_X h_X * prod_{y in X} phi(y) of a `Filter`."""
    n = h.ground.n
    if n > FILTER_MATRIX_MAX_N:
        raise ValueError(f"dense filter matrices are limited to n <= {FILTER_MATRIX_MAX_N}")
    size = 1 << n
    out = np.zeros((size, size))
    for X, weight in h.taps.entries.items():
        term = np.eye(size)
        for i in range(n):
            if X >> i & 1:
                term = shift_matrix(model, i + 1, n) @ term
        out += weight * term
    return out


def butterfly_reference(model: int, direction: str, values, n: int) -> list[float]:
    """Plain per-stage butterfly: stage i = 0..n-1 maps every pair (u, w) of
    indices differing in bit i through the 2x2 kernel.  Zero kernel entries
    contribute no term, so each output is the same sum of +-u, +-w (scaled
    by 0.5 for the model-5 inverse) that a fast in-place schedule forms."""
    kern = BUTTERFLY_KERNELS[(model, direction)]
    out = [float(v) for v in values]
    for i in range(n):
        bit = 1 << i
        for A in range(1 << n):
            if A & bit:
                continue
            pair = (out[A], out[A | bit])
            for row, dest in zip(kern, (A, A | bit)):
                terms = [k * x for k, x in zip(row, pair) if k != 0.0]
                out[dest] = sum(terms[1:], terms[0])
    return out


def shift_reference(model: int, i: int, values, n: int) -> list[float]:
    """Elementary shift by x_i acting on the signal values."""
    size = 1 << n
    bit = 1 << (i - 1)
    out = [0.0] * size
    for A in range(size):
        if model == 1:
            out[A] = values[A] + values[A & ~bit] if A & bit else 0.0
        elif model == 2:
            out[A] = values[A] + values[A | bit] if not A & bit else 0.0
        elif model == 3:
            out[A] = values[A & ~bit]
        elif model == 4:
            out[A] = values[A | bit]
        elif model == 5:
            out[A] = values[A ^ bit]
        else:
            raise ValueError(model)
    return out


def convolve_reference(model: int, taps: dict, values, n: int) -> list[float]:
    """Convolution sums, directly from their defining formulas."""
    size = 1 << n
    full = size - 1
    out = [0.0] * size
    if model == 1:
        for Q, h in taps.items():
            for B in range(size):
                out[Q | B] += h * values[B]
    elif model == 2:
        for A in range(size):
            acc = 0.0
            for Q, h in taps.items():
                if Q & A:
                    continue  # requires Q subseteq N \ A
                sub = Q
                while True:
                    acc += h * values[A | sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & Q
            out[A] = acc
    else:
        for A in range(size):
            acc = 0.0
            for Q, h in taps.items():
                if model == 3:
                    acc += h * values[A & ~Q]
                elif model == 4:
                    acc += h * values[A | Q]
                else:
                    acc += h * values[A ^ Q]
            out[A] = acc
    assert full == size - 1
    return out


def sparse_eval_reference(freqs, coeffs, masks) -> list[float]:
    """Model-4 inverse of a sparse spectrum at each mask, one frequency at a
    time: the coefficient of B is added, in support order, onto a running
    sum that starts at 0.0, for every mask disjoint from B."""
    out = [0.0] * len(masks)
    for B, c in zip(freqs, coeffs):
        for p, A in enumerate(masks):
            if A & B == 0:
                out[p] += c
    return out


def band_coefficient_reference(query, n: int, B: int) -> float:
    """Model-4 coefficient at B from its 2**|B| sets near the top of the
    lattice: the sum over C subseteq B of (-1)**|C| * s_{(N\\B) u C}, one
    scalar `query` per set, C = {} first and then the nonempty submasks of B
    in descending order, added left to right in Python floats from 0.0."""
    base = ((1 << n) - 1) & ~B
    subs = [0]
    sub = B
    while sub:
        subs.append(sub)
        sub = (sub - 1) & B
    total = 0.0
    for C in subs:
        value = float(query(base | C))
        total += -value if bits(C) & 1 else value
    return total


def forward_substitution_reference(freqs, values):
    """The unit-lower-triangular solve of `reconstruct`, one row at a time:
    coeff_i = values_i - the sum of the coeff_j, j < i, with B_j subseteq
    B_i.  That sum is numpy's `.sum()` of a contiguous float64 array of the
    included coefficients in support order, whose pairwise order fixes the
    bits the library must reproduce."""
    coeffs = np.zeros(len(freqs))
    for i, B in enumerate(freqs):
        inside = [j for j in range(i) if freqs[j] & ~B == 0]
        coeffs[i] = values[i] - coeffs[inside].sum()
    return coeffs


def lattice_norm_reference(n: int, freqs, coeffs) -> float:
    """l2 norm over all 2**n subsets of the model-4 inverse of a sparse
    spectrum: every value summed as in `sparse_eval_reference`, the squares
    combined by `math.hypot`, which scales them first, so that tiny values
    do not square into the subnormal range.  This is the dense scorer of the
    sampling experiment."""
    return math.hypot(*sparse_eval_reference(freqs, coeffs, range(1 << n)))


def select_support_reference(n: int, spectra, k: int) -> list[int]:
    """The k masks of largest mean |coefficient| over sparse spectra given as
    (freqs, coeffs) pairs, ties by ascending (cardinality, mask), ranked over
    every mask of the lattice; returned in ascending mask order.  Each score
    adds the |coefficients| in training order onto 0.0."""
    score = [0.0] * (1 << n)
    for freqs, coeffs in spectra:
        for B, c in zip(freqs, coeffs):
            score[B] += abs(c)
    mean = [s / len(spectra) for s in score]
    ranked = sorted(range(1 << n), key=lambda B: (-mean[B], bits(B), B))
    return sorted(ranked[:k])


def bandlimited_eval_reference(model: int, n: int, freqs, coeffs, masks) -> list[float]:
    """Inverse transform of a spectrum on an explicit support, at each mask:
    c * entry(A, B) is added, in support order, onto a running sum that
    starts at 0.0, with the entry from the defining sums of `idsft_reference`."""
    full = (1 << n) - 1
    out = []
    for A in masks:
        acc = 0.0
        for B, c in zip(freqs, coeffs):
            if model == 1:
                entry = sign(A & B) if A | B == full else 0.0
            elif model == 2:
                entry = sign(A & B) if A & ~B == 0 else 0.0
            elif model == 3:
                entry = sign(B) if B & ~A == 0 else 0.0
            elif model == 4:
                entry = 1.0 if A & B == 0 else 0.0
            elif model == 5:
                entry = sign(A & B) * 0.5**n
            else:
                raise ValueError(model)
            acc += c * entry
        out.append(acc)
    return out


def gaussian_entropy_reference(covariance, A: int) -> float:
    """Joint entropy of the variables in A from one Cholesky factor of the
    principal submatrix: (1/2) log det + (|A|/2)(1 + log 2*pi)."""
    if A == 0:
        return 0.0
    idx = [i for i in range(len(covariance)) if A >> i & 1]
    L = np.linalg.cholesky(np.asarray(covariance)[np.ix_(idx, idx)])
    logdet = 2.0 * float(np.log(np.diagonal(L)).sum())
    return 0.5 * logdet + 0.5 * len(idx) * (1.0 + LOG_2PI)


def coverage_reference(offset: float, weights: dict, n: int) -> list[float]:
    """Evaluate a coverage representation: c + total weight touching A."""
    size = 1 << n
    out = []
    for A in range(size):
        total = offset
        for B, w in weights.items():
            if B & A:
                total += w
        out.append(total)
    return out


def coverage_eval(rep, A: int) -> float:
    """c plus the total weight of the fragments of `rep` (a
    `CoverageRepresentation`) touching A: the sum of w(T_B) over B with
    B & A != 0."""
    A = rep.ground.check_mask(A)
    touching = (rep.fragments.masks & A) != 0
    return rep.offset_c + float(rep.fragments.values[touching].sum())


def relative_errors_reference(query, evaluators, m_samples: int, seed: int, n: int) -> list[float]:
    """`estimate_relative_errors` one probe at a time: `query` and each
    evaluator map one mask to one value, in draw order."""
    rng = np.random.default_rng(seed)
    probes = rng.integers(0, 1 << n, size=m_samples, dtype=np.uint64).astype(np.int64)
    truth = np.array([query(int(A)) for A in probes])
    denom = float(np.linalg.norm(truth))
    errors = []
    for evaluate in evaluators:
        approx = np.array([evaluate(int(A)) for A in probes])
        errors.append(float(np.linalg.norm(truth - approx) / denom))
    return errors


def parse_setfn_reference(path) -> SetFnFile:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def fail(line_no: int, message: str):
        raise SetFnFormatError(path, line_no, message)

    if len(lines) < 4:
        fail(len(lines) + 1, "truncated header (need 4 header lines)")
    if lines[0].strip() != MAGIC:
        fail(1, f"expected '{MAGIC}', got {lines[0]!r}")

    fields = {}
    for line_no, key in ((2, "n"), (3, "kind"), (4, "model")):
        parts = lines[line_no - 1].split()
        if len(parts) != 2 or parts[0] != key:
            fail(line_no, f"expected '{key} <value>', got {lines[line_no - 1]!r}")
        fields[key] = parts[1]

    try:
        n = int(fields["n"])
    except ValueError:
        fail(2, f"n is not an integer: {fields['n']!r}")
    kind = fields["kind"]
    if kind not in ("dense", "sparse"):
        fail(3, f"kind must be dense or sparse, got {kind!r}")
    limit = DENSE_MAX_N if kind == "dense" else MAX_N
    if not 0 <= n <= limit:
        fail(2, f"n={n} exceeds bound {limit} for kind {kind}")
    model_text = fields["model"]
    if model_text == "none":
        model = None
    elif model_text in ("1", "2", "3", "4", "5"):
        model = int(model_text)
    else:
        fail(4, f"model must be none or 1..5, got {model_text!r}")

    size = 1 << n
    pairs: list[tuple[int, float]] = []
    seen: set[int] = set()
    for line_no, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(line_no, f"expected '<mask> <value>', got {line!r}")
        try:
            mask = int(parts[0])
        except ValueError:
            fail(line_no, f"mask is not an integer: {parts[0]!r}")
        if not 0 <= mask < size:
            fail(line_no, f"mask {mask} out of range for n={n}")
        if mask in seen:
            fail(line_no, f"duplicate mask {mask}")
        seen.add(mask)
        try:
            value = float(parts[1])
        except ValueError:
            fail(line_no, f"value is not a number: {parts[1]!r}")
        if not math.isfinite(value):
            fail(line_no, f"value is not finite: {parts[1]!r}")
        pairs.append((mask, value))

    if kind == "dense" and len(pairs) != size:
        fail(len(lines) + 1, f"dense file must list all {size} masks, got {len(pairs)}")
    masks = np.array([mask for mask, _ in pairs], dtype=np.int64)
    values = np.array([value for _, value in pairs], dtype=np.float64)
    return SetFnFile(n=n, kind=kind, model=model, masks=masks, values=values)


def write_setfn_reference(path, n: int, kind: str, model, pairs) -> None:
    """A setfn file with one `f"{mask} {value!r}\\n"` line per (mask, value)
    pair, in the order given; nothing is checked."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC}\nn {n}\nkind {kind}\nmodel {'none' if model is None else model}\n")
        for mask, value in pairs:
            fh.write(f"{int(mask)} {float(value)!r}\n")
