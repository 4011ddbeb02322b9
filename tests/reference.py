"""Brute-force reference implementations used as independent test oracles.

Everything here evaluates the defining sums directly with plain Python loops
over subsets; nothing is shared with the fast library code paths.  The one
numpy call is the row sum of `forward_substitution_reference`, whose pairwise
order is the one `reconstruct` must reproduce.
"""

import math

import numpy as np


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
    summed exactly with `math.fsum`.  This is the dense scorer of the
    sampling experiment."""
    values = sparse_eval_reference(freqs, coeffs, range(1 << n))
    return math.sqrt(math.fsum(v * v for v in values))


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
