"""Generalized coverage functions and the Gaussian-entropy instance.

A generalized coverage function assigns s_A = c + w(union of S_i, i in A)
for a Venn diagram of sets S_1..S_n with signed additive weights.  Every set
function has such a representation: the model-4 spectrum carries the negated
weights of the 2**n - 1 disjoint Venn fragments (offset c = s_{}), and the
model-3 spectrum carries the negated weights of the intersections.  Joint
entropy of a multivariate Gaussian is the canonical expensive instance; its
model-3 spectrum at pairs equals negated pairwise mutual information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GroundSet, SetFunction, SparseSetFunction, Spectrum, _built, _taken, popcount
from .transforms import FORWARD, dsft, dsft_inplace, idsft

LOG_2PI = math.log(2.0 * math.pi)

# Fragments with |weight| below this are dropped from the sparse map.
WEIGHT_DROP_TOL = 1e-12
# The largest n that `mi_check` densifies, and the tolerance of both it and
# the reproduction check of `coverage_from_setfunction`.
_CHECK_EXHAUSTIVE_N = 12
_CHECK_TOL = 1e-9
# Masks per block of `gaussian_entropy_many`.  A block's set-bit positions,
# submatrices and factors take 8k + 16k**2 bytes per mask of cardinality k:
# 1.6 MiB at k=10 for 1024 masks, against 105 MiB for 65,536.
_ENTROPY_BLOCK = 1024


@dataclass(frozen=True)
class CoverageRepresentation:
    """Offset c plus signed weights w(T_B) of the nonempty Venn fragments,
    held as a `SparseSetFunction` sorted by mask."""

    offset_c: float
    fragments: SparseSetFunction

    def __post_init__(self):
        masks, weights = self.fragments.masks, self.fragments.values
        if (masks == 0).any():
            raise ValueError("fragment weights are indexed by nonempty subsets")
        masks, weights = _taken(np.argsort(masks), masks, weights)
        object.__setattr__(self, "offset_c", float(self.offset_c))
        object.__setattr__(self, "fragments",
                           _built(SparseSetFunction, ground=self.ground, masks=masks, values=weights))

    @property
    def ground(self) -> GroundSet:
        return self.fragments.ground

    @property
    def total_weight(self) -> float:
        return float(self.fragments.values.sum())


def coverage_dense(rep: CoverageRepresentation) -> SetFunction:
    """Evaluate the representation at every subset (via the model-4 inverse)."""
    return idsft(4, fragment_weights_spectrum(rep))


def coverage_from_setfunction(s: SetFunction) -> CoverageRepresentation:
    """Represent an arbitrary set function as a generalized coverage function.

    The fragment weights are the negated nonempty model-4 coefficients and the
    offset is s_{}.  The construction verifies that the representation
    reproduces the input at every subset.
    """
    weights = -dsft(4, s).coeffs
    kept = np.flatnonzero(np.abs(weights[1:]) >= WEIGHT_DROP_TOL) + 1
    rep = CoverageRepresentation(float(s.values[0]),
                                 SparseSetFunction(s.ground, kept, weights[kept]))
    scale = max(1.0, float(np.abs(s.values).max()))
    err = float(np.abs(coverage_dense(rep).values - s.values).max())
    if err > _CHECK_TOL * scale:
        raise ValueError(f"coverage representation failed to reproduce the input (err={err:g})")
    return rep


def intersection_weights(rep: CoverageRepresentation) -> Spectrum:
    """Model-3 spectrum predicted by the representation:
    -w(intersection of S_i, i in B) for B != {}, and s_{} at B = {}."""
    # superset sums w[B] = sum of w(T_C) over C >= B: the model-1 forward
    # transform reverses the array, then runs u += w per stage
    w = np.zeros(rep.ground.size)
    w[rep.ground.full_mask ^ rep.fragments.masks] = rep.fragments.values
    dsft_inplace(w, 1, FORWARD)
    coeffs = -w
    coeffs[0] = rep.offset_c
    return Spectrum.wrap(rep.ground, 3, coeffs)


def fragment_weights_spectrum(rep: CoverageRepresentation) -> Spectrum:
    """Model-4 spectrum predicted by the representation:
    -w(T_B) for B != {}, and s_N at B = {}."""
    coeffs = np.zeros(rep.ground.size)
    coeffs[rep.fragments.masks] = -rep.fragments.values
    coeffs[0] = rep.offset_c + rep.total_weight
    return Spectrum.wrap(rep.ground, 4, coeffs)


def load_coverage(path) -> CoverageRepresentation:
    """Read a sparse model-4 spectrum file as fragments: negated fragment
    weights, with mask 0 carrying s_N (the offset is c = s_N - sum of
    weights)."""
    from . import io as setfn_io

    rec = setfn_io.parse_setfn(path)
    if rec.model != 4 or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse model-4 fragment file")
    fragment = rec.masks != 0
    at_zero = rec.values[~fragment]
    s_n = float(at_zero[0]) if at_zero.size else 0.0
    weights = -rec.values[fragment]
    # the file's checks stand: the fragments are not checked again
    fragments = _built(SparseSetFunction, ground=rec.ground, masks=rec.masks[fragment],
                       values=weights)
    # left to right in file order: np.sum's pairwise order would move its bits
    return CoverageRepresentation(s_n - sum(weights.tolist()), fragments)


@dataclass(frozen=True)
class GaussianModel:
    """Joint-entropy oracle backed by an n x n positive-definite covariance."""

    covariance: np.ndarray

    def __post_init__(self):
        K = np.array(self.covariance, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"covariance must be square, got shape {K.shape}")
        if not np.isfinite(K).all():
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(K).max(initial=0.0)))
        if float(np.abs(K - K.T).max(initial=0.0)) > 1e-10 * scale:
            raise ValueError("covariance must be symmetric to 1e-10")
        try:
            np.linalg.cholesky(K)  # certifies positive definiteness
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        K.setflags(write=False)
        object.__setattr__(self, "covariance", K)

    @property
    def n(self) -> int:
        return self.covariance.shape[0]

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)


def gaussian_entropy(model: GaussianModel, A: int) -> float:
    """Differential entropy (natural log) of the variables indexed by A:
    (1/2) log det K_AA + (|A|/2)(1 + log 2*pi), and 0 at A = {}.  The
    library calls `gaussian_entropy_many`; this one-mask form stays because
    the bench tracer's `ATTRS` names it."""
    return float(gaussian_entropy_many(model, [model.ground.check_mask(A)])[0])


def gaussian_entropy_many(model: GaussianModel, masks) -> np.ndarray:
    """`gaussian_entropy` at each mask of an array of any shape: groups the
    masks by cardinality and factorizes the stacked principal submatrices in
    blocks of `_ENTROPY_BLOCK`.  A block of masks of cardinality k finds
    their set-bit positions, ascending, in k passes that each peel the
    lowest set bit, and gathers the k x k submatrices through them.  Each
    matrix is factored alone, so a mask's value does not depend on the rest
    of the batch."""
    masks = model.ground.check_masks(masks)
    flat = masks.ravel()
    out = np.empty(flat.shape[0])
    cards = popcount(flat)
    for k in range(model.n + 1):
        sel = np.nonzero(cards == k)[0]
        if sel.size == 0:
            continue
        if k == 0:
            out[sel] = 0.0
            continue
        for start in range(0, sel.size, _ENTROPY_BLOCK):
            part = sel[start : start + _ENTROPY_BLOCK]
            # the k set-bit positions, ascending: peel the lowest bit k times
            rest, pos = flat[part], np.empty((k, part.size), np.intp)
            for r in range(k):
                low = rest & -rest
                pos[r] = np.bitwise_count(low - 1)
                rest ^= low
            idx = pos.T
            subs = model.covariance[idx[:, :, None], idx[:, None, :]]
            try:
                L = np.linalg.cholesky(subs)
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    "a principal submatrix is not positive definite"
                ) from exc
            logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
            out[part] = 0.5 * logdet + 0.5 * k * (1.0 + LOG_2PI)
    return out.reshape(masks.shape)


ENTROPY_DENSE_MAX_N = 22


def entropy_setfunction(model: GaussianModel) -> SetFunction:
    """Densify the joint-entropy set function (n <= 22)."""
    if model.n > ENTROPY_DENSE_MAX_N:
        raise ValueError(
            f"entropy set functions densify only for n <= {ENTROPY_DENSE_MAX_N}; "
            "use an oracle for larger ground sets"
        )
    values = gaussian_entropy_many(model, model.ground.masks())
    return SetFunction.wrap(model.ground, values)


def pairwise_mutual_information(model: GaussianModel, i: int, j: int) -> float:
    """I(X_i; X_j) = H(X_i) + H(X_j) - H(X_i, X_j), 1-based indices."""
    i = model.ground.check_element(i)
    j = model.ground.check_element(j)
    if i == j:
        raise ValueError("pairwise mutual information requires i != j")
    pair = [1 << (i - 1), 1 << (j - 1)]
    h_i, h_j, h_ij = gaussian_entropy_many(model, pair + [pair[0] | pair[1]])
    return float(h_i + h_j - h_ij)


@dataclass(frozen=True)
class MiReport:
    """Deviations between entropy spectra and mutual-information identities."""

    n: int
    max_pair_gap: float  # max |s3_{ij} + I(X_i;X_j)| over pairs
    joint_entropy_gap: float  # |s4_{} - H(X_N)|
    tol: float
    ok: bool


def mi_check(model: GaussianModel) -> MiReport:
    """Verify s3_{i,j} = -I(X_i;X_j) for all pairs and s4_{} = H(X_N)
    on the densified entropy function (n <= 12)."""
    if model.n > _CHECK_EXHAUSTIVE_N:
        raise ValueError(f"mi_check densifies the entropy function; n <= {_CHECK_EXHAUSTIVE_N}")
    s = entropy_setfunction(model)
    H = s.values
    s3 = dsft(3, s)
    s4 = dsft(4, s)
    singles = 1 << np.arange(model.n)
    i, j = np.triu_indices(model.n, 1)
    pairs = singles[i] | singles[j]
    gaps = np.abs(s3.coeffs[pairs] + (H[singles[i]] + H[singles[j]] - H[pairs]))
    max_pair = float(gaps.max(initial=0.0))
    joint_gap = abs(float(s4.coeffs[0]) - float(H[model.ground.full_mask]))
    return MiReport(
        n=model.n,
        max_pair_gap=max_pair,
        joint_entropy_gap=joint_gap,
        tol=_CHECK_TOL,
        ok=bool(max_pair <= _CHECK_TOL and joint_gap <= _CHECK_TOL),
    )
