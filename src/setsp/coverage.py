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

from .core import GroundSet, SetFunction, Spectrum, popcount
from .transforms import INVERSE, dsft, dsft_inplace

LOG_2PI = math.log(2.0 * math.pi)

# Fragments with |weight| below this are dropped from the sparse map.
WEIGHT_DROP_TOL = 1e-12
# Reproduction check at construction (exhaustive to this n, sampled beyond).
_CHECK_EXHAUSTIVE_N = 12
_CHECK_SAMPLES = 256
_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class CoverageRepresentation:
    """Offset c plus signed weights w(T_B) of the nonempty Venn fragments."""

    ground: GroundSet
    offset_c: float
    fragment_weights: dict[int, float]

    def __post_init__(self):
        clean: dict[int, float] = {}
        for mask, w in self.fragment_weights.items():
            mask = self.ground.check_mask(mask)
            if mask == 0:
                raise ValueError("fragment weights are indexed by nonempty subsets")
            clean[mask] = float(w)
        object.__setattr__(self, "fragment_weights", clean)
        object.__setattr__(self, "offset_c", float(self.offset_c))
        masks = np.array(sorted(clean), dtype=np.int64)
        weights = np.array([clean[int(m)] for m in masks])
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_weights", weights)

    @property
    def total_weight(self) -> float:
        return float(self._weights.sum())


def coverage_eval(rep: CoverageRepresentation, A: int) -> float:
    """c plus the total weight of fragments touching A:
    sum of w(T_B) over B with B & A != 0."""
    A = rep.ground.check_mask(A)
    touching = (rep._masks & A) != 0
    return rep.offset_c + float(rep._weights[touching].sum())


def coverage_dense(rep: CoverageRepresentation) -> SetFunction:
    """Evaluate the representation at every subset (via the model-4 inverse)."""
    coeffs = np.zeros(rep.ground.size)
    coeffs[rep._masks] = -rep._weights
    coeffs[0] = rep.offset_c + rep.total_weight  # = s_N
    dsft_inplace(coeffs, 4, INVERSE)
    return SetFunction.wrap(rep.ground, coeffs)


def coverage_from_setfunction(s: SetFunction, check: bool = True) -> CoverageRepresentation:
    """Represent an arbitrary set function as a generalized coverage function.

    The fragment weights are the negated nonempty model-4 coefficients and the
    offset is s_{}.  When `check` is set the construction verifies that the
    representation reproduces the input (exhaustively up to n=12, on random
    subsets beyond).
    """
    spectrum = dsft(4, s)
    weights = {}
    for mask in range(1, s.ground.size):
        w = -spectrum.coeffs[mask]
        if abs(w) >= WEIGHT_DROP_TOL:
            weights[mask] = w
    rep = CoverageRepresentation(s.ground, float(s.values[0]), weights)
    if check:
        scale = max(1.0, float(np.abs(s.values).max()))
        if s.ground.n <= _CHECK_EXHAUSTIVE_N:
            err = float(np.abs(coverage_dense(rep).values - s.values).max())
        else:
            rng = np.random.default_rng(0)
            probes = rng.integers(0, s.ground.size, size=_CHECK_SAMPLES)
            err = max(
                abs(coverage_eval(rep, int(A)) - float(s.values[int(A)]))
                for A in probes
            )
        if err > _CHECK_TOL * scale:
            raise ValueError(
                f"coverage representation failed to reproduce the input (err={err:g})"
            )
    return rep


def intersection_weights(rep: CoverageRepresentation) -> Spectrum:
    """Model-3 spectrum predicted by the representation:
    -w(intersection of S_i, i in B) for B != {}, and s_{} at B = {}."""
    n = rep.ground.n
    w = np.zeros(rep.ground.size)
    w[rep._masks] = rep._weights
    # superset sums: out[B] = sum of w[C] over C >= B
    for i in range(n):
        step = 1 << i
        x = w.reshape(-1, 2, step)
        x[:, 0] += x[:, 1]
    coeffs = -w
    coeffs[0] = rep.offset_c
    return Spectrum.wrap(rep.ground, 3, coeffs)


def fragment_weights_spectrum(rep: CoverageRepresentation) -> Spectrum:
    """Model-4 spectrum predicted by the representation:
    -w(T_B) for B != {}, and s_N at B = {}."""
    coeffs = np.zeros(rep.ground.size)
    coeffs[rep._masks] = -rep._weights
    coeffs[0] = rep.offset_c + rep.total_weight
    return Spectrum.wrap(rep.ground, 4, coeffs)


def save_coverage(path, rep: CoverageRepresentation) -> None:
    """Serialize as a sparse model-4 spectrum file: negated fragment weights,
    with mask 0 carrying s_N (the file is literally the model-4 spectrum, and
    the offset is recovered as c = s_N - sum of weights)."""
    from . import io as setfn_io

    pairs = [(0, rep.offset_c + rep.total_weight)]
    pairs += [(int(m), -float(w)) for m, w in zip(rep._masks, rep._weights)]
    setfn_io.write_entries(path, rep.ground.n, "sparse", 4, pairs)


def load_coverage(path) -> CoverageRepresentation:
    from . import io as setfn_io

    rec = setfn_io.parse_setfn(path)
    if rec.model != 4 or rec.kind != "sparse":
        raise setfn_io.SetFnFormatError(path, 4, "expected a sparse model-4 fragment file")
    entries = rec.entries()
    s_n = entries.pop(0, 0.0)
    weights = {m: -v for m, v in entries.items()}
    return CoverageRepresentation(rec.ground, s_n - sum(weights.values()), weights)


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
        scale = max(1.0, float(np.abs(K).max()))
        if float(np.abs(K - K.T).max()) > 1e-10 * scale:
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
    (1/2) log det K_AA + (|A|/2)(1 + log 2*pi), and 0 at A = {}."""
    A = model.ground.check_mask(A)
    if A == 0:
        return 0.0
    idx = [i for i in range(model.n) if A >> i & 1]
    sub = model.covariance[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"principal submatrix for mask {A} is not positive definite"
        ) from exc
    logdet = 2.0 * float(np.log(np.diagonal(L)).sum())
    return 0.5 * logdet + 0.5 * len(idx) * (1.0 + LOG_2PI)


def gaussian_entropy_many(model: GaussianModel, masks, chunk: int = 65536) -> np.ndarray:
    """Vectorized `gaussian_entropy`: groups the masks by cardinality and
    factorizes the stacked principal submatrices in batches."""
    masks = np.asarray(masks, dtype=np.int64)
    flat = masks.ravel()
    out = np.empty(flat.shape[0])
    cards = popcount(flat)
    shifts = np.arange(model.n, dtype=np.int64)
    for k in range(model.n + 1):
        sel = np.nonzero(cards == k)[0]
        if sel.size == 0:
            continue
        if k == 0:
            out[sel] = 0.0
            continue
        for start in range(0, sel.size, chunk):
            part = sel[start : start + chunk]
            bits = (flat[part, None] >> shifts[None, :]) & 1
            # stable argsort puts the k set-bit positions first, ascending
            idx = np.argsort(bits == 0, axis=1, kind="stable")[:, :k]
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
    mi_ = 1 << (i - 1)
    mj = 1 << (j - 1)
    return (
        gaussian_entropy(model, mi_)
        + gaussian_entropy(model, mj)
        - gaussian_entropy(model, mi_ | mj)
    )


@dataclass(frozen=True)
class MiReport:
    """Deviations between entropy spectra and mutual-information identities."""

    n: int
    max_pair_gap: float  # max |s3_{ij} + I(X_i;X_j)| over pairs
    joint_entropy_gap: float  # |s4_{} - H(X_N)|
    tol: float
    ok: bool


def mi_check(model: GaussianModel, tol: float = 1e-9) -> MiReport:
    """Verify s3_{i,j} = -I(X_i;X_j) for all pairs and s4_{} = H(X_N)
    on the densified entropy function (n <= 12)."""
    if model.n > _CHECK_EXHAUSTIVE_N:
        raise ValueError(f"mi_check densifies the entropy function; n <= {_CHECK_EXHAUSTIVE_N}")
    s = entropy_setfunction(model)
    s3 = dsft(3, s)
    s4 = dsft(4, s)
    max_pair = 0.0
    for i in range(1, model.n + 1):
        for j in range(i + 1, model.n + 1):
            pair_mask = (1 << (i - 1)) | (1 << (j - 1))
            gap = abs(float(s3.coeffs[pair_mask]) + pairwise_mutual_information(model, i, j))
            max_pair = max(max_pair, gap)
    joint_gap = abs(float(s4.coeffs[0]) - gaussian_entropy(model, model.ground.full_mask))
    return MiReport(
        n=model.n,
        max_pair_gap=max_pair,
        joint_entropy_gap=joint_gap,
        tol=tol,
        ok=bool(max_pair <= tol and joint_gap <= tol),
    )
