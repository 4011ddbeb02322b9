"""Experiment harnesses: oracle compression and sparse-spectrum sampling.

These compose the library modules into the two reference experiments and
return plain row records that the CLI serializes as CSV.

Compression: a Gaussian joint-entropy oracle (the classic sensor-network
informativeness function, here over a synthetic smooth covariance) is
approximated two ways on the |B| <= m band: direct model-4 coefficient
queries versus WHT least-squares regression on p random samples. Both are
Monte-Carlo scored against one pass of oracle queries; `score_compression`
runs the same harness on any oracle, and the CLI calls it.

Sampling: synthetic sparse bidders share a frequency pool; training spectra
pick the support, the model-4 sampling theorem reconstructs test bidders from
one query per selected frequency, and a degree-2 polynomial fit on the same
queries serves as baseline.  Both are scored exactly over all 2**n subsets,
as quadratic forms in one Gram matrix on the pooled frequencies, so no array
of 2**n values is ever built.  The harness also reports a captured-mass bound:
the triangle-inequality bound sum |h_B| * ||f^B||_2 / ||v||_2 over the true
frequencies missed by the support, an a-priori cap on the truncation error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    check_count,
    is_subset,
    popcount,
    subsets_of_cardinality_at_most,
)
from .coverage import GaussianModel, gaussian_entropy_many
from .compression import (
    RNG_ALGORITHM,
    SetFunctionOracle,
    compress_band,
    estimate_relative_errors,
    wht_regression,
)
from .sampling import (
    eval_sparse_many,
    lattice_norms,
    oracle_from_sparse_spectrum,
    random_nonempty_masks,
    reconstruct,
    sampling_indices,
    select_support,
    with_dominant_offset,
)

# Length scale and nugget of `random_rbf_covariance`'s kernel.
RBF_LENGTH_SCALE, RBF_NUGGET = 0.35, 0.05
# Sampling bidders: pool magnitudes log-uniform on [MAG_LOW, MAG_HIGH); a pool
# frequency enters a bidder with probability INCLUDE_PROB, its magnitude
# jittered by a lognormal of sigma JITTER_SIGMA (`pool_bidder`).
MAG_LOW, MAG_HIGH = 1e-3, 1.0
INCLUDE_PROB, JITTER_SIGMA, EMPTY_FACTOR = 0.5, 0.25, 1.5


def random_rbf_covariance(n: int, seed: int) -> np.ndarray:
    """Covariance of n sensors at random plane positions with a squared-
    exponential kernel plus a nugget; always positive definite."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * RBF_LENGTH_SCALE**2)) + RBF_NUGGET * np.eye(n)


def entropy_oracle(model: GaussianModel) -> SetFunctionOracle:
    return SetFunctionOracle(model.ground, lambda masks: gaussian_entropy_many(model, masks))


def modular_setfunction(ground: GroundSet, seed: int) -> SetFunction:
    """Random modular function c + sum of w_i over i in A (1-band-limited)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(ground.n)
    c = float(rng.standard_normal())
    masks = ground.masks()
    values = np.full(ground.size, c)
    for i in range(ground.n):
        values += w[i] * ((masks >> i) & 1)
    return SetFunction.wrap(ground, values)


@dataclass(frozen=True)
class ExperimentRow:
    """One CSV row of an error table."""

    method: str
    n: int
    params: str
    probes: int
    seed: int
    rng: str
    queries_used: int
    relative_error: float
    wall_time: float | None = None

    CSV_HEADER = "method,n,params,probes,seed,rng,queries_used,relative_error,wall_time"

    def csv(self, with_timing: bool = False) -> str:
        timing = "" if (self.wall_time is None or not with_timing) else repr(self.wall_time)
        return (
            f"{self.method},{self.n},{self.params},{self.probes},{self.seed},"
            f"{self.rng},{self.queries_used},{self.relative_error!r},{timing}"
        )


@dataclass(frozen=True)
class CompressionReport:
    rows: tuple[ExperimentRow, ...]
    band_error: float
    wht_error: float


def compression_experiment(covariance: np.ndarray, **kwargs) -> CompressionReport:
    """`score_compression` on the Gaussian joint-entropy oracle of
    `covariance`, with the same keyword arguments."""
    return score_compression(entropy_oracle(GaussianModel(covariance)), **kwargs)


def score_compression(
    oracle: SetFunctionOracle,
    *,
    order: int = 2,
    wht_samples: int = 1000,
    probes: int = 100_000,
    seed: int,
) -> CompressionReport:
    """Model-4 band compression against WHT regression on one oracle.

    Both fit the band |B| <= order: the band from the sets N \\ B, the
    regression from `wht_samples` distinct seeded random sets.  One pass of
    oracle queries at seeded probes scores both.  `queries_used` is the
    growth of the oracle's counter while a method fits, and `wall_time` its
    fitting time plus the time of the shared scoring pass.
    """
    ground = oracle.ground
    wht_samples = check_count(wht_samples, "wht_samples", 1, ground.size)
    started, before = time.perf_counter(), oracle.queries
    band = compress_band(oracle, order)
    band_queries, band_time = oracle.queries - before, time.perf_counter() - started

    started, before = time.perf_counter(), oracle.queries
    rng = np.random.default_rng(seed)
    sample_masks = rng.choice(ground.size, size=wht_samples, replace=False)
    sample_values = oracle.query_many(sample_masks)
    wht = wht_regression(SparseSetFunction(ground, sample_masks, sample_values), band.support)
    wht_queries, wht_time = oracle.queries - before, time.perf_counter() - started

    started = time.perf_counter()
    evaluators = [partial(eval_sparse_many, fit) for fit in (band, wht)]
    band_error, wht_error = estimate_relative_errors(oracle, evaluators, probes, seed=seed)
    scoring_time = time.perf_counter() - started
    rows = (
        ExperimentRow("dsft4-band", ground.n, f"order={order}", probes, seed, RNG_ALGORITHM,
                      band_queries, band_error, band_time + scoring_time),
        ExperimentRow("wht-regression", ground.n, f"order={order};p={wht_samples}", probes,
                      seed, RNG_ALGORITHM, wht_queries, wht_error, wht_time + scoring_time),
    )
    return CompressionReport(rows, band_error, wht_error)


@dataclass(frozen=True)
class BidderPool:
    """Shared frequency pool: masks (empty set first) and base magnitudes."""

    ground: GroundSet
    masks: np.ndarray
    base_magnitudes: np.ndarray


def random_bidder_pool(ground: GroundSet, size: int, seed: int) -> BidderPool:
    """Pool of `size` frequencies (the empty set plus size-1 random nonempty
    masks) with log-uniform base magnitudes shared by all bidders."""
    size = check_count(size, "size", 1, ground.size)
    rng = np.random.default_rng(seed)
    masks = np.concatenate(([0], random_nonempty_masks(ground, size - 1, rng)))
    mags = np.exp(rng.uniform(np.log(MAG_LOW), np.log(MAG_HIGH), size=size))
    return BidderPool(ground, masks, mags)


def pool_bidder(pool: BidderPool, rng: np.random.Generator) -> SparseSpectrum:
    """Draw one bidder: each nonempty pool frequency enters independently,
    with coefficient base_magnitude * lognormal jitter * random sign; the
    empty-set coefficient is EMPTY_FACTOR * sum|coeffs| (dominant)."""
    nonempty = pool.masks[1:]
    base = pool.base_magnitudes[1:]
    include = rng.random(nonempty.size) < INCLUDE_PROB
    freqs = nonempty[include]
    mags = base[include] * np.exp(JITTER_SIGMA * rng.standard_normal(freqs.size))
    signs = rng.choice([-1.0, 1.0], size=freqs.size)
    return with_dominant_offset(pool.ground, freqs, mags * signs, EMPTY_FACTOR)


@dataclass(frozen=True)
class SamplingReport:
    rows: tuple[ExperimentRow, ...]
    recon_errors: np.ndarray  # per test bidder
    poly2_errors: np.ndarray
    mass_bounds: np.ndarray  # captured-mass (truncation) bound per bidder
    captured_mass: np.ndarray  # fraction of spectral l2 mass inside the support
    queries_per_bidder: int

    @property
    def mean_recon_error(self) -> float:
        return float(self.recon_errors.mean())

    @property
    def mean_poly2_error(self) -> float:
        return float(self.poly2_errors.mean())

    @property
    def mean_mass_bound(self) -> float:
        return float(self.mass_bounds.mean())


def sampling_experiment(
    *,
    n: int = 20,
    pool_size: int = 600,
    n_train: int = 25,
    n_test: int = 25,
    k_support: int = 500,
    seed: int,
) -> SamplingReport:
    """Train/test sparse-spectrum elicitation on synthetic pooled bidders.

    The training bidders' sparse spectra pick the k most important
    frequencies; each test bidder is reconstructed from the k complement
    queries (all of them by one forward substitution) and compared (exactly,
    over all 2**n subsets) against the truth and against a degree-2
    polynomial least-squares fit on the same queries.

    Every spectrum involved lives on U = pool | band | support, where the
    band is |B| <= 2.  The three norms per test bidder (truth, truth -
    reconstruction, truth - fit) are quadratic forms in one Gram matrix on U
    (`lattice_norms`), so the cost does not grow with 2**n and n may exceed
    DENSE_MAX_N.  The fit needs the truth at the k queried sets A_i = N \\ B_i;
    those are sums of the true coefficients on U at the subsets of B_i, so
    the oracle is asked only reconstruction's k queries.  All bidders are fit
    at once, by one least-squares solve with a k-row design and one column
    per bidder.  The fit p(A) = sum over B subseteq A, |B| <= 2 of beta_B has
    the model-4 spectrum gamma_C = (-1)**|C| * sum over B supseteq C of
    beta_B on the same band, because [B subseteq A] = prod over i in B of
    (1 - [i not in A]).
    """
    ground = GroundSet(n)
    pool_size = check_count(pool_size, "pool_size", 1, ground.size)
    n_train, n_test = check_count(n_train, "n_train", 1), check_count(n_test, "n_test", 1)
    pool = random_bidder_pool(ground, pool_size, seed)
    rng = np.random.default_rng(seed + 1)
    train = [pool_bidder(pool, rng) for _ in range(n_train)]
    test = [pool_bidder(pool, rng) for _ in range(n_test)]
    for t, bidder in enumerate(test):
        if not bidder.coeffs.any():
            raise ValueError(f"test bidder {t} is the zero function: it drew none of the "
                             f"{pool_size - 1} nonempty frequencies of a pool of size {pool_size}")

    support = select_support(train, k_support)
    queries = sampling_indices(support)
    band = subsets_of_cardinality_at_most(ground, min(2, n))
    # sorted, not hashed: `np.unique`'s hash table keeps 0.6 MiB of heap in use
    freqs = np.unique(np.concatenate((pool.masks, band, support.freqs)), return_inverse=True)[0]

    oracles = [oracle_from_sparse_spectrum(bidder) for bidder in test]
    recovered = reconstruct(oracles, support)
    queries_used = max((oracle.queries for oracle in oracles), default=0)
    truth = np.zeros((freqs.size, n_test))
    recon = np.zeros((freqs.size, n_test))
    missed_mass = np.zeros(n_test)
    captured = np.zeros(n_test)
    for t, (bidder, got) in enumerate(zip(test, recovered)):
        truth[np.searchsorted(freqs, bidder.freqs), t] = bidder.coeffs
        recon[np.searchsorted(freqs, support.freqs), t] = got.coeffs

        inside = np.isin(bidder.freqs, support.freqs)
        missed_coeffs = bidder.coeffs[~inside]
        missed_cards = popcount(bidder.freqs[~inside])
        # ||f^B||_2 = 2**((n-|B|)/2), the root of the Gram diagonal
        missed_mass[t] = float(
            (np.abs(missed_coeffs) * 2.0 ** (0.5 * (n - missed_cards))).sum()
        )
        total_mass = float((bidder.coeffs**2).sum())
        captured[t] = float((bidder.coeffs[inside] ** 2).sum()) / total_mass

    # the truth at A_i = N \ B_i sums its coefficients at the C subseteq B_i
    observed = is_subset(freqs[None, :], support.freqs[:, None]).astype(np.float64) @ truth
    # the monomials prod over i in B of [i in A], B in the band |B| <= 2
    design = is_subset(band[None, :], queries[:, None]).astype(np.float64)
    betas = np.linalg.lstsq(design, observed, rcond=None)[0]
    signs = np.where(popcount(band) & 1, -1.0, 1.0)
    fit = np.zeros_like(truth)
    fit[np.searchsorted(freqs, band)] = signs[:, None] * (
        is_subset(band[:, None], band[None, :]) @ betas
    )
    norms, recon_gaps, fit_gaps = lattice_norms(
        ground, freqs, np.hstack((truth, truth - recon, truth - fit))
    ).reshape(3, n_test)
    recon_errors = recon_gaps / norms
    poly2_errors = fit_gaps / norms
    mass_bounds = missed_mass / norms

    params = f"pool={pool_size};k={k_support};train={n_train};test={n_test}"
    rows = tuple(
        ExperimentRow(method, n, params, ground.size, seed, RNG_ALGORITHM, len(support),
                      float(errors.mean()))
        for method, errors in (("dsft4-sampling", recon_errors), ("poly2-baseline", poly2_errors))
    )
    return SamplingReport(
        rows=rows,
        recon_errors=recon_errors,
        poly2_errors=poly2_errors,
        mass_bounds=mass_bounds,
        captured_mass=captured,
        queries_per_bidder=queries_used,
    )
