import numpy as np
import pytest

from setsp import transforms
from setsp.core import DENSE_MAX_N, GroundSet, SetFunction, Spectrum
from setsp.experiments import (
    ExperimentRow,
    compression_experiment,
    modular_setfunction,
    pool_bidder,
    random_bidder_pool,
    random_rbf_covariance,
    sampling_experiment,
)
from setsp.transforms import dsft


def test_rbf_covariance_is_pd_and_deterministic():
    K1 = random_rbf_covariance(12, 7)
    K2 = random_rbf_covariance(12, 7)
    assert np.array_equal(K1, K2)
    assert np.all(np.linalg.eigvalsh(K1) > 0)


def test_modular_setfunction_is_one_bandlimited():
    fn = modular_setfunction(GroundSet(6), 11)
    spec = dsft(4, fn)
    high = np.bitwise_count(np.arange(64)) >= 2
    assert np.abs(spec.coeffs[high]).max() < 1e-10


def test_compression_experiment_rows_and_determinism():
    K = random_rbf_covariance(8, 3)
    a = compression_experiment(K, order=2, wht_samples=64, probes=2000, seed=5)
    b = compression_experiment(K, order=2, wht_samples=64, probes=2000, seed=5)
    assert a.band_error == b.band_error and a.wht_error == b.wht_error
    assert [r.method for r in a.rows] == ["dsft4-band", "wht-regression"]
    band_row = a.rows[0]
    assert band_row.queries_used == 1 + 8 + 8 * 7 // 2
    line = band_row.csv()
    assert line.startswith("dsft4-band,8,order=2,2000,5,pcg64,")
    assert line.endswith(",")  # wall_time withheld without the timing flag
    assert ExperimentRow.CSV_HEADER.split(",")[0] == "method"


def test_pool_bidders_share_pool():
    g = GroundSet(10)
    pool = random_bidder_pool(g, 40, 9)
    assert pool.masks[0] == 0 and len(pool.masks) == 40
    rng = np.random.default_rng(1)
    bidder = pool_bidder(pool, rng)
    assert set(bidder.support.freqs.tolist()) <= set(pool.masks.tolist())
    assert bidder.support.freqs[0] == 0
    assert bidder.coeffs[0] >= np.abs(bidder.coeffs[1:]).sum()


def test_bidder_pool_size_is_bounded_by_the_lattice():
    g = GroundSet(8)
    with pytest.raises(ValueError, match="cannot pick 599 distinct nonempty"):
        random_bidder_pool(g, 600, 9)
    with pytest.raises(ValueError, match="cannot pick 256 distinct nonempty"):
        random_bidder_pool(g, 257, 9)
    pool = random_bidder_pool(g, 256, 9)
    assert pool.masks.tolist() == list(range(256))
    assert pool.base_magnitudes.shape == (256,)


def test_compression_experiment_golden_bits(one_blas_thread):
    # recorded from the harness that queried the oracle once per method
    out = one_blas_thread(
        "-c",
        "from setsp.experiments import compression_experiment, random_rbf_covariance\n"
        "r = compression_experiment(random_rbf_covariance(12, 7), wht_samples=200,\n"
        "                           probes=20000, seed=7)\n"
        "print(r.band_error.hex(), r.wht_error.hex(), *(x.queries_used for x in r.rows))\n"
    )
    assert out.split() == ["0x1.1624a732fd1edp-5", "0x1.50d4ab6bebd54p-7", "79", "200"]


def _criterion_11_holds(report, k: int) -> bool:
    return (
        report.queries_per_bidder == k
        and report.mean_recon_error < report.mean_mass_bound
        and report.mean_recon_error < report.mean_poly2_error
    )


def test_sampling_experiment_past_the_dense_cap():
    n = 40
    assert n > DENSE_MAX_N  # no array of 2**n values could be built
    # a support that holds the whole pool: the sampling theorem is exact
    whole = sampling_experiment(n=n, pool_size=60, n_train=25, n_test=5, k_support=60, seed=7)
    assert whole.queries_per_bidder == 60
    assert whole.mass_bounds.tolist() == [0.0] * 5
    assert whole.captured_mass.tolist() == [1.0] * 5
    assert whole.recon_errors.max() <= 1e-12
    assert whole.poly2_errors.min() > 1e-3
    # criterion 11's settings
    assert _criterion_11_holds(sampling_experiment(n=n, seed=2026), 500)


def test_sampling_experiment_uses_no_dense_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense path taken")

    monkeypatch.setattr(transforms, "dsft_inplace", refuse)
    monkeypatch.setattr(SetFunction, "wrap", refuse)
    monkeypatch.setattr(Spectrum, "wrap", refuse)
    monkeypatch.setattr(GroundSet, "masks", refuse)
    assert _criterion_11_holds(sampling_experiment(n=17, seed=2026), 500)


def test_sampling_experiment_matches_the_dense_scorer():
    # mean errors of criterion 11 as recorded from 75 dense inverse transforms
    report = sampling_experiment(seed=2026)
    recorded = {
        "recon": float.fromhex("0x1.857ecbe11e5e6p-17"),
        "poly2": float.fromhex("0x1.46b6287f3aa8ep-8"),
        "mass_bound": float.fromhex("0x1.e3a48300a2aa4p-15"),
    }
    got = {
        "recon": report.mean_recon_error,
        "poly2": report.mean_poly2_error,
        "mass_bound": report.mean_mass_bound,
    }
    for key, want in recorded.items():
        assert got[key] == pytest.approx(want, rel=1e-9, abs=0.0), key
