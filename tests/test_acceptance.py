"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 checks the model-4 band compression of an entropy oracle
in two ways: the band reproduces the oracle exactly on the sets it queried,
and it beats WHT regression on the same band when the regression is given the
same query budget (211 samples).  A 1000-sample regression is reported next to
it but not compared: both order-2 bands span the same degree-2 function space,
so with that many samples the regression sits near the best fit in the space,
which the band does not reach.
"""

import time
from functools import partial

import numpy as np

from setsp.core import (
    MODELS,
    GroundSet,
    SetFunction,
)
from setsp.transforms import (
    FORWARD,
    INVERSE,
    dsft,
    dsft_inplace,
    dsft_matrix,
    idsft,
)
from setsp.filters import (
    Filter,
    convolve,
    frequency_response,
    shift,
)
from setsp.compression import (
    compress_band,
    estimate_relative_error,
    wht_regression,
)
from setsp.coverage import (
    CoverageRepresentation,
    GaussianModel,
    coverage_dense,
    coverage_from_setfunction,
    entropy_setfunction,
    fragment_weights_spectrum,
    gaussian_entropy,
    intersection_weights,
    pairwise_mutual_information,
)
from setsp.sampling import (
    eval_sparse_many,
    oracle_from_sparse_spectrum,
    reconstruct,
    synthetic_sparse_spectrum,
)
from setsp.experiments import (
    ExperimentRow,
    compression_experiment,
    entropy_oracle,
    random_rbf_covariance,
    sampling_experiment,
)
from setsp.cli import main

from reference import kronecker_matrix, shift_matrix


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def _rel_max_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def test_criterion_01_transform_correctness():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 11):
        batch = rng.standard_normal((1 << n, 100))
        for model in MODELS:
            for direction in (FORWARD, INVERSE):
                M = dsft_matrix(model, direction, n)
                assert np.array_equal(M, kronecker_matrix(model, direction, n))
                fast = np.array(batch)
                dsft_inplace(fast, model, direction)
                worst = max(worst, float(np.abs(fast - M @ batch).max()))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "transform-correctness", ok, f"max_abs_err={worst:.3g} time={elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_roundtrip_and_self_inverse():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for n in range(1, 13):
        g = GroundSet(n)
        s = SetFunction(g, rng.standard_normal(g.size))
        for model in MODELS:
            back = idsft(model, dsft(model, s))
            worst = max(worst, _rel_max_err(back.values, s.values))
        twice = np.array(s.values)
        dsft_inplace(twice, 3, FORWARD)
        dsft_inplace(twice, 3, FORWARD)
        worst = max(worst, _rel_max_err(twice, s.values))
    ok = worst <= 1e-9
    _report(2, "roundtrip-and-self-inverse", ok, f"max_rel_err={worst:.3g}")
    assert ok


def test_criterion_03_diagonalization():
    worst_offdiag = 0.0
    worst_entry = 0.0
    for n in range(1, 9):
        for model in MODELS:
            F = dsft_matrix(model, FORWARD, n)
            Finv = dsft_matrix(model, INVERSE, n)
            allowed = np.array([1.0, -1.0]) if model == 5 else np.array([0.0, 1.0])
            for i in range(1, n + 1):
                D = F @ shift_matrix(model, i, n) @ Finv
                off = D - np.diag(np.diagonal(D))
                worst_offdiag = max(worst_offdiag, float(np.abs(off).max()))
                gaps = np.abs(np.diagonal(D)[:, None] - allowed[None, :]).min(axis=1)
                worst_entry = max(worst_entry, float(gaps.max()))
    ok = worst_offdiag <= 1e-10 and worst_entry <= 1e-10
    _report(
        3, "shift-diagonalization", ok,
        f"max_offdiag={worst_offdiag:.3g} max_eigen_gap={worst_entry:.3g}",
    )
    assert ok


def test_criterion_04_convolution_theorems():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for n in range(1, 9):
        g = GroundSet(n)
        for model in MODELS:
            s = SetFunction(g, rng.standard_normal(g.size))
            k = min(4, g.size)
            masks = rng.choice(g.size, size=k, replace=False)
            h = Filter.from_taps(
                g, {int(m): float(v) for m, v in zip(masks, rng.standard_normal(k))}
            )
            lhs = dsft(model, convolve(model, h, s, path="direct")).coeffs
            rhs = frequency_response(model, h) * dsft(model, s).coeffs
            worst = max(worst, _rel_max_err(lhs, rhs))
    ok = worst <= 1e-9
    _report(4, "convolution-theorems", ok, f"max_rel_err={worst:.3g}")
    assert ok


def test_criterion_05_shift_invariance_and_algebra():
    rng = np.random.default_rng(1005)
    n = 8
    g = GroundSet(n)
    worst = 0.0
    for model in MODELS:
        s = SetFunction(g, rng.standard_normal(g.size))
        masks = rng.choice(g.size, size=4, replace=False)
        h = Filter.from_taps(
            g, {int(m): float(v) for m, v in zip(masks, rng.standard_normal(4))}
        )
        hs = convolve(model, h, s, path="direct")
        for i in range(1, n + 1):
            lhs = shift(model, i, hs).values
            rhs = convolve(model, h, shift(model, i, s), path="direct").values
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        for i, j in ((1, 2), (3, 8), (5, 6)):
            ij = shift(model, i, shift(model, j, s)).values
            ji = shift(model, j, shift(model, i, s)).values
            worst = max(worst, float(np.abs(ij - ji).max()))
    algebra_ok = True
    for i in range(1, 5):
        for model in (1, 2):
            M = shift_matrix(model, i, 4)
            algebra_ok &= bool(np.array_equal(M @ M, M))
        M5 = shift_matrix(5, i, 4)
        algebra_ok &= bool(np.array_equal(M5 @ M5, np.eye(16)))
    ok = worst <= 1e-10 and algebra_ok
    _report(5, "shift-invariance-and-algebra", ok, f"max_abs_err={worst:.3g}")
    assert ok


def test_criterion_06_lowpass_response():
    exact = True
    for n in range(1, 13):
        g = GroundSet(n)
        h = Filter.moving_average(g)
        expected = 1.0 + (n - np.bitwise_count(np.arange(g.size)))
        for model in (1, 2, 3, 4):
            fr = frequency_response(model, h)
            exact &= bool(np.array_equal(fr, expected))
    _report(6, "lowpass-response", exact, "response = 1 + |N \\ B|, exact")
    assert exact


def test_criterion_07_coverage_theorems():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for trial in range(100):
        n = 1 + trial % 10
        g = GroundSet(n)
        nonempty = np.arange(1, g.size)
        count = int(rng.integers(1, g.size))
        chosen = rng.choice(nonempty, size=min(count, nonempty.size), replace=False)
        rep = CoverageRepresentation(
            g,
            float(rng.standard_normal()),
            {int(m): float(v) for m, v in zip(chosen, rng.standard_normal(chosen.size))},
        )
        dense = coverage_dense(rep)
        worst = max(worst, _rel_max_err(dsft(3, dense).coeffs, intersection_weights(rep).coeffs))
        worst = max(worst, _rel_max_err(dsft(4, dense).coeffs, fragment_weights_spectrum(rep).coeffs))
    for trial in range(20):
        n = 1 + trial % 10
        g = GroundSet(n)
        s = SetFunction(g, rng.standard_normal(g.size))
        rep = coverage_from_setfunction(s)
        worst = max(worst, _rel_max_err(coverage_dense(rep).values, s.values))
    ok = worst <= 1e-10
    _report(7, "coverage-theorems", ok, f"max_rel_err={worst:.3g}")
    assert ok


def test_criterion_08_information_identities():
    rng = np.random.default_rng(1008)
    worst_identity = 0.0
    worst_slack = np.inf
    for trial in range(20):
        n = 2 + trial % 9
        W = rng.standard_normal((n, n))
        model = GaussianModel(W @ W.T / n + 0.5 * np.eye(n))
        s = entropy_setfunction(model)
        s3 = dsft(3, s)
        s4 = dsft(4, s)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                pair = (1 << (i - 1)) | (1 << (j - 1))
                gap = abs(s3.coeffs[pair] + pairwise_mutual_information(model, i, j))
                worst_identity = max(worst_identity, gap)
        worst_identity = max(
            worst_identity,
            abs(s4.coeffs[0] - gaussian_entropy(model, model.ground.full_mask)),
        )
        masks = np.arange(1 << n)
        values = s.values
        for x in range(n):
            for y in range(x + 1, n):
                bx, by = 1 << x, 1 << y
                A = masks[(masks & bx == 0) & (masks & by == 0)]
                slack = (values[A | bx] + values[A | by] - values[A | bx | by] - values[A]).min()
                worst_slack = min(worst_slack, float(slack))
    ok = worst_identity <= 1e-9 and worst_slack >= -1e-9
    _report(
        8, "information-identities", ok,
        f"max_identity_gap={worst_identity:.3g} min_submodularity_slack={worst_slack:.3g}",
    )
    assert ok


def test_criterion_09_sampling_theorem():
    g = GroundSet(20)
    worst = 0.0
    slowest = 0.0
    for trial in range(20):
        truth = synthetic_sparse_spectrum(g, 199, seed=9000 + trial)
        assert len(truth.support) == 200
        oracle = oracle_from_sparse_spectrum(truth)
        started = time.perf_counter()
        got = reconstruct(oracle, truth.support)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert oracle.queries == 200
        scale = float(np.abs(truth.coeffs).max())
        worst = max(worst, float(np.abs(got.coeffs - truth.coeffs).max()) / scale)
    ok = worst <= 1e-8 and slowest < 1.0
    _report(
        9, "sampling-theorem", ok,
        f"max_rel_coeff_err={worst:.3g} slowest_trial={slowest*1000:.0f}ms",
    )
    assert ok


def test_criterion_10_compression_experiment(tmp_path):
    # The order-2 model-4 band of a Gaussian entropy oracle on n=20 sensors is
    # built from 211 oracle queries, the sets N\B with |B| <= 2.  Checked in
    # every trial:
    #   1. its coefficients are exact, not fitted: the band reproduces the
    #      oracle on every set it queried;
    #   2. at equal query budget it beats WHT regression on the same band: the
    #      regression gets as many distinct samples as the band's oracle
    #      counted, drawn and scored as in `compression_experiment`.
    # This is an equal-budget claim only.  Both order-2 bands span the
    # polynomials of degree <= 2 in the element indicators, where the best
    # fit is the truncated WHT (an orthogonal projection).  The band
    # interpolates near the top of the lattice and sits about 4x above that
    # optimum, while regression approaches it as samples grow: on these
    # seeds it reaches 0.025-0.045 at 250 samples and 0.013-0.015 at 1000,
    # against the band's 0.046-0.052.  The 1000-sample row stays in the
    # table for reference and is not compared.
    rows: list[ExperimentRow] = []
    results = []
    probes = 100_000
    for trial in range(5):
        seed = 10_000 + trial
        K = random_rbf_covariance(20, seed)
        report = compression_experiment(
            K, order=2, wht_samples=1000, probes=probes, seed=seed
        )
        rows.extend(report.rows)

        model = GaussianModel(K)
        ground = model.ground
        band_oracle = entropy_oracle(model)
        band = compress_band(band_oracle, 2)
        budget = band_oracle.queries
        queried = ground.full_mask & ~band.support.freqs
        truth = entropy_oracle(model).query_many(queried)
        reproduction = float(
            np.linalg.norm(eval_sparse_many(band, queried) - truth)
            / np.linalg.norm(truth)
        )

        rng = np.random.default_rng(seed)
        sample_masks = rng.choice(ground.size, size=budget, replace=False)
        sample_values = entropy_oracle(model).query_many(sample_masks)
        wht = wht_regression(zip(sample_masks.tolist(), sample_values.tolist()), band.support)
        wht_error_at_budget = estimate_relative_error(
            entropy_oracle(model), partial(eval_sparse_many, wht), probes, seed=seed
        )
        results.append(
            (budget, reproduction, report.band_error, wht_error_at_budget, report.wht_error)
        )
    csv_path = tmp_path / "compression.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(ExperimentRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")
    assert csv_path.read_text().count("\n") == 11  # header + 5 trials x 2 methods
    assert all(row.queries_used == 211 for row in rows if row.method == "dsft4-band")
    assert all(row.queries_used == 1000 for row in rows if row.method == "wht-regression")
    ok = all(
        budget == 211 and reproduction <= 1e-12 and band < wht_budget
        for budget, reproduction, band, wht_budget, _ in results
    )
    detail = "; ".join(
        f"queried_err={r:.2g} band={b:.4g} wht@{q}={wb:.4g} wht@1000={w:.4g}"
        for q, r, b, wb, w in results
    )
    _report(10, "compression-experiment", ok, detail)
    assert ok, f"band not exact on its queries or not below WHT at equal budget: {detail}"


def test_criterion_11_sampling_experiment():
    report = sampling_experiment(seed=2026)
    ok = (
        report.queries_per_bidder == 500
        and report.mean_recon_error < report.mean_mass_bound
        and report.mean_recon_error < report.mean_poly2_error
    )
    _report(
        11, "sampling-experiment", ok,
        f"recon={report.mean_recon_error:.3g} mass_bound={report.mean_mass_bound:.3g} "
        f"poly2={report.mean_poly2_error:.3g}",
    )
    assert ok


def test_criterion_12_performance_n24():
    rng = np.random.default_rng(1012)
    n = 24
    values = rng.standard_normal(1 << n)
    started = time.perf_counter()
    additions = dsft_inplace(values, 1, FORWARD)
    elapsed = time.perf_counter() - started
    ok = elapsed < 2.0 and additions == n * (1 << (n - 1))
    _report(12, "performance-n24", ok, f"time={elapsed:.2f}s additions={additions}")
    assert additions == n * (1 << (n - 1))
    assert elapsed < 2.0


def _run_cli_batch(base, tag, cov_path):
    out = base / tag
    out.mkdir()
    sig = out / "sig.setfn"
    spec = out / "spec.setfn"
    back = out / "back.setfn"
    conv = out / "conv.setfn"
    fr = out / "fr.setfn"
    taps = out / "taps.setfn"
    sparse = out / "sparse.setfn"
    support = out / "support.setfn"
    coeffs = out / "coeffs.setfn"
    err_csv = out / "err.csv"
    comp_csv = out / "comp.csv"
    ent = out / "ent.setfn"
    mod = out / "mod.setfn"

    assert main(["generate", "modular", "--n", "6", "--seed", "3", "--out", str(sig)]) == 0
    assert main(["generate", "sparse4", "--n", "8", "--k", "12", "--seed", "5", "--out", str(sparse)]) == 0
    assert main(["generate", "gaussian", "--cov", str(cov_path), "--out", str(ent)]) == 0
    assert main(["generate", "modular", "--n", "8", "--seed", "9", "--out", str(mod)]) == 0
    assert main(["transform", "--model", "4", "--in", str(sig), "--out", str(spec)]) == 0
    assert main(["transform", "--model", "4", "--inverse", "--in", str(spec), "--out", str(back)]) == 0

    from setsp import io as setfn_io

    setfn_io.write_entries(taps, 6, "sparse", None, [(0, 1.0), (1, 0.5), (2, -0.25)])
    assert main(["convolve", "--model", "3", "--filter", str(taps), "--in", str(sig), "--out", str(conv)]) == 0
    assert main(["freqresp", "--model", "1", "--filter", str(taps), "--out", str(fr)]) == 0

    from setsp.sampling import load_sparse_spectrum, save_support

    save_support(support, load_sparse_spectrum(sparse).support)
    assert main(["sample", "--oracle", f"sparse4:{sparse}", "--support", str(support), "--out", str(coeffs)]) == 0
    assert main([
        "error", "--oracle", f"sparse4:{sparse}", "--approx", str(coeffs),
        "--probes", "400", "--seed", "2", "--out", str(err_csv),
    ]) == 0
    assert main([
        "compress", "--oracle", f"gaussian:{cov_path}", "--order", "1",
        "--wht-samples", "32", "--probes", "500", "--seed", "4", "--out", str(comp_csv),
    ]) == 0
    names = [sig, spec, back, conv, fr, sparse, support, coeffs, err_csv, comp_csv, ent, mod]
    return {p.name: p.read_bytes() for p in names}


def test_criterion_13_cli_determinism(tmp_path):
    from setsp import io as setfn_io

    rng = np.random.default_rng(1013)
    W = rng.standard_normal((6, 6))
    cov_path = tmp_path / "cov.csv"
    setfn_io.write_covariance(cov_path, W @ W.T / 6 + np.eye(6))
    first = _run_cli_batch(tmp_path, "run1", cov_path)
    second = _run_cli_batch(tmp_path, "run2", cov_path)
    ok = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    _report(13, "cli-determinism", ok, f"{len(first)} output files byte-identical")
    assert ok
