"""The four benchmark workloads.

Each workload generates its inputs from one seed in `prepare` (untimed), and
`ops` yields the library calls of its fixed job one at a time as
(name, thunk) pairs; the harness times each thunk and nothing else, so input
copies, digests and checks stay outside the measured time.  `check` turns one
op's output into a record (digests, errors, counts) and a list of problems.

Why these four:
  dense-n21        memory-bound transforms and filters on a 16 MiB signal,
                   no oracle at all;
  oracle-compress  the expensive Gaussian-entropy oracle under band
                   compression and WHT regression, no dense transform;
  sparse-sampling  cheap sparse oracles, in-cache n=20 transforms and the
                   sampling experiment's own design-matrix work;
  cli-files        the only workload that writes and parses setfn files and
                   runs the command-line front end.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

# Library calls go through module attributes, so that the tracer, which
# rebinds those attributes, sees the benchmark's own calls too.
from setsp import cli, compression, experiments, filters, sampling, transforms
from setsp import io as setfn_io
from setsp.core import GroundSet, SetFunction

# Round trips, the two convolution paths and sparse reconstruction are exact
# up to float64 rounding; these are the tolerances relative to the output scale.
ROUND_TRIP_TOL = 1e-9
PATHS_TOL = 1e-9
RECONSTRUCT_TOL = 1e-8


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def max_rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


@dataclass
class State:
    """Inputs of one workload run plus values shared between its ops."""

    seed: int
    inputs: dict
    carry: dict = field(default_factory=dict)
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def _additions_problem(n: int, model: int, got: int) -> list[str]:
    want = n * (1 << n) if model == 5 else n * (1 << (n - 1))
    return [] if got == want else [f"additions {got} != {want}"]


class DenseN21:
    """All ten (model, direction) transforms of one n=21 signal, then the
    moving-average filter under model 3 on the direct and spectral paths.
    Each model's forward transform runs on a fresh copy of the signal and its
    inverse on that forward output, so the round trip checks itself."""

    name = "dense-n21"
    default_seed = 1012

    def prepare(self, seed: int, smoke: bool, workroot: str) -> State:
        n = 10 if smoke else 21
        x = np.random.default_rng(seed).standard_normal(1 << n)
        buf = np.zeros_like(x)
        ground = GroundSet(n)
        signal = SetFunction.wrap(ground, x)
        h = filters.Filter.moving_average(ground)
        warm = np.ones(1 << 8)
        for model in range(1, 6):
            transforms.dsft_inplace(warm, model, "forward")
        filters.convolve(3, filters.Filter.moving_average(GroundSet(8)),
                         SetFunction.wrap(GroundSet(8), warm))
        return State(seed, {"n": n, "x": x, "buf": buf, "signal": signal, "h": h})

    def ops(self, st: State):
        x, buf = st.inputs["x"], st.inputs["buf"]
        for model in range(1, 6):
            np.copyto(buf, x)
            yield f"m{model}.forward", lambda m=model: transforms.dsft_inplace(buf, m, "forward")
            yield f"m{model}.inverse", lambda m=model: transforms.dsft_inplace(buf, m, "inverse")
        signal, h = st.inputs["signal"], st.inputs["h"]
        yield "convolve.direct", lambda: filters.convolve(3, h, signal, path="direct")
        yield "convolve.spectral", lambda: filters.convolve(3, h, signal, path="spectral")

    def check(self, name: str, out, st: State, full: bool):
        n, x, buf = st.inputs["n"], st.inputs["x"], st.inputs["buf"]
        if name.startswith("m"):
            model = int(name[1])
            problems = _additions_problem(n, model, out)
            if name.endswith("forward"):
                st.carry["scale"] = max(1.0, float(np.abs(buf).max()))
            else:
                gap = float(np.abs(buf - x).max()) / st.carry["scale"]
                if gap > ROUND_TRIP_TOL:
                    problems.append(f"round trip gap {gap:.3g}")
            return {"sha256": sha256(buf), "additions": out}, problems
        values = out.values
        problems = []
        if name == "convolve.direct":
            st.carry["direct"] = values
        else:
            gap = max_rel_gap(values, st.carry.pop("direct"))
            if gap > PATHS_TOL:
                problems.append(f"direct and spectral paths differ by {gap:.3g}")
        return {"sha256": sha256(values)}, problems


class OracleCompress:
    """Three criterion-10 compression trials, each on its own n=20 covariance."""

    name = "oracle-compress"
    default_seed = 10000

    def prepare(self, seed: int, smoke: bool, workroot: str) -> State:
        n, trials = (8, 2) if smoke else (20, 3)
        covs = [experiments.random_rbf_covariance(n, seed + t) for t in range(trials)]
        experiments.compression_experiment(experiments.random_rbf_covariance(6, seed),
                                           wht_samples=20, probes=200, seed=seed)
        return State(seed, {
            "n": n, "covs": covs,
            "wht_samples": 50 if smoke else 1000,
            "probes": 1000 if smoke else 100_000,
        })

    def ops(self, st: State):
        inp = st.inputs
        for t, cov in enumerate(inp["covs"]):
            yield f"trial{t}", lambda cov=cov, t=t: experiments.compression_experiment(
                cov, order=2, wht_samples=inp["wht_samples"], probes=inp["probes"],
                seed=st.seed + t)

    def check(self, name: str, out, st: State, full: bool):
        n = st.inputs["n"]
        band, wht = out.rows
        record = {"band_error": out.band_error, "wht_error": out.wht_error,
                  "band_queries": band.queries_used, "wht_queries": wht.queries_used}
        problems = []
        if band.queries_used != 1 + n + n * (n - 1) // 2:
            problems.append(f"band used {band.queries_used} queries")
        if wht.queries_used != st.inputs["wht_samples"]:
            problems.append(f"regression used {wht.queries_used} queries")
        for key in ("band_error", "wht_error"):
            if not 0.0 < record[key] < 1.0:
                problems.append(f"{key} {record[key]!r} outside (0, 1)")
        return record, problems


class SparseSampling:
    """One sampling experiment with the criterion-11 settings at n=17, then
    four elicitations of k-sparse n=20 bidders: `reconstruct` from k queries
    and a Monte-Carlo error estimate over 100k probes."""

    name = "sparse-sampling"
    default_seed = 2026
    # elicited bidders use seeds 9000 + t at the default seed (criterion 9)
    BIDDER_SEED_OFFSET = 9000 - 2026

    def prepare(self, seed: int, smoke: bool, workroot: str) -> State:
        if smoke:
            n, exp, k, count, probes = 10, dict(n=10, pool_size=60, n_train=5, n_test=5,
                                                 k_support=50), 49, 2, 1000
        else:
            n, exp, k, count, probes = 20, dict(n=17, pool_size=600, n_train=25, n_test=25,
                                                 k_support=500), 499, 4, 100_000
        ground = GroundSet(n)
        base = seed + self.BIDDER_SEED_OFFSET
        bidders = [sampling.synthetic_sparse_spectrum(ground, k, seed=base + t)
                   for t in range(count)]
        experiments.sampling_experiment(n=6, pool_size=20, n_train=3, n_test=3, k_support=10,
                                        seed=seed)
        return State(seed, {"exp": exp, "bidders": bidders, "probes": probes, "base": base})

    @staticmethod
    def _elicit(bidder, probes: int, seed: int):
        oracle = sampling.oracle_from_sparse_spectrum(bidder)
        got = sampling.reconstruct(oracle, bidder.support)
        err = compression.estimate_relative_error(
            sampling.oracle_from_sparse_spectrum(bidder),
            lambda masks: sampling.eval_sparse_many(got, masks), probes, seed=seed)
        return got, oracle.queries, err

    def ops(self, st: State):
        inp = st.inputs
        yield "experiment", lambda: experiments.sampling_experiment(seed=st.seed, **inp["exp"])
        for t, bidder in enumerate(inp["bidders"]):
            yield f"elicit{t}", lambda b=bidder, t=t: self._elicit(
                b, inp["probes"], inp["base"] + t)

    def check(self, name: str, out, st: State, full: bool):
        if name == "experiment":
            k = st.inputs["exp"]["k_support"]
            record = {"recon_error": out.mean_recon_error,
                      "poly2_error": out.mean_poly2_error,
                      "mass_bound": out.mean_mass_bound,
                      "queries": out.queries_per_bidder}
            problems = [] if out.queries_per_bidder == k else [
                f"{out.queries_per_bidder} queries per bidder, expected {k}"]
            if not all(math.isfinite(v) for v in record.values()):
                problems.append("non-finite experiment error")
            return record, problems
        got, queries, err = out
        bidder = st.inputs["bidders"][int(name[len("elicit"):])]
        record = {"queries": queries, "relative_error": err}
        problems = []
        if queries != len(bidder.support):
            problems.append(f"{queries} queries for {len(bidder.support)} coefficients")
        gap = max_rel_gap(got.coeffs, bidder.coeffs)
        if gap > RECONSTRUCT_TOL:
            problems.append(f"reconstruction gap {gap:.3g}")
        if not err <= RECONSTRUCT_TOL:
            problems.append(f"relative error {err!r}")
        return record, problems


class CliFiles:
    """In-process `setsp` command-line calls on n=16 files in a fresh
    directory; taps, support, spectrum and covariance are written in set-up."""

    name = "cli-files"
    default_seed = 1013

    def prepare(self, seed: int, smoke: bool, workroot: str) -> State:
        n = 8 if smoke else 16
        os.makedirs(workroot, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="cli-", dir=workroot)
        path = {name: os.path.join(workdir, name) for name in (
            "taps.setfn", "bidder.setfn", "support.setfn", "cov.csv", "sig.setfn",
            "spec.setfn", "back.setfn", "conv.setfn", "fr.setfn", "coeffs.setfn",
            "err.csv", "comp.csv", "warm.setfn")}
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(n + 1)
        setfn_io.write_entries(path["taps.setfn"], n, "sparse", None,
                               [(0, weights[0])] + [(1 << i, weights[i + 1]) for i in range(n)])
        bidder = sampling.synthetic_sparse_spectrum(GroundSet(n), 49 if smoke else 499,
                                                    seed=seed)
        sampling.save_sparse_spectrum(path["bidder.setfn"], bidder)
        sampling.save_support(path["support.setfn"], bidder.support)
        setfn_io.write_covariance(path["cov.csv"], experiments.random_rbf_covariance(n, seed))
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["generate", "modular", "--n", "4", "--seed", "0",
                      "--out", path["warm.setfn"]])
        return State(seed, {
            "n": n, "path": path, "bidder": bidder,
            "probes": "1000" if smoke else "100000",
            "wht_samples": "50" if smoke else "1000",
        }, workdir=workdir)

    def ops(self, st: State):
        p, seed = st.inputs["path"], str(st.seed)
        probes, samples = st.inputs["probes"], st.inputs["wht_samples"]
        steps = [
            ("generate", ["generate", "modular", "--n", str(st.inputs["n"]), "--seed", seed,
                          "--out", p["sig.setfn"]]),
            ("transform", ["transform", "--model", "4", "--in", p["sig.setfn"],
                           "--out", p["spec.setfn"]]),
            ("inverse", ["transform", "--model", "4", "--inverse", "--in", p["spec.setfn"],
                         "--out", p["back.setfn"]]),
            ("convolve", ["convolve", "--model", "3", "--filter", p["taps.setfn"],
                          "--in", p["sig.setfn"], "--out", p["conv.setfn"]]),
            ("freqresp", ["freqresp", "--model", "3", "--filter", p["taps.setfn"],
                          "--out", p["fr.setfn"]]),
            ("sample", ["sample", "--oracle", f"sparse4:{p['bidder.setfn']}",
                        "--support", p["support.setfn"], "--out", p["coeffs.setfn"]]),
            ("error", ["error", "--oracle", f"sparse4:{p['bidder.setfn']}",
                       "--approx", p["coeffs.setfn"], "--probes", probes, "--seed", seed,
                       "--out", p["err.csv"]]),
            ("compress", ["compress", "--oracle", f"gaussian:{p['cov.csv']}",
                          "--wht-samples", samples, "--probes", probes, "--seed", seed,
                          "--out", p["comp.csv"]]),
        ]
        for name, argv in steps:
            yield name, lambda argv=argv: self._call(argv)

    @staticmethod
    def _call(argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    OUTPUT = {"generate": "sig.setfn", "transform": "spec.setfn", "inverse": "back.setfn",
              "convolve": "conv.setfn", "freqresp": "fr.setfn", "sample": "coeffs.setfn",
              "error": "err.csv", "compress": "comp.csv"}

    def check(self, name: str, out, st: State, full: bool):
        p = st.inputs["path"]
        record = {"sha256": file_sha256(p[self.OUTPUT[name]])}
        if out != 0:
            return record, [f"exit code {out}"]
        if not full:
            return record, []
        problems = []
        if name == "inverse":
            gap = max_rel_gap(setfn_io.read_setfn(p["back.setfn"]).values,
                              setfn_io.read_setfn(p["sig.setfn"]).values)
            if gap > ROUND_TRIP_TOL:
                problems.append(f"round trip gap {gap:.3g}")
        elif name == "convolve":
            signal = setfn_io.read_setfn(p["sig.setfn"])
            taps = setfn_io.read_setfn(p["taps.setfn"])
            want = filters.convolve(3, filters.Filter(signal.ground, taps), signal,
                                    path="direct").values
            gap = max_rel_gap(setfn_io.read_setfn(p["conv.setfn"]).values, want)
            if gap > PATHS_TOL:
                problems.append(f"file differs from the direct path by {gap:.3g}")
        elif name == "sample":
            bidder = st.inputs["bidder"]
            got = sampling.load_sparse_spectrum(p["coeffs.setfn"]).coeffs
            gap = max_rel_gap(got, bidder.coeffs)
            if gap > RECONSTRUCT_TOL:
                problems.append(f"reconstruction gap {gap:.3g}")
        elif name in ("error", "compress"):
            rows = _csv_rows(p[self.OUTPUT[name]])
            if name == "error":
                want = [int(st.inputs["probes"])]
                if not float(rows[0]["relative_error"]) <= RECONSTRUCT_TOL:
                    problems.append(f"relative error {rows[0]['relative_error']}")
            else:
                n = st.inputs["n"]
                want = [1 + n + n * (n - 1) // 2, int(st.inputs["wht_samples"])]
            got = [int(row["queries_used"]) for row in rows]
            if got != want:
                problems.append(f"queries {got}, expected {want}")
        return record, problems


def _csv_rows(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


WORKLOADS = {w.name: w for w in (DenseN21(), OracleCompress(), SparseSampling(), CliFiles())}
