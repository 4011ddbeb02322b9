"""Command-line driver.

Subcommands: transform, convolve, freqresp, generate, compress, sample,
error.  Result tables are CSV; every command is deterministic for fixed
flags and seeds (stochastic commands require an explicit --seed), so output
files are byte-identical across runs.  Wall-clock diagnostics go to stderr;
the CSV wall_time column is filled only under --timing.

Oracle specs follow the grammar `kind:params`:

    file:PATH                 dense or sparse set-function file
    gaussian:COV.csv          joint entropy of the covariance (CSV)
    bandlimited:SPEC.setfn    sparse spectrum file of any model, evaluated lazily
    sparse4:SPEC.setfn        the same
    synthetic-sparse:n=20,k=60,seed=7   generator-backed sparse model-4 bidder

`error --approx` takes a sparse spectrum file of any model as well.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .core import GroundSet, SetFunction, SparseSetFunction, Spectrum
from . import io as setfn_io
from . import transforms
from .filters import Filter, convolve, frequency_response
from .coverage import (
    ENTROPY_DENSE_MAX_N,
    GaussianModel,
    entropy_setfunction,
)
from .compression import (
    RNG_ALGORITHM,
    SetFunctionOracle,
    estimate_relative_errors,
)
from . import experiments
from . import sampling as sampling_mod
from .experiments import ExperimentRow, entropy_oracle


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def parse_oracle_spec(text: str) -> SetFunctionOracle:
    kind, _, params = text.partition(":")
    if not params:
        raise ValueError(f"oracle spec needs parameters: {text!r}")
    if kind == "file":
        fn = setfn_io.read_setfn(params)
        if isinstance(fn, SparseSetFunction):
            return SetFunctionOracle.from_sparse(fn)
        return SetFunctionOracle.from_setfunction(fn)
    if kind == "gaussian":
        model = GaussianModel(setfn_io.read_covariance(params))
        return entropy_oracle(model)
    if kind in ("bandlimited", "sparse4"):
        spec = sampling_mod.load_sparse_spectrum(params)
        return sampling_mod.oracle_from_sparse_spectrum(spec)
    if kind == "synthetic-sparse":
        opts = {}
        for item in params.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("n", "k", "seed"):
                raise ValueError(f"synthetic-sparse oracle has no key {key!r}")
            if key in opts:
                raise ValueError(f"synthetic-sparse oracle repeats key {key!r}")
            try:
                opts[key] = int(value)
            except ValueError:
                raise ValueError(f"synthetic-sparse oracle needs an integer {key}=..., "
                                 f"got {item.strip()!r}") from None
        for key in ("n", "k", "seed"):
            if key not in opts:
                raise ValueError(f"synthetic-sparse oracle needs {key}=...")
        spec = sampling_mod.synthetic_sparse_spectrum(
            GroundSet(opts["n"]), opts["k"], seed=opts["seed"]
        )
        return sampling_mod.oracle_from_sparse_spectrum(spec)
    raise ValueError(f"unknown oracle kind {kind!r}")


def _write_csv(path, rows, with_timing: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ExperimentRow.CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv(with_timing) + "\n")


def cmd_transform(args) -> int:
    model = args.model
    started = time.perf_counter()
    if args.inverse:
        spectrum = setfn_io.read_spectrum(args.infile)
        arr = np.array(spectrum.coeffs)
        if spectrum.model != model:
            raise ValueError(
                f"spectrum file is model {spectrum.model}, --model says {model}"
            )
        additions = transforms.dsft_inplace(arr, model, transforms.INVERSE)
        out = SetFunction.wrap(spectrum.ground, arr)
        n = spectrum.ground.n
    else:
        fn = setfn_io.read_setfn(args.infile)
        if isinstance(fn, SparseSetFunction):
            fn = fn.to_dense()
        arr = np.array(fn.values)
        additions = transforms.dsft_inplace(arr, model, transforms.FORWARD)
        out = Spectrum.wrap(fn.ground, model, arr)
        n = fn.ground.n
    setfn_io.write_setfn(args.out, out)
    elapsed = time.perf_counter() - started
    _log(f"transform: n={n} model={model} additions={additions} time={elapsed:.3f}s")
    return 0


def cmd_convolve(args) -> int:
    fn = setfn_io.read_setfn(args.infile)
    if isinstance(fn, SparseSetFunction):
        fn = fn.to_dense()
    taps = setfn_io.read_setfn(args.filter)
    if isinstance(taps, SetFunction):
        taps = taps.to_sparse()
    h = Filter(fn.ground, taps)
    result = convolve(args.model, h, fn, path=args.path)
    setfn_io.write_setfn(args.out, result)
    _log(f"convolve: n={fn.ground.n} model={args.model} taps={len(h)} path={args.path}")
    return 0


def cmd_freqresp(args) -> int:
    taps = setfn_io.read_setfn(args.filter)
    if isinstance(taps, SetFunction):
        taps = taps.to_sparse()
    h = Filter(taps.ground, taps)
    fr = frequency_response(args.model, h)
    setfn_io.write_setfn(args.out, SetFunction.wrap(h.ground, fr))
    _log(f"freqresp: n={h.ground.n} model={args.model}")
    return 0


def cmd_generate(args) -> int:
    if args.kind == "gaussian":
        model = GaussianModel(setfn_io.read_covariance(args.cov))
        if model.n > ENTROPY_DENSE_MAX_N:
            raise ValueError(
                f"n={model.n} too large to densify; use an oracle spec "
                f"'gaussian:{args.cov}' with compress/sample/error instead"
            )
        setfn_io.write_setfn(args.out, entropy_setfunction(model))
        _log(f"generate gaussian: n={model.n}")
    elif args.kind == "coverage":
        from .coverage import coverage_dense, load_coverage

        rep = load_coverage(args.fragments)
        setfn_io.write_setfn(args.out, coverage_dense(rep))
        _log(f"generate coverage: n={rep.ground.n} fragments={len(rep.fragments)}")
    elif args.kind == "sparse4":
        spec = sampling_mod.synthetic_sparse_spectrum(
            GroundSet(args.n), args.k, seed=args.seed
        )
        sampling_mod.save_sparse_spectrum(args.out, spec)
        _log(f"generate sparse4: n={args.n} k={args.k} seed={args.seed}")
    elif args.kind == "modular":
        fn = experiments.modular_setfunction(GroundSet(args.n), args.seed)
        setfn_io.write_setfn(args.out, fn)
        _log(f"generate modular: n={args.n} seed={args.seed}")
    else:
        raise ValueError(f"unknown generate kind {args.kind!r}")
    return 0


def cmd_compress(args) -> int:
    report = experiments.score_compression(
        parse_oracle_spec(args.oracle), order=args.order, wht_samples=args.wht_samples,
        probes=args.probes, seed=args.seed,
    )
    _write_csv(args.out, report.rows, args.timing)
    _log("compress: " + ", ".join(
        f"{row.method} err={row.relative_error:.6g} ({row.queries_used} queries)"
        for row in report.rows
    ))
    return 0


def cmd_sample(args) -> int:
    oracle = parse_oracle_spec(args.oracle)
    support = sampling_mod.load_support(args.support)
    started = time.perf_counter()
    spec = sampling_mod.reconstruct(oracle, support)
    elapsed = time.perf_counter() - started
    sampling_mod.save_sparse_spectrum(args.out, spec)
    _log(
        f"sample: n={support.ground.n} k={len(support)} "
        f"queries={oracle.queries} time={elapsed:.3f}s"
    )
    return 0


def cmd_error(args) -> int:
    oracle = parse_oracle_spec(args.oracle)
    spec = sampling_mod.load_sparse_spectrum(args.approx)
    started = time.perf_counter()
    err = estimate_relative_errors(
        oracle,
        [lambda masks: sampling_mod.eval_sparse_many(spec, masks)],
        args.probes,
        seed=args.seed,
    )[0]
    elapsed = time.perf_counter() - started
    row = ExperimentRow(
        f"sparse{spec.model}-eval", oracle.ground.n, f"k={len(spec.support)}", args.probes,
        args.seed, RNG_ALGORITHM, oracle.queries, err, elapsed,
    )
    _write_csv(args.out, [row], args.timing)
    _log(f"error: relative_error={err:.6g} probes={args.probes}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` is called many
    times in one process (the tests, the benchmark), and building the tree
    of subcommands takes milliseconds.  Parsing leaves the parser as it is."""
    parser = argparse.ArgumentParser(
        prog="setsp",
        description="Discrete signal processing on set functions (powerset signals).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="fast transform of a dense signal file")
    p.add_argument("--model", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("convolve", help="convolve a filter file with a signal file")
    p.add_argument("--model", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--filter", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--path", default="auto", choices=("auto", "direct", "spectral"))
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("freqresp", help="frequency response of a filter file")
    p.add_argument("--model", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--filter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_freqresp)

    p = sub.add_parser("generate", help="generate set functions and spectra")
    gen = p.add_subparsers(dest="kind", required=True)
    g = gen.add_parser("gaussian", help="densified Gaussian entropy function")
    g.add_argument("--cov", required=True)
    g.add_argument("--out", required=True)
    g = gen.add_parser("coverage", help="densify a coverage fragment file")
    g.add_argument("--fragments", required=True)
    g.add_argument("--out", required=True)
    g = gen.add_parser("sparse4", help="random sparse model-4 spectrum")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g = gen.add_parser("modular", help="random modular (1-band-limited) function")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("compress", help="band compression vs WHT regression, CSV out")
    p.add_argument("--oracle", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--wht-samples", type=int, default=1000)
    p.add_argument("--probes", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("sample", help="reconstruct sparse coefficients from queries")
    p.add_argument("--oracle", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("error", help="Monte-Carlo relative error of an approximation")
    p.add_argument("--oracle", required=True)
    p.add_argument("--approx", required=True)
    p.add_argument("--probes", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_error)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
