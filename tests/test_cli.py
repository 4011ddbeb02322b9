import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import setsp
from setsp import core, transforms
from setsp import io as setfn_io
from setsp.cli import main, parse_oracle_spec
from setsp.core import GroundSet, SetFunction, SparseSetFunction, SparseSpectrum, Spectrum
from setsp.coverage import GaussianModel
from setsp.experiments import random_rbf_covariance
from setsp.transforms import dsft, idsft

from reference import bandlimited_eval_reference


def _write_signal(path, values, n):
    setfn_io.write_setfn(path, SetFunction(GroundSet(n), values))
    return str(path)


def test_transform_model3_twice_is_identity(tmp_path):
    rng = np.random.default_rng(40)
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(16), 4)
    mid = str(tmp_path / "mid.setfn")
    out = str(tmp_path / "out.setfn")
    assert main(["transform", "--model", "3", "--in", src, "--out", mid]) == 0
    # the model-3 transform is self-inverse, so forward twice returns the input
    spec = setfn_io.read_spectrum(mid)
    setfn_io.write_setfn(tmp_path / "mid2.setfn", SetFunction(spec.ground, spec.coeffs))
    assert main(["transform", "--model", "3", "--in", str(tmp_path / "mid2.setfn"), "--out", out]) == 0
    original = setfn_io.read_setfn(src)
    final = setfn_io.read_spectrum(out)
    assert np.abs(final.coeffs - original.values).max() < 1e-12


def test_transform_forward_inverse_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(32), 5)
    spec = str(tmp_path / "spec.setfn")
    back = str(tmp_path / "back.setfn")
    assert main(["transform", "--model", "5", "--in", src, "--out", spec]) == 0
    assert main(["transform", "--model", "5", "--inverse", "--in", spec, "--out", back]) == 0
    original = setfn_io.read_setfn(src)
    final = setfn_io.read_setfn(back)
    assert np.abs(final.values - original.values).max() < 1e-12


def test_transform_model_mismatch_fails(tmp_path):
    rng = np.random.default_rng(42)
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(8), 3)
    spec = str(tmp_path / "spec.setfn")
    assert main(["transform", "--model", "2", "--in", src, "--out", spec]) == 0
    rc = main(["transform", "--model", "4", "--inverse", "--in", spec, "--out", str(tmp_path / "x.setfn")])
    assert rc == 2


def test_convolve_and_freqresp(tmp_path):
    rng = np.random.default_rng(43)
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(8), 3)
    taps = tmp_path / "taps.setfn"
    setfn_io.write_entries(taps, 3, "sparse", None, [(0, 1.0)])
    out = str(tmp_path / "conv.setfn")
    assert main(["convolve", "--model", "4", "--filter", str(taps), "--in", src, "--out", out]) == 0
    result = setfn_io.read_setfn(out)
    assert np.abs(result.values - setfn_io.read_setfn(src).values).max() < 1e-12

    fr_out = str(tmp_path / "fr.setfn")
    assert main(["freqresp", "--model", "1", "--filter", str(taps), "--out", fr_out]) == 0
    fr = setfn_io.read_setfn(fr_out)
    assert np.array_equal(fr.values, np.ones(8))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_transform_runs_in_place_on_the_array_the_reader_scattered(tmp_path, monkeypatch,
                                                                   inverse, kind):
    # the reader's fresh array is transformed as it is, with no copy first
    g, masks = GroundSet(3), [0, 2, 4, 7]
    values = np.zeros(g.size)
    values[masks] = [1.0, -2.0, 0.5, 3.0]
    if inverse:
        fn, sparse = Spectrum(g, 4, values), SparseSpectrum(g, 4, masks, values[masks])
    else:
        fn, sparse = SetFunction(g, values), SparseSetFunction(g, masks, values[masks])
    src, out = tmp_path / "in.setfn", tmp_path / "out.setfn"
    setfn_io.write_setfn(src, fn if kind == "dense" else sparse)
    scattered, transformed = [], []
    real_scatter, real_dsft_inplace = core._scatter, transforms.dsft_inplace

    def scatter(ground, masks, vals):
        scattered.append(real_scatter(ground, masks, vals))
        return scattered[-1]

    def dsft_inplace(arr, model, direction):
        transformed.append(arr)
        return real_dsft_inplace(arr, model, direction)

    monkeypatch.setattr(setfn_io, "_scatter", scatter)
    monkeypatch.setattr(core, "_scatter", scatter)
    monkeypatch.setattr(transforms, "dsft_inplace", dsft_inplace)
    argv = ["transform", "--model", "4", *(["--inverse"] if inverse else []), "--in", str(src)]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(scattered) == 1 and len(transformed) == 1
    assert transformed[0] is scattered[0]
    got = setfn_io.read_setfn(out).values if inverse else setfn_io.read_spectrum(out).coeffs
    want = (idsft if inverse else dsft)(4, fn)
    assert got.tobytes() == (want.values if inverse else want.coeffs).tobytes()


@pytest.mark.parametrize("command", ["convolve", "freqresp"])
def test_a_dense_taps_file_writes_the_bytes_of_its_sparse_taps(tmp_path, command):
    # a dense taps file acts as its nonzero entries; its -0.0 and +0.0 taps drop
    g, rng = GroundSet(4), np.random.default_rng(44)
    values = np.zeros(g.size)
    values[[0, 3, 6, 9]] = [0.5, -1.0, -0.0, 2.0]
    dense, sparse = tmp_path / "dense.setfn", tmp_path / "sparse.setfn"
    setfn_io.write_setfn(dense, SetFunction(g, values))
    setfn_io.write_setfn(sparse, SparseSetFunction(g, [0, 3, 9], [0.5, -1.0, 2.0]))
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(g.size), 4)
    runs = [["--path", path, "--in", src] for path in ("auto", "direct", "spectral")]
    for model in range(1, 6):
        for run in runs if command == "convolve" else [[]]:
            written = []
            for taps in (dense, sparse):
                out = tmp_path / f"{taps.stem}.out"
                argv = [command, "--model", str(model), "--filter", str(taps), *run]
                assert main([*argv, "--out", str(out)]) == 0
                written.append(out.read_bytes())
            assert written[0] == written[1], (model, run)


def test_generate_gaussian_identity(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    setfn_io.write_covariance(cov, np.eye(3))
    out = str(tmp_path / "ent.setfn")
    assert main(["generate", "gaussian", "--cov", str(cov), "--out", out]) == 0
    fn = setfn_io.read_setfn(out)
    unit = 0.5 * (1.0 + math.log(2.0 * math.pi))
    expected = unit * np.bitwise_count(np.arange(8))
    assert np.abs(fn.values - expected).max() < 1e-12

    # past n=22 the library's one check refuses, before any entropy is taken
    setfn_io.write_covariance(cov, np.eye(23))
    capsys.readouterr()
    assert main(["generate", "gaussian", "--cov", str(cov), "--out", out]) == 2
    assert capsys.readouterr().err == ("error: entropy set functions densify only for n <= 22; "
                                       "use an oracle for larger ground sets\n")


def test_generate_modular_is_one_bandlimited(tmp_path):
    out = str(tmp_path / "mod.setfn")
    assert main(["generate", "modular", "--n", "5", "--seed", "3", "--out", out]) == 0
    fn = setfn_io.read_setfn(out)
    spec = dsft(3, fn)
    high = np.bitwise_count(np.arange(32)) >= 2
    assert np.abs(spec.coeffs[high]).max() < 1e-10


def test_generate_sparse4_zero_k(tmp_path):
    out = str(tmp_path / "zero.setfn")
    assert main(["generate", "sparse4", "--n", "4", "--k", "0", "--seed", "1", "--out", out]) == 0
    oracle = parse_oracle_spec(f"sparse4:{out}")
    assert oracle.query_many(np.arange(16)).tolist() == [0.0] * 16


def test_generate_coverage(tmp_path):
    frag = tmp_path / "frag.setfn"
    # sparse model-4 file: mask 0 holds s_N, others hold negated weights
    setfn_io.write_entries(frag, 2, "sparse", 4, [(0, 6.0), (1, -1.0), (2, -3.0), (3, -2.0)])
    out = str(tmp_path / "cov.setfn")
    assert main(["generate", "coverage", "--fragments", str(frag), "--out", out]) == 0
    fn = setfn_io.read_setfn(out)
    assert fn.values.tolist() == [0.0, 3.0, 5.0, 6.0]


def test_compress_command_orders_methods(tmp_path):
    cov = tmp_path / "cov.csv"
    rng = np.random.default_rng(44)
    W = rng.standard_normal((8, 8))
    setfn_io.write_covariance(cov, W @ W.T / 8 + np.eye(8))
    out = str(tmp_path / "table.csv")
    rc = main([
        "compress", "--oracle", f"gaussian:{cov}", "--order", "2",
        "--wht-samples", "64", "--probes", "2000", "--seed", "5", "--out", out,
    ])
    assert rc == 0
    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 3
    assert lines[1].startswith("dsft4-band,")
    assert lines[2].startswith("wht-regression,")


def test_compress_csv_golden_bytes(tmp_path, one_blas_thread):
    # recorded from the command when it re-implemented the experiment harness
    cov = tmp_path / "cov.csv"
    setfn_io.write_covariance(cov, random_rbf_covariance(10, 3))
    out = tmp_path / "comp.csv"
    one_blas_thread(
        "-m", "setsp", "compress", "--oracle", f"gaussian:{cov}", "--wht-samples", "100",
        "--probes", "5000", "--seed", "4", "--out", str(out),
    )
    assert out.read_bytes() == (
        b"method,n,params,probes,seed,rng,queries_used,relative_error,wall_time\n"
        b"dsft4-band,10,order=2,5000,4,pcg64,56,0.04359599064923669,\n"
        b"wht-regression,10,order=2;p=100,5000,4,pcg64,100,0.01959014125692494,\n"
    )


def test_compress_timing_fills_wall_time(tmp_path):
    cov = tmp_path / "cov.csv"
    setfn_io.write_covariance(cov, random_rbf_covariance(6, 1))
    out = tmp_path / "comp.csv"
    assert main([
        "compress", "--oracle", f"gaussian:{cov}", "--wht-samples", "20",
        "--probes", "500", "--seed", "2", "--timing", "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        assert float(line.rsplit(",", 1)[1]) > 0.0


def test_sample_and_error_commands(tmp_path):
    spec_path = str(tmp_path / "truth.setfn")
    assert main(["generate", "sparse4", "--n", "10", "--k", "20", "--seed", "6", "--out", spec_path]) == 0
    from setsp.sampling import load_sparse_spectrum, save_support

    truth = load_sparse_spectrum(spec_path)
    support_path = str(tmp_path / "support.setfn")
    save_support(support_path, truth.support)

    coeff_path = str(tmp_path / "coeffs.setfn")
    rc = main(["sample", "--oracle", f"sparse4:{spec_path}", "--support", support_path, "--out", coeff_path])
    assert rc == 0
    got = load_sparse_spectrum(coeff_path)
    assert np.abs(got.coeffs - truth.coeffs).max() < 1e-10

    err_path = str(tmp_path / "err.csv")
    rc = main([
        "error", "--oracle", f"sparse4:{spec_path}", "--approx", coeff_path,
        "--probes", "500", "--seed", "2", "--out", err_path,
    ])
    assert rc == 0
    row = (tmp_path / "err.csv").read_text().splitlines()[1].split(",")
    assert float(row[7]) < 1e-10  # exact theorem case: zero relative error


def test_error_refuses_an_approximation_on_another_ground_set(tmp_path, capsys):
    specs = {n: str(tmp_path / f"spec{n}.setfn") for n in (6, 8)}
    for n, path in specs.items():
        assert main(["generate", "sparse4", "--n", str(n), "--k", "5", "--seed", "3",
                     "--out", path]) == 0
    capsys.readouterr()
    out = tmp_path / "err.csv"
    for oracle, approx in ((6, 8), (8, 6)):
        assert main(["error", "--oracle", f"bandlimited:{specs[oracle]}", "--approx",
                     specs[approx], "--probes", "100", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: mismatched ground sets: n={oracle} vs n={approx}\n")
        assert not out.exists()


def _overflowing_oracle(tmp_path):
    """A bandlimited oracle file on n=3 whose model-3 sum at N, c_0 - c_N,
    overflows to inf; every other set reads 1.7e308."""
    path = tmp_path / "overflow.setfn"
    setfn_io.write_setfn(path, SparseSpectrum(GroundSet(3), 3, [0, 7], [1.7e308, -1.7e308]))
    return f"bandlimited:{path}"


@pytest.mark.parametrize("command", ["compress", "sample", "error"])
def test_commands_refuse_a_non_finite_oracle_value_naming_its_set(tmp_path, capsys, command):
    approx, out = tmp_path / "approx.setfn", tmp_path / "out"
    setfn_io.write_setfn(approx, SparseSpectrum(GroundSet(3), 4, [0], [1.0]))
    argv = {
        "compress": ["compress", "--wht-samples", "8", "--seed", "1"],
        "sample": ["sample", "--support", approx],
        "error": ["error", "--approx", approx, "--seed", "1"],
    }[command]
    assert main([*map(str, argv), "--oracle", _overflowing_oracle(tmp_path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: oracle value inf at mask 7 is not finite\n"
    assert not out.exists()


def _computed_overflows(tmp_path):
    """Files whose queried values are finite while a value computed from
    them overflows: `over`, an n=3 model-4 spectrum with 1.7e308 at 0 and 7
    (every set but {} reads 1.7e308, and its band sum at {x1, x2} overflows),
    `ok`, a spectrum that reads 1 everywhere, and on n=2 `two`, values
    -1.7e308 at {x2} and 1.7e308 at N, with `support` {}, {x1}."""
    paths = {name: tmp_path / f"{name}.setfn" for name in ("over", "ok", "two", "support")}
    setfn_io.write_setfn(paths["over"], SparseSpectrum(GroundSet(3), 4, [0, 7], [1.7e308] * 2))
    setfn_io.write_setfn(paths["ok"], SparseSpectrum(GroundSet(3), 4, [0], [1.0]))
    setfn_io.write_setfn(paths["two"], SparseSetFunction(GroundSet(2), [2, 3], [-1.7e308, 1.7e308]))
    setfn_io.write_setfn(paths["support"], SparseSpectrum(GroundSet(2), 4, [0, 1], [1.0, 1.0]))
    return paths


@pytest.mark.parametrize("command, message", [
    ("compress", "coefficient inf at frequency 3 is not finite"),
    ("sample", "coefficient -inf at frequency 1 is not finite"),
    ("error", "evaluator 0 value inf at mask 0 is not finite"),
])
def test_commands_refuse_a_computed_value_that_is_not_finite_naming_it(tmp_path, capsys,
                                                                       command, message):
    # under the suite's warnings-as-errors filter a RuntimeWarning would fail this
    files, out = _computed_overflows(tmp_path), tmp_path / "out"
    argv = {
        "compress": ["compress", "--oracle", f"bandlimited:{files['over']}",
                     "--wht-samples", "8", "--seed", "1"],
        "sample": ["sample", "--oracle", f"file:{files['two']}", "--support", files["support"]],
        "error": ["error", "--oracle", f"bandlimited:{files['ok']}", "--approx", files["over"],
                  "--seed", "1"],
    }[command]
    assert main([*map(str, argv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m setsp ARGS...` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(setsp.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "setsp", *args], env=env,
                          capture_output=True, text=True)


def test_the_module_runs_a_command_and_writes_its_file(tmp_path):
    src = _write_signal(tmp_path / "s.setfn", np.arange(8.0), 3)
    out, want = tmp_path / "spec.setfn", tmp_path / "want.setfn"
    done = _run_module("transform", "--model", "4", "--in", src, "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("transform: n=3 model=4 additions=12 ")
    assert main(["transform", "--model", "4", "--in", src, "--out", str(want)]) == 0
    assert out.read_bytes() == want.read_bytes()


def test_the_module_exits_2_with_one_line_on_a_refusal(tmp_path):
    approx, out = tmp_path / "approx.setfn", tmp_path / "err.csv"
    setfn_io.write_setfn(approx, SparseSpectrum(GroundSet(3), 4, [0], [1.0]))
    done = _run_module("error", "--oracle", _overflowing_oracle(tmp_path), "--approx",
                       str(approx), "--seed", "1", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == "error: oracle value inf at mask 7 is not finite\n"
    assert done.stdout == "" and not out.exists()


def test_the_module_exits_2_with_one_line_on_an_evaluator_overflow(tmp_path):
    # a fresh interpreter keeps numpy's default warnings, so an overflow
    # warning before the refusal would show in stderr
    files, out = _computed_overflows(tmp_path), tmp_path / "err.csv"
    done = _run_module("error", "--oracle", f"bandlimited:{files['ok']}", "--approx",
                       str(files["over"]), "--seed", "1", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == "error: evaluator 0 value inf at mask 0 is not finite\n"
    assert done.stdout == "" and not out.exists()


@pytest.mark.parametrize("command", ["transform", "inverse", "convolve", "freqresp", "coverage"])
def test_commands_that_densify_refuse_a_sparse_file_past_the_dense_cap(tmp_path, capsys, command):
    # valid sparse files at n=40: each command exits 2 before it allocates
    ground, masks, values = GroundSet(40), [1, 6, (1 << 40) - 1], [1.0, 0.5, -2.0]
    signal, spec, out = tmp_path / "s.setfn", tmp_path / "spec.setfn", tmp_path / "out.setfn"
    setfn_io.write_setfn(signal, SparseSetFunction(ground, masks, values))
    setfn_io.write_setfn(spec, SparseSpectrum(ground, 4, masks, values))
    argv = {
        "transform": ["transform", "--model", "4", "--in", signal],
        "inverse": ["transform", "--model", "4", "--inverse", "--in", spec],
        "convolve": ["convolve", "--model", "4", "--filter", signal, "--in", signal],
        "freqresp": ["freqresp", "--model", "4", "--filter", signal],
        "coverage": ["generate", "coverage", "--fragments", spec],
    }[command]
    assert main([*map(str, argv), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: n=40 is too large for a dense array of 2**n values (n <= 30)\n")
    assert not out.exists()


def test_non_finite_covariance_is_refused(tmp_path, capsys):
    cov = tmp_path / "cov.csv"
    cov.write_text("1.0,0.5\n0.5,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match="covariance entries must be finite"):
        GaussianModel(setfn_io.read_covariance(cov))
    out = tmp_path / "comp.csv"
    rc = main(["compress", "--oracle", f"gaussian:{cov}", "--wht-samples", "2",
               "--probes", "10", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert "covariance entries must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_spec_errors(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown oracle kind"):
        parse_oracle_spec("mystery:thing")
    with pytest.raises(ValueError, match="parameters"):
        parse_oracle_spec("gaussian")
    with pytest.raises(ValueError, match="seed"):
        parse_oracle_spec("synthetic-sparse:n=4,k=2")
    for spec, message in (("n=6,k=5,seed=1,kk=9", "has no key 'kk'"),
                          ("n=6,k=5,sed=1,seed=2", "has no key 'sed'"),
                          ("n=6,k=5,seed=1,n=7", "repeats key 'n'"),
                          ("n=6, k=5,seed=1,seed=1", "repeats key 'seed'"),
                          ("n=8,k,seed=1", "needs an integer k=..., got 'k'"),
                          ("n,k=3,seed=1", "needs an integer n=..., got 'n'"),
                          ("n=8,k=3,seed=", "needs an integer seed=..., got 'seed='"),
                          ("n=eight,k=3,seed=1", "needs an integer n=..., got 'n=eight'"),
                          ("n=8,k=3, seed=1.5", "needs an integer seed=..., got 'seed=1.5'")):
        with pytest.raises(ValueError, match=f"^synthetic-sparse oracle {re.escape(message)}$"):
            parse_oracle_spec(f"synthetic-sparse:{spec}")
    rc = main(["compress", "--oracle", "synthetic-sparse:n=8,k,seed=1", "--seed", "1",
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2 and "needs an integer k=..., got 'k'" in capsys.readouterr().err


@pytest.mark.parametrize("model", [1, 3, 5])
def test_sparse_spectrum_files_of_any_model(tmp_path, model):
    # `bandlimited:` and `error --approx` evaluate the file's own model
    g = GroundSet(8)
    rng = np.random.default_rng(model)
    freqs = rng.choice(g.size, size=40, replace=False)
    coeffs = rng.standard_normal(40)
    spec_path = tmp_path / "spec.setfn"
    setfn_io.write_entries(spec_path, 8, "sparse", model, zip(freqs.tolist(), coeffs.tolist()))
    got = parse_oracle_spec(f"bandlimited:{spec_path}").query_many(g.masks())
    order = np.lexsort((freqs, np.bitwise_count(freqs)))
    want = bandlimited_eval_reference(model, 8, freqs[order].tolist(), coeffs[order].tolist(),
                                      g.masks().tolist())
    assert got.tobytes() == np.array(want).tobytes()
    dense = np.zeros(g.size)
    dense[freqs] = coeffs
    assert np.abs(got - idsft(model, Spectrum(g, model, dense)).values).max() <= 1e-12

    truth = _write_signal(tmp_path / "truth.setfn", want, 8)
    err_path = tmp_path / "err.csv"
    assert main(["error", "--oracle", f"file:{truth}", "--approx", str(spec_path),
                 "--probes", "500", "--seed", "2", "--out", str(err_path)]) == 0
    row = err_path.read_text().splitlines()[1].split(",")
    assert row[0] == f"sparse{model}-eval" and row[7] == "0.0"


def test_synthetic_oracle_spec():
    oracle = parse_oracle_spec("synthetic-sparse:n=6,k=5,seed=11")
    assert oracle.ground.n == 6
    values = oracle.query_many(np.arange(64))
    assert np.isfinite(values).all()


def test_file_oracle_specs_read_dense_and_sparse_files(tmp_path):
    values = np.arange(8.0) - 2.5
    oracle = parse_oracle_spec(f"file:{_write_signal(tmp_path / 'd.setfn', values, 3)}")
    assert oracle.query_many([[7, 0], [2, 2]]).tolist() == [[4.5, -2.5], [-0.5, -0.5]]
    sparse = tmp_path / "s.setfn"
    setfn_io.write_entries(sparse, 40, "sparse", None, [(5, 1.5), (1 << 39, -2.0)])
    oracle = parse_oracle_spec(f"file:{sparse}")
    assert oracle.query_many([1 << 39, 4, 5]).tolist() == [-2.0, 0.0, 1.5]
    assert oracle.query_many([5]).tolist() == [1.5] and oracle.queries == 4


def test_missing_file_exits_nonzero(tmp_path):
    rc = main(["transform", "--model", "1", "--in", str(tmp_path / "nope.setfn"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_transform_reports_addition_count(tmp_path, capsys):
    rng = np.random.default_rng(50)
    src = _write_signal(tmp_path / "s.setfn", rng.standard_normal(1024), 10)
    assert main(["transform", "--model", "1", "--in", src, "--out", str(tmp_path / "o.setfn")]) == 0
    err = capsys.readouterr().err
    assert "additions=5120" in err  # n * 2**(n-1) for n=10
    assert "n=10" in err and "model=1" in err


def test_help_lists_subcommands():
    from setsp.cli import build_parser

    text = build_parser().format_help()
    for name in ("transform", "convolve", "freqresp", "generate", "compress", "sample", "error"):
        assert name in text


def test_calls_in_one_process_give_the_files_of_separate_calls(tmp_path, monkeypatch, capsys):
    # `main` builds its parser once per process; calls that leave out --path,
    # --order or --inverse get their defaults, whatever an earlier call set
    from setsp.cli import build_parser

    calls = [
        ["generate", "modular", "--n", "4", "--seed", "3", "--out", "sig.setfn"],
        ["generate", "sparse4", "--n", "4", "--k", "3", "--seed", "1", "--out", "bidder.setfn"],
        ["convolve", "--model", "3", "--filter", "taps.setfn", "--in", "sig.setfn",
         "--out", "direct.setfn", "--path", "direct"],
        ["convolve", "--model", "3", "--filter", "taps.setfn", "--in", "sig.setfn",
         "--out", "auto.setfn"],
        ["transform", "--model", "4", "--inverse", "--in", "sig.setfn", "--out", "x.setfn"],
        ["transform", "--model", "4", "--in", "sig.setfn", "--out", "spec.setfn"],
        ["transform", "--model", "4", "--in", "spec.setfn", "--out", "y.setfn"],
        ["transform", "--model", "4", "--inverse", "--in", "spec.setfn", "--out", "back.setfn"],
        ["freqresp", "--model", "3", "--filter", "taps.setfn", "--out", "fr.setfn"],
        ["compress", "--oracle", "file:sig.setfn", "--order", "1", "--wht-samples", "8",
         "--probes", "20", "--seed", "2", "--out", "order1.csv"],
        ["compress", "--oracle", "file:sig.setfn", "--wht-samples", "8", "--probes", "20",
         "--seed", "2", "--out", "order2.csv"],
        ["error", "--oracle", "sparse4:bidder.setfn", "--approx", "bidder.setfn",
         "--probes", "20", "--seed", "4", "--out", "err.csv"],
        ["sample", "--oracle", "file:sig.setfn", "--support", "nope.setfn", "--out", "s.setfn"],
    ]
    runs = {}
    capsys.readouterr()
    for shared in (True, False):
        work = tmp_path / str(shared)
        work.mkdir()
        setfn_io.write_entries(work / "taps.setfn", 4, "sparse", None,
                               [(0, 0.5), (1, -1.0), (4, 2.0)])
        monkeypatch.chdir(work)
        codes = []
        for argv in calls:
            if not shared:
                build_parser.cache_clear()
            codes.append(main(argv))
        log = re.sub(r"time=\S+", "", capsys.readouterr().err)
        runs[shared] = codes, {p.name: p.read_bytes() for p in sorted(work.iterdir())}, log
    assert runs[True] == runs[False]
    codes, files, log = runs[True]
    assert codes == [0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 2]
    assert "path=direct" in log and "path=auto" in log
    assert files["order1.csv"] != files["order2.csv"]
