import math

import numpy as np
import pytest

from setsp import io as setfn_io
from setsp.cli import main, parse_oracle_spec
from setsp.core import GroundSet, SetFunction, Spectrum
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


def test_generate_gaussian_identity(tmp_path):
    cov = tmp_path / "cov.csv"
    setfn_io.write_covariance(cov, np.eye(3))
    out = str(tmp_path / "ent.setfn")
    assert main(["generate", "gaussian", "--cov", str(cov), "--out", out]) == 0
    fn = setfn_io.read_setfn(out)
    unit = 0.5 * (1.0 + math.log(2.0 * math.pi))
    expected = unit * np.bitwise_count(np.arange(8))
    assert np.abs(fn.values - expected).max() < 1e-12


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


def test_oracle_spec_errors():
    with pytest.raises(ValueError, match="unknown oracle kind"):
        parse_oracle_spec("mystery:thing")
    with pytest.raises(ValueError, match="parameters"):
        parse_oracle_spec("gaussian")
    with pytest.raises(ValueError, match="seed"):
        parse_oracle_spec("synthetic-sparse:n=4,k=2")
    for spec, message in (("n=6,k=5,seed=1,kk=9", "has no key 'kk'"),
                          ("n=6,k=5,sed=1,seed=2", "has no key 'sed'"),
                          ("n=6,k=5,seed=1,n=7", "repeats key 'n'"),
                          ("n=6, k=5,seed=1,seed=1", "repeats key 'seed'")):
        with pytest.raises(ValueError, match=message):
            parse_oracle_spec(f"synthetic-sparse:{spec}")


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
    assert oracle.query(5) == 1.5 and oracle.queries == 4


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
