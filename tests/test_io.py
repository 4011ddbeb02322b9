import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setsp import io as setfn_io
from setsp import sampling
from setsp.core import GroundSet, SetFunction, SparseSetFunction, Spectrum
from setsp.io import SetFnFormatError

# Every class of finite float64 a file must carry: signed zeros, subnormals,
# the extremes, the usual 1e-8..1e8 range and anything else that is finite.
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.floats(1e-8, 1e8),
    st.floats(-1e8, -1e-8),
    st.floats(allow_nan=False, allow_infinity=False),
)


def test_dense_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    fn = SetFunction(GroundSet(5), rng.standard_normal(32))
    path = tmp_path / "dense.setfn"
    setfn_io.write_setfn(path, fn)
    back = setfn_io.read_setfn(path)
    assert isinstance(back, SetFunction)
    assert np.array_equal(back.values, fn.values)  # exact float64 bits


def test_sparse_roundtrip_and_zero_fill(tmp_path):
    sp = SparseSetFunction(GroundSet(2), {3: 1.5})
    path = tmp_path / "sparse.setfn"
    setfn_io.write_setfn(path, sp)
    back = setfn_io.read_setfn(path)
    assert isinstance(back, SparseSetFunction)
    assert back.entries == {3: 1.5}
    assert back.to_dense().values.tolist() == [0.0, 0.0, 0.0, 1.5]


def test_spectrum_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    spec = Spectrum(GroundSet(3), 4, rng.standard_normal(8))
    path = tmp_path / "spec.setfn"
    setfn_io.write_setfn(path, spec)
    back = setfn_io.read_spectrum(path)
    assert back.model == 4
    assert np.array_equal(back.coeffs, spec.coeffs)
    with pytest.raises(SetFnFormatError):
        setfn_io.read_setfn(path)  # spectra are not signals


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_dense_bound_check(tmp_path):
    path = _write(tmp_path / "big.setfn", "setfn v1\nn 31\nkind dense\nmodel none\n")
    with pytest.raises(SetFnFormatError, match="exceeds bound"):
        setfn_io.parse_setfn(path)
    # sparse files accept larger ground sets
    ok = _write(tmp_path / "big_sparse.setfn", "setfn v1\nn 31\nkind sparse\nmodel none\n0 1.0\n")
    fn = setfn_io.read_setfn(ok)
    assert fn.ground.n == 31


@pytest.mark.parametrize(
    "body,line,fragment",
    [
        ("setfn v2\nn 2\nkind dense\nmodel none\n", 1, "setfn v1"),
        ("setfn v1\nn x\nkind dense\nmodel none\n", 2, "integer"),
        ("setfn v1\nn 2\nkind half\nmodel none\n", 3, "dense or sparse"),
        ("setfn v1\nn 2\nkind sparse\nmodel 9\n", 4, "model"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n7 1.0\n", 5, "out of range"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1 1.0\n1 2.0\n", 6, "duplicate"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1 abc\n", 5, "not a number"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n0 nan\n", 5, "not finite"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n0 1.0\n3 inf\n", 6, "not finite"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n3 -inf\n", 5, "not finite"),
        ("setfn v1\nn 2\nkind dense\nmodel none\n0 1.0\n", 6, "all 4 masks"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, body, line, fragment):
    path = _write(tmp_path / "bad.setfn", body)
    with pytest.raises(SetFnFormatError) as err:
        setfn_io.parse_setfn(path)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_dense_any_order(tmp_path):
    path = _write(
        tmp_path / "shuffled.setfn",
        "setfn v1\nn 1\nkind dense\nmodel none\n1 2.0\n0 1.0\n",
    )
    fn = setfn_io.read_setfn(path)
    assert fn.values.tolist() == [1.0, 2.0]


def test_covariance_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    W = rng.standard_normal((4, 4))
    K = W @ W.T + 4 * np.eye(4)
    path = tmp_path / "cov.csv"
    setfn_io.write_covariance(path, K)
    back = setfn_io.read_covariance(path)
    assert np.array_equal(back, K)
    bad = tmp_path / "rect.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="square"):
        setfn_io.read_covariance(bad)


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 6), model=st.sampled_from([1, 2, 3, 4, 5]))
def test_setfn_round_trip_is_bitwise(data, n, model):
    ground = GroundSet(n)
    size = 1 << n
    values = data.draw(arrays(np.float64, size, elements=FINITE))
    entries = data.draw(st.dictionaries(st.integers(0, size - 1), FINITE, max_size=size))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.setfn"

        setfn_io.write_setfn(path, SetFunction(ground, values))
        assert _same_bits(setfn_io.read_setfn(path).values, values)

        setfn_io.write_setfn(path, Spectrum(ground, model, values))
        back = setfn_io.read_spectrum(path)
        assert back.model == model and _same_bits(back.coeffs, values)

        setfn_io.write_setfn(path, SparseSetFunction(ground, entries))
        got = setfn_io.read_setfn(path).entries
        assert sorted(got) == sorted(entries)
        assert _same_bits([got[m] for m in sorted(got)], [entries[m] for m in sorted(got)])

        support = sampling.SparseSupport(ground, np.array(list(entries), dtype=np.int64))
        spectrum = sampling.SparseSpectrum4(
            support, np.array([entries[int(B)] for B in support.freqs], dtype=np.float64))
        sampling.save_sparse_spectrum(path, spectrum)
        again = sampling.load_sparse_spectrum(path)
        assert np.array_equal(again.support.freqs, support.freqs)
        assert _same_bits(again.coeffs, spectrum.coeffs)
