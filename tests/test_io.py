import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setsp import io as setfn_io
from setsp import sampling
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    SparseSupport,
    Spectrum,
)
from setsp.io import SetFnFormatError

from reference import parse_setfn_reference

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
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1\n", 5, "expected '<mask> <value>'"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1 2.0 3.0\n", 5, "expected '<mask> <value>'"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1.5 2.0\n", 5, "mask is not an integer"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n0 1.0\n\n7 1.0\n", 7, "out of range"),
        ("setfn v1\nn 62\nkind sparse\nmodel none\n1 1.0\n9223372036854775808 1.0\n", 6,
         "mask 9223372036854775808 out of range for n=62"),
        ("setfn v1\nn 2\nkind sparse\nmodel none\n1_0 2.0\n", 5,
         "mask is not an integer: '1_0'"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, body, line, fragment):
    path = _write(tmp_path / "bad.setfn", body)
    with pytest.raises(SetFnFormatError) as err:
        setfn_io.parse_setfn(path)
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "n,kind,pairs,fragment",
    [
        (2, "sparse", [(0, float("nan"))], "value nan at mask 0 is not finite"),
        (2, "sparse", [(1, 1.0), (3, -float("inf"))], "value -inf at mask 3 is not finite"),
        (2, "sparse", [(0, 1.0), (9, 2.0)], "mask 9 out of range for n=2"),
        (2, "sparse", [(-1, 2.0)], "mask -1 out of range for n=2"),
        (3, "sparse", [(5, 1.0), (2, 2.0), (5, 3.0)], "duplicate mask 5"),
        (1, "dense", [(0, 1.0)], "dense file must list all 2 masks, got 1"),
        (70, "sparse", [(0, 1.0)], "n=70 exceeds bound 62 for kind sparse"),
        (31, "dense", [(0, 1.0)], "n=31 exceeds bound 30 for kind dense"),
        (-1, "sparse", [], "n=-1 exceeds bound 62 for kind sparse"),
        (2, "half", [(0, 1.0)], "kind must be dense or sparse, got 'half'"),
    ],
)
def test_write_entries_refuses_what_the_parser_refuses(tmp_path, n, kind, pairs, fragment):
    _assert_write_refused(tmp_path, fragment, n, kind, None, pairs)


@pytest.mark.parametrize(
    "model,fragment",
    [(9, "model must be none or 1..5, got '9'"), (0, "got '0'"), (True, "got 'True'")],
)
def test_write_entries_refuses_the_models_the_parser_refuses(tmp_path, model, fragment):
    _assert_write_refused(tmp_path, fragment, 2, "sparse", model, [(0, 1.0)])


def _assert_write_refused(tmp_path, fragment, *args):
    """`write_entries(path, *args)` raises before it opens the file, whether
    the file exists or not."""
    path = tmp_path / "kept.setfn"
    setfn_io.write_entries(path, 1, "sparse", None, [(1, 0.5)])
    before = path.read_bytes()
    with pytest.raises(ValueError, match=fragment):
        setfn_io.write_entries(path, *args)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match=fragment):
        setfn_io.write_entries(tmp_path / "new.setfn", *args)
    assert not (tmp_path / "new.setfn").exists()


def test_empty_sparse_body_parses_to_no_entries(tmp_path):
    for body in ("", "\n", "  \n\t\n"):
        path = _write(tmp_path / "empty.setfn", "setfn v1\nn 3\nkind sparse\nmodel 4\n" + body)
        rec = setfn_io.parse_setfn(path)
        assert rec.masks.dtype == np.int64 and rec.masks.size == 0
        assert rec.values.dtype == np.float64 and rec.values.size == 0
        assert setfn_io.read_setfn(_write(tmp_path / "sig.setfn", (
            "setfn v1\nn 3\nkind sparse\nmodel none\n" + body))).entries == {}


def test_write_entries_bytes():
    # masks and values as ints, floats, numpy scalars: repr of the float64
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.setfn"
        setfn_io.write_entries(path, 3, "sparse", 4, [
            (0, 1), (np.int64(6), np.float64(0.1)), (3.0, -0.0), (5, 5e-324),
            (7, np.float32(0.1)), (1, 1.7976931348623157e308),
        ])
        assert path.read_text(encoding="utf-8") == (
            "setfn v1\nn 3\nkind sparse\nmodel 4\n0 1.0\n6 0.1\n3 -0.0\n5 5e-324\n"
            "7 0.10000000149011612\n1 1.7976931348623157e+308\n"
        )


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

        support = SparseSupport(ground, np.array(list(entries), dtype=np.int64))
        spectrum = SparseSpectrum(
            support, model, np.array([entries[int(B)] for B in support.freqs], dtype=np.float64))
        sampling.save_sparse_spectrum(path, spectrum)
        again = sampling.load_sparse_spectrum(path)
        assert again.model == model
        assert np.array_equal(again.support.freqs, support.freqs)
        assert _same_bits(again.coeffs, spectrum.coeffs)


# Text forms of one value: what the writer emits and other spellings of the
# same float that `float` and `np.loadtxt` both read.
VALUE_TEXT = st.sampled_from([repr, lambda v: format(v, ".17e"), lambda v: format(v, ".17g"),
                              lambda v: format(v, "+.25g")])
SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t "])
BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def setfn_texts(draw):
    """(text, n, kind, masks, values) of a valid setfn file: dense files in
    any order, sparse ones with any number of entries (none included), blank
    and whitespace-only lines, tabs, and n in 0..8, 40 or 62 with masks near
    the top of the range."""
    kind = draw(st.sampled_from(["dense", "sparse"]))
    if kind == "dense":
        n = draw(st.integers(0, 8))
        masks = draw(st.permutations(range(1 << n)))
    else:
        n = draw(st.sampled_from([0, 1, 2, 5, 8, 40, 62]))
        size = 1 << n
        near_top = st.integers(max(0, size - 1000), size - 1)
        masks = draw(st.lists(st.one_of(st.integers(0, size - 1), near_top),
                              max_size=min(size, 40), unique=True))
    values = draw(st.lists(FINITE, min_size=len(masks), max_size=len(masks)))
    model = draw(st.sampled_from(["none", "1", "2", "3", "4", "5"]))
    lines = []
    for mask, value in zip(masks, values):
        lines += draw(st.lists(BLANK, max_size=1))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(f"{lead}{mask}{draw(SEPARATOR)}{draw(VALUE_TEXT)(value)}{trail}")
    lines += draw(st.lists(BLANK, max_size=2))
    text = "\n".join([f"setfn v1", f"n {n}", f"kind {kind}", f"model {model}", *lines])
    return text + draw(st.sampled_from(["", "\n"])), n, kind, masks, values


def _parse_both(path):
    """(fast, reference): each a SetFnFile or the SetFnFormatError raised."""
    out = []
    for parse in (setfn_io.parse_setfn, parse_setfn_reference):
        try:
            out.append(parse(path))
        except SetFnFormatError as exc:
            out.append(exc)
    return out


@settings(max_examples=150, deadline=None)
@given(case=setfn_texts())
def test_array_parse_is_the_line_parser_on_valid_files(case):
    text, n, kind, masks, values = case
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "f.setfn", text)
        fast, ref = _parse_both(path)
    assert (fast.n, fast.kind, fast.model) == (ref.n, ref.kind, ref.model)
    assert (fast.n, fast.kind) == (n, kind)
    assert fast.masks.dtype == np.int64 and fast.values.dtype == np.float64
    assert fast.masks.tobytes() == ref.masks.tobytes() == np.array(masks, np.int64).tobytes()
    assert _same_bits(fast.values, ref.values) and _same_bits(fast.values, values)


# One faulty data line per error class of `test_parse_errors_carry_line_numbers`
# (the mask, when given, is the mask of the line it replaces).
FAULTS = {
    "columns": lambda n, mask, rest: st.sampled_from(["1", "1 2.0 3.0", "# 1 2.0"]),
    "mask": lambda n, mask, rest: st.sampled_from(["1.5 2.0", "abc 1.0", "0x1 1.0", "1e3 1.0"]),
    "range": lambda n, mask, rest: st.sampled_from(
        [f"{1 << n} 1.0", "-1 1.0", f"{(1 << 63) + 5} 2.0", f"{-(1 << 63) - 1} 2.0"]),
    "duplicate": lambda n, mask, rest: st.just(f"{rest[0]} 3.0") if rest else st.nothing(),
    "number": lambda n, mask, rest: st.sampled_from(
        [f"{mask} abc", f"{mask} 1.0.0", f"{mask} 0x1p3", f"{mask} 1e", f"{mask} --1"]),
    "finite": lambda n, mask, rest: st.sampled_from(
        [f"{mask} nan", f"{mask} inf", f"{mask} -Infinity", f"{mask} 1e400"]),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=setfn_texts(), fault=st.sampled_from(sorted(FAULTS) + ["count"]))
def test_array_parse_reports_the_line_parsers_first_fault(data, case, fault):
    text, n, kind, masks, values = case
    lines = text.split("\n")
    data_lines = [i for i in range(4, len(lines)) if lines[i].strip()]
    if fault == "count":
        if not data_lines or kind != "dense":
            return
        del lines[data.draw(st.sampled_from(data_lines))]
    else:
        at = data.draw(st.integers(4, len(lines)), label="position")
        earlier = [int(lines[i].split()[0]) for i in data_lines if i < at]
        replace = at in data_lines
        mask = int(lines[at].split()[0]) if replace else 0
        bad = data.draw(FAULTS[fault](n, mask, earlier), label="line")
        lines[at : at + int(replace)] = [bad]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "bad.setfn", "\n".join(lines))
        fast, ref = _parse_both(path)
    assert isinstance(ref, SetFnFormatError)
    assert isinstance(fast, SetFnFormatError)
    assert (fast.line, str(fast)) == (ref.line, str(ref))


@settings(max_examples=60, deadline=None)
@given(case=setfn_texts(), token=st.sampled_from(["1_0", "١", "1_0.5", "٣.5", "１"]),
       column=st.sampled_from([0, 1]))
def test_array_parse_refuses_digit_separators_and_non_ascii_digits(case, token, column):
    text, n, kind, masks, values = case
    lines = text.split("\n")
    data_lines = [i for i in range(4, len(lines)) if lines[i].strip()]
    if not data_lines:
        return
    at = data_lines[-1]
    parts = lines[at].split()
    parts[column] = token
    lines[at] = " ".join(parts)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "bad.setfn", "\n".join(lines))
        with pytest.raises(SetFnFormatError) as err:
            setfn_io.parse_setfn(path)
    what = "mask is not an integer" if column == 0 else "value is not a number"
    assert err.value.line == at + 1
    assert str(err.value).endswith(f"{what}: {token!r}")
