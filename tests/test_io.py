import contextlib
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setsp import body as setfn_body
from setsp import core, coverage
from setsp import io as setfn_io
from setsp import sampling
from setsp.cli import main
from setsp.core import (
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    Spectrum,
)
from setsp.io import SetFnFormatError
from setsp.coverage import CoverageRepresentation

from reference import parse_setfn_reference, write_setfn_reference

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
    sp = SparseSetFunction(GroundSet(2), [3], [1.5])
    path = tmp_path / "sparse.setfn"
    setfn_io.write_setfn(path, sp)
    back = setfn_io.read_setfn(path)
    assert isinstance(back, SparseSetFunction)
    assert back.masks.tolist() == [3] and back.values.tolist() == [1.5]
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
        # cast to int64 first, 1.7 was written as mask 1 and 2**63 overflowed
        (2, "sparse", [(0, 1.0), (1.7, 2.0)], "non-integer mask 1.7 at position 1"),
        (2, "sparse", [(2**63, 2.0)], "mask 9223372036854775808 out of range for n=2"),
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
            "setfn v1\nn 3\nkind sparse\nmodel none\n" + body))).masks.size == 0


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


@pytest.mark.parametrize("model", [1, 4, 5])
def test_write_setfn_writes_a_sparse_spectrum_in_support_order(tmp_path, model):
    ground = GroundSet(40)
    freqs = [7, 1 << 39, 0, 3, (1 << 40) - 1, 12]
    spec = SparseSpectrum(ground, model, freqs, [0.1, -0.0, 5e-324, 1e300, -2.5, 3.0])
    path, old, ref = tmp_path / "spec.setfn", tmp_path / "old.setfn", tmp_path / "ref.setfn"
    setfn_io.write_setfn(path, spec)
    setfn_io.write_entries(old, 40, "sparse", model, zip(spec.freqs, spec.coeffs))
    write_setfn_reference(ref, 40, "sparse", model, zip(spec.freqs, spec.coeffs))
    assert path.read_bytes() == old.read_bytes() == ref.read_bytes()
    assert spec.freqs.tolist() == [0, 1 << 39, 3, 12, 7, (1 << 40) - 1]
    back = sampling.load_sparse_spectrum(path)
    assert back.model == model and back.freqs.tobytes() == spec.freqs.tobytes()
    assert back.coeffs.tobytes() == spec.coeffs.tobytes()
    # the sampling layer's savers write through it
    with mock.patch.object(setfn_io, "write_setfn", wraps=setfn_io.write_setfn) as write:
        sampling.save_sparse_spectrum(old, spec)
        sampling.save_support(ref, spec.support)
    assert write.call_count == 2 and old.read_bytes() == path.read_bytes()
    assert sampling.load_support(ref).freqs.tobytes() == spec.freqs.tobytes()


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


@pytest.mark.parametrize("shape", [(2, 3), (3,), (), (2, 2, 2), (0, 0)])
def test_covariance_writer_refuses_what_the_reader_refuses(tmp_path, shape):
    # a 2x3 matrix was written, and then refused by the reader
    path = tmp_path / "cov.csv"
    with pytest.raises(ValueError, match=r"covariance must be square and non-empty, got shape"):
        setfn_io.write_covariance(path, np.ones(shape))
    assert not path.exists()


@pytest.mark.parametrize("text,why", [
    ("", "no data"),
    ("\n\n", "no data"),
    ("1.0,abc\n2.0,3.0\n", "could not convert string 'abc'"),
    ("1.0,2.0\n3.0\n", "number of columns changed"),
])
def test_unreadable_covariance_file_is_a_value_error_naming_it(tmp_path, capsys, text, why):
    # numpy warns on a file with no data; the reader then said "got shape
    # (0, 1)", and under warnings-as-errors the warning escaped `cli.main`.
    # numpy's parse errors named no file
    path = tmp_path / "cov.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        setfn_io.read_covariance(path)
    assert str(refused.value).startswith(f"covariance file {path}: ")
    assert why in str(refused.value)
    out = tmp_path / "comp.csv"
    rc = main(["compress", "--oracle", f"gaussian:{path}", "--wht-samples", "2",
               "--probes", "10", "--seed", "1", "--out", str(out)])
    assert rc == 2
    assert f"error: covariance file {path}: " in capsys.readouterr().err
    assert not out.exists()


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

        setfn_io.write_setfn(path, SparseSetFunction(ground, list(entries), list(entries.values())))
        got = setfn_io.read_setfn(path)
        assert got.masks.tolist() == sorted(entries)
        assert _same_bits(got.values, [entries[m] for m in sorted(entries)])

        spectrum = SparseSpectrum(ground, model, list(entries), list(entries.values()))
        sampling.save_sparse_spectrum(path, spectrum)
        again = sampling.load_sparse_spectrum(path)
        assert again.model == model
        assert np.array_equal(again.freqs, spectrum.freqs)
        assert _same_bits(again.coeffs, spectrum.coeffs)


# Values that repeat often within a writer block: both zeros, the smallest
# subnormals and both extremes, and 1.0; then any finite value.
REPEATING = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.0]),
    FINITE,
)


def _assert_writes_reference_bytes(tmp, block: int, cases) -> None:
    """Each (write, reference args) pair writes the bytes of
    `write_setfn_reference(path, *args)` with blocks of `block` lines."""
    got, want = Path(tmp) / "got.setfn", Path(tmp) / "want.setfn"
    with mock.patch.object(setfn_body, "BLOCK", block):
        for write, args in cases:
            write(got)
            write_setfn_reference(want, *args)
            assert got.read_bytes() == want.read_bytes(), args


@settings(max_examples=80, deadline=None)
@given(data=st.data(), block=st.integers(1, 9), model=st.sampled_from([1, 2, 3, 4, 5]))
def test_writers_give_the_bytes_of_one_line_per_entry(data, block, model):
    # dense files of up to 64 lines and sparse ones of up to 40, in blocks of
    # 1..9 lines, with masks near the top of 2**40 and 2**62
    dense_n = data.draw(st.integers(0, 6))
    dense = GroundSet(dense_n)
    values = data.draw(st.lists(REPEATING, min_size=dense.size, max_size=dense.size))
    shuffled = data.draw(st.permutations(list(enumerate(values))))
    n = data.draw(st.sampled_from([0, 2, 5, 40, 62]))
    ground = GroundSet(n)
    near_top = st.integers(max(0, ground.size - 100), ground.size - 1)
    entries = data.draw(st.dictionaries(st.one_of(st.integers(0, ground.size - 1), near_top),
                                        REPEATING, max_size=min(ground.size, 40)))
    masks, coeffs = list(entries), list(entries.values())
    by_mask = sorted(entries.items())
    by_cardinality = sorted(entries.items(), key=lambda item: (bin(item[0]).count("1"), item[0]))
    cases = [
        (lambda p: setfn_io.write_setfn(p, SetFunction(dense, values)),
         (dense_n, "dense", None, enumerate(values))),
        (lambda p: setfn_io.write_setfn(p, Spectrum(dense, model, values)),
         (dense_n, "dense", model, enumerate(values))),
        (lambda p: setfn_io.write_entries(p, dense_n, "dense", model, shuffled),
         (dense_n, "dense", model, shuffled)),
        (lambda p: setfn_io.write_setfn(p, SparseSetFunction(ground, masks, coeffs)),
         (n, "sparse", None, by_mask)),
        (lambda p: setfn_io.write_entries(p, n, "sparse", model, entries.items()),
         (n, "sparse", model, entries.items())),
        (lambda p: sampling.save_sparse_spectrum(p, SparseSpectrum(ground, model, masks, coeffs)),
         (n, "sparse", model, by_cardinality)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        _assert_writes_reference_bytes(tmp, block, cases)


def test_writer_keeps_repeated_values_and_signed_zeros_apart_in_each_block(tmp_path):
    values = [0.0, -0.0, 5e-324, 0.0, -1.7976931348623157e308, -0.0,
              1.7976931348623157e308, 5e-324, -0.0, 0.0]
    pairs = [((1 << 62) - 1 - i, value) for i, value in enumerate(values)]
    _assert_writes_reference_bytes(tmp_path, 3, [
        (lambda p: setfn_io.write_entries(p, 62, "sparse", None, pairs),
         (62, "sparse", None, pairs)),
    ])
    lines = (tmp_path / "got.setfn").read_text(encoding="utf-8").splitlines()[4:]
    assert lines[:3] == ["4611686018427387903 0.0", "4611686018427387902 -0.0",
                         "4611686018427387901 5e-324"]
    assert lines[-2:] == ["4611686018427387895 -0.0", "4611686018427387894 0.0"]


def _bulk_values() -> np.ndarray:
    """About 10**6 finite doubles, each with both signs."""
    rng = np.random.default_rng(2018)
    # random bit patterns, 100 in each of the 2,047 finite binades
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 100)
    patterns = (exponents << 52 | rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64))
    powers = np.ldexp(1.0, np.arange(-1074, 1024))  # all 2,098 powers of two
    extremes = [0.0, 5e-324, 1.7976931348623157e308]
    integers = rng.integers(0, 1 << 53, 50_000) >> rng.integers(0, 53, 50_000)
    # decimals of 1 to 17 digits, scaled by one correctly rounded operation
    lengths = rng.integers(1, 18, 250_000)
    digits, scale = rng.integers(10 ** (lengths - 1), 10**lengths), rng.integers(-22, 23, lengths.size)
    decimals = np.where(scale < 0, digits * 10.0 ** -scale, digits / 10.0**scale)
    # 3 ulps either side of where `repr` switches between notations
    around = [np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])]
    up = down = around[0]
    for _ in range(3):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
        around += [up, down]
    values = np.concatenate([patterns.view(np.float64), powers, extremes, integers, decimals, *around])
    return np.concatenate([values, -values])


def test_writer_gives_the_bytes_of_repr_on_a_million_values(tmp_path):
    values = np.random.default_rng(62).permutation(_bulk_values())
    # increasing masks of 1 to 19 digits, from 0 to 2**62 - 1
    size = values.size
    masks = np.arange(size) + np.geomspace(1, 2.0**61, size).astype(np.int64) - 1
    masks[-1] = (1 << 62) - 1
    assert masks[0] == 0 and (np.diff(masks) > 0).all()
    path = tmp_path / "bulk.setfn"
    setfn_io.write_setfn(path, SparseSetFunction(GroundSet(62), masks, values))
    want = "".join(f"{mask} {value!r}\n" for mask, value in zip(masks.tolist(), values.tolist()))
    assert path.read_bytes() == f"setfn v1\nn 62\nkind sparse\nmodel none\n{want}".encode()


# Values that reach each branch of the digit kernel, `setsp.body.shortest`.
KERNEL_BRANCHES = [
    3.8, 123.0, 1e22, 4.5e-300,  # the big divisor (1000), with trailing zeros
    7.287756917509179e16, 9.888722976466939e16,  # an excluded right end, r = 0
    77.61416058272481, 0.5194618635960631,  # r = delta, and the left end is out
    0.0671, 7e22,  # r = delta, and the left end is in
    9.835878635255836, 66.14288099718704,  # a remainder 100 divides: y's parity steps down, or not
    713729375387.9062, 75482763453671.88,  # ... and y is an integer: a tie to the even digit
    0.5, 1024.0, 2.0**-1000, 2.0**1023,  # normal powers of two, from the table
    2.0**-1022, 5e-324, 1e-323, 2.225073858507201e-308,  # 2**-1022 and subnormals
]


def test_every_branch_of_the_digit_kernel_gives_the_bytes_of_repr(tmp_path):
    values = KERNEL_BRANCHES + [-v for v in KERNEL_BRANCHES]
    pairs = list(enumerate(values))
    _assert_writes_reference_bytes(tmp_path, 8, [
        (lambda p: setfn_io.write_entries(p, 6, "sparse", None, pairs),
         (6, "sparse", None, pairs)),
    ])
    lines = (tmp_path / "got.setfn").read_text(encoding="utf-8").splitlines()[4:]
    assert lines == [f"{mask} {value!r}" for mask, value in pairs]


def test_formatting_repeated_values_once_never_changes_the_bytes(tmp_path):
    # the block's sample of leading values has no repeat, so it formats every
    # line; its reverse leads with the repeats and formats each distinct bit
    # pattern once
    head = np.random.default_rng(256).standard_normal(setfn_body._SAMPLE)
    values = np.concatenate([head, head[:100], [0.0, -0.0, 5e-324, 0.0, -0.0]]).tolist()
    assert len(set(values[:setfn_body._SAMPLE])) == setfn_body._SAMPLE
    assert len(set(values[::-1][:setfn_body._SAMPLE])) < setfn_body._SAMPLE
    forward, backward = list(enumerate(values)), list(enumerate(values))[::-1]
    _assert_writes_reference_bytes(tmp_path, 1 << 13, [
        (lambda p: setfn_io.write_entries(p, 12, "sparse", None, forward),
         (12, "sparse", None, forward)),
    ])
    lines = (tmp_path / "got.setfn").read_text(encoding="utf-8").splitlines()
    setfn_io.write_entries(tmp_path / "back.setfn", 12, "sparse", None, backward)
    back = (tmp_path / "back.setfn").read_text(encoding="utf-8").splitlines()
    assert back[:4] == lines[:4] and back[4:] == lines[4:][::-1]


def test_dense_write_holds_one_block_of_lines(tmp_path):
    # n=20, every value distinct: the writer holds the Python objects of one
    # block and the finiteness check's 1 MiB of flags, and no 8 MiB arrays of
    # 2**20 masks or values
    fn = SetFunction(GroundSet(20), np.random.default_rng(3).standard_normal(1 << 20))
    tracemalloc.start()
    try:
        setfn_io.write_setfn(tmp_path / "big.setfn", fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_dense_writes_refuse_a_value_that_is_not_finite(tmp_path, value):
    # `wrap` hands over unchecked values; the writer names the first bad one
    values = np.arange(8.0)
    values[[3, 6]] = value
    ground = GroundSet(3)
    for fn in (SetFunction.wrap(ground, values), Spectrum.wrap(ground, 5, values)):
        path = tmp_path / "kept.setfn"
        setfn_io.write_setfn(path, SetFunction(ground, np.zeros(8)))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^value {value} at mask 3 is not finite$"):
            setfn_io.write_setfn(path, fn)
        assert path.read_bytes() == before


# Text forms of one value: what the writer emits and other spellings of the
# same float that `float` reads.
VALUE_TEXT = st.sampled_from([repr, lambda v: format(v, ".17e"), lambda v: format(v, ".17g"),
                              lambda v: format(v, "+.25g")])
SEPARATOR = st.sampled_from([" ", "\t", "  ", " \t "])
BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def setfn_texts(draw):
    """(text, n, kind, masks, values) of a valid setfn file: dense files in
    any order, sparse ones with any number of entries (none included), blank
    and whitespace-only lines, tabs, and n in 0..8, 40 or 62 with masks near
    the top of the range.  A third of the files keep to the writer's grammar,
    which `parse_setfn` reads on its word path: one space, `repr` values, no
    blank line and a final newline."""
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
    header = [f"setfn v1", f"n {n}", f"kind {kind}", f"model {model}"]
    if draw(st.integers(0, 2)) == 0:
        lines = [f"{mask} {value!r}" for mask, value in zip(masks, values)]
        return "".join(f"{line}\n" for line in header + lines), n, kind, masks, values
    lines = []
    for mask, value in zip(masks, values):
        lines += draw(st.lists(BLANK, max_size=1))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(f"{lead}{mask}{draw(SEPARATOR)}{draw(VALUE_TEXT)(value)}{trail}")
    lines += draw(st.lists(BLANK, max_size=2))
    text = "\n".join([*header, *lines])
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


HEADER = "setfn v1\nn 20\nkind sparse\nmodel none\n"


def _body(texts) -> str:
    return "".join(f"{mask} {text}\n" for mask, text in enumerate(texts))


def _no_walk():
    """A context in which a parse that leaves the word path fails."""
    return mock.patch.object(setfn_io, "_walk_body", side_effect=AssertionError("left the word path"))


def _assert_reads_as_float(path, texts):
    """`parse_setfn` gives the bits `float` and the reference parser give."""
    got = setfn_io.parse_setfn(path)
    want = np.array([float(text) for text in texts])
    assert got.values.tobytes() == want.tobytes()
    assert got.values.tobytes() == parse_setfn_reference(path).values.tobytes()
    assert got.masks.tolist() == list(range(len(texts)))


@pytest.mark.parametrize("spell", [repr, lambda v: format(v, ".16e")], ids=["repr", ".16e"])
def test_word_path_gives_the_bits_of_float_in_every_binade(tmp_path, spell):
    # 24 random bit patterns of each sign in each of the 2,047 finite binades;
    # `float` decides the subnormals on the word path
    rng = np.random.default_rng(1024)
    biased = np.repeat(np.arange(2047, dtype=np.uint64), 48)
    bits = (biased << 52 | rng.integers(0, 1 << 52, biased.size, dtype=np.uint64)
            | np.tile(np.arange(2, dtype=np.uint64), biased.size // 2) << 63)
    values = bits.view(np.float64).tolist()
    path = tmp_path / "f.setfn"
    normal = [spell(v) for v, b in zip(values, biased.tolist()) if b > 0]
    _write(path, HEADER + _body(normal))
    with _no_walk():
        _assert_reads_as_float(path, normal)
    every = [spell(v) for v in values]
    _write(path, HEADER + _body(every))
    with _no_walk():
        _assert_reads_as_float(path, every)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       spell=st.sampled_from([repr, lambda v: format(v, ".16e"), lambda v: format(v, ".17g")]))
def test_word_path_gives_the_bits_of_float_on_random_patterns(data, spell):
    normal = st.builds(lambda b, f, s: (s << 63 | b << 52 | f), st.integers(1, 2046),
                       st.integers(0, (1 << 52) - 1), st.integers(0, 1))
    bits = data.draw(st.lists(normal, min_size=1, max_size=50))
    texts = [spell(v) for v in np.array(bits, np.uint64).view(np.float64).tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "f.setfn", HEADER + _body(texts))
        with _no_walk():
            _assert_reads_as_float(path, texts)


# Decimals whose nearest double is hard to find: halfway and near-halfway
# cases, the normal and subnormal extremes and 19 significant digits.  The
# last column says whether the test holds them to the word path: exponents
# without a sign leave it (subnormal results stay on it, see
# `test_word_path_decides_subnormal_and_underflowing_values`).
HARD = [
    ("9007199254740993", True), ("9007199254740993.0", True), ("-9007199254740995", True),
    ("2.2250738585072011e-308", False), ("2.2250738585072014e-308", True),
    ("2.4703282292062327e-324", False), ("4.9406564584124654e-324", False),
    ("1.7976931348623158e+308", True), ("1.7976931348623158e308", False),
    ("1.7976931348623157e+308", True), ("7.2057594037927933e+16", True),
    ("7.2057594037927933e16", False), ("1e+23", True), ("1e23", False),
    ("8.98846567431158e+307", True), ("1.0000000000000002", True),
    ("1234567890123456789", True), ("9.999999999999999999e-1", True),
    ("0.1234567890123456789", True), ("1844674407370955161.5", False),
    ("0.30000000000000004", True), ("123456789012345678e-310", True),
    ("1.00000000000000011102230246251565404236316680908203125", False),
    ("0e-999", True), ("-0.0", True), ("-0e+400", True), ("5e-1", True), ("1e-22", True),
    ("1e+22", True), ("9007199254740993e-22", True), ("0.000123456789012345678", True),
]


@pytest.mark.parametrize("text,word_path", HARD)
def test_hard_decimals_read_as_float_reads_them(tmp_path, text, word_path):
    texts = ["1.5", text, "-0.25"]
    path = _write(tmp_path / "f.setfn", HEADER + _body(texts))
    if word_path:
        with _no_walk():
            _assert_reads_as_float(path, texts)
    else:
        _assert_reads_as_float(path, texts)


# Values whose nearest double is subnormal or zero, which Eisel-Lemire leaves
# to `float`: the word path keeps their body.
UNDERFLOWING = ["2.2250738585072011e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
                "4.9406564584124654e-324", "-5e-324", "1e-310", "-9.99e-309", "-1e-400", "1e-999",
                "123456789012345678e-340", "2.2250738585072009e-308"]


def test_word_path_decides_subnormal_and_underflowing_values(tmp_path):
    texts = ["1.5", *UNDERFLOWING, "-0.25"]
    path = _write(tmp_path / "f.setfn", HEADER + _body(texts))
    with _no_walk():
        _assert_reads_as_float(path, texts)


def test_word_path_guard(tmp_path):
    # a file the writer wrote never reaches the line walk; the same file
    # with tabs between the fields is walked once, to the same bits, and so
    # is that file with a fault on its last line
    fn = SetFunction(GroundSet(16), np.random.default_rng(16).standard_normal(1 << 16) * 1e-3)
    path = tmp_path / "sig.setfn"
    setfn_io.write_setfn(path, fn)
    with _no_walk():
        assert setfn_io.read_setfn(path).values.tobytes() == fn.values.tobytes()
    head, body = path.read_text(encoding="utf-8").split("model none\n")
    tabs = _write(tmp_path / "tabs.setfn", head + "model none\n" + body.replace(" ", "\t"))
    with mock.patch.object(setfn_io, "_walk_body", wraps=setfn_io._walk_body) as walk:
        assert setfn_io.read_setfn(tabs).values.tobytes() == fn.values.tobytes()
    assert walk.call_count == 1
    _write(tabs, tabs.read_text(encoding="utf-8").rpartition("\t")[0] + "\t1.0.0\n")
    with mock.patch.object(setfn_io, "_walk_body", wraps=setfn_io._walk_body) as walk:
        with pytest.raises(SetFnFormatError, match=r":65540: value is not a number: '1\.0\.0'$"):
            setfn_io.read_setfn(tabs)
    assert walk.call_count == 1


def test_plainly_foreign_bodies_skip_the_separator_scan(tmp_path):
    # the first data line shows a body outside the writer's grammar: its
    # body is walked with no separator scan, to the same entries
    fn = SparseSetFunction(GroundSet(9), [0, 3, 17, 511], [0.5, -0.0, 5e-324, -1e300])
    path = tmp_path / "f.setfn"
    setfn_io.write_setfn(path, fn)
    text = path.read_text(encoding="utf-8")
    head, body = text.split("model none\n")
    head += "model none\n"
    foreign = {"tabs": head + body.replace(" ", "\t"), "crlf": text.replace("\n", "\r\n"),
               "crlf body": head + body.replace("\n", "\r\n"), "blank": head + "\n" + body,
               "indent": head + " " + body, "two spaces": head + body.replace(" ", "  ", 1)}
    with mock.patch.object(setfn_body, "_scan", wraps=setfn_body._scan) as scan:
        assert setfn_io.read_setfn(path).masks.tolist() == [0, 3, 17, 511]
        assert scan.call_count == 1
        for name, variant in foreign.items():
            fast, ref = _parse_both(_write(tmp_path / "foreign.setfn", variant))
            assert fast.masks.tobytes() == ref.masks.tobytes() == fn.masks.tobytes(), name
            assert _same_bits(fast.values, ref.values) and _same_bits(fast.values, fn.values)
        assert scan.call_count == 1


@contextlib.contextmanager
def _counting_checks():
    """Counts the calls of `core._checked_pairs`, under each name it is called by."""
    checks = mock.Mock(wraps=core._checked_pairs)
    with mock.patch.object(core, "_checked_pairs", checks), \
            mock.patch.object(setfn_io, "_checked_pairs", checks):
        yield checks


def test_walked_body_is_checked_once_into_read_only_arrays(tmp_path):
    # the walk's checks are the only ones: no `SparseSetFunction` is built,
    # `_checked_pairs` is never called, and the arrays are those it would
    # have built, in file order
    masks, values = [5, 0, 62, 7, 1], [1.5, -0.0, 5e-324, -1e300, 2.0]
    path = _write(tmp_path / "tabs.setfn", "setfn v1\nn 6\nkind sparse\nmodel 3\n"
                  + "".join(f"{m}\t{v!r}\n" for m, v in zip(masks, values)))
    twice = AssertionError("checked twice")
    with mock.patch.object(setfn_io, "SparseSetFunction", side_effect=twice), \
            _counting_checks() as checks:
        got = setfn_io.parse_setfn(path)
    assert checks.call_count == 0
    want = SparseSetFunction(GroundSet(6), masks, values)
    for array, before in ((got.masks, want.masks), (got.values, want.values)):
        assert array.dtype == before.dtype and array.tobytes() == before.tobytes()
        assert not array.flags.writeable
    assert (got.n, got.kind, got.model) == (6, "sparse", 3)


def test_sparse_files_are_checked_once_on_write_and_read(tmp_path):
    # each write checks its entries once, where the container is built or
    # where `write_entries` takes raw pairs; each read once, in `parse_setfn`
    ground = GroundSet(9)
    masks, values = [17, 0, 511, 3], [0.5, 2.0, -1e300, 5e-324]
    path = tmp_path / "f.setfn"
    writes = {
        "write_setfn": lambda: setfn_io.write_setfn(path, SparseSetFunction(ground, masks, values)),
        "write_entries": lambda: setfn_io.write_entries(path, 9, "sparse", 4, zip(masks, values)),
        "save_sparse_spectrum": lambda: sampling.save_sparse_spectrum(
            path, SparseSpectrum(ground, 4, masks, values)),
    }
    for name, write in writes.items():
        with _counting_checks() as checks:
            write()
        assert checks.call_count == 1, name
    # the last file holds its entries in support order; this one in file order
    setfn_io.write_entries(tmp_path / "sig.setfn", 9, "sparse", None, zip(masks, values))
    setfn_io.write_entries(tmp_path / "spec.setfn", 9, "sparse", 4, zip(masks, values))
    reads = {
        "read_setfn": lambda: setfn_io.read_setfn(tmp_path / "sig.setfn"),
        "load_sparse_spectrum": lambda: sampling.load_sparse_spectrum(tmp_path / "spec.setfn"),
        "load_support": lambda: sampling.load_support(tmp_path / "spec.setfn"),
        "load_coverage": lambda: coverage.load_coverage(tmp_path / "spec.setfn"),
    }
    got = {}
    for name, read in reads.items():
        with _counting_checks() as checks:
            got[name] = read()
        assert checks.call_count == 1, name
    # the containers are the ones the checked constructors build
    fn = got["read_setfn"]
    assert fn.masks.tolist() == masks and _same_bits(fn.values, values)
    spec, want = got["load_sparse_spectrum"], SparseSpectrum(ground, 4, masks, values)
    assert (spec.model, spec.freqs.tolist()) == (4, want.freqs.tolist())
    assert _same_bits(spec.coeffs, want.coeffs)
    assert got["load_support"].freqs.tolist() == want.freqs.tolist()
    rep = got["load_coverage"]
    fragments = [m for m in masks if m]
    weights = [-v for m, v in zip(masks, values) if m]
    old = CoverageRepresentation(2.0 - sum(weights), SparseSetFunction(ground, fragments, weights))
    assert rep.offset_c == old.offset_c
    assert rep.fragments.masks.tolist() == old.fragments.masks.tolist() == sorted(fragments)
    assert _same_bits(rep.fragments.values, old.fragments.values)
    for array in (fn.masks, fn.values, spec.freqs, spec.coeffs, rep.fragments.masks,
                  rep.fragments.values):
        assert not array.flags.writeable


def _scaled(q: int) -> tuple[int, int]:
    """floor and ceil of 10**q times the power of two that puts it in
    [2**127, 2**128), and floor(log2(10**q)), from exact integers."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    log2 = num.bit_length() - den.bit_length()  # or one more
    if num << max(-log2, 0) < den << max(log2, 0):
        log2 -= 1
    num, den = num << max(127 - log2, 0), den << max(log2 - 127, 0)
    return num // den, -(-num // den), log2


def test_power_tables_hold_the_exact_words():
    # Eisel-Lemire's words: truncated, but rounded up for q in [-27, -1]
    high, low = setfn_body._powers()
    for q in range(-342, 309):
        floor, ceil, _ = _scaled(q)
        word = int(high[q + 342]) << 64 | int(low[q + 342])
        assert word == (ceil if -27 <= q < 0 else floor), q
    # Dragonbox's constants: ceil(10**k * 2**(127 - floor(log2(10**k)))) * 2**beta
    table = setfn_body._table()
    ks = set()
    for biased in range(2047):
        k = -int(table[6].view(np.int64)[biased])
        _, phi, log2 = _scaled(k)
        beta = max(biased, 1) - 1075 + log2
        c = phi << beta
        assert sum(int(table[i, biased]) << 31 * i for i in range(5)) == c, biased
        assert int(table[5, biased]) == c >> 127
        ks.add(k)
    assert min(ks) == -290 and max(ks) == 326 and len(ks) == 617


def test_files_that_are_not_utf8_name_the_line_of_the_first_bad_byte(tmp_path, capsys):
    head = b"setfn v1\nn 3\nkind sparse\nmodel none\n"
    cases = [(head + b"1 1.5\n2 \xff\n", 6, "invalid start byte 0xff"),
             (head.replace(b"sparse", b"sp\xffrse") + b"1 1.5\n", 3, "invalid start byte 0xff"),
             (head + b"1 1.5\r\n2 2.5\r3 \xe2\x82\n", 7, "invalid continuation byte 0xe2")]
    for text, line, reason in cases:
        path = tmp_path / "bad.setfn"
        path.write_bytes(text)
        with pytest.raises(SetFnFormatError) as err:
            setfn_io.parse_setfn(path)
        assert (err.value.line, str(err.value)) == (line, f"{path}:{line}: not UTF-8: {reason}")
        out = tmp_path / "out.setfn"
        assert main(["transform", "--model", "4", "--in", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {err.value}"


# Each refusal of the line walk, on a tab-separated body: the line and the
# whole message.
WALK_REFUSALS = [
    ("sparse", "1\t1.0\n7\t1.0\n", 6, "mask 7 out of range for n=2"),
    ("sparse", "1\t1.0\n-1\t1.0\n", 6, "mask -1 out of range for n=2"),
    ("sparse", "1\t1.0\n\n1\t2.0\n", 7, "duplicate mask 1"),
    ("sparse", "0\t1.0\n3\tinf\n", 6, "value is not finite: 'inf'"),
    ("sparse", "0\t1e999\n", 5, "value is not finite: '1e999'"),
    ("sparse", "0\tnan\n", 5, "value is not finite: 'nan'"),
    ("sparse", "2\tabc\n", 5, "value is not a number: 'abc'"),
    ("sparse", "x\t1.0\n", 5, "mask is not an integer: 'x'"),
    ("sparse", "0\t1.0\t2.0\n", 5, "expected '<mask> <value>', got '0\\t1.0\\t2.0'"),
    ("dense", "0\t1.0\n1\t1.0\n3\t1.0\n", 8, "dense file must list all 4 masks, got 3"),
]


@pytest.mark.parametrize("kind,body,line,message", WALK_REFUSALS)
def test_walk_refusals_keep_their_line_and_message(tmp_path, kind, body, line, message):
    path = _write(tmp_path / "bad.setfn", f"setfn v1\nn 2\nkind {kind}\nmodel none\n{body}")
    with pytest.raises(SetFnFormatError) as err:
        setfn_io.parse_setfn(path)
    assert (err.value.line, str(err.value)) == (line, f"{path}:{line}: {message}")
    with pytest.raises(SetFnFormatError, match=f"^{re.escape(str(err.value))}$"):
        parse_setfn_reference(path)


# Faulty lines in a body that is otherwise in the writer's grammar; "{m}" is
# the mask of the line replaced, "{e}" an earlier mask, "{n}" 2**n.
STRICT_FAULTS = ["{n} 1.0", "1234567890123456789 1.0", "9223372036854775808 1.0",
                 "18446744073709551619 1.0", "{e} 2.5", "{m} 1e400", "{m} -1e+400", "{m} 1.0.0",
                 "{m} 1e+999", "{m} 1e", "{m} --1", "{m} -", "{m} 1.", "{m} .5", "{m} +1.0",
                 "{m} 1E+5", "{m} 1e+0005", "{m} inf", "{m} 1.7976931348623159e+308"]


@pytest.mark.parametrize("fault", STRICT_FAULTS)
@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
def test_faults_in_strict_bodies_are_the_reference_parsers(tmp_path, fault, crlf):
    header = ["setfn v1", "n 3", "kind sparse", "model none"]
    masks = [3, 0, 6, 1]
    lines = [f"{mask} {value!r}" for mask, value in zip(masks, [0.5, -1.25, 3e-7, 2.0])]
    end = "\r\n" if crlf else "\n"
    for at in range(len(lines)):
        bad = list(lines)
        bad[at] = fault.format(n=1 << 3, m=masks[at], e=masks[max(at - 1, 0)])
        path = _write(tmp_path / "bad.setfn", "".join(line + end for line in header + bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast, ref = _parse_both(path)
        if isinstance(ref, SetFnFormatError):
            assert isinstance(fast, SetFnFormatError), (fault, at)
            assert (fast.line, str(fast)) == (ref.line, str(ref))
        else:  # a duplicate of the first line is no duplicate
            assert fast.masks.tobytes() == ref.masks.tobytes()
            assert _same_bits(fast.values, ref.values)


def test_crlf_bodies_read_as_the_reference_reads_them(tmp_path):
    text = "setfn v1\r\nn 2\r\nkind dense\r\nmodel 4\r\n0 1.0\r\n1 -0.0\r\n2 5e-324\r\n3 1e+300\r\n"
    fast, ref = _parse_both(_write(tmp_path / "crlf.setfn", text))
    assert fast.values.tobytes() == ref.values.tobytes() == np.array(
        [1.0, -0.0, 5e-324, 1e300]).tobytes()


def test_import_compiles_neither_text_kernel():
    code = ("import sys, setsp; print(sorted(m for m in sys.modules"
            " if m.startswith('setsp.body')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(setfn_io.__file__).parents[1])))
    assert done.stdout.strip() == "[]"
