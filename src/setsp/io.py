"""Line-oriented text format for set functions, spectra, and covariances.

Set-function files ("setfn v1") look like::

    setfn v1
    n 3
    kind dense
    model none
    0 1.5
    1 -2.0
    ...

`kind` is dense (all 2**n masks listed) or sparse (any subset of masks);
`model` is none for signals and 1..5 for spectra.  Each data line is
`f"{mask} {value!r}\n"`: values are written as `repr` writes them, the
shortest decimal that reads back as the same double, so a write/read round
trip reproduces the exact float64 bits.  The writer builds those bytes 8,192
lines at a time with numpy (`setsp.dragonbox`): the vectorized Dragonbox
kernel (Jeon, 2020) finds each value's shortest digits with one integer
product and divisions by constants, only once per distinct bit pattern when
the block's first values repeat (the spectra of band-limited and integer
signals repeat few values), and the text of all the block's lines is laid
out in words and compressed in one pass.  `repr` stays the reference the
tests hold the writer to.

A data line is a mask and a value separated by whitespace; blank lines are
skipped.  A body in the writer's own grammar (one space, a final newline, a
mask of at most 18 digits, a value of at most 19 significant digits, and no
line break in the header but `\n`) is read from the file's bytes by
`setsp.lemire`, 8,192 lines at a time on uint64 lanes, to the bits `float`
gives.  Any other body, or one that the checks refuse, is read by one walk
over its lines, which collects the masks and values, checks each line once
and raises at the first faulty one; a first data line outside the grammar
(a tab, a CR, a blank line) sends the body to the walk at once.  Its number
grammar is the file's: a mask is an optional sign and ASCII digits, a value
is what `float` reads from ASCII text without `_` digit separators (inf and
nan parse, and are then refused as not finite).  The walk costs about 1 us
a line: in process on a 2-vCPU Xeon, a 65,536-line body with tabs between
the fields reads in 60-110 ms, against 12-17 ms in the writer's grammar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .core import (
    DENSE_MAX_N,
    MAX_N,
    GroundSet,
    SetFunction,
    SparseSetFunction,
    SparseSpectrum,
    Spectrum,
    _check_finite,
)

MAGIC = "setfn v1"

# Data lines formatted per call of `dragonbox.data_lines`: about 2 MiB of arrays
# at most, and the only ones the writer holds at a time.
_WRITE_BLOCK = 1 << 13


class SetFnFormatError(ValueError):
    """Malformed set-function file; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True, eq=False)
class SetFnFile:
    """Parsed and validated contents of a setfn v1 file.

    `masks` (int64) and `values` (float64) are aligned, read-only arrays in
    file order, checked once, by `SparseSetFunction` on the word path or line
    by line by the walk: the masks are distinct and in [0, 2**n), every value
    is finite, and a dense file lists all 2**n masks in any order.
    """

    n: int
    kind: str  # "dense" | "sparse"
    model: int | None  # None for signals, 1..5 for spectra
    masks: np.ndarray
    values: np.ndarray

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)

    def dense_values(self) -> np.ndarray:
        values = np.zeros(1 << self.n)
        values[self.masks] = self.values
        return values


def parse_setfn(path) -> SetFnFile:
    with open(path, "rb") as fh:
        text = fh.read()
    parsed = _read_strict(path, text)
    if parsed is not None:
        return parsed
    # `splitlines` splits at the line breaks that reading in text mode
    # translates, so these are the lines a text-mode read gives
    lines = text.decode("utf-8").splitlines()
    n, kind, model = _parse_header(path, lines)
    return SetFnFile(n, kind, model, *_walk_body(path, lines, n, kind))


def _read_strict(path, text: bytes) -> SetFnFile | None:
    """The file, when its header lines hold no line break but `\\n` and its
    body is in the writer's own grammar (`setsp.lemire`) and passes the
    checks; None for any other file, which `_walk_body` reads."""
    end = -1
    for _ in range(4):
        end = text.find(b"\n", end + 1)
        if end < 0:
            return None
    head = text[:end]
    if not head.isascii() or any(byte in head for byte in b"\r\v\f\x1c\x1d\x1e"):
        return None
    try:
        n, kind, model = _parse_header(path, head.decode().split("\n"))
    except SetFnFormatError:
        return None
    # a first data line with a tab, a CR or a second space, or a blank one,
    # is plainly foreign: no need to scan the body for separators
    newline = text.find(b"\n", end + 1)
    mask, _, value = text[end + 1:newline if newline > 0 else None].partition(b" ")
    if not mask.isdigit() or not value or min(value) <= 32:
        return None
    from .lemire import data_pairs  # compiled on the first parse, not by `import setsp`

    pairs = data_pairs(text, end + 1)
    if pairs is None:
        return None
    try:
        fn = SparseSetFunction(GroundSet(n), *pairs)
    except ValueError:
        return None
    if kind == "dense" and len(fn) != 1 << n:
        return None
    return SetFnFile(n, kind, model, fn.masks, fn.values)


def _parse_header(path, lines: list[str]) -> tuple[int, str, int | None]:
    if len(lines) < 4:
        raise SetFnFormatError(path, len(lines) + 1, "truncated header (need 4 header lines)")
    if lines[0].strip() != MAGIC:
        raise SetFnFormatError(path, 1, f"expected '{MAGIC}', got {lines[0]!r}")

    fields = {}
    for line_no, key in ((2, "n"), (3, "kind"), (4, "model")):
        parts = lines[line_no - 1].split()
        if len(parts) != 2 or parts[0] != key:
            raise SetFnFormatError(
                path, line_no, f"expected '{key} <value>', got {lines[line_no - 1]!r}"
            )
        fields[key] = parts[1]
    try:
        n, model = _header_fields(fields["n"], fields["kind"], fields["model"])
    except _HeaderFault as fault:
        raise SetFnFormatError(path, fault.line, str(fault)) from None
    return n, fields["kind"], model


class _HeaderFault(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(message)


def _header_fields(n_text: str, kind: str, model_text: str) -> tuple[int, int | None]:
    """n and model from the texts of the header fields; the first fault, in
    the order the parser checks, raises `_HeaderFault` with its line."""
    try:
        n = int(n_text)
    except ValueError:
        raise _HeaderFault(2, f"n is not an integer: {n_text!r}") from None
    if kind not in ("dense", "sparse"):
        raise _HeaderFault(3, f"kind must be dense or sparse, got {kind!r}")
    limit = DENSE_MAX_N if kind == "dense" else MAX_N
    if not 0 <= n <= limit:
        raise _HeaderFault(2, f"n={n} exceeds bound {limit} for kind {kind}")
    if model_text == "none":
        return n, None
    if model_text in ("1", "2", "3", "4", "5"):
        return n, int(model_text)
    raise _HeaderFault(4, f"model must be none or 1..5, got {model_text!r}")


def _walk_body(path, lines: list[str], n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The masks and values of the data lines after the 4 header `lines`, in
    file order, as read-only int64 and float64 arrays, checked here and
    nowhere else.  The first faulty line raises its SetFnFormatError, and a
    dense body that misses masks raises at the line after the last."""

    def fail(line_no: int, message: str) -> NoReturn:
        raise SetFnFormatError(path, line_no, message)

    size = 1 << n
    masks: list[int] = []
    values: list[float] = []
    seen: set[int] = set()
    for line_no, line in enumerate(lines[4:], start=5):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            fail(line_no, f"expected '<mask> <value>', got {line!r}")
        try:
            mask = _number(int, parts[0])
        except ValueError:
            fail(line_no, f"mask is not an integer: {parts[0]!r}")
        if not 0 <= mask < size:
            fail(line_no, f"mask {mask} out of range for n={n}")
        if mask in seen:
            fail(line_no, f"duplicate mask {mask}")
        seen.add(mask)
        try:
            value = _number(float, parts[1])
        except ValueError:
            fail(line_no, f"value is not a number: {parts[1]!r}")
        if not math.isfinite(value):
            fail(line_no, f"value is not finite: {parts[1]!r}")
        masks.append(mask)
        values.append(value)

    if kind == "dense" and len(masks) != size:
        fail(len(lines) + 1, f"dense file must list all {size} masks, got {len(masks)}")
    arrays = np.array(masks, np.int64), np.array(values, np.float64)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _number(convert, token: str):
    """`convert(token)` of an ASCII token without `_`: the format has no
    digit separators and no digits but ASCII ones."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return convert(token)


def write_entries(path, n: int, kind: str, model: int | None, pairs) -> None:
    """Low-level writer; `pairs` is an iterable of (mask, value).

    What `parse_setfn` would refuse raises ValueError, with the parser's
    message, before the file is opened, so a refused write leaves an existing
    file untouched: n beyond `MAX_N` (`DENSE_MAX_N` for dense), a kind other
    than dense or sparse, a model other than None or 1..5, what
    `SparseSetFunction` refuses (a mask that is not an integer in [0, 2**n),
    a repeated mask, a value that is not finite), or a dense file that does
    not list all 2**n masks.
    """
    pairs = list(pairs)
    _write_arrays(path, n, kind, model, [mask for mask, _ in pairs],
                  [value for _, value in pairs])


def _write_arrays(path, n: int, kind: str, model: int | None, masks, values) -> None:
    """`write_entries` of aligned masks and values, checked here.  `masks`
    None writes the 2**n values of a dense `SetFunction` or `Spectrum` in mask
    order: only their finiteness is left to check, and each block takes its
    masks from a range."""
    model_text = "none" if model is None else str(model)
    try:
        _header_fields(str(n), kind, model_text)
    except _HeaderFault as fault:
        raise ValueError(str(fault)) from None
    if masks is None:
        _check_finite(values, range(values.size))
    else:
        fn = SparseSetFunction(GroundSet(n), masks, values)
        if kind == "dense" and len(fn) != 1 << n:
            raise ValueError(f"dense file must list all {1 << n} masks, got {len(fn)}")
        masks, values = fn.masks, fn.values
    from .dragonbox import data_lines  # compiled on the first write, not by `import setsp`

    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\nn {n}\nkind {kind}\nmodel {model_text}\n".encode())
        for start in range(0, values.size, _WRITE_BLOCK):
            stop = min(start + _WRITE_BLOCK, values.size)
            block = np.arange(start, stop) if masks is None else masks[start:stop]
            fh.write(data_lines(block, values[start:stop]))


def write_setfn(path, fn) -> None:
    """Write a SetFunction, SparseSetFunction, Spectrum or SparseSpectrum.
    Sparse set functions are written in mask order, sparse spectra in their
    support order."""
    if isinstance(fn, SetFunction):
        _write_arrays(path, fn.ground.n, "dense", None, None, fn.values)
    elif isinstance(fn, SparseSetFunction):
        order = np.argsort(fn.masks)
        _write_arrays(path, fn.ground.n, "sparse", None, fn.masks[order], fn.values[order])
    elif isinstance(fn, Spectrum):
        _write_arrays(path, fn.ground.n, "dense", fn.model, None, fn.coeffs)
    elif isinstance(fn, SparseSpectrum):
        _write_arrays(path, fn.ground.n, "sparse", fn.model, fn.freqs, fn.coeffs)
    else:
        raise TypeError(f"cannot serialize {type(fn).__name__}")


def read_setfn(path) -> SetFunction | SparseSetFunction:
    """Read a signal file (model must be none)."""
    rec = parse_setfn(path)
    if rec.model is not None:
        raise SetFnFormatError(path, 4, "expected a signal file, found a spectrum")
    if rec.kind == "dense":
        return SetFunction.wrap(rec.ground, rec.dense_values())
    return SparseSetFunction(rec.ground, rec.masks, rec.values)


def read_spectrum(path) -> Spectrum:
    """Read a dense spectrum file (model 1..5); sparse spectra densify."""
    rec = parse_setfn(path)
    if rec.model is None:
        raise SetFnFormatError(path, 4, "expected a spectrum file, found a signal")
    return Spectrum.wrap(rec.ground, rec.model, rec.dense_values())


def _check_square(K: np.ndarray) -> np.ndarray:
    if K.ndim != 2 or K.shape[0] != K.shape[1] or not K.size:
        raise ValueError(f"covariance must be square and non-empty, got shape {K.shape}")
    return K


def read_covariance(path) -> np.ndarray:
    """Read an n x n covariance matrix, n >= 1, from CSV."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file with no data
            K = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (ValueError, Warning) as exc:
        raise ValueError(f"covariance file {path}: {exc}") from None
    return _check_square(K)


def write_covariance(path, K: np.ndarray) -> None:
    """Write an n x n covariance matrix, n >= 1, as CSV; any other shape is
    refused before the file is opened."""
    K = _check_square(np.asarray(K, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        for row in K:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
