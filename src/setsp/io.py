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
trip reproduces the exact float64 bits.  `setsp.body` writes those lines and
reads back a body in the same grammar; it describes both.

A data line is a mask and a value separated by whitespace; blank lines are
skipped.  The header is parsed once, before either body reader, so a fault
in it is refused at its line before anything in the body.  A body
`setsp.body` reads (masks of up to 19 digits), under a header broken only by
`\n`, is checked once, as a whole.  Any other body, or one the checks
refuse, is read by one walk over its lines, which checks each line once and
raises at the first faulty one: a mask is an optional sign and ASCII digits,
a value what `float` reads from ASCII text without `_` (inf and nan parse,
and are then refused as not finite).  A file that is not UTF-8 is refused at
the line of its first bad byte.  The walk costs about 1 us a line: in process
on a 2-vCPU Xeon, a 65,536-line body with tabs between the fields reads in
60-110 ms, against 12-17 ms in the writer's grammar.
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
    _built,
    _check_finite,
    _checked_pairs,
    _scatter,
)

MAGIC = "setfn v1"


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
    file order, checked once, by `_checked_pairs` on the word path or line
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


def parse_setfn(path) -> SetFnFile:
    with open(path, "rb") as fh:
        text = fh.read()
    start = _header_end(text)
    # the header is parsed once, from its bytes when its lines end in "\n"
    # alone, else from the decoded lines; a fault in it comes first
    if start is not None:
        n, kind, model = _parse_header(path, text[:start - 1].decode().split("\n"))
        read = _read_strict(text, start, n, kind)
        if read is not None:
            return SetFnFile(n, kind, model, *read)
    # `splitlines` splits at \n, \r and \r\n, as a text-mode read does, and
    # also at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029, which a text-mode
    # read keeps inside a line: so `0 1.5\f1 2.5` is two entries, and a line
    # number counts those breaks too
    try:
        lines = text.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lines = (text[:exc.start].decode("utf-8") + "_").splitlines()
        if start is None and len(lines) > 4:  # the bad byte is past the header
            _parse_header(path, lines)
        raise SetFnFormatError(path, len(lines), f"not UTF-8: {exc.reason} "
                               f"0x{text[exc.start]:02x}") from None
    if start is None:
        n, kind, model = _parse_header(path, lines)
    return SetFnFile(n, kind, model, *_walk_body(path, lines, n, kind))


def _header_end(text: bytes) -> int | None:
    """The byte after the fourth `\\n` of `text`, when the four header lines
    before it hold no other line break and only ASCII; None otherwise."""
    end = -1
    for _ in range(4):
        end = text.find(b"\n", end + 1)
        if end < 0:
            return None
    head = text[:end]
    if not head.isascii() or any(byte in head for byte in b"\r\v\f\x1c\x1d\x1e"):
        return None
    return end + 1


def _read_strict(text: bytes, start: int, n: int, kind: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The masks and values of the body after byte `start`, when `setsp.body`
    reads it and they pass the checks; None for any other body, which
    `_walk_body` reads and refuses at its first faulty line."""
    from . import body  # compiled on the first parse, not by `import setsp`

    pairs = body.data_pairs(text, start)
    if pairs is None:
        return None
    try:
        masks, values = _checked_pairs(GroundSet(n), *pairs, sort=False)
    except ValueError:
        return None
    if kind == "dense" and masks.size != 1 << n:
        return None
    return masks, values


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
    n, model = _header_fields(path, fields["n"], fields["kind"], fields["model"])
    return n, fields["kind"], model


def _header_fields(path, n_text: str, kind: str, model_text: str) -> tuple[int, int | None]:
    """n and model from the texts of the header fields of the file at `path`,
    read or to be written; the first fault, in the order the parser checks,
    raises SetFnFormatError at its line."""
    try:
        n = int(n_text)
    except ValueError:
        raise SetFnFormatError(path, 2, f"n is not an integer: {n_text!r}") from None
    if kind not in ("dense", "sparse"):
        raise SetFnFormatError(path, 3, f"kind must be dense or sparse, got {kind!r}")
    limit = DENSE_MAX_N if kind == "dense" else MAX_N
    if not 0 <= n <= limit:
        raise SetFnFormatError(path, 2, f"n={n} exceeds bound {limit} for kind {kind}")
    if model_text == "none":
        return n, None
    if model_text in ("1", "2", "3", "4", "5"):
        return n, int(model_text)
    raise SetFnFormatError(path, 4, f"model must be none or 1..5, got {model_text!r}")


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
    """Low-level writer; `pairs` is an iterable of (mask, value), written in
    the order given.  The library writes through `write_setfn`; this stays
    because `bench/workloads.py` writes its taps file with it.

    What `parse_setfn` would refuse raises ValueError before the file is
    opened, so a refused write leaves an existing file untouched.  A header
    field raises the parser's SetFnFormatError, naming the file and the line:
    n beyond `MAX_N` (`DENSE_MAX_N` for dense), a kind other than dense or
    sparse, a model other than None or 1..5.  The entries raise with the
    message of their check: what `SparseSetFunction` refuses (a mask that is
    not an integer in [0, 2**n), a repeated mask, a value that is not
    finite), and a dense file that does not list all 2**n masks.
    """
    pairs = list(pairs)
    header = _header(path, n, kind, model)
    masks, values = _checked_pairs(GroundSet(n), [mask for mask, _ in pairs],
                                   [value for _, value in pairs], sort=False)
    if kind == "dense" and masks.size != 1 << n:
        raise ValueError(f"dense file must list all {1 << n} masks, got {masks.size}")
    _write(path, header, masks, values)


def _header(path, n: int, kind: str, model: int | None) -> bytes:
    """The header lines of a file; a field `parse_setfn` would refuse raises
    the parser's SetFnFormatError."""
    model_text = "none" if model is None else str(model)
    _header_fields(path, str(n), kind, model_text)
    return f"{MAGIC}\nn {n}\nkind {kind}\nmodel {model_text}\n".encode()


def _write(path, header: bytes, masks: np.ndarray | None, values: np.ndarray) -> None:
    """`header`, then the data lines of checked `masks` and `values`; `masks`
    None stands for 0..values.size - 1."""
    from . import body  # compiled on the first write, not by `import setsp`

    with open(path, "wb") as fh:
        fh.write(header)
        body.write_lines(fh, masks, values)


def write_setfn(path, fn) -> None:
    """Write a SetFunction, SparseSetFunction, Spectrum or SparseSpectrum.
    Sparse set functions are written in mask order, sparse spectra in their
    support order.  The sparse containers were checked when built; a dense
    one built by `wrap` is checked for finite values here."""
    if isinstance(fn, (SetFunction, Spectrum)):
        kind, masks = "dense", None
        values = fn.values if isinstance(fn, SetFunction) else fn.coeffs
        _check_finite(values, range(values.size))
    elif isinstance(fn, SparseSetFunction):
        order = np.argsort(fn.masks)
        kind, masks, values = "sparse", fn.masks[order], fn.values[order]
    elif isinstance(fn, SparseSpectrum):
        kind, masks, values = "sparse", fn.freqs, fn.coeffs
    else:
        raise TypeError(f"cannot serialize {type(fn).__name__}")
    _write(path, _header(path, fn.ground.n, kind, getattr(fn, "model", None)), masks, values)


def read_setfn(path) -> SetFunction | SparseSetFunction:
    """Read a signal file (model must be none)."""
    rec = parse_setfn(path)
    if rec.model is not None:
        raise SetFnFormatError(path, 4, "expected a signal file, found a spectrum")
    if rec.kind == "dense":
        return SetFunction.wrap(rec.ground, _scatter(rec.ground, rec.masks, rec.values))
    return _built(SparseSetFunction, ground=rec.ground, masks=rec.masks, values=rec.values)


def read_spectrum(path) -> Spectrum:
    """Read a dense spectrum file (model 1..5); sparse spectra densify, and
    refuse n above `DENSE_MAX_N` before they allocate."""
    rec = parse_setfn(path)
    if rec.model is None:
        raise SetFnFormatError(path, 4, "expected a spectrum file, found a signal")
    return Spectrum.wrap(rec.ground, rec.model, _scatter(rec.ground, rec.masks, rec.values))


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
