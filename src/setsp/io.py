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
`model` is none for signals and 1..5 for spectra.  Values are written with
repr(), so a write/read round trip reproduces the exact float64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DENSE_MAX_N,
    MAX_N,
    GroundSet,
    SetFunction,
    SparseSetFunction,
    Spectrum,
)

MAGIC = "setfn v1"


class SetFnFormatError(ValueError):
    """Malformed set-function file; carries the offending line number."""

    def __init__(self, path, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass(frozen=True)
class SetFnFile:
    """Parsed and validated contents of a setfn v1 file."""

    n: int
    kind: str  # "dense" | "sparse"
    model: int | None  # None for signals, 1..5 for spectra
    pairs: list[tuple[int, float]]  # (mask, value) in file order

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.n)

    def entries(self) -> dict[int, float]:
        return dict(self.pairs)

    def dense_values(self) -> np.ndarray:
        values = np.zeros(1 << self.n)
        for mask, value in self.pairs:
            values[mask] = value
        return values


def parse_setfn(path) -> SetFnFile:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def fail(line_no: int, message: str):
        raise SetFnFormatError(path, line_no, message)

    if len(lines) < 4:
        fail(len(lines) + 1, "truncated header (need 4 header lines)")
    if lines[0].strip() != MAGIC:
        fail(1, f"expected '{MAGIC}', got {lines[0]!r}")

    fields = {}
    for line_no, key in ((2, "n"), (3, "kind"), (4, "model")):
        parts = lines[line_no - 1].split()
        if len(parts) != 2 or parts[0] != key:
            fail(line_no, f"expected '{key} <value>', got {lines[line_no - 1]!r}")
        fields[key] = parts[1]

    try:
        n = int(fields["n"])
    except ValueError:
        fail(2, f"n is not an integer: {fields['n']!r}")
    kind = fields["kind"]
    if kind not in ("dense", "sparse"):
        fail(3, f"kind must be dense or sparse, got {kind!r}")
    limit = DENSE_MAX_N if kind == "dense" else MAX_N
    if not 0 <= n <= limit:
        fail(2, f"n={n} exceeds bound {limit} for kind {kind}")
    model_text = fields["model"]
    if model_text == "none":
        model = None
    elif model_text in ("1", "2", "3", "4", "5"):
        model = int(model_text)
    else:
        fail(4, f"model must be none or 1..5, got {model_text!r}")

    size = 1 << n
    pairs: list[tuple[int, float]] = []
    seen: set[int] = set()
    for line_no, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            fail(line_no, f"expected '<mask> <value>', got {line!r}")
        try:
            mask = int(parts[0])
        except ValueError:
            fail(line_no, f"mask is not an integer: {parts[0]!r}")
        if not 0 <= mask < size:
            fail(line_no, f"mask {mask} out of range for n={n}")
        if mask in seen:
            fail(line_no, f"duplicate mask {mask}")
        seen.add(mask)
        try:
            value = float(parts[1])
        except ValueError:
            fail(line_no, f"value is not a number: {parts[1]!r}")
        if not math.isfinite(value):
            fail(line_no, f"value is not finite: {parts[1]!r}")
        pairs.append((mask, value))

    if kind == "dense" and len(pairs) != size:
        fail(len(lines) + 1, f"dense file must list all {size} masks, got {len(pairs)}")
    return SetFnFile(n=n, kind=kind, model=model, pairs=pairs)


def write_entries(path, n: int, kind: str, model: int | None, pairs) -> None:
    """Low-level writer; `pairs` is an iterable of (mask, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC}\n")
        fh.write(f"n {n}\n")
        fh.write(f"kind {kind}\n")
        fh.write(f"model {'none' if model is None else model}\n")
        for mask, value in pairs:
            fh.write(f"{int(mask)} {float(value)!r}\n")


def write_setfn(path, fn) -> None:
    """Write a SetFunction, SparseSetFunction, or Spectrum."""
    if isinstance(fn, SetFunction):
        write_entries(path, fn.ground.n, "dense", None, enumerate(fn.values))
    elif isinstance(fn, SparseSetFunction):
        pairs = sorted(fn.entries.items())
        write_entries(path, fn.ground.n, "sparse", None, pairs)
    elif isinstance(fn, Spectrum):
        write_entries(path, fn.ground.n, "dense", fn.model, enumerate(fn.coeffs))
    else:
        raise TypeError(f"cannot serialize {type(fn).__name__}")


def read_setfn(path) -> SetFunction | SparseSetFunction:
    """Read a signal file (model must be none)."""
    rec = parse_setfn(path)
    if rec.model is not None:
        raise SetFnFormatError(path, 4, "expected a signal file, found a spectrum")
    if rec.kind == "dense":
        return SetFunction.wrap(rec.ground, rec.dense_values())
    return SparseSetFunction(rec.ground, rec.entries())


def read_spectrum(path) -> Spectrum:
    """Read a dense spectrum file (model 1..5); sparse spectra densify."""
    rec = parse_setfn(path)
    if rec.model is None:
        raise SetFnFormatError(path, 4, "expected a spectrum file, found a signal")
    return Spectrum.wrap(rec.ground, rec.model, rec.dense_values())


def read_covariance(path) -> np.ndarray:
    """Read an n x n covariance matrix from CSV."""
    K = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if K.shape[0] != K.shape[1]:
        raise ValueError(f"covariance must be square, got shape {K.shape}")
    return K


def write_covariance(path, K: np.ndarray) -> None:
    K = np.asarray(K, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in K:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
