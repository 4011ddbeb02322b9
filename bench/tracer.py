"""In-memory span tracing of the setsp layers, applied from outside the package.

`Tracer.install()` wraps the public functions (and the public methods of the
public classes) of each traced module, and rebinds every `setsp.*` module
attribute that refers to a wrapped function, so calls made through names
imported into other modules (`from .transforms import dsft_inplace`) are
traced too.  `core` is left alone: its helpers run per element inside the
other layers, and their cost belongs to their callers' self time.

A span is (name, layer, parent, start, end, attrs).  A layer's self time is
the time of its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("transforms", "filters", "coverage", "compression", "sampling",
          "experiments", "io", "cli")

# Private functions that are traced because they are the only place where the
# convolution path chosen by `convolve(path="auto")` is visible.
EXTRA = {"filters": ("_convolve_direct", "_convolve_spectral")}

IO_READERS = {"parse_setfn", "read_setfn", "read_spectrum", "read_covariance"}
IO_WRITERS = {"write_entries", "write_setfn", "write_covariance"}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _attrs_dsft_inplace(args, kwargs, result):
    values = args[0]
    return {"model": int(_arg(args, kwargs, 1, "model")),
            "direction": _arg(args, kwargs, 2, "direction", "forward"),
            "n": int(values.shape[0]).bit_length() - 1,
            "size": int(values.size),
            "additions": int(result)}


def _attrs_query(args, kwargs, result):
    return {"queries": int(np.size(result))}


def _attrs_entropy(args, kwargs, result):
    model = args[0]
    masks = np.asarray(_arg(args, kwargs, 1, "masks", _arg(args, kwargs, 1, "A")))
    # the model is kept so that its id cannot be reused while the trace lives
    return {"model": model, "masks": masks}


def _attrs_io(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)}


def _attrs_cli_main(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
    return {"command": argv[0]}


ATTRS = {
    "transforms.dsft_inplace": _attrs_dsft_inplace,
    "compression.SetFunctionOracle.query": _attrs_query,
    "compression.SetFunctionOracle.query_many": _attrs_query,
    "coverage.gaussian_entropy": _attrs_entropy,
    "coverage.gaussian_entropy_many": _attrs_entropy,
    "cli.main": _attrs_cli_main,
}
ATTRS.update({f"io.{name}": _attrs_io for name in IO_READERS | IO_WRITERS})


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        attrs_fn = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, layer, parent, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if attrs_fn is not None:
                record[5] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"setsp.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if inspect.isfunction(obj) and public:
                    wrapped = self._wrap(f"{layer}.{attr}", layer, obj)
                    replaced[id(obj)] = wrapped
                elif inspect.isclass(obj) and public:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth,
                                      self._wrap(f"{layer}.{attr}.{meth}", layer, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "setsp" and not mod_name.startswith("setsp."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _has_ancestor(spans, index, predicate) -> bool:
    parent = spans[index][2]
    while parent >= 0:
        if predicate(spans[parent]):
            return True
        parent = spans[parent][2]
    return False


def stream_pass_s(size: int, repeats: int = 3) -> float:
    """Median time of one in-place streaming read+write pass over `size`
    float64 values: the memory floor of one transform stage."""
    a = np.ones(size)
    times = []
    for _ in range(repeats + 1):
        started = time.perf_counter()
        np.negative(a, out=a)
        times.append(time.perf_counter() - started)
    return float(np.median(times[1:]))


def floor_metrics(ldim: int, bandwidth_mib: int) -> dict[str, float]:
    """`floor.stream24_s`: `ldim` passes over a 2**ldim array (the transform
    floor); `floor.mem_gbs`: read+write bandwidth over an array far larger
    than the last-level cache."""
    stream = ldim * stream_pass_s(1 << ldim)
    size = bandwidth_mib * (1 << 20) // 8
    mem_gbs = 2.0 * 8 * size / stream_pass_s(size) / 1e9
    return {"floor.stream24_s": stream, "floor.mem_gbs": mem_gbs}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ratio"):
        return "ratio"
    for suffix, unit_ in (("_mb_per_s", "MB/s"), ("_gbs", "GB/s"), ("_us_per_mask", "us"),
                          ("_s", "s")):
        if name.endswith(suffix):
            return unit_
    return "B" if name.startswith("io.bytes_") else "count"


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job (busy seconds, exact counts).

    Transform floor ratios compare busy time with n streaming passes over an
    array of the call's size, measured here."""
    child_time = [0.0] * len(spans)
    for name, layer, parent, start, end, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    incl: dict[str, float] = {}  # per span name: total time, own time, calls
    name_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, layer, parent, start, end, attrs) in enumerate(spans):
        own = end - start - child_time[i]
        self_s[layer] += own
        incl[name] = incl.get(name, 0.0) + (end - start)
        name_self[name] = name_self.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    m: dict[str, float] = {}

    # transforms
    pair_s: dict[tuple[int, str], float] = {}
    pair_sizes: dict[tuple[int, str], list[tuple[int, int]]] = {}
    additions = 0
    for name, layer, parent, start, end, attrs in spans:
        if name == "transforms.dsft_inplace":
            key = (attrs["model"], attrs["direction"])
            pair_s[key] = pair_s.get(key, 0.0) + end - start
            pair_sizes.setdefault(key, []).append((attrs["n"], attrs["size"]))
            additions += attrs["additions"]
    pass_s = {size: stream_pass_s(size)
              for calls_ in pair_sizes.values() for _, size in calls_}
    for model in range(1, 6):
        for direction in ("forward", "inverse"):
            key = (model, direction)
            busy = pair_s.get(key, 0.0)
            floor = sum(n * pass_s[size] for n, size in pair_sizes.get(key, ()))
            m[f"transforms.m{model}.{direction}_s"] = busy
            m[f"transforms.m{model}.{direction}.floor_ratio"] = busy / floor if floor else 0.0
    m["transforms.calls"] = calls.get("transforms.dsft_inplace", 0)
    m["transforms.additions"] = additions
    m["transforms.self_s"] = self_s["transforms"]

    # filters
    m["filters.convolve_direct_s"] = incl.get("filters._convolve_direct", 0.0)
    m["filters.convolve_spectral_s"] = incl.get("filters._convolve_spectral", 0.0)
    m["filters.frequency_response_s"] = incl.get("filters.frequency_response", 0.0)
    m["filters.self_s"] = self_s["filters"]

    # coverage: Gaussian entropy evaluations, grouped by oracle model
    masks_by_model: dict[int, list[np.ndarray]] = {}
    entropy_s = 0.0
    entropy_calls = 0
    for name, layer, parent, start, end, attrs in spans:
        if name in ("coverage.gaussian_entropy", "coverage.gaussian_entropy_many"):
            entropy_calls += 1
            entropy_s += end - start
            masks_by_model.setdefault(id(attrs["model"]), []).append(attrs["masks"].ravel())
    total_masks = sum(a.size for parts in masks_by_model.values() for a in parts)
    distinct = sum(np.unique(np.concatenate(parts)).size
                   for parts in masks_by_model.values())
    m["coverage.entropy_calls"] = entropy_calls
    m["coverage.entropy_masks"] = total_masks
    m["coverage.entropy_s"] = entropy_s
    m["coverage.entropy_us_per_mask"] = 1e6 * entropy_s / total_masks if total_masks else 0.0
    m["coverage.entropy_unique_ratio"] = distinct / total_masks if total_masks else 0.0

    # compression and sampling; oracle queries are counted where the oracle
    # answers them, and attributed to sampling inside `reconstruct`
    all_queries = 0
    sampling_queries = 0
    for i, (name, layer, parent, start, end, attrs) in enumerate(spans):
        if name.startswith("compression.SetFunctionOracle.query"):
            all_queries += attrs["queries"]
            if _has_ancestor(spans, i, lambda s: s[0] == "sampling.reconstruct"):
                sampling_queries += attrs["queries"]
    m["compression.compress_band_s"] = incl.get("compression.compress_band", 0.0)
    m["compression.wht_regression_s"] = incl.get("compression.wht_regression", 0.0)
    m["compression.eval_bandlimited_s"] = (incl.get("compression.eval_bandlimited", 0.0)
                                           + incl.get("compression.eval_bandlimited_many", 0.0))
    m["compression.estimate_error.self_s"] = name_self.get(
        "compression.estimate_relative_error", 0.0)
    m["compression.oracle_queries"] = all_queries
    m["sampling.reconstruct_s"] = incl.get("sampling.reconstruct", 0.0)
    m["sampling.eval_sparse_s"] = (incl.get("sampling.eval_sparse", 0.0)
                                   + incl.get("sampling.eval_sparse_many", 0.0))
    m["sampling.select_support_s"] = incl.get("sampling.select_support", 0.0)
    m["sampling.to_setfunction_s"] = incl.get("sampling.SparseSpectrum4.to_setfunction", 0.0)
    m["sampling.oracle_queries"] = sampling_queries

    # experiments
    m["experiments.compression.self_s"] = name_self.get(
        "experiments.compression_experiment", 0.0)
    m["experiments.sampling_s"] = incl.get("experiments.sampling_experiment", 0.0)
    m["experiments.sampling.self_s"] = name_self.get("experiments.sampling_experiment", 0.0)

    # io: outermost reader and writer spans, so nested calls count once
    io_s = {"read": 0.0, "write": 0.0}
    io_bytes = {"read": 0, "write": 0}
    for i, (name, layer, parent, start, end, attrs) in enumerate(spans):
        if layer != "io" or _has_ancestor(spans, i, lambda s: s[1] == "io"):
            continue
        short = name.split(".", 1)[1]
        kind = "read" if short in IO_READERS else "write" if short in IO_WRITERS else None
        if kind is not None:
            io_s[kind] += end - start
            io_bytes[kind] += attrs["bytes"]
    m["io.parse_s"] = io_s["read"]
    m["io.write_s"] = io_s["write"]
    m["io.parse_mb_per_s"] = io_bytes["read"] / io_s["read"] / 1e6 if io_s["read"] else 0.0
    m["io.write_mb_per_s"] = io_bytes["write"] / io_s["write"] / 1e6 if io_s["write"] else 0.0
    m["io.bytes_read"] = io_bytes["read"]
    m["io.bytes_written"] = io_bytes["write"]

    # cli: one busy time per subcommand, from the `main` spans
    for command in ("generate", "transform", "convolve", "freqresp", "sample",
                    "error", "compress"):
        m[f"cli.{command}_s"] = 0.0
    for name, layer, parent, start, end, attrs in spans:
        if name == "cli.main":
            m[f"cli.{attrs['command']}_s"] += end - start
    m["cli.self_s"] = self_s["cli"]
    return m
