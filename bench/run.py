"""Benchmark runner for setsp.

    python3 bench/run.py --workload dense-n21 --seed 1012 --seconds 25 --trace 0
    python3 bench/run.py --workload all        # table of every workload
    python3 bench/run.py --selftest            # smoke sizes, every code path

The package is imported from the `src/` beside this directory.  One
process runs one workload, single-threaded and closed-loop: each library call
starts after the previous one returns.  BLAS runs one thread.

The set-up and the job are repeated while the next repetition still fits in
`--seconds` (at least once).  Every op and every set-up is timed between two
runs of a fixed probe loop, and its time is expressed in reference seconds:
measured time over the probe's time around it, times the probe's time on the
reference host.  `run_s` and `cpu_s` sum each op's median over the
repetitions, and `setup_s` is the median set-up.  With `--trace 1` one traced
repetition follows, and gives the per-layer metrics (see tracer.py).

The last stdout line is the JSON result; the line before it is a report with
the machine record, the repetition times and every output's digest.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: a second one brings the workloads no speed on two vCPUs,
# and on a shared host it waits for whichever thread a co-tenant delays.
# Set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dense-n21", "oracle-compress", "sparse-sampling", "cli-files")
END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Median wall and CPU seconds of one `SpeedProbe` call on the reference host
# (2-vCPU Xeon, numpy 2.4.6); they turn probe-relative times into seconds.
PROBE_REFERENCE_S = (0.020, 0.020)


class SpeedProbe:
    """A fixed mix of interpreter, in-cache numpy, L3-streaming and small
    LAPACK work, timed around every measured interval.

    The speed a shared host gives one process drifts by tens of percent over
    minutes, and the drift moves the probe and the workloads together; dividing
    by the probe's time measured just before and just after an interval takes
    most of it out.  The probe touches no setsp code, so a change to the
    package cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(1 << 17)  # 1 MiB, inside L2
        self.large = rng.standard_normal(1 << 21)  # 16 MiB, beyond L2
        m = rng.standard_normal((2000, 12, 12))
        self.spd = m @ m.transpose(0, 2, 1) + 12 * np.eye(12)
        self()

    def __call__(self) -> tuple[float, float]:
        started, cpu_started = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(150_000):
            acc += i & 7
        for _ in range(40):
            np.negative(self.small, out=self.small)
        for _ in range(3):
            np.negative(self.large, out=self.large)
        np.linalg.cholesky(self.spd)
        return time.perf_counter() - started, time.process_time() - cpu_started


def import_seconds(samples: int = 5) -> float:
    """Fastest of `samples` fresh imports of setsp (numpy already loaded).

    Each sample drops the setsp modules from `sys.modules`, imports them again
    and then puts the original modules back, so the objects the workloads and
    the tracer hold stay the ones in use."""
    loaded = {name: mod for name, mod in sys.modules.items()
              if name == "setsp" or name.startswith("setsp.")}
    times = []
    try:
        for _ in range(samples):
            for name in loaded:
                sys.modules.pop(name, None)
            started = time.perf_counter()
            importlib.import_module("setsp")
            times.append(time.perf_counter() - started)
    finally:
        for name in [n for n in sys.modules if n == "setsp" or n.startswith("setsp.")]:
            del sys.modules[name]
        sys.modules.update(loaded)
    return min(times)


def import_setsp() -> None:
    sys.path.insert(0, str(SRC))
    import setsp

    if Path(setsp.__file__).resolve().parent != (SRC / "setsp").resolve():
        raise ImportError(f"setsp was imported from {setsp.__file__}, not from {SRC}")


def machine_record() -> dict:
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "machine": platform.machine()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = None
    record["blas_threads"] = _openblas_threads()
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    record["caches"] = caches
    l3 = _size_bytes(caches.get("L3"))
    # dense float64 working arrays against the last-level cache
    record["array_over_l3"] = {f"n{n}": (8 << n) / l3 if l3 else None for n in (21, 24)}
    return record


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def probed(probe: SpeedProbe, before: tuple[float, float], started: tuple[float, float]):
    """(wall, CPU, probe wall, probe CPU) seconds of an interval that began at
    `started` (perf_counter, process_time) after the probe `before`; the probe
    runs again now, and the two probe times are averaged."""
    wall, cpu = time.perf_counter() - started[0], time.process_time() - started[1]
    after = probe()
    return wall, cpu, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2


def clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def run_job(workload, state, full_checks: bool, probe: SpeedProbe):
    """One repetition of the workload's job; only the library calls are timed,
    each between two probes.

    Returns the (wall, CPU, probe wall, probe CPU) seconds of each op, one
    record per op, and the problems of each failed op (an exception or a wrong
    output)."""
    times, records, problems = {}, {}, {}
    for name, thunk in workload.ops(state):
        before = probe()
        started = clocks()
        try:
            out = thunk()
        except Exception:  # a failed operation is counted, and the run goes on
            problems[name] = [traceback.format_exc(limit=3)]
        times[name] = probed(probe, before, started)
        if name in problems:
            continue
        try:
            records[name], found = workload.check(name, out, state, full_checks)
        except Exception:
            problems[name] = [traceback.format_exc(limit=3)]
            continue
        if found:
            problems[name] = found
    return times, records, problems


def reference_seconds(sample: tuple, which: int) -> float:
    """A (wall, CPU, probe wall, probe CPU) sample in reference seconds
    (0: wall, 1: CPU)."""
    return sample[which] / sample[2 + which] * PROBE_REFERENCE_S[which]


def job_seconds(reps: list[dict], which: int) -> float:
    """Job time as the sum over ops of each op's median over the repetitions,
    in reference seconds (0: wall, 1: CPU)."""
    return sum(statistics.median(reference_seconds(rep[op], which) for rep in reps)
               for op in reps[0])


def compare_reference(records: dict, reference: dict) -> dict[str, list[str]]:
    """Digests and counts must match exactly, errors to 1e-9 relative."""
    problems = {}
    for op, want in reference.items():
        got = records.get(op, {})
        for key, value in want.items():
            have = got.get(key)
            if isinstance(value, float):
                ok = isinstance(have, float) and abs(have - value) <= 1e-9 * abs(value) + 1e-15
            else:
                ok = have == value
            if not ok:
                problems.setdefault(op, []).append(f"{key} {have!r} != reference {value!r}")
    return problems


def additions_problems(spans) -> list[str]:
    """Every traced transform call must report the closed-form count."""
    problems = []
    for name, _, _, _, _, attrs in spans:
        if name == "transforms.dsft_inplace":
            n, size, model = attrs["n"], attrs["size"], attrs["model"]
            want = n * size if model == 5 else n * size // 2
            if attrs["additions"] != want:
                problems.append(f"m{model} n={n}: {attrs['additions']} additions, want {want}")
    return problems


class Outcome:
    """Operations attempted and the problems of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.problems: dict[str, list[str]] = {}

    def add(self, label: str, ops: int, problems: dict[str, list[str]]) -> None:
        self.attempted += ops
        for op, items in problems.items():
            self.problems.setdefault(f"{label}/{op}", []).extend(items)


def measure(args) -> int:
    try:
        import_setsp()
    except ImportError as exc:
        print(f"cannot import setsp from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    outcome = Outcome()
    probe = SpeedProbe()
    state, setups, reps, first = None, [], [], None
    started = time.perf_counter()
    try:
        # Every repetition gets its own set-up, so set-up samples are spread
        # over the run like the job samples are.
        while True:
            if state is not None:
                state.close()
                state = None
            gc.collect()
            before = probe()
            import_s = import_seconds()
            prepare_started = clocks()
            state = workload.prepare(seed, args.smoke, str(ROOT / ".bench_work"))
            prepare_s, _, probe_s, probe_cpu_s = probed(probe, before, prepare_started)
            setups.append((import_s + prepare_s, 0.0, probe_s, probe_cpu_s))

            times, records, problems = run_job(workload, state, first is None, probe)
            if first is None:
                first = records
                if seed == workload.default_seed and not args.smoke:
                    with open(HERE / "reference.json") as fh:
                        reference = json.load(fh)[workload.name]
                    for op, items in compare_reference(records, reference).items():
                        problems.setdefault(op, []).extend(items)
            else:
                for op in records:
                    if records[op] != first.get(op):
                        problems.setdefault(op, []).append("output differs from repetition 1")
            outcome.add(f"rep{len(reps) + 1}", len(times), problems)
            reps.append(times)
            if len(reps) == 1:
                # later repetitions only add allocator fragmentation, and their
                # number depends on the host's speed
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(reps) > args.seconds:
                break

        run_s = job_seconds(reps, 0)
        metrics = {
            "run_s": run_s,
            "cpu_s": job_seconds(reps, 1),
            "setup_s": statistics.median(reference_seconds(s, 0) for s in setups),
            "peak_rss_mib": peak_rss_mib,
        }
        if args.trace:
            spans = tracer.Tracer()
            with spans:
                times, records, problems = run_job(workload, state, False, probe)
            traced_s = sum(reference_seconds(sample, 0) for sample in times.values())
            for op in records:
                if records[op] != first.get(op):
                    problems.setdefault(op, []).append("traced output differs from untraced")
            additions = additions_problems(spans.spans)
            if additions:
                problems.setdefault("additions", []).extend(additions)
            outcome.add("traced", len(times), problems)
            metrics = tracer.layer_metrics(spans.spans)
            del spans
            gc.collect()
            metrics.update(tracer.floor_metrics(ldim=10 if args.smoke else 24,
                                                bandwidth_mib=16 if args.smoke else 512))
            metrics["trace.overhead_s"] = traced_s - run_s
    finally:
        if state is not None:
            state.close()

    failed = len(outcome.problems)
    report = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "smoke": args.smoke, "machine": machine_record(),
              "repetitions": reps, "setups": setups,
              "wall_run_s": sum(statistics.median(rep[op][0] for rep in reps) for op in reps[0]),
              "probe_s": statistics.median(rep[op][2] for rep in reps for op in rep),
              "fail_ratio": failed / outcome.attempted, "problems": outcome.problems,
              "digests": first}
    print(json.dumps(report))
    units = tracer.unit if args.trace else END_TO_END_UNITS.get
    print(json.dumps({
        "correct": failed == 0, "attempted": outcome.attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units(k)} for k, v in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed, seconds: int, trace: int, smoke: bool) -> dict:
    """Run one workload in its own process and return its result line."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def table(args) -> int:
    """Every workload's end-to-end metrics and fail ratio, with units."""
    print(f"{'workload':<16} {'run_s':>9} {'cpu_s':>9} {'setup_s':>9} "
          f"{'peak_rss_mib':>13} {'fail_ratio':>11}")
    for name in WORKLOAD_NAMES:
        result = run_child(name, args.seed, args.seconds, 0, args.smoke)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{name:<16} {m['run_s']:>7.3f} s {m['cpu_s']:>7.3f} s {m['setup_s']:>7.3f} s "
              f"{m['peak_rss_mib']:>9.1f} MiB {result['failed'] / result['attempted']:>11.4f}")
    return 0


def selftest(args) -> int:
    """Smoke-size run of every workload, untraced and traced: each metric that
    BENCHMARK.json lists is emitted with its unit, and no operation fails."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_child(name, None, 1, trace, True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            faults = []
            if got != declared[trace]:
                faults.append(f"metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            if result["failed"] or not result["correct"]:
                faults.append(f"{result['failed']} of {result['attempted']} operations failed")
            bad += bool(faults)
            print(f"{name:<16} trace={trace} {'ok' if not faults else '; '.join(faults)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's acceptance-test seed)")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.workload == "all":
        return table(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
