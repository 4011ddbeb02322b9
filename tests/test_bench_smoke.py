"""The benchmark's workloads at smoke size, in-process.

`bench/workloads.py` calls the library the way the benchmark does; running
its ops and checks here makes a change to a signature it uses fail in the
test suite, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["dense-n21", "oracle-compress", "sparse-sampling", "cli-files"])
def test_workload_ops_pass_their_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.prepare(workload.default_seed, True, str(tmp_path))
    try:
        ran = 0
        for op, thunk in workload.ops(state):
            _, problems = workload.check(op, thunk(), state, True)
            assert problems == [], f"{name} {op}: {problems}"
            ran += 1
    finally:
        state.close()
    assert ran > 0
