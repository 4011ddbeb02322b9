"""The benchmark's workloads at smoke size, in-process.

`bench/workloads.py` calls the library the way the benchmark does; running
its ops and checks here makes a change to a signature it uses fail in the
test suite, not only in a benchmark run.  Likewise `bench/tracer.py` hooks
some functions by name, and a renamed one would read 0 in its metrics
instead of failing.
"""

import hashlib
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from setsp import coverage, sampling, transforms

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load("bench_workloads", BENCH / "workloads.py")


@pytest.fixture(scope="module")
def tracer():
    yield from _load("bench_tracer", BENCH / "tracer.py")


def test_every_function_the_tracer_names_exists(tracer):
    names = set(tracer.ATTRS)
    names |= {f"io.{name}" for name in tracer.IO_READERS | tracer.IO_WRITERS}
    names |= {f"{layer}.{name}" for layer, extra in tracer.EXTRA.items() for name in extra}
    for name in sorted(names):
        layer, *path = name.split(".")
        assert layer in tracer.LAYERS, name
        obj = importlib.import_module(f"setsp.{layer}")
        for attr in path:
            assert hasattr(obj, attr), f"{name}: setsp.{layer} has no {attr}"
            obj = getattr(obj, attr)
        assert inspect.isfunction(obj), f"{name} is not a function"


def _run_smoke(workload, workdir) -> dict:
    """Every op of the workload at smoke size, checked; each op's digests."""
    state = workload.prepare(workload.default_seed, True, str(workdir))
    digests = {}
    try:
        for op, thunk in workload.ops(state):
            digests[op], problems = workload.check(op, thunk(), state, True)
            assert problems == [], f"{workload.name} {op}: {problems}"
    finally:
        state.close()
    return digests


@pytest.mark.parametrize("name", ["dense-n21", "oracle-compress", "sparse-sampling", "cli-files"])
def test_workload_ops_pass_their_checks(workloads, name, tmp_path):
    assert _run_smoke(workloads.WORKLOADS[name], tmp_path)


def test_dense_ops_give_the_same_bits_in_many_blocks(workloads, tmp_path):
    # the smoke signal has n=10, so blocks of 2**4 put both the transforms'
    # and the direct convolution's taps across blocks
    workload = workloads.WORKLOADS["dense-n21"]
    want = _run_smoke(workload, tmp_path / "one")
    with mock.patch.object(transforms, "_BLOCK_BITS", 4):
        got = _run_smoke(workload, tmp_path / "many")
    assert got == want


@pytest.mark.parametrize("name", ["sparse-sampling", "oracle-compress"])
def test_sparse_ops_give_the_same_bits_through_small_tables(workloads, name, tmp_path):
    # every models-1-4 term through 3-bit tables, 7-probe blocks, one-word
    # groups and 3-byte hit slices (by default the compression band runs on
    # the sweep), and model 5's sweep in blocks of 100 probes
    workload = workloads.WORKLOADS[name]
    want = _run_smoke(workload, tmp_path / "default")
    with mock.patch.multiple(sampling, _TABLE_MIN_CARD=0, _table_bits=lambda size: 3,
                             _TABLE_PROBES=7, _TABLE_WORDS=1, _TABLE_HIT_BYTES=3,
                             _EVAL_CHUNK=100):
        got = _run_smoke(workload, tmp_path / "small")
    assert got == want


def test_oracle_ops_give_the_same_bits_in_small_entropy_blocks(workloads, tmp_path):
    # 7-mask blocks split the smoke oracle's cardinality groups into many
    # blocks, most groups ending in a partial one
    workload = workloads.WORKLOADS["oracle-compress"]
    want = _run_smoke(workload, tmp_path / "default")
    with mock.patch.object(coverage, "_ENTROPY_BLOCK", 7):
        got = _run_smoke(workload, tmp_path / "small")
    assert got == want


def test_oracle_ops_give_the_same_bits_in_small_sign_sweep_blocks(workloads, tmp_path):
    # the WHT fit's band keeps 3 sign planes in blocks of 5 probes, and its
    # other recurring steps build theirs in the scratch plane
    workload = workloads.WORKLOADS["oracle-compress"]
    want = _run_smoke(workload, tmp_path / "default")
    with mock.patch.multiple(sampling, _SIGN_PLANES=3, _SIGN_PLANE_BYTES=3 * 8 * 5):
        got = _run_smoke(workload, tmp_path / "small")
    assert got == want


# sha256 of the setfn files that the `cli-files` smoke ops write, recorded
# with numpy 2.4.6 on a 2-vCPU Xeon before the sparse set function held
# arrays.  Criterion 13 compares two runs of one commit, so this is the
# check that a change keeps the bytes of an earlier one.  `error` and
# `compress` write CSVs through BLAS norms, whose bits depend on the thread
# count, so they are left out.
CLI_FILES_SMOKE_SHA256 = {
    "generate": "f6353857fd797b028e97739cd57f1e9c29d6b256305097d2254914e630208acf",
    "transform": "6900173730958a3b8188e5cc85535816736d8615ea7cc1f345bdd311e19304ad",
    "inverse": "930b4974153292da919f87aebfe3c9c3584fcbddb567e4804d448b0c2ccb76c9",
    "convolve": "990e2fff2fe5e4926827ac0dc668d1a0c97008e1ca8479dba8ff0b3015814b89",
    "freqresp": "3ee40cb8be1fca0e271736378771b377871522dbe749157192a251a2686ff7a2",
    "sample": "211f5ec1291653d3a91dd73cc9fe970d9e9a3d735b60150e9e323128fa536e1c",
}
# sha256 of the set-up files that `sampling.save_sparse_spectrum` and
# `sampling.save_support` write, recorded the same way before sparse spectra
# took (frequency, coefficient) pairs.
CLI_FILES_SETUP_SHA256 = {
    "bidder.setfn": "34640e0c8beb335acc56505ad4c707ea84fb343fd2481bc33ffb6a2372959263",
    "support.setfn": "546fe285bf2f1e2411c6fa884c7b8421a984e03d4809816495eff65c1e8fc1de",
}


def test_cli_files_smoke_outputs_keep_their_bytes(workloads, tmp_path):
    workload = workloads.WORKLOADS["cli-files"]
    state = workload.prepare(workload.default_seed, True, str(tmp_path / "setup"))
    try:
        setup = {name: hashlib.sha256(Path(state.inputs["path"][name]).read_bytes()).hexdigest()
                 for name in CLI_FILES_SETUP_SHA256}
    finally:
        state.close()
    assert setup == CLI_FILES_SETUP_SHA256
    digests = _run_smoke(workload, tmp_path / "ops")
    assert {op: digests[op]["sha256"] for op in CLI_FILES_SMOKE_SHA256} == CLI_FILES_SMOKE_SHA256


# The `cli-files` job at full size (n=16 files of 65,536 lines, several writer
# blocks each), checked and digested in a fresh interpreter with one BLAS
# thread, as `bench/run.py` runs it.
_FULL_SIZE_JOB = """
import json, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
workload = WORKLOADS["cli-files"]
state = workload.prepare(workload.default_seed, False, sys.argv[2])
digests = {}
try:
    for op, thunk in workload.ops(state):
        record, problems = workload.check(op, thunk(), state, True)
        digests[op] = {"sha256": record["sha256"], "problems": problems}
finally:
    state.close()
print(json.dumps(digests))
"""


def test_cli_files_full_size_outputs_match_the_benchmark_reference(one_blas_thread, tmp_path):
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        want = json.load(fh)["cli-files"]
    got = json.loads(one_blas_thread("-c", _FULL_SIZE_JOB, str(BENCH), str(tmp_path)))
    assert {op: record["problems"] for op, record in got.items()} == {op: [] for op in want}
    assert {op: {"sha256": record["sha256"]} for op, record in got.items()} == want
