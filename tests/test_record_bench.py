import importlib.util
import json
import os
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)

MACHINE = {"nproc": 2, "machine": "x86_64", "python": "3.12.1", "numpy": "2.4.6",
           "blas": "openblas", "blas_threads": 1, "caches": "L2 2048K"}


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """record_bench on a stub repository of workloads a and b, with
    subprocess.run answering git and each bench run from canned lines;
    the runs of the workloads in `failed` exit 1 after a traceback."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "a", "why": "stub"}, {"name": "b", "why": "stub"}]}))
    failed, argvs = set(), []

    def run(argv, cwd, **kwargs):
        argvs.append((list(argv), cwd))
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="0123abc\n")
        workload, trace = argv[argv.index("--workload") + 1], argv[argv.index("--trace") + 1]
        if workload in failed:
            return subprocess.CompletedProcess(argv, 1, stdout="Traceback\nValueError: bad\n")
        report = {"workload": workload, "machine": MACHINE}
        result = {"workload": workload, "trace": int(trace), "run_s": 0.25}
        return subprocess.CompletedProcess(
            argv, 0, stdout=f"warming up\n{json.dumps(report)}\n{json.dumps(result)}\n")

    monkeypatch.setattr(record_bench, "ROOT", tmp_path)
    monkeypatch.setattr(record_bench, "subprocess", SimpleNamespace(run=run))
    return SimpleNamespace(root=tmp_path, failed=failed, argvs=argvs)


def test_each_workload_runs_untraced_then_traced_one_line_per_run(bench):
    assert record_bench.main(["--pr", "7"]) == 0
    text = (bench.root / "BENCH_7.json").read_text()
    record = json.loads(text)
    assert list(record) == ["what", "command", "parent", "date", "host", "runs"]
    assert record["parent"] == "0123abc"
    assert record["command"] == record_bench.COMMAND
    assert record["host"].startswith("2-vCPU x86_64, Python 3.12.1, numpy 2.4.6, openblas")
    assert [(r["workload"], r["trace"], r["exit"]) for r in record["runs"]] == [
        ("a", 0, 0), ("a", 1, 0), ("b", 0, 0), ("b", 1, 0)]
    assert record["runs"][1]["report"] == {"workload": "a", "machine": MACHINE}
    assert record["runs"][1]["result"] == {"workload": "a", "trace": 1, "run_s": 0.25}
    runs = [line for line in text.splitlines() if line.startswith('  {"workload"')]
    assert [json.loads(line.rstrip(",")) for line in runs] == record["runs"]
    bench_argvs = [(argv[1:], cwd) for argv, cwd in bench.argvs if argv[0] != "git"]
    assert bench_argvs[0] == (["bench/run.py", "--workload", "a", "--seconds", "25",
                               "--trace", "0"], bench.root)


def test_a_failed_run_keeps_its_lines_as_text_and_exits_1(bench):
    bench.failed.add("a")
    assert record_bench.main(["--pr", "8"]) == 1
    record = json.loads((bench.root / "BENCH_8.json").read_text())
    assert [(r["workload"], r["exit"]) for r in record["runs"]] == [
        ("a", 1), ("a", 1), ("b", 0), ("b", 0)]
    assert record["runs"][0]["report"] == "Traceback"
    assert record["runs"][0]["result"] == "ValueError: bad"
    # the machine record comes from the first run that printed one
    assert record["host"].startswith("2-vCPU x86_64, Python 3.12.1")


def test_the_host_falls_back_to_this_machine_when_no_run_printed_a_report(bench):
    bench.failed.update({"a", "b"})
    assert record_bench.main(["--pr", "9"]) == 1
    host = json.loads((bench.root / "BENCH_9.json").read_text())["host"]
    assert host.startswith(f"{os.cpu_count()}-vCPU ") and ", Python " in host
    assert record_bench._host([{"report": None}]) == host
