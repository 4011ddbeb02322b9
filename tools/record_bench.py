"""Write BENCH_<pr>.json: bench/run.py records of every BENCHMARK.json workload.

    python3 tools/record_bench.py --pr 32

Runs `python3 bench/run.py --workload W --seconds 25 --trace T` from the
repository root for each workload that BENCHMARK.json lists, untraced (T = 0)
and traced (T = 1), one at a time.  Each run keeps its exit code and its last
two stdout lines: the report (machine record, every sample, digests) and the
result (end-to-end metrics; per-layer metrics under --trace 1), each parsed
as JSON where it is JSON and kept as text where it is not.

`parent` is HEAD, the commit the tree under test sits on before it is
committed.  The file has the keys what, command, parent, date, host, runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 bench/run.py --workload W --seconds 25 --trace T"


def _line(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _host(runs: list[dict]) -> str:
    """The machine record of the first run that printed one, in one line."""
    m = next((r["report"]["machine"] for r in runs if isinstance(r["report"], dict)), None)
    if m is None:
        return f"{os.cpu_count()}-vCPU {platform.machine()}, Python {platform.python_version()}"
    return (f"{m['nproc']}-vCPU {m['machine']}, Python {m['python']}, numpy {m['numpy']}, "
            f"{m['blas']} on {m['blas_threads']} thread(s) (set by bench/run.py), "
            f"caches {m['caches']}")


def record() -> list[dict]:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    runs = []
    for workload in workloads:
        for trace in (0, 1):
            argv = [sys.executable, "bench/run.py", "--workload", workload,
                    "--seconds", "25", "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()[-2:]
            report, result = ([None] * (2 - len(lines)) + [_line(s) for s in lines])
            runs.append({"workload": workload, "trace": trace, "exit": done.returncode,
                         "report": report, "result": result})
            print(f"{workload} trace={trace} exit={done.returncode}", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the file BENCH_<pr>.json")
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    runs = record()
    out = {
        "what": "bench/run.py records of the BENCHMARK.json workloads on this commit's "
                "tree: for each run, the report line (machine record, every sample, digests) "
                "and the result line (end-to-end metrics; per-layer metrics under --trace 1)",
        "command": COMMAND,
        "parent": parent,
        "date": time.strftime("%Y-%m-%dT%H:%MZ", time.gmtime()),
        "host": _host(runs),
    }
    # one line per key and per run, as in the committed BENCH_*.json files
    head = json.dumps(out, indent=1)[:-2]
    rows = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in runs)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(head + ',\n "runs": [\n' + rows + "\n ]\n}\n")
    print(path.name, file=sys.stderr)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
