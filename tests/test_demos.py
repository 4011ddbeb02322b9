"""Each demo script runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import setsp

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would leave `test_demo_runs` with no case, which pytest skips
    assert DEMOS, "no demo script under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(setsp.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
