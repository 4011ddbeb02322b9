import os
import subprocess
import sys
from pathlib import Path

import pytest

import setsp


@pytest.fixture
def one_blas_thread():
    """Runs `python ARGS...` in a fresh interpreter with one BLAS thread and
    returns its stdout.  Golden float bits need it: norms and least-squares
    solves sum in another order when BLAS runs more threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=str(Path(setsp.__file__).resolve().parents[1]))

    def run(*args: str) -> str:
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout

    return run
