"""Smoke runs of the scripts in ``benchmarks/`` at their smallest sizes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# each script's smallest run; together about 4 s
SMALLEST = {
    "bench_frames.py": ["--cases", "staggered32:5", "--repeat", "1"],
    "bench_kernels.py": ["--n", "2", "--step", "1e-2", "--repeats", "1"],
    "bench_ladder.py": ["--levels", "3-6"],
    "bench_oracle.py": ["--n", "2", "--step", "1e-2", "--repeats", "1"],
}


def test_every_script_has_a_smoke_run():
    assert sorted(p.name for p in BENCHMARKS.glob("*.py")) == sorted(SMALLEST)


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_script_runs_from_a_checkout(tmp_path, script):
    # as README runs them: no PYTHONPATH, from outside the source tree
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), *SMALLEST[script]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
