#!/usr/bin/env python3
"""Wall time and peak RSS of 2-D ``pixelation-convergence`` ladders by depth.

Each ladder of the misaligned 2-D pair runs in a fresh child interpreter
(through ``frgeo.cli.entry``, the ``frgeo`` entry point), so its
``ru_maxrss`` is that run's own peak and not a high-water mark left by an
earlier, larger run.  A ladder summary holds the deepest level's state, so
memory should follow the deepest level.  Exits non-zero if any run fails.

    python3 benchmarks/bench_ladder.py
    python3 benchmarks/bench_ladder.py --levels 3-6 3-8
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_ladder(levels: str, out: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and the child's ru_maxrss in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-c", "from frgeo.cli import entry; entry()", "pixelation-convergence",
        "f0=misaligned_f0_2d", "g0=misaligned_g0_2d", f"levels={levels}",
        "--out", str(out),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", nargs="+", default=["3-6", "3-8", "3-10"])
    args = ap.parse_args()
    failed = 0
    print(f"{'levels':>8} {'wall_s':>8} {'maxrss_mb':>10} exit")
    with tempfile.TemporaryDirectory() as tmp:
        for levels in args.levels:
            code, wall, rss = run_ladder(levels, Path(tmp) / levels)
            print(f"{levels:>8} {wall:8.3f} {rss:10.1f} {code}", flush=True)
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
