#!/usr/bin/env python3
"""Wall time and peak RSS of 2-D ``pixelation-convergence`` ladders by depth,
and the time of the catalog overlay by catalog size.

Each ladder of the misaligned 2-D pair runs in a fresh child interpreter
(through ``frgeo.cli.entry``, the ``frgeo`` entry point), so its
``ru_maxrss`` is that run's own peak and not a high-water mark left by an
earlier, larger run.  A ladder holds its levels on cell classes and pairs
its test function in closed form, so memory should not grow with depth.

The overlay lines time ``boxes.overlay`` of two 1-D catalogs of 16, 64 and
256 boxes at non-dyadic, mutually misaligned breakpoints, against the
nested loop over every (f box, g box) pair, written here, and check that
both give the same regions in the same order.  Exits non-zero if any run
fails or any overlay differs.

    python3 benchmarks/bench_ladder.py
    python3 benchmarks/bench_ladder.py --levels 3-6 3-8
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from frgeo import BoxFunction, overlay  # noqa: E402

OVERLAY_BOXES = (16, 64, 256)
OVERLAY_REPEATS = 3


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


def catalog(rng: random.Random, boxes: int) -> BoxFunction:
    """A 1-D catalog of ``boxes`` boxes: breakpoint i at i/boxes plus an
    odd-denominator offset, so no dyadic grid and no other draw aligns."""
    edges = [Fraction(0)]
    for i in range(1, boxes):
        q = rng.choice((3, 5, 7, 9, 11, 13))
        k = rng.choice([k for k in range(-(q // 2), q // 2 + 1) if k])
        edges.append(Fraction(i, boxes) + Fraction(k, 2 * boxes * q))
    edges.append(Fraction(1))
    rows = [(Fraction(rng.randint(1, 9), 8), a, b) for a, b in zip(edges, edges[1:])]
    return BoxFunction.from_rows(1, rows)


def nested_overlay(f: BoxFunction, g: BoxFunction) -> list[tuple]:
    """Every f box against every g box: (f value, g value, lo, hi) of each
    non-empty intersection, in that loop order."""
    out = []
    for bf in f.boxes:
        for bg in g.boxes:
            inter = bf.intersection_bounds(bg)
            if inter is not None:
                out.append((bf.value, bg.value, *inter))
    return out


def median_ms(fn, *args) -> tuple[float, object]:
    """Median wall milliseconds of OVERLAY_REPEATS calls, and the result."""
    times = []
    for _ in range(OVERLAY_REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", nargs="+", default=["3-6", "3-8", "3-10", "3-20", "3-30"])
    args = ap.parse_args()
    failed = 0
    print(f"{'levels':>8} {'wall_s':>8} {'maxrss_mb':>10} exit")
    with tempfile.TemporaryDirectory() as tmp:
        for levels in args.levels:
            code, wall, rss = run_ladder(levels, Path(tmp) / levels)
            print(f"{levels:>8} {wall:8.3f} {rss:10.1f} {code}", flush=True)
            failed += code != 0
    print(f"{'boxes':>8} {'overlay_ms':>11} {'nested_ms':>10} {'regions':>8} equal")
    rng = random.Random(1)
    for boxes in OVERLAY_BOXES:
        f, g = catalog(rng, boxes), catalog(rng, boxes)
        sweep_ms, regions = median_ms(overlay, f, g)
        nested_ms, reference = median_ms(nested_overlay, f, g)
        equal = [(r.f_value, r.g_value, r.lo, r.hi) for r in regions] == reference
        print(f"{boxes:>8} {sweep_ms:11.2f} {nested_ms:10.2f} {len(regions):8d} {equal}",
              flush=True)
        failed += not equal
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
