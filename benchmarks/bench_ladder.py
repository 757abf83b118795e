#!/usr/bin/env python3
"""Wall time and peak RSS of 2-D ``pixelation-convergence`` ladders by depth,
the time of the catalog overlay by catalog size, and the time of a ladder
level's projection.

Each ladder of the misaligned 2-D pair runs in a fresh child interpreter
(through ``frgeo.cli.entry``, the ``frgeo`` entry point), so its
``ru_maxrss`` is that run's own peak and not a high-water mark left by an
earlier, larger run.  A ladder holds its levels on cell classes and pairs
its test function in closed form, so memory should not grow with depth.

The overlay lines time ``boxes.overlay`` of two 1-D catalogs of 16, 64 and
256 boxes at non-dyadic, mutually misaligned breakpoints, against the
nested loop over every (f box, g box) pair, written here, and check that
both give the same regions in the same order.

The projection lines time ``pixelation.project_pair`` at levels 3-12 for
the misaligned 1-D and 2-D pairs and a seeded pair of 16-box catalogs
(odd-denominator breakpoints, 30-digit values), against a copy written
here of the per-box numpy accumulation it replaced (a Fraction key and
one ``np.multiply.outer`` and fancy-indexed ``+=`` per box), and check
that both give every class value with the same bits.  Each line is the
median over PROJECTION_REPEATS sweeps of the levels, in microseconds per
level; each catalog's integer bounds are built with the catalog.

The per-level lines split a ladder level of each ``perfbench`` ``ladder``
experiment's pair (misaligned 1-D at levels 3-10, misaligned 2-D at 3-6 and
the seeded pair of ``perfbench/workloads.py`` at 3-9, each with test
function 0) into its stages, in microseconds per level: ``project_pair``,
``_normalized`` and ``geodesic_flow`` (which ``build_ladder`` runs per
level), and the summary's per-level work (phi's class weights and the
pairings, ``_level_errors`` over all levels less its run over none).  The
summary's once-per-ladder work (phi's region weights and the continuum
pairings) is its own column, per summary.  Each is the median over
LEVEL_REPEATS sweeps of the levels.

Exits non-zero if any run fails, any overlay differs or any class value
differs.

    python3 benchmarks/bench_ladder.py
    python3 benchmarks/bench_ladder.py --levels 3-6 3-8
"""

from __future__ import annotations

import argparse
import bisect
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from frgeo import BoxFunction, DyadicGrid, FiniteDensity, SignedFunction, overlay  # noqa: E402
from frgeo.boxes import grid_classes  # noqa: E402
from frgeo.catalogs import (  # noqa: E402
    misaligned_f0_1d, misaligned_f0_2d, misaligned_g0_1d, misaligned_g0_2d,
)
from frgeo.errors import DegenerateVelocity  # noqa: E402
from frgeo.geodesics import _normalized, geodesic_flow  # noqa: E402
from frgeo.pixelation import (  # noqa: E402
    _level_errors, build_ladder, project_pair, test_functions_1d, test_functions_2d,
)
from workloads import seeded_pair as workload_pair  # noqa: E402

OVERLAY_BOXES = (16, 64, 256)
OVERLAY_REPEATS = 3
PROJECTION_LEVELS = range(3, 13)
PROJECTION_REPEATS = 5
LEVEL_REPEATS = 41
# the pairs and levels of the ladder workload's experiments (seed 1)
LEVEL_PAIRS = {
    "ladder_1d": (lambda: (misaligned_f0_1d(), misaligned_g0_1d()), range(3, 11)),
    "ladder_2d": (lambda: (misaligned_f0_2d(), misaligned_g0_2d()), range(3, 7)),
    "ladder_seeded": (lambda: workload_pair(1), range(3, 10)),
}


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


def breakpoints(rng: random.Random, boxes: int) -> list[Fraction]:
    """0, 1 and between them breakpoint i at i/boxes plus an odd-denominator
    offset, so no dyadic grid and no other draw aligns."""
    edges = [Fraction(0)]
    for i in range(1, boxes):
        q = rng.choice((3, 5, 7, 9, 11, 13))
        k = rng.choice([k for k in range(-(q // 2), q // 2 + 1) if k])
        edges.append(Fraction(i, boxes) + Fraction(k, 2 * boxes * q))
    return edges + [Fraction(1)]


def catalog(rng: random.Random, boxes: int) -> BoxFunction:
    """A 1-D catalog of ``boxes`` boxes at ``breakpoints``."""
    edges = breakpoints(rng, boxes)
    rows = [(Fraction(rng.randint(1, 9), 8), a, b) for a, b in zip(edges, edges[1:])]
    return BoxFunction.from_rows(1, rows)


def seeded_pair(rng: random.Random, boxes: int = 16) -> tuple[BoxFunction, BoxFunction]:
    """A density and a velocity on the same ``breakpoints``, with 30-digit
    values."""
    edges = breakpoints(rng, boxes)
    spans = list(zip(edges, edges[1:]))
    f = [Fraction(rng.randrange(10**29, 10**30), 10**30) for _ in spans]
    mass = sum(v * (b - a) for v, (a, b) in zip(f, spans))
    g = [Fraction(rng.randrange(-(10**30), 10**30), 10**30) for _ in spans]
    return (
        BoxFunction.from_rows(1, [(v / mass, a, b) for v, (a, b) in zip(f, spans)]),
        BoxFunction.from_rows(1, [(v, a, b) for v, (a, b) in zip(g, spans)]),
    )


def numpy_class_averages(classes, catalog: BoxFunction) -> np.ndarray:
    """Class averages as ``project_classes`` summed them before it kept
    plain floats: Fraction bounds, and per box an outer product of its
    per-axis overlaps added into the classes it covers."""
    grid, side = classes.grid, classes.grid.side_count
    acc = np.zeros(tuple(len(e) - 1 for e in classes.edges))
    caches = [{} for _ in classes.edges]
    for b in catalog.boxes:
        val = float(b.value)
        if val == 0.0:
            continue
        runs, block = [], None
        for lo, hi, cuts, cache in zip(b.lo, b.hi, classes.edges, caches):
            key = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
            if key not in cache:
                (p, q), (r, s) = key[:2], key[2:]
                first, last = p * side // q, -(-r * side // s) - 1
                lo_n, hi_n, den = p * s * side, r * q * side, s * q * side
                head = (min(hi_n, (first + 1) * s * q) - lo_n) / den
                tail = (hi_n - max(lo_n, last * s * q)) / den
                i, k = (bisect.bisect_left(cuts, c) for c in (first, last + 1))
                cache[key] = slice(i, k), np.array(
                    [tail if c == last else head if c == first else 1.0 / side for c in cuts[i:k]]
                )
            runs.append(cache[key][0])
            o = cache[key][1]
            block = o if block is None else np.multiply.outer(block, o)
        acc[tuple(runs)] += val * block
    return acc.reshape(-1) * float(side**grid.dimension)


def numpy_pair(f0: BoxFunction, g0: BoxFunction, j: int):
    """``project_pair`` with ``numpy_class_averages``."""
    classes = grid_classes(DyadicGrid(f0.dimension, j), f0.int_bounds, g0.int_bounds)
    fd = FiniteDensity(classes, numpy_class_averages(classes, f0))
    return fd, SignedFunction(classes, numpy_class_averages(classes, g0))


def us_per_level(project, f0: BoxFunction, g0: BoxFunction) -> tuple[float, list]:
    """Median over PROJECTION_REPEATS sweeps of PROJECTION_LEVELS, in
    microseconds per level, and the last sweep's (f, g) class values."""
    times = []
    for _ in range(PROJECTION_REPEATS):
        t0 = time.perf_counter()
        sweep = [project(f0, g0, j) for j in PROJECTION_LEVELS]
        times.append(time.perf_counter() - t0)
    values = [x.values for fd, g in sweep for x in (fd, g)]
    return 1e6 * statistics.median(times) / len(PROJECTION_LEVELS), values


def median_us(fn, count: int) -> float:
    """Median over LEVEL_REPEATS calls of ``fn``, in microseconds per one of
    the ``count`` items each call handles."""
    times = []
    for _ in range(LEVEL_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / count


def level_stages(f0: BoxFunction, g0: BoxFunction, levels: range) -> list[float]:
    """Microseconds per level of each ladder stage, and per summary of its
    once-per-ladder work (see the module docstring)."""
    live, normalized = [], []  # the levels that are not degenerate
    for j in levels:
        fd, g = project_pair(f0, g0, j)
        try:
            normalized.append((fd, _normalized(fd, g)[0]))
        except DegenerateVelocity:
            continue
        live.append((fd, g))
    ladder = build_ladder(f0, g0, list(levels))
    phi = (test_functions_1d() if f0.dimension == 1 else test_functions_2d())[0]
    times = (0.0, math.pi / 2)
    n = len(levels)
    once = median_us(lambda: list(_level_errors(ladder, phi, None, [], times)), 1)
    summary = median_us(lambda: list(_level_errors(ladder, phi, None, levels, times)), n)
    return [
        median_us(lambda: [project_pair(f0, g0, j) for j in levels], n),
        median_us(lambda: [_normalized(fd, g) for fd, g in live], len(live)),
        median_us(lambda: [geodesic_flow(fd, u) for fd, u in normalized], len(live)),
        summary - once / n,
        once,
    ]


def nested_overlay(f: BoxFunction, g: BoxFunction) -> list[tuple]:
    """Every f box against every g box: (f value, g value, lo, hi) of each
    non-empty intersection, in that loop order."""
    out = []
    for bf in f.boxes:
        for bg in g.boxes:
            lo = tuple(map(max, bf.lo, bg.lo))
            hi = tuple(map(min, bf.hi, bg.hi))
            if all(a < b for a, b in zip(lo, hi)):
                out.append((bf.value, bg.value, lo, hi))
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
    print(f"{'pair':>13} {'project_us':>11} {'numpy_us':>9} same_bits")
    pairs = {
        "misaligned1d": (misaligned_f0_1d(), misaligned_g0_1d()),
        "misaligned2d": (misaligned_f0_2d(), misaligned_g0_2d()),
        "seeded16": seeded_pair(random.Random(2)),
    }
    for name, (f0, g0) in pairs.items():
        plain_us, plain = us_per_level(project_pair, f0, g0)
        numpy_us, reference = us_per_level(numpy_pair, f0, g0)
        same = all(
            np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(plain, reference)
        )
        print(f"{name:>13} {plain_us:11.1f} {numpy_us:9.1f} {same}", flush=True)
        failed += not same
    print(f"{'experiment':>13} {'project_us':>11} {'normalize_us':>12} {'flow_us':>8} "
          f"{'summary_us':>10} {'continuum_us':>12}")
    for name, (pair, levels) in LEVEL_PAIRS.items():
        stages = level_stages(*pair(), levels)
        print(f"{name:>13} " + " ".join(
            f"{x:{w}.1f}" for x, w in zip(stages, (11, 12, 8, 10, 12))
        ), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
