#!/usr/bin/env python3
"""Wall time, peak RSS and distinct values of ``density-geodesic`` frames.

Each case writes 12 frames of a 2-D catalog pair, as CSV and as JSON, in a
fresh child interpreter, so its ``ru_maxrss`` is that run's own peak.  The
child validates the configuration as ``frgeo`` does, then times
``run_experiment`` alone: ``run_s`` is projection, flow, evaluation,
formatting and writing, without the interpreter start, the imports and the
catalog parsing that ``wall_s`` also holds.  The medians of ``--repeat``
runs are printed.  The cases are the aligned ``uniform2d``/``g01_2d`` pair
at levels 8 and 10, a staggered catalog of 18 x 18 boxes whose frames hold
over a thousand distinct values, and one of 32 x 32 boxes at level 5, where
every cell has its own (alpha, beta) and nearly every value of a frame is
distinct, so that formatting each distinct value once saves least.  CSV and
JSON frames are written one run of same-class cells at a time; ``runs``
counts them per frame (the staggered cases have the shortest runs).  A CSV
run is bytes formatted once per grid, with a NUL where the value goes, that
each frame fills with one ``bytes.replace`` by its class's text; a JSON run
of n cells is its class's text and separator repeated n - 1 times, then the
text.  At staggered 32, level 5, every run is one cell.  Every
written value text is then checked against direct formatting (``%.17g`` per
CSV cell, ``repr`` per JSON item) of the frames evaluated here.  Exits
non-zero if a run fails or a text differs.

    python3 benchmarks/bench_frames.py
    python3 benchmarks/bench_frames.py --cases g01_2d:8 staggered:8 staggered32:5
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from frgeo import (  # noqa: E402
    DyadicGrid,
    FiniteDensity,
    SignedFunction,
    density_at,
    geodesic_flow,
    load_catalog,
    normalize_velocity,
)
from frgeo.catalogs import BUILTIN_CATALOGS  # noqa: E402
from frgeo.cli import _catalog_state, _class_runs  # noqa: E402

N_FRAMES = 12
T_END = 3.0


def write_staggered(directory: Path, strips: int = 18, seed: int = 7) -> tuple[str, str]:
    """Catalog files f0, g0: strips x strips boxes, non-dyadic breaks per strip.

    f0 has exact unit mass and g0 = (w - mean) f0 is exactly centered.
    """
    rng = random.Random(seed)

    def breaks():
        inner = [Fraction(k, strips) + Fraction(rng.randint(1, 5), 13 * strips)
                 for k in range(1, strips)]
        return [Fraction(0), *inner, Fraction(1)]

    ys = breaks()
    boxes = []
    for y_lo, y_hi in zip(ys, ys[1:]):
        xs = breaks()
        for x_lo, x_hi in zip(xs, xs[1:]):
            f, w = Fraction(rng.randint(8, 24), 16), Fraction(rng.randint(-8, 8), 8)
            volume = (x_hi - x_lo) * (y_hi - y_lo)
            boxes.append((f, w, (x_lo, x_hi, y_lo, y_hi), volume))
    mass = sum(f * v for f, _, _, v in boxes)
    mean = sum(w * f / mass * v for f, w, _, v in boxes)
    paths = []
    values = {"f0": lambda f, w: f / mass, "g0": lambda f, w: (w - mean) * f / mass}
    for name, value in values.items():
        path = directory / f"staggered_{name}.txt"
        path.write_text("".join(
            " ".join(str(x) for x in (value(f, w), *bounds)) + "\n"
            for f, w, bounds, _ in boxes
        ))
        paths.append(str(path))
    return paths[0], paths[1]


def flow_state(f0: str, g0: str, level: int):
    """The geodesic state the CLI builds for a catalog pair, evaluated here,
    and the number of class runs a CSV frame is written in."""
    f0_cat, g0_cat = (
        load_catalog(c) if Path(c).exists() else BUILTIN_CATALOGS[c]() for c in (f0, g0)
    )
    grid = DyadicGrid(2, level)
    f = FiniteDensity(grid, f0_cat.cell_averages(grid))
    g = SignedFunction(grid, g0_cat.cell_averages(grid))
    blocks = _class_runs(_catalog_state(f0_cat, g0_cat, level).space)
    return geodesic_flow(f, normalize_velocity(f, g)), sum(len(c) for c, _, _ in blocks)


# validates as the command line does, then times run_experiment alone
_CHILD = """
import sys, time
from frgeo.cli import run_experiment, validate_config
fmt, out, *pairs = sys.argv[1:]
pairs = dict(p.split("=", 1) for p in pairs)
cfg = validate_config("density-geodesic", pairs, out, fmt)
t0 = time.perf_counter()
run_experiment(cfg)
print(time.perf_counter() - t0)
"""


def run_frames(
    f0: str, g0: str, level: int, fmt: str, out: Path
) -> tuple[int, float, float, float]:
    """Exit code, wall and run_experiment seconds, the child's ru_maxrss in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, "-c", _CHILD, fmt, str(out), f"f0={f0}", f"g0={g0}",
        f"level={level}", f"n_frames={N_FRAMES}", f"t_end={T_END!r}",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    run = float(stdout) if code == 0 else math.nan
    return code, wall, run, usage.ru_maxrss / 1024.0


def file_texts(fmt: str, out: Path):
    """The value texts of a run's output files, in file order."""
    if fmt == "csv":
        for k in range(N_FRAMES):
            with open(out / f"frame_{k:02d}.csv", newline="") as fh:
                next(fh)  # header
                for line in fh:
                    yield line.rstrip("\r\n").rsplit(",", 1)[1]
    else:
        # array items are the only lines that start with a digit or a sign
        with open(out / "density_geodesic.json") as fh:
            for line in fh:
                item = line.strip()
                if item and item[0] in "-0123456789":
                    yield item.rstrip(",")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", nargs="+",
                    default=["g01_2d:8", "g01_2d:10", "staggered:8", "staggered32:5"],
                    help="g0 catalog of uniform2d, or 'staggered' with an optional "
                         "strip count (18 by default), and the level")
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs per case and format; the median times are printed")
    args = ap.parse_args()
    failed = 0
    print(f"{'case':>13} {'fmt':>4} {'wall_s':>8} {'run_s':>7} {'maxrss_mb':>10} "
          f"{'distinct':>11} {'runs':>6} check exit")
    with tempfile.TemporaryDirectory() as tmp:
        # every child runs before any frame is evaluated here: a child's
        # ru_maxrss counts this process's RSS at the fork
        runs = []
        for k, case in enumerate(args.cases):
            g0_name, level = case.rsplit(":", 1)
            staggered = re.fullmatch(r"staggered(\d*)", g0_name)
            if staggered:
                directory = Path(tmp) / f"catalogs-{k}"
                directory.mkdir()
                pair = write_staggered(directory, int(staggered.group(1) or 18))
            else:
                pair = ("uniform2d", g0_name)
            results = []
            for fmt in ("csv", "json"):
                out = Path(tmp) / f"{k}-{fmt}"
                reps = [run_frames(*pair, int(level), fmt, out) for _ in range(args.repeat)]
                code = max((r[0] for r in reps), key=abs)
                wall = statistics.median(r[1] for r in reps)
                run = statistics.median(r[2] for r in reps)
                results.append((fmt, out, code, wall, run, max(r[3] for r in reps)))
            runs.append((case, pair, int(level), results))
        for case, pair, level, results in runs:
            state, n_runs = flow_state(*pair, level)
            times = np.linspace(0.0, T_END, N_FRAMES)
            distinct = [
                len(np.unique(density_at(state, t).values.view(np.int64))) for t in times
            ]
            spread = f"{min(distinct)}-{max(distinct)}"
            for fmt, out, code, wall, run, rss in results:
                frames = (density_at(state, t).values for t in times)
                if fmt == "csv":
                    expected = ("%.17g" % v for a in frames for v in a.tolist())
                else:
                    arrays = itertools.chain([state.alpha, state.beta], frames)
                    expected = (repr(v) for a in arrays for v in a.tolist())
                pairs = itertools.zip_longest(file_texts(fmt, out), expected)
                ok = code == 0 and all(a == b for a, b in pairs)
                shutil.rmtree(out, ignore_errors=True)
                check = "ok" if ok else "MISMATCH"
                row = (f"{case:>13} {fmt:>4} {wall:8.3f} {run:7.3f} {rss:10.1f} "
                       f"{spread:>11} {n_runs:>6} {check:>5}")
                print(row, code, flush=True)
                failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
