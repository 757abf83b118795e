#!/usr/bin/env python3
"""Time the RK4 stepping kernels in microseconds per step, and cross-check them.

For each free simplex dimension n (``--n``, default every n from 1 to 7),
kernels timed on the same unit-speed geodesic data:

* coupled: the float loop ``rk4_coupled``, whose straight-line loop is
  generated and compiled once per n, and the same loop over numpy arrays
  (``rk4_coupled_reference`` of ``tests/oracles.py``, the reference);
* decoupled: ``rk4_decoupled`` of ``tests/oracles.py``, over numpy arrays.

The kernels run round-robin: each of ``--repeats`` rounds runs every kernel
once, starting one kernel further on each round, so that a change in host
speed falls on all kernels alike rather than on one block of runs.  Each
figure is the median over the rounds; ``x ref`` is the median over the
rounds of the coupled reference's time over the kernel's in that round.
``compile ms`` is the time the float loop takes to generate and compile its
code for n, from an empty cache.  Before its row is printed, the float loop
is checked against the reference: bit for bit below 8 coordinates (where
``np.sum`` adds left to right, as the float loop does), within 1e-13 from
8 on.  A failed check exits non-zero.

    python3 benchmarks/bench_kernels.py               # n = 1..7, step 1e-4
    python3 benchmarks/bench_kernels.py --n 2,5,8 --step 1e-3
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = SRC.parent / "tests"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(TESTS))

import numpy as np  # noqa: E402

from frgeo import SimplexPoint, boundary_touch_time, ellipsoid_tangent  # noqa: E402
from frgeo import kernels  # noqa: E402
from oracles import rk4_coupled_reference, rk4_decoupled  # noqa: E402

PAIRWISE_SUM_FROM = 8  # np.sum adds pairwise from this many items
FLOAT_LOOP_TOL = 1e-13
REFERENCE = "coupled numpy (reference)"


def geodesic_data(n: int, seed: int):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
    probs = raw / raw.sum()
    probs = 0.98 * probs + 0.02 / (n + 1)
    p0 = SimplexPoint(probs[:n])
    v0 = ellipsoid_tangent(p0, rng.standard_normal(n))
    return p0, v0


def round_robin(cases, repeats: int) -> tuple[dict, dict]:
    """Seconds of every round per kernel, and each kernel's last output."""
    seconds = {name: [] for name, *_ in cases}
    outputs = {}
    for r in range(repeats):
        for name, fn, args, *_ in cases[r % len(cases):] + cases[: r % len(cases)]:
            t0 = time.perf_counter()
            outputs[name] = fn(*args)
            seconds[name].append(time.perf_counter() - t0)
    return seconds, outputs


def check(name: str, out, ref, tol: float) -> str:
    """Same exit record and valid rows: bit for bit at tol 0, else within tol."""
    if out[3:] != ref[3:]:
        raise SystemExit(f"{name}: exit records differ: {out[3:]} != {ref[3:]}")
    rows = ref[3]
    drift = max(float(np.max(np.abs(a[:rows] - b[:rows]))) for a, b in zip(out[:3], ref[:3]))
    if tol == 0.0:
        if not all(np.array_equal(a[:rows], b[:rows]) for a, b in zip(out[:3], ref[:3])):
            raise SystemExit(f"{name}: not bit-identical to the reference (drift {drift:.3e})")
        return "bit-identical"
    if drift > tol:
        raise SystemExit(f"{name}: differs from the reference by {drift:.3e}")
    return f"max |diff| {drift:.1e}"


def dimensions(token: str) -> list[int]:
    """``1-7`` (inclusive) or ``2,5,8``."""
    if "-" in token:
        lo, hi = (int(part) for part in token.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in token.split(",")]


def run_dimension(n: int, args) -> None:
    p0, v0 = geodesic_data(n, args.seed)
    horizon = min(args.t_end, 0.9 * boundary_touch_time(p0, v0))
    n_steps = kernels.step_count(args.step, horizon)
    eps = 1e-9
    float_tol = 0.0 if n < PAIRWISE_SUM_FROM else FLOAT_LOOP_TOL

    coupled_args = (p0.theta, v0.v, args.step, horizon, eps)
    decoupled_args = (p0.full, v0.full, args.step, horizon, eps)
    # (name, kernel, arguments, tolerance against the reference or None)
    cases = [
        (REFERENCE, rk4_coupled_reference, coupled_args, None),
        ("coupled floats", kernels.rk4_coupled, coupled_args, float_tol),
        ("decoupled numpy", rk4_decoupled, decoupled_args, None),
    ]

    kernels._COUPLED_LOOPS.pop(n, None)
    t0 = time.perf_counter()
    kernels._coupled_loop(n)
    compile_ms = {"coupled floats": 1e3 * (time.perf_counter() - t0)}

    seconds, outputs = round_robin(cases, args.repeats)
    print(f"\nn = {n}, horizon = {horizon:.4f} ({n_steps} steps)")
    header = (
        f"{'kernel':<26} {'seconds':>9} {'us/step':>9} {'x ref':>6} "
        f"{'compile ms':>10}  check"
    )
    print(header)
    print("-" * len(header))
    for name, _, _, tol in cases:
        out = outputs[name]
        verdict = "-" if tol is None else check(name, out, outputs[REFERENCE], tol)
        median = statistics.median(seconds[name])
        us = 1e6 * median / max(out[3] - 1, 1)
        if name.startswith("coupled"):
            per_round = [r / s for r, s in zip(seconds[REFERENCE], seconds[name])]
            ratio = f"{statistics.median(per_round):6.2f}"
        else:
            ratio = " " * 6
        compiled = f"{compile_ms[name]:10.1f}" if name in compile_ms else " " * 10
        print(f"{name:<26} {median:>9.4f} {us:>9.1f} {ratio} {compiled}  {verdict}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--n", type=dimensions, default="1-7",
        help="free simplex dimensions: a range 1-7 or a list 2,5,8",
    )
    ap.add_argument("--step", type=float, default=1e-4, help="RK4 step size")
    ap.add_argument(
        "--t-end", type=float, default=1.2, help="horizon (capped below exit)"
    )
    ap.add_argument("--repeats", type=int, default=5, help="round-robin rounds")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"step = {args.step:g}, median of {args.repeats} round-robin rounds")
    for n in args.n:
        run_dimension(n, args)


if __name__ == "__main__":
    main()
