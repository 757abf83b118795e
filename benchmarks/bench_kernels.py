#!/usr/bin/env python3
"""Time the RK4 stepping kernels in microseconds per step, and cross-check them.

For each free simplex dimension n (``--n``, default every n from 1 to 7),
kernels timed on the same unit-speed geodesic data:

* coupled: the float loop ``rk4_coupled_numpy`` (the backend without numba),
  the factory loop as numpy (``_make_coupled(_coupled_accel, _coupled_low)``,
  the reference) and, when numba imports, the factory loop compiled;
* decoupled: the factory loop as numpy and, when numba imports, compiled.

JIT compilation is triggered before any clock starts, and each figure is the
best of ``--repeats`` runs; ``x ref`` is the coupled reference's time per
step over the kernel's.  Before its row is printed, the float loop is
checked against the reference: bit for bit below 8 coordinates (where
``np.sum`` adds left to right, as the float loop does), within 1e-13 from
8 on.  Compiled kernels are checked against numpy within 1e-12.  A failed
check exits non-zero.

    python3 benchmarks/bench_kernels.py               # n = 1..7, step 1e-4
    python3 benchmarks/bench_kernels.py --n 2,5,8 --step 1e-3
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from frgeo import SimplexPoint, boundary_touch_time, ellipsoid_tangent
from frgeo import kernels

PAIRWISE_SUM_FROM = 8  # np.sum adds pairwise from this many items
FLOAT_LOOP_TOL = 1e-13
BACKEND_TOL = 1e-12


def geodesic_data(n: int, seed: int):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
    probs = raw / raw.sum()
    probs = 0.98 * probs + 0.02 / (n + 1)
    p0 = SimplexPoint(probs[:n])
    v0 = ellipsoid_tangent(p0, rng.standard_normal(n))
    return p0, v0


def best_time(fn, args, repeats: int) -> tuple[float, tuple]:
    best = math.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


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
    reference = kernels._make_coupled(kernels._coupled_accel, kernels._coupled_low)
    float_tol = 0.0 if n < PAIRWISE_SUM_FROM else FLOAT_LOOP_TOL

    coupled_args = (p0.theta, v0.v, args.step, horizon, eps)
    decoupled_args = (p0.full, v0.full, args.step, horizon, eps)
    # (name, kernel, arguments, kernel whose output it is checked against, tol)
    cases = [
        ("coupled numpy (reference)", reference, coupled_args, None, None),
        ("coupled floats", kernels.rk4_coupled_numpy, coupled_args,
         "coupled numpy (reference)", float_tol),
        ("coupled numba", kernels.rk4_coupled_jit, coupled_args,
         "coupled numpy (reference)", BACKEND_TOL),
        ("decoupled numpy", kernels.rk4_decoupled_numpy, decoupled_args, None, None),
        ("decoupled numba", kernels.rk4_decoupled_jit, decoupled_args,
         "decoupled numpy", BACKEND_TOL),
    ]

    print(f"\nn = {n}, horizon = {horizon:.4f} ({n_steps} steps)")
    header = f"{'kernel':<26} {'seconds':>9} {'us/step':>9} {'x ref':>6}  check"
    print(header)
    print("-" * len(header))
    outputs = {}
    reference_us = None
    for name, fn, call_args, against, tol in cases:
        if fn is None:
            continue
        if fn in (kernels.rk4_coupled_jit, kernels.rk4_decoupled_jit):
            fn(*call_args)  # compile before timing
        seconds, out = best_time(fn, call_args, args.repeats)
        outputs[name] = out
        verdict = "-" if against is None else check(name, out, outputs[against], tol)
        us = 1e6 * seconds / max(out[3] - 1, 1)
        reference_us = reference_us or us
        ratio = f"{reference_us / us:6.2f}" if name.startswith("coupled") else " " * 6
        print(f"{name:<26} {seconds:>9.4f} {us:>9.1f} {ratio}  {verdict}")


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
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(
        f"step = {args.step:g}, best of {args.repeats}; active backend: "
        f"{kernels.backend_name()}"
    )
    if not kernels.HAVE_NUMBA:
        print("numba not importable: its kernels are not timed")
    for n in args.n:
        run_dimension(n, args)


if __name__ == "__main__":
    main()
