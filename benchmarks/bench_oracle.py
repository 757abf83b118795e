#!/usr/bin/env python3
"""Time one ``oracle-compare`` run stage by stage, against its float-formatting floor.

For each free simplex dimension n (``--n``, default 2 and 5), one
``oracle-compare`` configuration: a seeded start ``theta0`` and direction
``w_raw`` (seed 0), integrated at ``--step`` (default 1e-4) up to t = 1,
capped at 0.9 of the closed form's boundary touch.  The stages are timed on
the arrays of one run (``frgeo.cli._oracle_compare_arrays``):

* ``rk4 kernel``: ``kernels.rk4_coupled``, in µs per step;
* ``closed form``: the runner's check pass
  (``frgeo.cli._row_deviations``), which evaluates the closed form at the
  RK4 times a block at a time, checks each row against the boundary floor
  and for mass 1 (``frgeo.geodesics.flow_blocks``) and keeps each row's
  largest deviation from RK4, in µs per row;
* ``csv writer`` and ``json writer``: the runner's writer
  (``frgeo.cli._write_oracle_compare``) for ``oracle_compare.csv`` and
  ``oracle_compare.json``, in ns per float written.  The closed form is a
  block source, so each writer evaluates it again, a block of rows at a
  time;
* ``%.17g floor`` and ``%r floor``: one bare ``%`` fill of the same floats
  (the CSV table's, and the JSON arrays'), ``tolist`` included: what
  formatting alone costs.  ``x floor`` is the median over the rounds of
  each writer's time over its floor's;
* ``stage peak``: the tracemalloc peak, in MiB, of one ``oracle-compare``
  run (``frgeo.cli.run_experiment``) given the RK4 table already
  integrated, as CSV and as JSON: the closed form, the row differences and
  the writer, the working memory above the RK4 table.

The stages run round-robin, as in ``bench_kernels.py``: each of
``--repeats`` rounds runs every stage once, starting one stage further on
each round, and each figure is the median over the rounds.  Before timing,
``frgeo.cli.main`` runs the same configuration as CSV and as JSON, and the
files the timed writers produce must be the same bytes; a mismatch exits
non-zero, and so do the files of the stage-peak runs.

    python3 benchmarks/bench_oracle.py              # n = 2 and 5, step 1e-4
    python3 benchmarks/bench_oracle.py --n 3 --step 1e-3 --repeats 3
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from bench_kernels import dimensions, round_robin  # noqa: E402
from frgeo import SimplexPoint, boundary_touch_time, cli, ellipsoid_tangent, kernels  # noqa: E402
from frgeo.kernels import DOMAIN_EPS  # noqa: E402


# the seed of every start and direction, and the horizon before the cap
SEED, T_END = 0, 1.0


def config_pairs(n: int, step: float) -> dict[str, str]:
    """``oracle-compare`` keys of a seeded start, direction, step and horizon."""
    rng = np.random.default_rng(SEED)
    raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
    theta0 = (0.98 * raw / raw.sum() + 0.02 / (n + 1))[:n]
    w_raw = rng.standard_normal(n)
    p0 = SimplexPoint(theta0)
    horizon = min(T_END, 0.9 * boundary_touch_time(p0, ellipsoid_tangent(p0, w_raw)))
    return {
        "theta0": ",".join(map(repr, theta0.tolist())),
        "w_raw": ",".join(map(repr, w_raw.tolist())),
        "step": repr(step),
        "t_end": repr(horizon),
    }


def stage_peak_mib(cfg, times: np.ndarray, rk4: np.ndarray) -> float:
    """tracemalloc peak of one ``cfg`` run whose RK4 table is given: the
    integration, and the table it allocates, stay outside the traced region."""
    table = SimpleNamespace(times=times, positions=rk4)
    with mock.patch.object(cli, "integrate_coupled", lambda *_: table):
        tracemalloc.start()
        try:
            cli.run_experiment(cfg)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def run_dimension(n: int, args, tmp: Path) -> None:
    pairs = config_pairs(n, args.step)
    tokens = [f"{key}={value}" for key, value in pairs.items()]
    by_cli, ours = tmp / f"cli_{n}", tmp / f"bench_{n}"
    for fmt in ("csv", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["oracle-compare", *tokens, "--format", fmt, "--out", str(by_cli)])
        if code != 0:
            raise SystemExit(f"n = {n}: oracle-compare --format {fmt} exited {code}")
    csv_cfg, json_cfg = (
        cli.validate_config("oracle-compare", pairs, ours, fmt) for fmt in ("csv", "json")
    )
    ours.mkdir(parents=True)
    # the arrays of one run, and its closed form's block source, which both
    # writers write
    arrays = cli._oracle_compare_arrays(csv_cfg)
    _, times, closed, rk4, diff = arrays
    p = csv_cfg.params
    p0 = SimplexPoint(p["theta0"])
    v = ellipsoid_tangent(p0, p["w_raw"])
    theta0, v0 = np.ascontiguousarray(p0.theta), np.ascontiguousarray(v.v)
    step, t_end = float(p["step"]), float(p["t_end"])

    # the floats of the CSV table and of the JSON arrays, in any order
    json_floats = np.concatenate([times, closed[:].ravel(), rk4.ravel()])
    csv_floats = np.concatenate([json_floats, diff])
    g_fill = "\n".join(["%.17g"] * csv_floats.size)
    r_fill = "\n".join(["%r"] * json_floats.size)

    # (name, stage, unit count, unit name, floor)
    cases = [
        ("rk4 kernel", lambda: kernels.rk4_coupled(theta0, v0, step, t_end, DOMAIN_EPS),
         times.size - 1, "us/step", None),
        ("closed form", lambda: cli._row_deviations(closed, rk4), times.size, "us/row", None),
        ("csv writer", lambda: cli._write_oracle_compare(csv_cfg, *arrays),
         csv_floats.size, "ns/float", "%.17g floor"),
        ("json writer", lambda: cli._write_oracle_compare(json_cfg, *arrays),
         json_floats.size, "ns/float", "%r floor"),
        ("%.17g floor", lambda: g_fill % tuple(csv_floats.tolist()),
         csv_floats.size, "ns/float", None),
        ("%r floor", lambda: r_fill % tuple(json_floats.tolist()),
         json_floats.size, "ns/float", None),
    ]
    seconds, _ = round_robin([(name, fn, ()) for name, fn, *_ in cases], args.repeats)
    peaks = {cfg.fmt: stage_peak_mib(cfg, times, rk4) for cfg in (csv_cfg, json_cfg)}
    for name in ("oracle_compare.csv", "oracle_compare.json"):
        if (ours / name).read_bytes() != (by_cli / name).read_bytes():
            raise SystemExit(f"n = {n}: {name} differs from what frgeo.cli.main writes")

    print(f"\nn = {n}, t_end = {t_end:.4f} ({times.size - 1} steps)")
    header_line = f"{'stage':<13} {'ms':>8} {'per unit':>9} {'unit':<8} {'x floor':>7}"
    print(header_line)
    print("-" * len(header_line))
    scale = {"us/step": 1e6, "us/row": 1e6, "ns/float": 1e9}
    for name, _, count, unit, floor in cases:
        median = statistics.median(seconds[name])
        ratio = " " * 7
        if floor is not None:
            per_round = [s / f for s, f in zip(seconds[name], seconds[floor])]
            ratio = f"{statistics.median(per_round):7.2f}"
        print(f"{name:<13} {1e3 * median:8.2f} {scale[unit] * median / count:9.2f} "
              f"{unit:<8} {ratio}")
    print(f"stage peak: {peaks['csv']:.2f} MiB as CSV, {peaks['json']:.2f} MiB as JSON "
          "(tracemalloc, RK4 table given)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--n", type=dimensions, default="2,5",
        help="free simplex dimensions: a range 1-7 or a list 2,5",
    )
    ap.add_argument("--step", type=float, default=1e-4, help="RK4 step size")
    ap.add_argument("--repeats", type=int, default=5, help="round-robin rounds")
    args = ap.parse_args()

    print(f"step = {args.step:g}, median of {args.repeats} round-robin rounds")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            run_dimension(n, args, Path(tmp))


if __name__ == "__main__":
    main()
