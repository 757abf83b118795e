"""Seeded experiment lists for the three benchmark workloads.

Each workload is a fixed list of ``frgeo`` command lines.  The seed picks
values (catalog names, horizons, catalog breakpoints, simplex starts), never
sizes, so every seed does the same amount of work.  ``toy`` shrinks every
size so a smoke run of all workloads finishes in seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from frgeo import (
    BoxFunction,
    SimplexPoint,
    boundary_touch_time,
    ellipsoid_tangent,
    overlay,
)

# oracle-compare starts are redrawn until the exact boundary touch lies this
# far past the RK4 horizon (1.0), so every run takes its full step count
MIN_TOUCH_TIME = 1.1


@dataclass(frozen=True)
class Experiment:
    """One ``frgeo`` invocation: output directory name, argv, expected exit."""

    name: str
    argv: tuple[str, ...]
    expect_rc: int = 0

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "json" if "json" in self.argv else "csv"

    def param(self, key: str, default: str | None = None) -> str | None:
        prefix = key + "="
        for token in self.argv:
            if token.startswith(prefix):
                return token[len(prefix):]
        return default


@dataclass(frozen=True)
class Plan:
    """A workload's experiments and the one re-run to test byte identity."""

    workload: str
    experiments: list[Experiment]
    rerun: str

    def experiment(self, name: str) -> Experiment:
        return next(e for e in self.experiments if e.name == name)


def _num(x: float) -> str:
    return repr(float(x))


def _vec(xs) -> str:
    return ",".join(_num(x) for x in xs)


# ---------------------------------------------------------------------------
# grid: export and dense grid evaluation on aligned catalogs


def grid_plan(seed: int, toy: bool) -> Plan:
    rng = random.Random(seed)
    g0 = rng.choice(("g01_2d", "g02_2d", "g03_2d"))
    t_end = _num(rng.uniform(math.pi / 2, math.pi))
    level, moments_level, n_times = (4, 5, 20) if toy else (8, 9, 100)
    pair = ("f0=uniform2d", f"g0={g0}", f"t_end={t_end}")
    frames = ("density-geodesic", *pair, f"level={level}", "n_frames=12")
    return Plan(
        "grid",
        [
            Experiment("density_csv", frames),
            Experiment("density_json", (*frames, "--format", "json")),
            Experiment(
                "moments",
                ("moments", *pair, f"level={moments_level}", f"n_times={n_times}"),
            ),
        ],
        rerun="density_json",
    )


# ---------------------------------------------------------------------------
# ladder: exact rational projection and weak errors

SEEDED_BOXES = 16
_BREAK_DENOMINATORS = (3, 5, 7, 9, 11, 13)
_ENERGY_DIGITS = 10**30


def seeded_pair(seed: int) -> tuple[BoxFunction, BoxFunction]:
    """A 1-D catalog pair with SEEDED_BOXES boxes and non-dyadic breakpoints.

    Breakpoint i sits at i/16 plus an odd-denominator offset, so no dyadic
    grid aligns with it.  f0 has exact unit mass; g0 = (w - mean) f0 with w
    a jittered ramp, so the mean is exactly zero and g0/f0 is constant per
    box.  The ramp keeps every jump in g0/f0 small, which keeps the level-8
    weak errors well inside criterion 07's 1e-3.  The energy is scaled to
    one by a 30-digit rational approximation of 1/sqrt(E), inside the 1e-12
    hypothesis tolerance.
    """
    rng = random.Random(seed)
    edges = [Fraction(0)]
    for i in range(1, SEEDED_BOXES):
        q = rng.choice(_BREAK_DENOMINATORS)
        k = rng.choice([k for k in range(-(q // 2), q // 2 + 1) if k])
        edges.append(Fraction(i, SEEDED_BOXES) + Fraction(k, 2 * SEEDED_BOXES * q))
    edges.append(Fraction(1))
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    f = [Fraction(rng.randint(14, 18), 16) for _ in lengths]
    mass = sum(v * h for v, h in zip(f, lengths))
    f = [v / mass for v in f]
    w = [
        Fraction(2 * i, SEEDED_BOXES - 1) - 1 + Fraction(rng.randint(-2, 2), 64)
        for i in range(SEEDED_BOXES)
    ]
    mean = sum(wi * v * h for wi, v, h in zip(w, f, lengths))
    g = [(wi - mean) * v for wi, v in zip(w, f)]
    f0 = BoxFunction.from_rows(1, list(zip(f, edges, edges[1:])))
    g0 = BoxFunction.from_rows(1, list(zip(g, edges, edges[1:])))
    energy = sum(
        (r.g_value**2 / r.f_value * r.volume for r in overlay(f0, g0)), Fraction(0)
    )
    scale = Fraction(
        math.isqrt(energy.denominator * _ENERGY_DIGITS**2 // energy.numerator),
        _ENERGY_DIGITS,
    )
    return f0, g0.scaled(scale)


def write_catalog(path: Path, catalog: BoxFunction) -> Path:
    """Write a catalog in the ``value lo hi`` descriptor format, exactly."""
    lines = [
        " ".join(str(x) for x in (b.value, *sum(zip(b.lo, b.hi), ())))
        for b in catalog.boxes
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def ladder_plan(seed: int, toy: bool, inputs: Path) -> Plan:
    f0, g0 = seeded_pair(seed)
    f0_path = write_catalog(inputs / "seeded_f0.txt", f0)
    g0_path = write_catalog(inputs / "seeded_g0.txt", g0)
    levels_1d, levels_2d, levels_seeded = (
        ("3-5", "3-4", "3-5") if toy else ("3-10", "3-6", "3-9")
    )
    return Plan(
        "ladder",
        [
            Experiment("ladder_1d", ("pixelation-convergence", f"levels={levels_1d}")),
            Experiment(
                "ladder_2d",
                (
                    "pixelation-convergence",
                    "f0=misaligned_f0_2d",
                    "g0=misaligned_g0_2d",
                    f"levels={levels_2d}",
                    "--format",
                    "json",
                ),
            ),
            Experiment(
                "ladder_seeded",
                (
                    "pixelation-convergence",
                    f"f0={f0_path}",
                    f"g0={g0_path}",
                    f"levels={levels_seeded}",
                ),
            ),
        ],
        rerun="ladder_2d",
    )


# ---------------------------------------------------------------------------
# oracle: sequential RK4 stepping and the closed form on few atoms


def oracle_start(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior start and raw direction whose exact touch time is >= 1.1."""
    while True:
        raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
        probs = 0.9 * raw / raw.sum() + 0.1 / (n + 1)
        theta = probs[:n]
        w_raw = rng.standard_normal(n)
        p0 = SimplexPoint(theta)
        if boundary_touch_time(p0, ellipsoid_tangent(p0, w_raw)) >= MIN_TOUCH_TIME:
            return theta, w_raw


def oracle_plan(seed: int, toy: bool) -> Plan:
    rng = np.random.default_rng(seed)
    step, n_times = ("1e-2", 50) if toy else ("1e-4", 5000)
    experiments = []
    for k, n in enumerate((2, 2, 5, 5)):
        theta, w_raw = oracle_start(rng, n)
        argv = (
            "oracle-compare",
            f"theta0={_vec(theta)}",
            f"w_raw={_vec(w_raw)}",
            f"step={step}",
            "t_end=1.0",
        )
        if k == 3:
            argv += ("--format", "json")
        experiments.append(Experiment(f"oracle_{k}_n{n}", argv))
    experiments += [
        Experiment(
            "sweep_csv", ("simplex-geodesic", "tau_count=12", f"n_times={n_times}")
        ),
        Experiment("sweep_json", ("simplex-geodesic", "--format", "json")),
        Experiment(
            "sweep_touch",
            ("simplex-geodesic", "tau_count=64", "n_times=1000"),
            expect_rc=3,
        ),
    ]
    return Plan("oracle", experiments, rerun="sweep_csv")


def make_plan(workload: str, seed: int, toy: bool, inputs: Path) -> Plan:
    """The experiment list of ``workload``; catalog files go to ``inputs``."""
    if workload == "grid":
        return grid_plan(seed, toy)
    if workload == "ladder":
        return ladder_plan(seed, toy, inputs)
    if workload == "oracle":
        return oracle_plan(seed, toy)
    raise ValueError(f"unknown workload {workload!r}")
