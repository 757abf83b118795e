"""Output checks and health values for the benchmark's experiments.

Every check reads the files an experiment wrote and mirrors one acceptance
criterion of the test suite, with that criterion's tolerance:

* density CSV frames keep unit mass within 1e-12 (criterion 02);
* density and simplex JSON frames re-evaluate bit-exactly from the archived
  ``alpha`` and ``beta`` (criterion 10);
* moment means follow the three-term curve of ``mean_coefficients_direct``
  within 1e-12 (criterion 08's closed-form identity);
* ladders have alpha_j <= 1 (up to criterion 06's 1e-15) and weak errors at
  level 8 and above of at most 1e-3 (criterion 07);
* oracle-compare closed form and RK4 agree within 1e-6 (criterion 01);
* an expected domain failure exits 3 with one JSON object on stderr.

Health values (mass drift, alpha_j, RK4 deviation, boundary touches) are
reported alongside but never compared between commits.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np

from frgeo import (
    BUILTIN_CATALOGS,
    DOMAIN_EPS,
    DyadicGrid,
    FiniteDensity,
    SignedFunction,
    SimplexPoint,
    TangentVector,
    boundary_touch_time,
    ellipse_param_n2,
    ellipsoid_tangent,
    evaluate_scalar,
    geodesic_flow,
    load_catalog,
    mean_coefficients_direct,
    normalize_velocity,
)
from frgeo import kernels

from workloads import Experiment

MASS_TOL = 1e-12  # criterion 02
MEAN_CURVE_TOL = 1e-12  # criterion 08
ALPHA_TOL = 1e-15  # criterion 06
WEAK_ERROR_TOL = 1e-3  # criterion 07, levels >= WEAK_ERROR_LEVEL
WEAK_ERROR_LEVEL = 8
RK4_TOL = 1e-6  # criterion 01
BACKEND_TOL = 1e-12  # numba against numpy positions


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _catalog(token: str):
    return BUILTIN_CATALOGS[token]() if token in BUILTIN_CATALOGS else load_catalog(token)


def _reevaluates(alpha, beta, frames: dict) -> bool:
    alpha = np.asarray(alpha)[None, :]
    beta = np.asarray(beta)[None, :]
    for key, stored in frames.items():
        t = float(key)
        y, _, _ = evaluate_scalar(alpha, beta, np.array([[t]]))
        if repr(t) != key or y[0].tolist() != stored:
            return False
    return True


# ---------------------------------------------------------------------------
# per-kind checks; each returns health values and raises CheckFailed


def check_density(exp: Experiment, out: Path) -> dict:
    level = int(exp.param("level"))
    weight = 0.5 ** (level * 2)
    if exp.fmt == "csv":
        files = sorted(out.glob("frame_*.csv"))
        _require(len(files) == int(exp.param("n_frames")), f"{len(files)} frame files")
        drift = max(
            abs(float(np.loadtxt(f, delimiter=",", skiprows=1)[:, -1].sum()) * weight - 1.0)
            for f in files
        )
    else:
        obj = json.loads((out / "density_geodesic.json").read_text())
        _require(
            _reevaluates(obj["alpha"], obj["beta"], obj["frames"]),
            "JSON frames do not re-evaluate bit-exactly from alpha, beta",
        )
        drift = max(abs(float(np.sum(v)) * weight - 1.0) for v in obj["frames"].values())
    _require(drift <= MASS_TOL, f"frame mass drift {drift:.3e} > {MASS_TOL:g}")
    return {"mass_drift": drift}


def check_moments(exp: Experiment, out: Path) -> dict:
    grid = DyadicGrid(2, int(exp.param("level")))
    f0 = FiniteDensity(grid, _catalog(exp.param("f0")).cell_averages(grid))
    g_raw = SignedFunction(grid, _catalog(exp.param("g0")).cell_averages(grid))
    state = geodesic_flow(f0, normalize_velocity(f0, g_raw))
    a, b, c = mean_coefficients_direct(state)
    data = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1)
    t = data[:, :1]
    curve = a * np.cos(t / 2) ** 2 + b * np.sin(t / 2) ** 2 + c * np.sin(t)
    dev = float(np.max(np.abs(data[:, 1 : 1 + a.size] - curve)))
    _require(dev <= MEAN_CURVE_TOL, f"mean curve deviation {dev:.3e}")
    return {"mean_curve_deviation": dev}


def check_ladder(exp: Experiment, out: Path) -> dict:
    if exp.fmt == "csv":
        with open(out / "ladder.csv", newline="") as fh:
            rows = [
                {k: (float(v) if v not in ("", "true", "false") else None) for k, v in r.items()}
                for r in csv.DictReader(fh)
            ]
    else:
        rows = json.loads((out / "ladder.json").read_text())["rows"]
    alphas = [row["alpha_j"] for row in rows]
    _require(max(alphas) <= 1.0 + ALPHA_TOL, f"alpha_j above 1: {max(alphas)!r}")
    for row in rows:
        if row["j"] >= WEAK_ERROR_LEVEL:
            for key in ("weak_error_t0", "weak_error_tpi2"):
                err = row[key]
                _require(
                    err is not None and err <= WEAK_ERROR_TOL,
                    f"{key} at level {int(row['j'])} is {err!r}",
                )
    return {"alpha_j": alphas}


def check_oracle(exp: Experiment, out: Path) -> dict:
    if exp.fmt == "csv":
        data = np.loadtxt(out / "oracle_compare.csv", delimiter=",", skiprows=1)
        n = (data.shape[1] - 2) // 2
        closed, rk4 = data[:, 1 : 1 + n], data[:, 1 + n : 1 + 2 * n]
    else:
        obj = json.loads((out / "oracle_compare.json").read_text())
        closed, rk4 = np.array(obj["closed"]), np.array(obj["rk4"])
    dev = float(np.max(np.abs(closed - rk4)))
    _require(dev <= RK4_TOL, f"closed form and RK4 differ by {dev:.3e}")
    return {"rk4_deviation": dev}


def check_sweep(exp: Experiment, out: Path) -> dict:
    count = int(exp.param("tau_count", "12"))
    t_end = float(exp.param("t_end", repr(math.pi / 2)))
    files = sorted(out.glob(f"trajectory_*.{exp.fmt}"))
    _require(len(files) == count, f"{len(files)} trajectory files, expected {count}")
    if exp.fmt == "json":
        for f in files:
            obj = json.loads(f.read_text())
            _require(
                _reevaluates(obj["alpha"], obj["beta"], obj["frames"]),
                f"{f.name} does not re-evaluate bit-exactly from alpha, beta",
            )
    return {"boundary_touches": boundary_touches(count, t_end)}


def boundary_touches(count: int, t_end: float) -> dict:
    """Sweep trajectories whose exact boundary touch time precedes t_end."""
    p0 = SimplexPoint(np.array([1 / 3, 1 / 3]))
    taus = [2.0 * math.pi * k / count for k in range(count)]
    touches = [boundary_touch_time(p0, TangentVector(ellipse_param_n2(t))) for t in taus]
    return {"before_t_end": sum(t < t_end for t in touches), "trajectories": count}


CHECKS = {
    "density-geodesic": check_density,
    "moments": check_moments,
    "pixelation-convergence": check_ladder,
    "oracle-compare": check_oracle,
    "simplex-geodesic": check_sweep,
}


def check_outputs(exp: Experiment, out: Path) -> dict:
    """Health values of one experiment's outputs; raises CheckFailed."""
    if exp.expect_rc != 0:
        count = int(exp.param("tau_count", "12"))
        return {"boundary_touches": boundary_touches(count, math.pi / 2)}
    return CHECKS[exp.kind](exp, out)


def check_exit(exp: Experiment, rc: int, stderr: str) -> None:
    """Exit code as expected; a domain failure leaves one JSON object."""
    _require(rc == exp.expect_rc, f"exit code {rc}, expected {exp.expect_rc}: {stderr.strip()}")
    if exp.expect_rc == 0:
        return
    lines = stderr.strip().splitlines()
    _require(len(lines) == 1, f"{len(lines)} lines on stderr")
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stderr is not JSON: {exc}") from exc
    _require(isinstance(payload, dict) and "error" in payload, "stderr lacks an error object")


def same_files(a: Path, b: Path) -> bool:
    """True when both directories hold the same names with identical bytes."""
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


def backend_crosscheck(exp: Experiment) -> dict:
    """numba against numpy RK4 positions on one oracle start, when numba imports."""
    if kernels.rk4_coupled_jit is None:
        return {"numba_crosscheck": "skipped: numba not importable"}
    p0 = SimplexPoint(np.array([float(x) for x in exp.param("theta0").split(",")]))
    v0 = ellipsoid_tangent(p0, np.array([float(x) for x in exp.param("w_raw").split(",")]))
    args = (p0.theta, v0.v, float(exp.param("step")), float(exp.param("t_end")), DOMAIN_EPS)
    drift = float(np.max(np.abs(kernels.rk4_coupled_numpy(*args)[1] - kernels.rk4_coupled_jit(*args)[1])))
    _require(drift <= BACKEND_TOL, f"numba and numpy RK4 differ by {drift:.3e}")
    return {"numba_crosscheck": drift}
