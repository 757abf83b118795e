"""Numerical geodesic integration, used as an independent check of the
closed-form flow.

Two systems are integrated with the classical fixed-step fourth-order
Runge-Kutta scheme:

* the coupled second-order system in the free simplex coordinates,

      2 theta_k'' + (theta_k / theta_{n+1}) (sum theta')^2
                  - theta_k'^2 / theta_k + theta_k sum_j theta_j'^2 / theta_j = 0,

  where theta_{n+1} = 1 - sum theta_k is recomputed at every stage (never
  integrated), which keeps the total mass exactly one along the numerical
  trajectory;

* the per-coordinate decoupled form  y'' = (y'^2 - y^2) / (2 y),  valid for
  unit-speed data.

Both abort with :class:`~frgeo.errors.LeftDomain` as soon as any coordinate
(at any internal stage) falls to ``DOMAIN_EPS`` or below; the geodesic
equations are singular on the boundary, so no step across it is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import LeftDomain
from .simplex import SimplexPoint, TangentVector

DOMAIN_EPS = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    Step i ends at min((i + 1) * step, t_end): the final step is shortened
    to land exactly on t_end, and is never empty (``kernels.step_count``).
    """

    step: float
    t_end: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")

    @property
    def n_steps(self) -> int:
        return kernels.step_count(self.step, self.t_end)


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled numerical trajectory: times, positions and velocities."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        for name in ("positions", "velocities"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[0] != t.size:
                raise ValueError(f"{name} length does not match times")

    @property
    def n_samples(self) -> int:
        return self.times.size


def integrate_coupled(
    p0: SimplexPoint, v0: TangentVector, config: IntegratorConfig
) -> OdeTrajectory:
    """RK4 integration of the coupled system from (p0, v0).

    The initial velocity is arbitrary (unit speed is not assumed).  Raises
    LeftDomain if the trajectory reaches the boundary region.
    """
    theta0 = np.ascontiguousarray(p0.theta, dtype=float)
    vel0 = np.ascontiguousarray(v0.v, dtype=float)
    if vel0.size != theta0.size:
        raise ValueError("velocity dimension does not match the point")
    times, pos, vel, n_valid, _, exit_time = kernels.rk4_coupled(
        theta0, vel0, float(config.step), float(config.t_end), DOMAIN_EPS
    )
    if n_valid != times.size:
        raise LeftDomain(float(exit_time))
    return OdeTrajectory(times, pos, vel)


def integrate_decoupled(
    y0: np.ndarray, z0: np.ndarray, config: IntegratorConfig
) -> OdeTrajectory:
    """RK4 integration of the scalar systems y'' = (y'^2 - y^2) / (2y).

    ``y0`` and ``z0`` are equal-length vectors of initial values and
    velocities; the coordinates evolve independently.  Raises LeftDomain
    naming the first offending coordinate (1-based).
    """
    y0 = np.ascontiguousarray(np.atleast_1d(y0), dtype=float)
    z0 = np.ascontiguousarray(np.atleast_1d(z0), dtype=float)
    if y0.shape != z0.shape or y0.ndim != 1:
        raise ValueError("y0 and z0 must be equal-length vectors")
    times, pos, vel, n_valid, exit_coord, exit_time = kernels.rk4_decoupled(
        y0, z0, float(config.step), float(config.t_end), DOMAIN_EPS
    )
    if n_valid != times.size:
        raise LeftDomain(float(exit_time), int(exit_coord) + 1)
    return OdeTrajectory(times, pos, vel)
