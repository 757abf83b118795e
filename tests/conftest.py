"""Shared generators for randomized property tests, and a time limit.

Every test seeds its own ``numpy.random.default_rng``; these helpers only
turn raw draws into valid domain objects (interior simplex points, unit
Fisher-speed tangents, normalized grid densities).
"""

from __future__ import annotations

import signal

import numpy as np

from frgeo import (
    DyadicGrid,
    FiniteDensity,
    SignedFunction,
    SimplexPoint,
    TangentVector,
    ellipsoid_tangent,
    normalize_velocity,
)


def random_interior_point(rng, n, margin=0.02):
    """Interior point of the n-simplex, every coordinate >= margin/(n+1)."""
    raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
    probs = raw / raw.sum()
    probs = (1.0 - margin) * probs + margin / (n + 1)
    return SimplexPoint(probs[:n])


def random_unit_tangent(rng, point):
    """Tangent vector with unit Fisher speed at ``point``."""
    w = rng.standard_normal(point.n)
    while not np.any(w):
        w = rng.standard_normal(point.n)
    return ellipsoid_tangent(point, w)


def random_grid_state_data(rng, grid, floor=0.05):
    """A valid (density, unit velocity) pair on a dyadic grid."""
    f_raw = floor + rng.random(grid.n_points)
    f_vals = f_raw / np.dot(f_raw, grid.weights)
    f0 = FiniteDensity(grid, f_vals)
    g_raw = rng.standard_normal(grid.n_points)
    g_raw = g_raw - np.dot(g_raw, grid.weights) / grid.total_mass
    g0 = normalize_velocity(f0, SignedFunction(grid, g_raw))
    return f0, g0


def make_grid(dimension, level):
    return DyadicGrid(dimension, level)


def within_a_second(fn, *args):
    """``fn(*args)``, or TimeoutError once it has run for a second.

    A real-time alarm interrupts a pure-Python loop, so a call that would
    never return fails the test instead of hanging the run (main thread,
    POSIX only).
    """

    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__} did not return within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
