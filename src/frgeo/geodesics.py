"""Closed-form geodesic flow of densities in the Fisher-Rao geometry.

Every atom of a finite measure space evolves independently: with initial
density value y0 > 0 and initial velocity value z0, the scalar problem
2 y y'' + y^2 - (y')^2 = 0 has the explicit solution

    y(t) = alpha cos^2(t/2 - beta),
    alpha = (y0^2 + z0^2) / y0,    beta = arctan(z0 / y0),

with derivative y'(t) = -alpha cos(t/2 - beta) sin(t/2 - beta) and kinetic
density (y')^2 / y = alpha sin^2(t/2 - beta), the last identity holding with
no division (stable through the zeros of y).

A density f0 together with a velocity g0 satisfying the two normalization
conditions

    (a)  integral g0 dmu = 0,
    (b)  integral g0^2 / f0 dmu = 1,

flows as f(x, t) = alpha(x) cos^2(t/2 - beta(x)).  Along the flow both the
total mass and the kinetic integral are conserved (= 1), the period is 2 pi,
and integral alpha dmu = 2.

The probability simplex is the special case of the counting measure on the
n+1 category probabilities.  ``positions_at`` evaluates the flow at sampled
times on either space, and ``flow_blocks`` checks each sampled row, a block
at a time: against a floor (the simplex boundary) and for mass 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import simplex as sx
from .errors import (
    BoundaryTouch,
    DegenerateVelocity,
    NonpositiveInitialDensity,
    NotCentered,
    NotUnitSpeed,
    SpaceMismatch,
    ZeroDirection,
)
from .spaces import (
    NORMALIZATION_TOL, FiniteDensity, FiniteMeasureSpace, SignedFunction, _split, block_rows,
    exact_dot, frozen_floats, integrate,
)

# integral alpha = mass + energy, each 1 up to rounding once normalized
ALPHA_MASS_TOL = 1e-12
# a first screen of the raw candidate, before scaling; the scaled velocity
# must still pass UNIT_VELOCITY_MEAN_TOL
CENTERING_TOL = 1e-10
# energy (and Fisher speed) sums g^2 / f0, terms that grow as f0 shrinks, so
# its rounding gets a hundred times the mass tolerance
UNIT_SPEED_TOL = 1e-10
# the scaled velocity's mean is 0 up to rounding, as tight as a density's mass
UNIT_VELOCITY_MEAN_TOL = 1e-12
# at or below it, scaling to unit energy would magnify g's rounding over 1e7 times
DEGENERATE_ENERGY = 1e-14


@dataclass(frozen=True)
class UnitVelocity:
    """Velocity g with zero mean and unit energy against a companion f0."""

    g: SignedFunction
    f0: FiniteDensity

    def __post_init__(self):
        if self.g.space != self.f0.space:
            raise SpaceMismatch("velocity and density live on different spaces")
        mean = integrate(self.g)
        if not abs(mean) <= UNIT_VELOCITY_MEAN_TOL:
            raise NotCentered(f"velocity mean is {mean!r}, not 0")
        if not self.f0.min_value > 0.0:
            raise NonpositiveInitialDensity("companion density must be positive")
        energy = float(
            np.dot(self.g.values**2 / self.f0.values, self.g.space.weights)
        )
        if not abs(energy - 1.0) <= UNIT_SPEED_TOL:
            raise NotUnitSpeed(f"velocity energy is {energy!r}, not 1")

    @property
    def space(self) -> FiniteMeasureSpace:
        return self.g.space


@dataclass(frozen=True)
class GeodesicState:
    """Per-atom amplitude/phase representation of a flowing density."""

    space: FiniteMeasureSpace
    alpha: np.ndarray
    beta: np.ndarray
    f0: np.ndarray
    g0: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "f0", "g0"):
            arr = frozen_floats(getattr(self, name))
            object.__setattr__(self, name, arr)
            if arr.shape != (self.space.n_points,):
                raise ValueError(f"{name} does not match the space")
        if not (self.alpha > 0).all():
            raise ValueError("alpha must be strictly positive")
        mass = float(np.dot(self.alpha, self.space.weights))
        if not abs(mass - 2.0) <= ALPHA_MASS_TOL:
            raise ValueError(f"integral of alpha is {mass!r}, expected 2")
        # the amplitude/phase pair must reconstruct the initial data, y(0)
        # and y'(0) (``initial_values``).  The bound (ALPHA_MASS_TOL) is
        # absolute, so a tiny f0 rebuilt far off in relative terms passes
        # (1e-320 comes back as 7.5e-33 at beta = +-pi/2)
        y0, z0 = initial_values(self.alpha, self.beta)
        gap = np.abs(np.concatenate([y0 - self.f0, z0 - self.g0])).max()
        if not gap <= ALPHA_MASS_TOL:
            raise ValueError("(alpha, beta) do not reconstruct (f0, g0)")


def amplitude_phase(y0: np.ndarray, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes alpha = (y0^2 + z0^2) / y0 and phases beta = arctan(z0 / y0)."""
    return (y0 * y0 + z0 * z0) / y0, np.arctan(z0 / y0)


def evaluate_scalar(alpha, beta, t):
    """Value, derivative and kinetic density of scalar geodesics at time t.

    Accepts scalars or arrays (broadcast together).  Returns
    (y, y', (y')^2/y) with the kinetic term computed division-free as
    alpha sin^2(t/2 - beta).
    """
    phase = np.asarray(t) / 2.0 - np.asarray(beta)
    c = np.cos(phase)
    s = np.sin(phase)
    a = np.asarray(alpha)
    y = a * c * c
    ydot = -a * c * s
    kinetic = a * s * s
    return y, ydot, kinetic


def initial_values(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y(0) and y'(0) of scalar geodesics: the operations of
    ``evaluate_scalar`` at t = 0, in its order, so the bits are its first two
    results'; the kinetic term is not formed."""
    phase = 0.0 - beta
    c, s = np.cos(phase), np.sin(phase)
    return alpha * c * c, -alpha * c * s


def normalize_velocity(f0: FiniteDensity, g_raw: SignedFunction) -> UnitVelocity:
    """Scale a centered velocity candidate to unit energy against f0.

    Where the energy of g overflows, it is taken again with g scaled exactly
    by the power of two 2^-e that brings max |g| / sqrt(f0) into [1/2, 1), so
    no term g^2 / f0 exceeds one.  That ratio is formed from g scaled first by
    2^-m, as in ``ellipsoid_tangent``, so it cannot overflow either.
    DegenerateVelocity is raised if the energy still overflows, or if it
    (times 2^2e when scaled) is at most DEGENERATE_ENERGY.
    """
    return _normalized(f0, g_raw)[0]


def _normalized(f0: FiniteDensity, g_raw: SignedFunction) -> tuple[UnitVelocity, float]:
    """``normalize_velocity``, and the energy of ``g_raw`` it takes first,
    ``velocity_energy(f0, g_raw.values)`` (not finite where it overflows)."""
    if g_raw.space != f0.space:
        raise SpaceMismatch("velocity candidate and density spaces differ")
    mean = integrate(g_raw)
    if not abs(mean) <= CENTERING_TOL:
        raise NotCentered(f"velocity mean is {mean!r}, not 0")
    if not f0.min_value > 0.0:
        raise NonpositiveInitialDensity("density must be strictly positive")
    g, e = g_raw.values, 0
    with np.errstate(over="ignore", invalid="ignore"):
        halves = _split(f0.space.weights)
        energy = raw = velocity_energy(f0, g, halves)
        if not math.isfinite(energy):
            m = math.frexp(float(np.abs(g).max()))[1]
            ratio = (np.abs(np.ldexp(g, -m)) / np.sqrt(f0.values)).max()
            e = m + math.frexp(float(ratio))[1]
            g = np.ldexp(g, -e)
            energy = velocity_energy(f0, g, halves)
        unscaled = float(np.ldexp(energy, 2 * e))
    if not math.isfinite(energy):
        raise DegenerateVelocity(f"velocity energy overflows even with g scaled by 2^{-e}")
    if not unscaled > DEGENERATE_ENERGY:
        raise DegenerateVelocity(
            f"velocity energy {unscaled!r} too small to normalize"
        )
    g = g / math.sqrt(energy)
    # one refinement pass tightens the float rounding of the first scaling
    g = g / math.sqrt(velocity_energy(f0, g, halves))
    return UnitVelocity(SignedFunction(f0.space, g), f0), raw


def velocity_energy(f0: FiniteDensity, g: np.ndarray, w_halves=None) -> float:
    """integral g^2 / f0 dmu, correctly rounded (see ``exact_dot``, which
    takes ``w_halves``)."""
    return exact_dot(g**2 / f0.values, f0.space.weights, w_halves)


def geodesic_flow(f0: FiniteDensity, g0: UnitVelocity) -> GeodesicState:
    """Amplitude/phase state of the geodesic through (f0, g0)."""
    if g0.space != f0.space:
        raise SpaceMismatch("density and velocity live on different spaces")
    if g0.f0 is not f0 and not np.array_equal(g0.f0.values, f0.values):
        raise SpaceMismatch("velocity was normalized against a different density")
    y0, z0 = f0.values, g0.g.values
    return GeodesicState(f0.space, *amplitude_phase(y0, z0), y0, z0)


def density_at(state: GeodesicState, t: float) -> FiniteDensity:
    """The flowing density at time t (period 2 pi, mass conserved)."""
    return FiniteDensity(state.space, positions_at(state, np.array([float(t)]))[0])


def positions_at(state: GeodesicState, times: np.ndarray) -> np.ndarray:
    """alpha cos^2(t/2 - beta) at each of the 1-D ``times``, one row per time.

    The operations of ``evaluate_scalar``'s y, in its order, so the bits are
    its first result's; the derivative and kinetic terms are not formed.
    """
    c = np.cos(times[:, None] / 2.0 - state.beta)
    y = state.alpha * c
    y *= c
    return y


def flow_blocks(
    state: GeodesicState, times: np.ndarray, floor: float = -math.inf
) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, ``positions_at`` rows) of the 1-D ``times``, a block of
    about ``spaces.VALUES_PER_BLOCK`` values at a time, each row checked, in
    time order, before its block is handed out: a value below ``floor``
    raises BoundaryTouch naming the first such coordinate, and a row that
    is no density (``FiniteDensity``; at a large t the phases t/2 - beta
    lose beta's low bits) raises ValueError naming its time and mass.  The
    floor is checked first within a row, and the earliest failing row
    raises, as a check of the whole (T, n+1) grid would.  Detection happens
    at the given times only, no root-finding between them.
    """
    m, weights = block_rows(state.alpha.size), state.space.weights
    for s in range(0, times.size, m):
        y = positions_at(state, times[s : s + m])
        # whole-block tests first, then FiniteDensity decides each flagged
        # row; half its tolerance covers the rounding of these row masses
        drift = np.abs(y.dot(weights) - 1.0)
        if y.min() < floor or not drift.max() <= NORMALIZATION_TOL / 2:
            flagged = (y < floor).any(axis=1) | ~(drift <= NORMALIZATION_TOL / 2)
            for k in np.flatnonzero(flagged).tolist():
                t = float(times[s + k])
                below = np.flatnonzero(y[k] < floor)
                if below.size:
                    raise BoundaryTouch(int(below[0]) + 1, t)
                try:
                    FiniteDensity(state.space, y[k])
                except ValueError as exc:
                    raise ValueError(f"the frame at t={t!r} is not a density: {exc}")
        yield s, y


# ---------------------------------------------------------------------------
# simplex specialization


def simplex_state(p0: sx.SimplexPoint, v0: sx.TangentVector) -> GeodesicState:
    """Geodesic state of the n+1 category probabilities under counting measure.

    Requires unit Fisher speed: sum_k v_k^2 / theta_k = 1 over all n+1
    coordinates (the expanded metric form).
    """
    if v0.v.size != p0.n:
        raise SpaceMismatch("velocity dimension does not match the point")
    space = FiniteMeasureSpace.counting(p0.n + 1)
    f0 = FiniteDensity(space, p0.full)
    speed2 = sx.metric_inner(p0, v0, v0)
    if not abs(speed2 - 1.0) <= UNIT_SPEED_TOL:
        raise NotUnitSpeed(f"Fisher speed squared is {speed2!r}, not 1")
    g0 = UnitVelocity(SignedFunction(space, v0.full), f0)
    return geodesic_flow(f0, g0)


def simplex_flow_samples(
    p0: sx.SimplexPoint, v0: sx.TangentVector, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full-coordinate positions and velocities of a simplex geodesic.

    Returns arrays of shape (T, n+1), from one ``evaluate_scalar`` call; no
    boundary policing is applied, the closed form is global in time.
    """
    state = simplex_state(p0, v0)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    y, ydot, _ = evaluate_scalar(state.alpha, state.beta, times[:, None])
    return y, ydot


def simplex_trajectory(
    p0: sx.SimplexPoint, v0: sx.TangentVector, times: np.ndarray
) -> list[sx.SimplexPoint]:
    """Closed-form geodesic through (p0, v0), one SimplexPoint per sample time.

    theta_i(t) = theta_i cos^2(t/2) + (v_i^2 / theta_i) sin^2(t/2)
                 + v_i sin(t)   for i = 1..n+1,

    evaluated in the non-negative amplitude/phase form, every sample checked
    against the boundary floor and for mass 1 (``flow_blocks``).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    blocks = flow_blocks(simplex_state(p0, v0), times, sx.BOUNDARY_FLOOR)
    return [sx.SimplexPoint(row[:-1]) for _, y in blocks for row in y]


def boundary_touch_time(p0: sx.SimplexPoint, v0: sx.TangentVector) -> float:
    """First positive time at which some coordinate of the flow vanishes.

    Coordinate k vanishes where cos(t/2 - beta_k) = 0, i.e. at
    t = pi + 2 beta_k (mod 2 pi); the minimum over coordinates is the exit
    time from the open simplex.  Always < pi for unit-speed data, because
    the velocity components sum to zero so some beta_k is negative.
    """
    _, beta = amplitude_phase(p0.full, v0.full)
    return float(np.min(np.pi + 2.0 * beta))


def ellipsoid_tangent(p: sx.SimplexPoint, w_raw: np.ndarray) -> sx.TangentVector:
    """Scale a direction onto the unit Fisher sphere at p.

    w is first scaled by the power of two that brings max |w_k| into
    [1/2, 1), so its norm cannot over- or underflow.  The scaling is exact
    unless it makes a component subnormal (one about 2^1022 times smaller
    than max |w_k|: 5e-324 beside 1 scales to 0); short of that, wherever the
    norm of w itself neither over- nor underflows, the result is unchanged.
    """
    w = np.atleast_1d(np.asarray(w_raw, dtype=float))
    if not np.any(w != 0.0):
        raise ZeroDirection("cannot normalize the zero direction")
    w = np.ldexp(w, -math.frexp(float(np.max(np.abs(w))))[1])
    cand = sx.TangentVector(w)
    norm2 = sx.metric_inner(p, cand, cand)
    return sx.TangentVector(w / math.sqrt(norm2))


def ellipse_param_n2(tau) -> np.ndarray:
    """Unit-speed velocities at the barycenter of the 2-simplex.

    At theta = (1/3, 1/3) the unit Fisher sphere is the ellipse
    v1^2 + v2^2 + v1 v2 = 1/6, parametrized by

        v1 = (sqrt(2)/6) (-sqrt(3) cos tau + sin tau),
        v2 = (sqrt(2)/6) ( sqrt(3) cos tau + sin tau).

    Vectorized over tau; returns shape (..., 2).
    """
    tau = np.asarray(tau, dtype=float)
    r = math.sqrt(2.0) / 6.0
    c = math.sqrt(3.0) * np.cos(tau)
    s = np.sin(tau)
    return np.stack([r * (-c + s), r * (c + s)], axis=-1)
