"""Dyadic pixelation of continuum geodesic data and weak-convergence errors.

Starting from exact box catalogs (f0, g0) on [0,1)^m satisfying

    f0 >= delta > 0,   integral f0 = 1,   integral g0 = 0,
    integral g0^2 / f0 = 1,

each level j averages them exactly over its cell classes, f0_j = avg(f0)
and g0_j = avg(g0) (``project_pair``, the grid kinds' projection too).
Averaging preserves the first two integrals exactly but shrinks the energy,
so the level restores it with the renormalizer

    alpha_j = integral (g0_j)^2 / f0_j dmu_j,      g_j = g0_j / sqrt(alpha_j).

By the per-cell Cauchy-Schwarz inequality alpha_j <= 1, with equality iff
g0/f0 is constant on every cell; alpha_j increases to 1 under refinement.
A level is degenerate, and carries no geodesic state, exactly where
``normalize_velocity`` refuses g0_j (alpha_j vanishes numerically).

Weak errors compare the discrete flow with the exact continuum flow, which
is constant on each region of the overlay of the two catalogs.  A test
function phi, a product of per-axis tents, is fixed once as its midpoint
staircase at a reference level J_ref, and both sides are integrated exactly
against it.  Overlay regions and a level's cell classes (``CellClasses``)
are boxes, so each side is sum_b v_b W_b over boxes b, with v constant per
box and W_b the product over axes of the staircase's integral over the
box's side.  A tent is linear between its kinks c - r, c and c + r, so that
integral is two arithmetic series in the boxes' integer bounds, rounded
once (``_stair_integrals``); the sums are math.fsum's, so each pairing is
within a few ulp of its exact value.  ``_level_errors`` pairs the continuum
side once per ladder, so a summary costs O(regions + classes), whatever
J_ref is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import (
    BoxFunction, OverlayRegion, grid_classes, overlay, project_classes, project_regions,
    regions_energy,
)
from .errors import DegenerateVelocity, HypothesisViolation
from .geodesics import (
    GeodesicState, amplitude_phase, evaluate_scalar, geodesic_flow, normalize_velocity,
    velocity_energy,
)
from .spaces import CellClasses, DyadicGrid, FiniteDensity, SignedFunction, outer

HYPOTHESIS_TOL = 1e-12
J_REF_OFFSET = 4
# columns of a ladder summary row, in CSV and JSON order
LADDER_FIELDS = (
    "j", "alpha_j", "degenerate", "e_f", "e_g", "e_q",
    "weak_error_t0", "weak_error_tpi2",
)


@dataclass(frozen=True)
class TentFunction:
    """Product of per-axis tents: prod_d max(0, 1 - |x_d - c_d| / r_d).

    Continuous, compactly supported with support strictly inside (0,1)^m,
    sup-norm one.
    """

    centers: tuple[float, ...]
    radii: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.centers) != len(self.radii) or not self.centers:
            raise ValueError("centers and radii must have equal positive length")
        for c, r in zip(self.centers, self.radii):
            if r <= 0 or c - r <= 0.0 or c + r >= 1.0:
                raise ValueError(
                    f"tent support [{c - r}, {c + r}] not strictly inside (0, 1)"
                )

    @property
    def dimension(self) -> int:
        return len(self.centers)


def test_functions_1d() -> list[TentFunction]:
    """The fixed 1D test set: twelve tents, six centers at two widths.

    The centers probe both thirds breakpoints and the midpoint from either
    side with a common offset of 1/14.  Every support straddles a breakpoint,
    so none of the weak-error integrals degenerates to zero.
    """
    centers = [11 / 42, 17 / 42, 3 / 7, 4 / 7, 25 / 42, 31 / 42]
    radii = [1 / 5, 1 / 4]
    return [TentFunction((c,), (r,)) for r in radii for c in centers]


def test_functions_2d() -> list[TentFunction]:
    """The fixed 2D test set: 3 x 3 products of tents (one width)."""
    centers = [11 / 42, 1 / 2, 31 / 42]
    return [
        TentFunction((cx, cy), (1 / 5, 1 / 5)) for cx in centers for cy in centers
    ]


@dataclass(frozen=True)
class LadderLevel:
    """One pixelation level: projected density and its renormalized state,
    both on the grid's cell classes."""

    level: int
    density: FiniteDensity
    alpha: float
    state: GeodesicState | None  # None iff the level is degenerate

    @property
    def degenerate(self) -> bool:
        """Whether ``normalize_velocity`` refused the projected velocity."""
        return self.state is None


@dataclass(frozen=True)
class PixelationLadder:
    """Pixelations of one continuum initial datum across several levels."""

    dimension: int
    f0: BoxFunction
    g0: BoxFunction
    regions: tuple[OverlayRegion, ...]
    levels: dict[int, LadderLevel]

    @property
    def max_level(self) -> int:
        return max(self.levels)


def _check_hypotheses(f0: BoxFunction, g0: BoxFunction, delta) -> tuple:
    delta = Fraction(delta)
    if delta <= 0:
        raise HypothesisViolation("delta", "lower density bound must be positive")
    if f0.min_value() < delta:
        raise HypothesisViolation(
            "density-floor", f"min f0 = {float(f0.min_value())} below delta"
        )
    mass = f0.integral()
    if abs(mass - 1) > HYPOTHESIS_TOL:
        raise HypothesisViolation("unit-mass", f"integral f0 = {float(mass)}")
    mean = g0.integral()
    if abs(mean) > HYPOTHESIS_TOL:
        raise HypothesisViolation("zero-mean", f"integral g0 = {float(mean)}")
    regions = overlay(f0, g0)
    energy = regions_energy(regions)
    if abs(energy - 1) > HYPOTHESIS_TOL:
        raise HypothesisViolation(
            "unit-energy", f"integral g0^2/f0 = {float(energy)}"
        )
    return regions


def project_pair(f0: BoxFunction, g0: BoxFunction, j: int) -> tuple[FiniteDensity, SignedFunction]:
    """A catalog pair averaged over the level-j cell classes: the density
    (ValueError if it is not one) and the velocity before renormalization."""
    classes = grid_classes(DyadicGrid(f0.dimension, j), f0.int_bounds, g0.int_bounds)
    f, g = project_classes(classes, (f0.int_bounds, f0.floats), (g0.int_bounds, g0.floats))
    return FiniteDensity(classes, f), SignedFunction(classes, g)


def build_ladder(
    f0: BoxFunction,
    g0: BoxFunction,
    levels: list[int],
    delta=Fraction(1, 1000),
) -> PixelationLadder:
    """Project (f0, g0) to each requested level and renormalize.

    The continuum hypotheses are verified exactly (box arithmetic) before
    any projection; violations raise HypothesisViolation naming the failed
    condition.  Levels whose projected velocity ``normalize_velocity``
    refuses (DegenerateVelocity) are recorded as degenerate.
    """
    if f0.dimension != g0.dimension:
        raise HypothesisViolation("dimension", "catalogs of different dimension")
    regions = _check_hypotheses(f0, g0, delta)
    out = {}
    for j in sorted(set(int(j) for j in levels)):
        fd, g_raw = project_pair(f0, g0, j)
        try:
            state = geodesic_flow(fd, normalize_velocity(fd, g_raw))
        except DegenerateVelocity:
            state = None
        out[j] = LadderLevel(j, fd, velocity_energy(fd, g_raw.values), state)
    return PixelationLadder(f0.dimension, f0, g0, tuple(regions), out)


def _stair_integrals(phi: TentFunction, axis: int, j_ref: int, points) -> list[float]:
    """Integrals over [points[i], points[i + 1]) of phi's level-j_ref
    midpoint staircase on axis ``axis``, for points given as integer pairs
    (n, D), the point n / D: exact, then rounded once (int division is
    correctly rounded, like ``float(Fraction)``).

    Times 2^shift, the tent's center and radius (floats, so dyadic) are
    integers C and R and cell k's midpoint is (2k + 1) g, so the cell's value
    is u_k / R, u_k = max(0, R - |(2k + 1) g - C|); the sum of u_k over k < K
    is two arithmetic series, split where the midpoints reach c - r, c, c + r.
    """
    (cn, cd), (rn, rd) = (v[axis].as_integer_ratio() for v in (phi.centers, phi.radii))
    side = 1 << j_ref
    shift = max(j_ref + 1, cd.bit_length() - 1, rd.bit_length() - 1)
    C, R = ((n << shift) // d for n, d in ((cn, cd), (rn, rd)))
    g = 1 << (shift - j_ref - 1)
    k_lo, k_mid, k_hi = (-((g - x) // (2 * g)) for x in (C - R, C, C + R))

    def upto(p: int, q: int) -> int:  # q * R * side * the integral over [0, p / q)
        k = p * side // q
        # the sum of u_i over i < k: rising on [k_lo, a), falling on [k_mid, b)
        a, b = min(max(k, k_lo), k_mid), min(max(k, k_mid), k_hi)
        below = g * (a * a - k_lo * k_lo) + (R - C) * (a - k_lo)
        below += (R + C) * (b - k_mid) - g * (b * b - k_mid * k_mid)
        return q * below + (p * side - k * q) * max(0, R - abs((2 * k + 1) * g - C))

    ends = [(upto(p, q), q) for p, q in points]
    return [
        (n1 * q0 - n0 * q1) / (q0 * q1 * R * side) for (n0, q0), (n1, q1) in zip(ends, ends[1:])
    ]


def region_flow_values(regions, t: float) -> np.ndarray:
    """Exact continuum flow value on each overlay region at time t."""
    f, g, _ = _block_values(regions)
    return evaluate_scalar(*amplitude_phase(f, g), t)[0]


def continuum_cell_averages(
    ladder: PixelationLadder, t: float, j_ref: int
) -> np.ndarray:
    """Cell averages at level j_ref of the exact continuum flow at time t."""
    grid = DyadicGrid(ladder.dimension, j_ref)
    values = region_flow_values(ladder.regions, t)
    bounds = [(r.lo, r.hi) for r in ladder.regions]
    return project_regions(grid, bounds, values)


def _separable_phi(ladder: PixelationLadder, phi: TentFunction, j_ref):
    """Resolved j_ref (default: max + 4) and phi's region weights W_r, the
    integrals of its level-j_ref staircase over each overlay region."""
    j_ref = ladder.max_level + J_REF_OFFSET if j_ref is None else j_ref
    if j_ref <= ladder.max_level:
        raise ValueError("j_ref must exceed the deepest ladder level")
    if phi.dimension != ladder.dimension:
        raise ValueError("test function dimension mismatch")
    weights = [
        math.prod(
            _stair_integrals(phi, d, j_ref, [(a, den), (b, den)])[0]
            for d, (a, b, den) in enumerate(zip(*r.span, r.dens))
        )
        for r in ladder.regions
    ]
    return j_ref, np.array(weights)


def _phi_coarse(phi: TentFunction, j_ref: int, classes: CellClasses) -> np.ndarray:
    """phi's class weights: the integrals of its level-j_ref staircase over
    each class, the outer product of the per-axis integrals over the runs."""
    side = classes.grid.side_count
    return outer([
        np.array(_stair_integrals(phi, d, j_ref, [(k, side) for k in e]))
        for d, e in enumerate(classes.edges)
    ])


def _ladder_level(ladder: PixelationLadder, j: int) -> LadderLevel:
    if j not in ladder.levels:
        raise ValueError(f"level {j} is not a ladder level {sorted(ladder.levels)}")
    return ladder.levels[j]


def _pairing(values: np.ndarray, weights: np.ndarray) -> float:
    """Pairing of phi's staircase with a function constant per box (class
    or overlay region), given phi's box weights."""
    return math.fsum((values * weights).tolist())


def _block_values(regions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-region f0, g0 and g0^2/f0: the continuum sides of three_term_errors."""
    f = np.array([float(r.f_value) for r in regions])
    g = np.array([float(r.g_value) for r in regions])
    return f, g, g**2 / f


def _block_errors(level: LadderLevel, phi_coarse: np.ndarray, cont) -> tuple:
    """(e_f, e_g, e_q) at one level, given the continuum block pairings."""
    e_f = abs(_pairing(level.density.values, phi_coarse) - cont[0])
    if level.degenerate:
        return e_f, None, None
    g_unit = level.state.g0
    e_g = abs(_pairing(g_unit, phi_coarse) - cont[1])
    q_unit = g_unit**2 / level.state.f0
    return e_f, e_g, abs(_pairing(q_unit, phi_coarse) - cont[2])


def _flow_error(level: LadderLevel, t: float, phi_coarse, cont: float) -> float:
    """weak_error of a non-degenerate level, given the continuum pairing."""
    phase = t / 2.0 - level.state.beta
    disc = _pairing(level.state.alpha * np.cos(phase) ** 2, phi_coarse)
    return abs(disc - cont)


def _level_errors(ladder: PixelationLadder, phi: TentFunction, j_ref, levels, times=()):
    """Per level of ``levels``: its LadderLevel, e_f, e_g, e_q and the weak
    errors at ``times``, None where a degenerate level has no state.  phi's
    region weights and the continuum pairings are built once for all levels."""
    j_ref, weights = _separable_phi(ladder, phi, j_ref)
    flows = [region_flow_values(ladder.regions, t) for t in times]
    cont = [_pairing(v, weights) for v in (*_block_values(ladder.regions), *flows)]
    for j in levels:
        level = _ladder_level(ladder, j)
        phi_coarse = _phi_coarse(phi, j_ref, level.density.space)
        e_f, e_g, e_q = _block_errors(level, phi_coarse, cont[:3])
        flow = [
            None if level.degenerate else _flow_error(level, t, phi_coarse, c)
            for t, c in zip(times, cont[3:])
        ]
        yield level, e_f, e_g, e_q, flow


def weak_error(
    ladder: PixelationLadder,
    j: int,
    t: float,
    phi: TentFunction,
    j_ref: int | None = None,
) -> float:
    """|discrete minus continuum| pairing of the flow with a test function.

    Both sides integrate piecewise-constant densities against the same
    J_ref staircase of phi, so the only representation error left is phi's.
    Requires j_ref strictly above every ladder level (default: max + 4).
    """
    if _ladder_level(ladder, j).degenerate:
        raise HypothesisViolation(
            "degenerate-level", f"level {j} carries no geodesic state"
        )
    [(*_, [error])] = _level_errors(ladder, phi, j_ref, [j], [t])
    return error


def three_term_errors(
    ladder: PixelationLadder,
    j: int,
    phi: TentFunction,
    j_ref: int | None = None,
) -> tuple[float, float | None, float | None]:
    """Weak errors of the three building blocks at level j.

    e_f pairs f0_j against f0, e_g the renormalized velocity against g0,
    e_q the discrete kinetic ratio g_j^2/f0_j against g0^2/f0.  At a
    degenerate level only e_f is defined; the other two come back as None.
    """
    [(_, e_f, e_g, e_q, _)] = _level_errors(ladder, phi, j_ref, [j])
    return e_f, e_g, e_q


def ladder_summary_rows(
    ladder: PixelationLadder,
    phi: TentFunction,
    j_ref: int | None = None,
) -> list[dict]:
    """Per-level summary rows, one dict of LADDER_FIELDS per level, that
    ``frgeo.cli`` writes as ladder CSV (``write_ladder_csv``) and JSON.

    Each row holds the level, alpha_j, degeneracy, three_term_errors and
    weak_error at t = 0 and t = pi/2, from one ``_level_errors`` pass.
    """
    levels = sorted(ladder.levels)
    rows = []
    for level, *errors, flow in _level_errors(ladder, phi, j_ref, levels, (0.0, math.pi / 2)):
        row = (level.level, level.alpha, level.degenerate, *errors, *flow)
        rows.append(dict(zip(LADDER_FIELDS, row)))
    return rows
