"""Dyadic pixelation of continuum geodesic data and weak-convergence errors.

Starting from exact box catalogs (f0, g0) on [0,1)^m satisfying

    f0 >= delta > 0,   integral f0 = 1,   integral g0 = 0,
    integral g0^2 / f0 = 1,

each level j produces discrete initial data by exact cell averaging:
f0_j = avg(f0), g0_j = avg(g0).  Averaging preserves the first two integrals
exactly but shrinks the energy, so the level restores it with the
renormalizer

    alpha_j = integral (g0_j)^2 / f0_j dmu_j,      g_j = g0_j / sqrt(alpha_j).

By the per-cell Cauchy-Schwarz inequality alpha_j <= 1, with equality iff
g0/f0 is constant on every cell; alpha_j increases to 1 under refinement.
Levels where alpha_j vanishes numerically are recorded as degenerate and
carry no geodesic state.

Weak errors compare the discrete flow with the exact continuum flow: the
continuum initial data is piecewise constant on the overlay of the two
catalogs, so alpha(x), beta(x) are exact per overlay region (no projection
of the initial data is involved).  Test functions phi are fixed once as a
staircase at a reference level J_ref (midpoint sampling), and both sides
are integrated exactly against that staircase.

The pairings are separable, and no J_ref grid is ever built.  phi is a
product of per-axis tents and every overlay region is a box, so phi's
staircase is the outer product of 1-D staircases s_d, and the pairing of
the staircase with a function v constant per region is

    sum_r v_r W_r,    W_r = prod_d sum_k overlap_{r,d}[k] s_d[k],

with the exact per-axis overlaps of region r.  W costs O(regions * 2^J_ref)
per axis and serves every continuum pairing (f0, g0, g0^2/f0 and the flow at
any time); the sums are taken with math.fsum, so each pairing is within a
few ulp of its exact value.  No level holds a per-cell array either: its
state lives on the grid's cell classes (``CellClasses``), and the coarse
test function at level j, the outer product of the per-axis block means of
s_d, enters through its sum over each class, the product of per-axis
math.fsum's over the runs.  A level costs O(2^j) per axis plus O(classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import (
    BoxFunction, OverlayRegion, _axis_overlaps, grid_classes, overlay, project_regions,
)
from .errors import HypothesisViolation
from .geodesics import GeodesicState, geodesic_flow, normalize_velocity, velocity_energy
from .spaces import CellClasses, DyadicGrid, FiniteDensity, SignedFunction, outer

DEGENERATE_ALPHA = 1e-14
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

    def axis_tent(self, axis: int, x: np.ndarray) -> np.ndarray:
        """The factor of axis ``axis`` at the coordinates ``x``."""
        c, r = self.centers[axis], self.radii[axis]
        return np.maximum(0.0, 1.0 - np.abs(x - c) / r)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(pts.shape[0])
        for d in range(self.dimension):
            out *= self.axis_tent(d, pts[:, d])
        return out


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
    grid: DyadicGrid
    density: FiniteDensity
    alpha: float
    degenerate: bool
    state: GeodesicState | None  # None iff degenerate


@dataclass(frozen=True)
class PixelationLadder:
    """Pixelations of one continuum initial datum across several levels."""

    dimension: int
    f0: BoxFunction
    g0: BoxFunction
    regions: tuple[OverlayRegion, ...]
    delta: float
    levels: dict[int, LadderLevel]

    @property
    def max_level(self) -> int:
        return max(self.levels)

    def grid(self, j: int) -> DyadicGrid:
        return self.levels[j].grid


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
    energy = sum(
        (r.g_value * r.g_value / r.f_value * r.volume for r in regions),
        Fraction(0),
    )
    if abs(energy - 1) > HYPOTHESIS_TOL:
        raise HypothesisViolation(
            "unit-energy", f"integral g0^2/f0 = {float(energy)}"
        )
    return regions


def build_ladder(
    f0: BoxFunction,
    g0: BoxFunction,
    levels: list[int],
    delta=Fraction(1, 1000),
) -> PixelationLadder:
    """Project (f0, g0) to each requested level and renormalize.

    The continuum hypotheses are verified exactly (box arithmetic) before
    any projection; violations raise HypothesisViolation naming the failed
    condition.  Levels whose projected velocity is numerically zero are
    recorded as degenerate.
    """
    if f0.dimension != g0.dimension:
        raise HypothesisViolation("dimension", "catalogs of different dimension")
    regions = _check_hypotheses(f0, g0, delta)
    out = {}
    for j in sorted(set(int(j) for j in levels)):
        grid = DyadicGrid(f0.dimension, j)
        classes = grid_classes(grid, f0.bounds, g0.bounds)
        fd = FiniteDensity(classes, f0.class_averages(classes))
        g_raw = SignedFunction(classes, g0.class_averages(classes))
        alpha = velocity_energy(fd, g_raw.values)
        if alpha <= DEGENERATE_ALPHA:
            out[j] = LadderLevel(j, grid, fd, alpha, True, None)
            continue
        state = geodesic_flow(fd, normalize_velocity(fd, g_raw))
        out[j] = LadderLevel(j, grid, fd, alpha, False, state)
    return PixelationLadder(
        f0.dimension, f0, g0, tuple(regions), float(delta), out
    )


def alpha_sequence(ladder: PixelationLadder) -> list[tuple[int, float]]:
    """(level, alpha_j) pairs in increasing level order."""
    return [(j, ladder.levels[j].alpha) for j in sorted(ladder.levels)]


def _axis_staircases(phi: TentFunction, j_ref: int) -> list[np.ndarray]:
    """phi's per-axis tents sampled at the level-j_ref cell midpoints."""
    x = DyadicGrid(1, j_ref).axis_centers()
    return [phi.axis_tent(d, x) for d in range(phi.dimension)]


def phi_staircase(phi: TentFunction, dimension: int, j_ref: int) -> np.ndarray:
    """phi sampled at the cell midpoints of the level-j_ref grid."""
    if phi.dimension != dimension:
        raise ValueError("test function dimension mismatch")
    return outer(_axis_staircases(phi, j_ref))


def region_flow_values(regions, t: float) -> np.ndarray:
    """Exact continuum flow value on each overlay region at time t."""
    f = np.array([float(r.f_value) for r in regions])
    g = np.array([float(r.g_value) for r in regions])
    alpha = (f * f + g * g) / f
    beta = np.arctan(g / f)
    c = np.cos(t / 2.0 - beta)
    return alpha * c * c


def continuum_cell_averages(
    ladder: PixelationLadder, t: float, j_ref: int
) -> np.ndarray:
    """Cell averages at level j_ref of the exact continuum flow at time t."""
    grid = DyadicGrid(ladder.dimension, j_ref)
    values = region_flow_values(ladder.regions, t)
    bounds = [(r.lo, r.hi) for r in ladder.regions]
    return project_regions(grid, bounds, values)


def _separable_phi(ladder: PixelationLadder, phi: TentFunction, j_ref):
    """Resolved j_ref (default: max + 4), phi's per-axis staircases there,
    and its region weights.

    W_r = prod_d <overlap_{r,d}, s_d> is the pairing of phi's j_ref staircase
    with the indicator of overlay region r, from the exact per-axis overlaps.
    """
    j_ref = ladder.max_level + J_REF_OFFSET if j_ref is None else j_ref
    if j_ref <= ladder.max_level:
        raise ValueError("j_ref must exceed the deepest ladder level")
    if phi.dimension != ladder.dimension:
        raise ValueError("test function dimension mismatch")
    stairs = _axis_staircases(phi, j_ref)
    weights = []
    for r in ladder.regions:
        w = 1.0
        for lo, hi, stair in zip(r.lo, r.hi, stairs):
            first, lengths = _axis_overlaps(lo, hi, j_ref)
            w *= math.fsum((lengths * stair[first : first + lengths.size]).tolist())
        weights.append(w)
    return j_ref, stairs, np.array(weights)


def _phi_coarse(stairs: list[np.ndarray], j_ref: int, classes: CellClasses) -> np.ndarray:
    """Per class, the cell weight times the sum over its cells of the level-j
    block means of phi's staircase: per axis the math.fsum over each run."""
    ratio = 1 << (j_ref - classes.grid.level)
    sums = []
    for s, e in zip(stairs, classes.edges):
        means = s.reshape(-1, ratio).mean(axis=1).tolist()
        sums.append(np.array([math.fsum(means[a:b]) for a, b in zip(e, e[1:])]))
    return outer(sums) * classes.grid.cell_weight


def _cont_pairings(weights: np.ndarray, *region_values) -> list[float]:
    """Pairings of phi's staircase with functions constant per region."""
    return [math.fsum((v * weights).tolist()) for v in region_values]


def _ladder_level(ladder: PixelationLadder, j: int) -> LadderLevel:
    if j not in ladder.levels:
        raise ValueError(f"level {j} is not a ladder level {sorted(ladder.levels)}")
    return ladder.levels[j]


def _pairing(values: np.ndarray, phi_coarse: np.ndarray) -> float:
    """Integral of a class-constant function times the coarse test function."""
    return math.fsum((values * phi_coarse).tolist())


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
    level = _ladder_level(ladder, j)
    if level.degenerate:
        raise HypothesisViolation(
            "degenerate-level", f"level {j} carries no geodesic state"
        )
    j_ref, stairs, weights = _separable_phi(ladder, phi, j_ref)
    phi_coarse = _phi_coarse(stairs, j_ref, level.state.space)
    (cont,) = _cont_pairings(weights, region_flow_values(ladder.regions, t))
    return _flow_error(level, t, phi_coarse, cont)


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
    j_ref, stairs, weights = _separable_phi(ladder, phi, j_ref)
    level = _ladder_level(ladder, j)
    phi_coarse = _phi_coarse(stairs, j_ref, level.density.space)
    values = _block_values(ladder.regions)[: 1 if level.degenerate else 3]
    cont = _cont_pairings(weights, *values)
    return _block_errors(level, phi_coarse, cont)


def ladder_summary_rows(
    ladder: PixelationLadder,
    phi: TentFunction,
    j_ref: int | None = None,
) -> list[dict]:
    """Per-level summary rows, one dict of LADDER_FIELDS per level, that
    ``frgeo.cli`` writes as ladder CSV (``write_ladder_csv``) and JSON.

    Each row holds three_term_errors and weak_error at t = 0 and t = pi/2.
    phi's region weights and the five continuum pairings (f0, g0, g0^2/f0
    and the flow at both times) do not depend on the level, so they are
    built once per ladder; each level adds only its discrete pairings.
    """
    j_ref, stairs, weights = _separable_phi(ladder, phi, j_ref)
    times = (0.0, math.pi / 2.0)
    flows = [region_flow_values(ladder.regions, t) for t in times]
    cont = _cont_pairings(weights, *_block_values(ladder.regions), *flows)
    rows = []
    for j in sorted(ladder.levels):
        level = ladder.levels[j]
        phi_coarse = _phi_coarse(stairs, j_ref, level.density.space)
        e_f, e_g, e_q = _block_errors(level, phi_coarse, cont[:3])
        if level.degenerate:
            w0 = wpi2 = None
        else:
            w0, wpi2 = (
                _flow_error(level, t, phi_coarse, c) for t, c in zip(times, cont[3:])
            )
        row = (j, level.alpha, level.degenerate, e_f, e_g, e_q, w0, wpi2)
        rows.append(dict(zip(LADDER_FIELDS, row)))
    return rows

