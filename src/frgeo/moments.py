"""Moment summaries and conic classification of geodesic trajectories.

Mean and variance of a flowing grid density use cell-center quadrature:
cell k contributes value * weight at its center x_k.  The density is
constant per cell, so only the x-weighting is approximated -- and for the
mean not even that, because the per-cell integral of x is exactly
center * |cell|.  On a grid's cell classes, each class enters through its
cells' exact sums of x and x^2 (products of per-axis run sums, O(runs)); a
``DyadicGrid`` state is the case of one class per cell.

Expanding the closed-form flow,

    f(x, t) = f0(x) cos^2(t/2) + g0(x) sin t + (g0^2/f0)(x) sin^2(t/2),

and swapping the cell sum with the time functions shows that every mean
coordinate is the three-term curve

    mean_d(t) = A_d cos^2(t/2) + B_d sin^2(t/2) + C_d sin t

with A = int x f0, B = int x g0^2/f0, C = int x g0, and the second moments
are the same curve with x^2 in place of x.  ``moments`` evaluates exactly
this: it contracts the per-class rows (f0, g0^2/f0, g0) times the cell
weight with the class sums of x and x^2 once, giving two (3, d) matrices,
and multiplies them by the (T, 3) matrix of time functions.  Cost and
memory are O(N + T) for N classes and T times; no (T, N) array is built.
The fit and the direct integrals are both provided so they can be checked
against each other.

``classify_conic`` sorts planar point sets into ellipse / line / degenerate.
Collinearity is decided first on the centered, RMS-scaled scatter, because a
straight line admits a whole family of degenerate conics and no stable fit;
genuinely two-dimensional scatter gets a unit-norm least-squares conic whose
discriminant B^2 - 4AC picks the label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, SpaceMismatch
from .geodesics import GeodesicState
# perfbench/spans.py wraps frgeo.moments.evaluate_scalar by name
from .geodesics import evaluate_scalar  # noqa: F401
from .spaces import CellClasses, DyadicGrid, outer

ELLIPSE = "ellipse"
LINE = "line"
DEGENERATE = "degenerate"

# |B^2 - 4AC| on the unit-norm coefficient vector below which the quadratic
# part is considered parabolic (neither ellipse nor anything we report).
DISCRIMINANT_CUTOFF = 1e-7
# perpendicular RMS (on the normalized scatter) below which points are a line
COLLINEARITY_CUTOFF = 1e-8
# RMS radius (relative to the centroid magnitude) below which the scatter is
# rounding noise with no usable direction
NO_SCATTER_CUTOFF = 1e-13


@dataclass(frozen=True)
class MomentCurve:
    """Coordinate-wise mean and variance of a flowing density over time."""

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if mean.ndim == 1:
            mean = mean[:, None]
        if var.ndim == 1:
            var = var[:, None]
        if mean.shape != var.shape or mean.shape[0] != t.size:
            raise ValueError("times, mean and variance shapes are inconsistent")
        if np.any(var < 0):
            raise ValueError("variance must be non-negative componentwise")
        for name, arr in (("times", t), ("mean", mean), ("variance", var)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return self.mean.shape[1]


def _moment_matrices(state: GeodesicState) -> tuple[np.ndarray, np.ndarray]:
    """(3, d) contractions of the rows (f0, g0^2/f0, g0) times the cell
    weight with each class's sums of x and x^2."""
    classes = state.space
    if isinstance(classes, DyadicGrid):
        side = np.arange(classes.side_count + 1)
        classes = CellClasses(classes, [side] * classes.dimension)
    if not isinstance(classes, CellClasses):
        raise SpaceMismatch("moments need a geodesic on a dyadic grid")
    m = classes.grid.dimension
    rows = np.stack([state.f0, state.g0**2 / state.f0, state.g0])
    rows *= classes.grid.cell_weight
    out = np.empty((2, 3, m))
    for p, power in enumerate((1, 2)):
        for d in range(m):
            # each class's sum of x_d^power: the run sums along axis d times
            # the run lengths along the others
            x = outer([classes.axis_sums(e, power if e == d else 0) for e in range(m)])
            out[p, :, d] = rows @ x
    return out[0], out[1]


def _time_design(t: np.ndarray) -> np.ndarray:
    """(T, 3) matrix of the time functions cos^2(t/2), sin^2(t/2), sin t."""
    half = t / 2.0
    return np.stack([np.cos(half) ** 2, np.sin(half) ** 2, np.sin(t)], axis=1)


def moments(state: GeodesicState, times) -> MomentCurve:
    """Mean and variance curves of a grid geodesic at the given times.

    mean(t) = sum_k f(x_k, t) x_k w_k and variance(t) = sum f x_k^2 w
    - mean^2, per coordinate, with x_k the cell centers; both sums are
    evaluated through the three-term identity of the module docstring.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    m1, m2 = _moment_matrices(state)
    design = _time_design(times)
    mean = design @ m1
    var = design @ m2 - mean * mean
    # center quadrature keeps genuine variances positive; only rounding can
    # push a (near-)concentrated coordinate a few ulp below zero
    var[(var < 0.0) & (var > -1e-12)] = 0.0
    return MomentCurve(times, mean, var)


def mean_coefficients_direct(state: GeodesicState) -> np.ndarray:
    """Exact mean-curve coefficients as a (3, d) array of (A, B, C) rows.

    A = int x f0, B = int x g0^2/f0, C = int x g0 against the grid measure,
    cell centers standing in for x.
    """
    return _moment_matrices(state)[0]


def fit_mean_coefficients(times, values) -> np.ndarray:
    """Least-squares (A, B, C) for curves A cos^2(t/2) + B sin^2(t/2) + C sin t.

    ``values`` is (T,) or (T, d); the result is (3,) or (3, d) accordingly.
    Three coefficients need at least three samples (four or more distinct
    times keep the design comfortably conditioned).
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    v = np.asarray(values, dtype=float)
    squeeze = v.ndim == 1
    if t.size < 3:
        raise InsufficientPoints(
            f"need at least 3 samples to fit 3 coefficients, got {t.size}"
        )
    v = v.reshape(t.size, -1)
    coef, *_ = np.linalg.lstsq(_time_design(t), v, rcond=None)
    return coef[:, 0] if squeeze else coef


@dataclass(frozen=True)
class ConicFit:
    """Outcome of classify_conic.

    ``label`` is one of ELLIPSE / LINE / DEGENERATE; ``residual`` is an RMS
    in centered, RMS-scaled coordinates (perpendicular distance for lines,
    algebraic conic value otherwise); ``coefficients`` is the unit-norm
    (A, B, C, D, E, F) vector when a conic was actually fitted.
    """

    label: str
    residual: float
    coefficients: np.ndarray | None = None


def classify_conic(points) -> ConicFit:
    """Sort six or more planar points into ellipse / line / degenerate.

    The scatter is centered and scaled to unit RMS radius first, which makes
    the outcome invariant under rotation and translation of the input.  The
    fitted conic A x^2 + B xy + C y^2 + D x + E y + F = 0 is the smallest
    right singular vector of the monomial design; B^2 - 4AC below
    -DISCRIMINANT_CUTOFF means ellipse, anything else (parabolic band,
    hyperbola) is reported as degenerate.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must form an (n, 2) array")
    n = pts.shape[0]
    if n < 6:
        raise InsufficientPoints(
            f"conic classification needs >= 6 points, got {n}"
        )
    center = pts.mean(axis=0)
    x = pts - center
    scale = math.sqrt(float(np.mean(np.sum(x * x, axis=1))))
    if scale <= NO_SCATTER_CUTOFF * max(1.0, float(np.max(np.abs(center)))):
        # every point identical up to rounding: no direction, no conic
        return ConicFit(DEGENERATE, 0.0)
    x = x / scale

    sv = np.linalg.svd(x, compute_uv=False)
    line_residual = float(sv[1]) / math.sqrt(n)
    if line_residual <= COLLINEARITY_CUTOFF:
        return ConicFit(LINE, line_residual)

    u, v = x[:, 0], x[:, 1]
    design = np.stack([u * u, u * v, v * v, u, v, np.ones(n)], axis=1)
    _, svals, vt = np.linalg.svd(design, full_matrices=False)
    coef = vt[-1]
    residual = float(svals[-1]) / math.sqrt(n)
    disc = float(coef[1] * coef[1] - 4.0 * coef[0] * coef[2])
    if disc < -DISCRIMINANT_CUTOFF:
        return ConicFit(ELLIPSE, residual, coef)
    return ConicFit(DEGENERATE, residual, coef)

