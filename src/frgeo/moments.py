"""Moment summaries of geodesic trajectories.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatch
from .geodesics import GeodesicState
# perfbench/spans.py wraps frgeo.moments.evaluate_scalar by name
from .geodesics import evaluate_scalar  # noqa: F401
from .spaces import CellClasses, DyadicGrid, outer


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
