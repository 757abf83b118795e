"""Reference implementations the tests check ``frgeo`` against.

None of these runs in a CLI kind; each is an independent statement of a
result the library computes another way:

- the Fisher information of the categorical family on the open simplex,
  J(theta)_ij = delta_ij / theta_i + 1 / theta_{n+1}, with the closed-form
  inverse (J^-1)_ij = theta_i (delta_ij - theta_j), its scores, Christoffel
  symbols, geodesic residuals and arc lengths (the paper's parametric
  lemmas);
- the scalar geodesic through one (y0, z0);
- least-squares mean-curve coefficients, against the direct integrals of
  ``frgeo.moments``, and conic classification of planar trajectories;
- exact moments, squares and point values of box catalogs, and the tent
  test functions and their staircases on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from frgeo.boxes import Box, BoxFunction
from frgeo.errors import FrgeoError, NonpositiveInitialDensity
from frgeo.moments import _time_design
from frgeo.pixelation import PixelationLadder, TentFunction
from frgeo.simplex import SimplexPoint, TangentVector
from frgeo.spaces import DyadicGrid, outer


class InvalidAtom(FrgeoError):
    """Atom index outside 1..n+1 passed to a score evaluation."""


class InsufficientPoints(FrgeoError):
    """Too few sample points for a fit (conic or moment-curve)."""


# ---------------------------------------------------------------------------
# the simplex

DENSE_CHRISTOFFEL_LIMIT = 64

# numpy renamed trapz -> trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def fisher_matrix(p: SimplexPoint) -> np.ndarray:
    """Fisher information matrix 1/theta_{n+1} + diag(1/theta_i)."""
    return 1.0 / p.theta_last + np.diag(1.0 / p.theta)


def fisher_inverse(p: SimplexPoint) -> np.ndarray:
    """Closed-form inverse theta_i (delta_ij - theta_j)."""
    th = p.theta
    return np.diag(th) - np.outer(th, th)


def rank_one_diag_det(c: np.ndarray) -> float:
    """Determinant of ones(n, n) + diag(c).

    Equals prod(c) + sum_i prod_{j != i} c_j; both terms are assembled from
    partial products so no division by a possibly zero c_i occurs.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.size
    # prefix[i] = prod(c[:i]), suffix[i] = prod(c[i:])
    prefix = np.concatenate(([1.0], np.cumprod(c)))
    suffix = np.concatenate((np.cumprod(c[::-1])[::-1], [1.0]))
    total = prefix[n]
    for i in range(n):
        total += prefix[i] * suffix[i + 1]
    return float(total)


def rank_one_diag_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of ones(n, n) + diag(c) via the cofactor identities.

    The (i, i) cofactor is det of the same structure on c with c_i removed;
    the (i, j) off-diagonal entry is -prod_{m != i, j} c_m.  Dividing by the
    determinant gives the inverse.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.size
    det = rank_one_diag_det(c)
    if det == 0.0:
        raise ZeroDivisionError("singular matrix: determinant is zero")
    K = np.empty((n, n))
    for i in range(n):
        rest = np.delete(c, i)
        K[i, i] = rank_one_diag_det(rest)
        for j in range(n):
            if j != i:
                K[i, j] = -np.prod(np.delete(c, [i, j]))
    return K / det


def score(atom_index: int, p: SimplexPoint) -> np.ndarray:
    """Gradient of log p(x_l | theta) in theta for the atom x_l.

    ``atom_index`` is 1-based in 1..n+1.  Component j is
    delta_{j,l} / theta_j - delta_{l,n+1} / theta_{n+1}.
    """
    n = p.n
    if not 1 <= atom_index <= n + 1:
        raise InvalidAtom(f"atom index {atom_index} outside 1..{n + 1}")
    s = np.zeros(n)
    if atom_index <= n:
        s[atom_index - 1] = 1.0 / p.theta[atom_index - 1]
    else:
        s[:] = -1.0 / p.theta_last
    return s


def score_covariance(p: SimplexPoint) -> np.ndarray:
    """Covariance sum_l score(l) score(l)^T p(x_l); equals the Fisher matrix."""
    n = p.n
    probs = p.full
    cov = np.zeros((n, n))
    for atom in range(1, n + 2):
        s = score(atom, p)
        cov += probs[atom - 1] * np.outer(s, s)
    return cov


def christoffel(p: SimplexPoint) -> np.ndarray:
    """Dense Christoffel symbols Gamma[k, i, j] of the Fisher metric.

    Gamma^k_ij = 1/2 [ theta_k / theta_{n+1}
                       - delta_ij delta_jk / theta_i
                       + delta_ij theta_k / theta_i ].

    Materializing the (n, n, n) array is kept for moderate n; larger systems
    should evaluate the quadratic form directly (geodesic_residual_coupled).
    """
    n = p.n
    if n > DENSE_CHRISTOFFEL_LIMIT:
        raise ValueError(
            f"dense Christoffel symbols limited to n <= {DENSE_CHRISTOFFEL_LIMIT}"
        )
    th = p.theta
    gamma = np.empty((n, n, n))
    gamma[:] = th[:, None, None] / p.theta_last
    for i in range(n):
        gamma[:, i, i] += th / th[i]
        gamma[i, i, i] -= 1.0 / th[i]
    return 0.5 * gamma


def geodesic_residual_coupled(
    p: SimplexPoint, v: TangentVector, a: np.ndarray
) -> np.ndarray:
    """Residual of the coupled geodesic system at (theta, theta', theta'').

    Component k is
        2 a_k + (theta_k / theta_{n+1}) (sum_i v_i)^2
              - v_k^2 / theta_k + theta_k sum_j v_j^2 / theta_j,
    which vanishes along geodesics.
    """
    a = np.asarray(a, dtype=float)
    th = p.theta
    sv = float(np.sum(v.v))
    q = float(np.sum(v.v**2 / th))
    return 2.0 * a + th / p.theta_last * sv**2 - v.v**2 / th + th * q


def geodesic_residual_decoupled(theta_k: float, vel_k: float, acc_k: float) -> float:
    """Residual 2 y y'' + y^2 - (y')^2 of the unit-speed scalar form."""
    return 2.0 * theta_k * acc_k + theta_k**2 - vel_k**2


def _as_arrays(
    samples: list[tuple[SimplexPoint, TangentVector]],
) -> tuple[np.ndarray, np.ndarray]:
    thetas = np.array([p.full for p, _ in samples])
    vels = np.array([v.full for _, v in samples])
    return thetas, vels


def fisher_length(
    samples: list[tuple[SimplexPoint, TangentVector]], dt: float
) -> float:
    """Trapezoid arc length of a sampled curve in the Fisher metric.

    The integrand sqrt(sum_{k=1}^{n+1} v_k^2 / theta_k) uses all n+1
    coordinates of the samples, taken at uniform spacing ``dt``.
    """
    thetas, vels = _as_arrays(samples)
    speeds = np.sqrt(np.sum(vels**2 / thetas, axis=1))
    return float(_trapezoid(speeds, dx=dt))


def euclidean_length(
    samples: list[tuple[SimplexPoint, TangentVector]], dt: float
) -> float:
    """Trapezoid arc length of the same curve embedded with all n+1 coordinates."""
    _, vels = _as_arrays(samples)
    speeds = np.sqrt(np.sum(vels**2, axis=1))
    return float(_trapezoid(speeds, dx=dt))


# ---------------------------------------------------------------------------
# the scalar geodesic


def solve_scalar_ivp(y0: float, z0: float) -> tuple[float, float]:
    """Amplitude alpha and phase beta of the scalar geodesic through (y0, z0)."""
    if y0 <= 0.0:
        raise NonpositiveInitialDensity(f"initial density value {y0!r} <= 0")
    alpha = (y0 * y0 + z0 * z0) / y0
    beta = math.atan(z0 / y0)
    return alpha, beta


# ---------------------------------------------------------------------------
# moment curves and conics
#
# ``classify_conic`` sorts planar point sets into ellipse / line / degenerate.
# Collinearity is decided first on the centered, RMS-scaled scatter, because a
# straight line admits a whole family of degenerate conics and no stable fit;
# genuinely two-dimensional scatter gets a unit-norm least-squares conic whose
# discriminant B^2 - 4AC picks the label.

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


# ---------------------------------------------------------------------------
# box catalogs

_ZERO = Fraction(0)


def axis_moment(box: Box, axis: int, power: int = 1) -> Fraction:
    """Exact integral of x_axis^power over the box."""
    a, b = box.lo[axis], box.hi[axis]
    m = (b ** (power + 1) - a ** (power + 1)) / Fraction(power + 1)
    for d, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        if d != axis:
            m *= hi - lo
    return m


def square_integral(f: BoxFunction) -> Fraction:
    return sum((b.value * b.value * b.volume for b in f.boxes), _ZERO)


def moment(f: BoxFunction, axis: int, power: int = 1) -> Fraction:
    """Exact integral of x_axis^power times the function."""
    return sum((b.value * axis_moment(b, axis, power) for b in f.boxes), _ZERO)


def evaluate(f: BoxFunction, points: np.ndarray) -> np.ndarray:
    """Point values at an (N, m) float array (half-open box membership)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(pts.shape[0])
    for b in f.boxes:
        inside = np.ones(pts.shape[0], dtype=bool)
        for d in range(f.dimension):
            inside &= (pts[:, d] >= float(b.lo[d])) & (pts[:, d] < float(b.hi[d]))
        out[inside] = float(b.value)
    return out


# ---------------------------------------------------------------------------
# tent test functions and ladders


def axis_tent(phi: TentFunction, axis: int, x: np.ndarray) -> np.ndarray:
    """The factor of axis ``axis`` at the coordinates ``x``."""
    c, r = phi.centers[axis], phi.radii[axis]
    return np.maximum(0.0, 1.0 - np.abs(x - c) / r)


def tent_values(phi: TentFunction, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.ones(pts.shape[0])
    for d in range(phi.dimension):
        out *= axis_tent(phi, d, pts[:, d])
    return out


def phi_staircase(phi: TentFunction, dimension: int, j_ref: int) -> np.ndarray:
    """phi sampled at the cell midpoints of the level-j_ref grid."""
    if phi.dimension != dimension:
        raise ValueError("test function dimension mismatch")
    x = DyadicGrid(1, j_ref).axis_centers()
    return outer([axis_tent(phi, d, x) for d in range(dimension)])


def alpha_sequence(ladder: PixelationLadder) -> list[tuple[int, float]]:
    """(level, alpha_j) pairs in increasing level order."""
    return [(j, ladder.levels[j].alpha) for j in sorted(ladder.levels)]
