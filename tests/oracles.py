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
- exact integrals, energies, moments, squares and point values of box
  catalogs, the first two Fraction by Fraction, and the tent test
  functions and their staircases on a grid;
- the per-level work of a ladder as written before it reused what the
  ladder holds: phi's staircase integrals with their constants built per
  call and its region weights one call per region and axis, cell-class
  weights from ``np.diff``, and the reconstruction check from all three
  results of ``evaluate_scalar``;
- RK4 over numpy arrays: the loop of which ``frgeo.kernels.rk4_coupled``
  is the generated float form, and the decoupled per-coordinate system
  y'' = (y'^2 - y^2) / (2 y), stepped by the same loop, with its
  integrator ``integrate_decoupled``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from frgeo.boxes import Box, BoxFunction, OverlayRegion, _span_volume
from frgeo.errors import (
    FrgeoError,
    InvalidCatalogFunction,
    LeftDomain,
    NonpositiveInitialDensity,
)
from frgeo.geodesics import evaluate_scalar
from frgeo.kernels import DOMAIN_EPS, IntegratorConfig, OdeTrajectory, _tables, step_count
from frgeo.moments import _time_design
from frgeo.pixelation import PixelationLadder, TentFunction
from frgeo.simplex import SimplexPoint, TangentVector
from frgeo.spaces import CellClasses, DyadicGrid, outer


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


def fraction_integral(f: BoxFunction) -> Fraction:
    """``BoxFunction.integral`` summed Fraction by Fraction, one normalizing
    operation per box."""
    dens, spans = f.int_bounds
    total = sum((b.value * _span_volume(s) for b, s in zip(f.boxes, spans)), _ZERO)
    return total / math.prod(dens)


def fraction_regions_energy(regions: tuple[OverlayRegion, ...]) -> Fraction:
    """``boxes.regions_energy`` summed Fraction by Fraction, one
    normalizing operation per region."""
    if any(r.f_value == 0 for r in regions):
        raise InvalidCatalogFunction("division by a zero-valued f region")
    total = sum(
        (r.g_value * r.g_value / r.f_value * _span_volume(r.span) for r in regions), _ZERO
    )
    return total / math.prod(regions[0].dens)


def box_volume(box: Box) -> Fraction:
    """Exact volume of a box, Fraction by Fraction."""
    return math.prod((b - a for a, b in zip(box.lo, box.hi)), start=Fraction(1))


def square_integral(f: BoxFunction) -> Fraction:
    return sum((b.value * b.value * box_volume(b) for b in f.boxes), _ZERO)


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


# ---------------------------------------------------------------------------
# a ladder level's work, one call per region, axis and level


def stair_integrals(phi: TentFunction, axis: int, j_ref: int, points) -> list[float]:
    """Integrals over [points[i], points[i + 1]) of phi's level-j_ref
    midpoint staircase on axis ``axis``, for points given as integer pairs
    (n, D), the point n / D: exact, then rounded once.  The constants are
    built on every call."""
    (cn, cd), (rn, rd) = (v[axis].as_integer_ratio() for v in (phi.centers, phi.radii))
    side = 1 << j_ref
    shift = max(j_ref + 1, cd.bit_length() - 1, rd.bit_length() - 1)
    C, R = ((n << shift) // d for n, d in ((cn, cd), (rn, rd)))
    g = 1 << (shift - j_ref - 1)
    k_lo, k_mid, k_hi = (-((g - x) // (2 * g)) for x in (C - R, C, C + R))

    def upto(p: int, q: int) -> int:  # q * R * side * the integral over [0, p / q)
        k = p * side // q
        a, b = min(max(k, k_lo), k_mid), min(max(k, k_mid), k_hi)
        below = g * (a * a - k_lo * k_lo) + (R - C) * (a - k_lo)
        below += (R + C) * (b - k_mid) - g * (b * b - k_mid * k_mid)
        return q * below + (p * side - k * q) * max(0, R - abs((2 * k + 1) * g - C))

    ends = [(upto(p, q), q) for p, q in points]
    return [
        (n1 * q0 - n0 * q1) / (q0 * q1 * R * side) for (n0, q0), (n1, q1) in zip(ends, ends[1:])
    ]


def region_phi_weights(regions, phi: TentFunction, j_ref: int) -> np.ndarray:
    """phi's region weights, one ``stair_integrals`` call per region and axis."""
    return np.array([
        math.prod(
            stair_integrals(phi, d, j_ref, [(a, den), (b, den)])[0]
            for d, (a, b, den) in enumerate(zip(*r.span, r.dens))
        )
        for r in regions
    ])


def class_phi_weights(phi: TentFunction, j_ref: int, classes: CellClasses) -> np.ndarray:
    """phi's class weights, one ``stair_integrals`` call per axis."""
    side = classes.grid.side_count
    return outer([
        np.array(stair_integrals(phi, d, j_ref, [(k, side) for k in e]))
        for d, e in enumerate(classes.edges)
    ])


def class_weights(classes: CellClasses) -> np.ndarray:
    """The class weights: per axis ``np.diff`` of the run edges times the
    cell side, then their outer product."""
    return outer([np.diff(e) * classes.grid.cell_side for e in classes.edges])


def reconstruction(alpha, beta, f0, g0) -> tuple[np.ndarray, np.ndarray, float]:
    """y(0), y'(0) from all three results of ``evaluate_scalar`` at t = 0,
    and their largest distance from (f0, g0)."""
    y0, z0, _ = evaluate_scalar(alpha, beta, 0.0)
    return y0, z0, float(np.abs(np.concatenate([y0 - f0, z0 - g0])).max())


# ---------------------------------------------------------------------------
# RK4 over numpy arrays
#
# ``frgeo.kernels.rk4_coupled`` runs the coupled loop below as straight-line
# code over Python floats.  Every operation runs in the order of
# ``_coupled_accel`` and this loop, each sum one expression left to right
# from its first term.  ``np.sum`` adds fewer than 8 items left to right
# from 0.0, which differs from that only where every term is -0.0 (it gives
# +0.0), and no result depends on it: the terms w_k = u_k^2 / p_k are never
# -0.0, a -0.0 position fails its domain check, and the sign of the
# velocity sum sv enters only as sv * sv.  So below 8 coordinates the two
# loops agree bit for bit, and from 8 on ``np.sum`` adds pairwise and they
# differ in the last bits.  ``benchmarks/bench_kernels.py`` times both
# loops at n = 1..7 and checks one against the other.


def _coupled_accel(theta, v):
    # 2 theta'' = -(theta_k/theta_last)(sum v)^2 + v_k^2/theta_k - theta_k q
    theta_last = 1.0 - np.sum(theta)
    sv = np.sum(v)
    q = np.sum(v * v / theta)
    return -0.5 * (theta / theta_last * sv * sv - v * v / theta + theta * q)


def _coupled_low(theta, eps):
    # any coordinate (including the dependent one) at or below the floor?
    if theta.min() <= eps or (1.0 - np.sum(theta)) <= eps:
        return -1  # no single coordinate to blame
    return None


def _decoupled_accel(y, z):
    # y'' = (y'^2 - y^2) / (2y), each coordinate independent
    return (z * z - y * y) / (2.0 * y)


def _first_low(y, eps):
    # the first coordinate at or below the floor; NaN compares false
    low = (y <= eps).tolist()
    return low.index(True) if True in low else None


def _make_coupled(accel, low):
    """The RK4 loop over numpy arrays of the system x'' = accel(x, x').

    ``low(x, eps)`` is None inside the domain and the exit coordinate
    otherwise.  It returns the exit record of ``frgeo.kernels``
    (times, positions, velocities, n_valid, exit_coord, exit_time).  The
    coupled loop is the reference of ``rk4_coupled``; tests pass a ``low``
    that records the domain checks.
    """

    def loop(theta0, v0, step, t_end, eps):
        n_steps = step_count(step, t_end)
        times, pos, vel = _tables(theta0, v0, n_steps)
        bad = low(theta0, eps)
        if bad is not None:
            return times, pos, vel, 0, bad, 0.0
        t = 0.0
        for i in range(n_steps):
            t_next = min((i + 1) * step, t_end)
            h = t_next - t
            th = pos[i]
            v = vel[i]
            a1 = accel(th, v)
            th2 = th + 0.5 * h * v
            v2 = v + 0.5 * h * a1
            bad = low(th2, eps)
            if bad is not None:
                return times, pos, vel, i + 1, bad, t + 0.5 * h
            a2 = accel(th2, v2)
            th3 = th + 0.5 * h * v2
            v3 = v + 0.5 * h * a2
            bad = low(th3, eps)
            if bad is not None:
                return times, pos, vel, i + 1, bad, t + 0.5 * h
            a3 = accel(th3, v3)
            th4 = th + h * v3
            v4 = v + h * a3
            bad = low(th4, eps)
            if bad is not None:
                return times, pos, vel, i + 1, bad, t_next
            a4 = accel(th4, v4)
            t = t_next
            times[i + 1] = t
            pos[i + 1] = th + h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            vel[i + 1] = v + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            bad = low(pos[i + 1], eps)
            if bad is not None:
                return times, pos, vel, i + 1, bad, t
        return times, pos, vel, n_steps + 1, -1, t_end

    return loop


# the reference of rk4_coupled
rk4_coupled_reference = _make_coupled(_coupled_accel, _coupled_low)

# the decoupled system y'' = (y'^2 - y^2) / (2y) over numpy arrays
rk4_decoupled = _make_coupled(_decoupled_accel, _first_low)


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
    times, pos, vel, n_valid, exit_coord, exit_time = rk4_decoupled(
        y0, z0, float(config.step), float(config.t_end), DOMAIN_EPS
    )
    if n_valid != times.size:
        raise LeftDomain(float(exit_time), int(exit_coord) + 1)
    return OdeTrajectory(times, pos, vel)
