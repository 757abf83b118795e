"""Moment curves of flowing densities and conic classification."""

from __future__ import annotations

import csv
import math
import tracemalloc

import numpy as np
import pytest

from frgeo import (
    DyadicGrid,
    FiniteDensity,
    FiniteMeasureSpace,
    MomentCurve,
    SignedFunction,
    SimplexPoint,
    SpaceMismatch,
    build_ladder,
    ellipse_param_n2,
    ellipsoid_tangent,
    geodesic_flow,
    mean_coefficients_direct,
    moments,
    normalize_velocity,
    simplex_trajectory,
)
from frgeo.catalogs import (
    g01_1d,
    g02_2d,
    g03_2d,
    misaligned_f0_1d,
    misaligned_f0_2d,
    misaligned_g0_1d,
    misaligned_g0_2d,
    uniform1d,
    uniform2d,
)
from frgeo.cli import _catalog_state, write_moments_csv
from frgeo.geodesics import evaluate_scalar
from frgeo.simplex import TangentVector
from oracles import (
    DEGENERATE,
    ELLIPSE,
    LINE,
    InsufficientPoints,
    classify_conic,
    fit_mean_coefficients,
)


def g01_state(level=6):
    return build_ladder(uniform1d(), g01_1d(), [level]).levels[level].state


def grid_state(f0_cat, g0_cat, level):
    grid = DyadicGrid(f0_cat.dimension, level)
    f0 = FiniteDensity(grid, f0_cat.cell_averages(grid))
    g_raw = SignedFunction(grid, g0_cat.cell_averages(grid))
    return geodesic_flow(f0, normalize_velocity(f0, g_raw))


# ---------------------------------------------------------------------------
# mean / variance curves


@pytest.mark.parametrize(
    "pair, level",
    [
        ((misaligned_f0_1d, misaligned_g0_1d), 3),
        ((misaligned_f0_1d, misaligned_g0_1d), 9),
        ((misaligned_f0_2d, misaligned_g0_2d), 6),
        ((uniform2d, g02_2d), 5),
    ],
)
def test_class_moments_match_per_cell(pair, level):
    # criterion 08's tolerance, against the per-cell state that
    # mean_coefficients_direct still accepts
    catalogs = [make() for make in pair]
    cells, classes = grid_state(*catalogs, level), _catalog_state(*catalogs, level)
    assert classes.space.n_points < cells.space.n_points
    direct = mean_coefficients_direct(cells)
    assert np.max(np.abs(mean_coefficients_direct(classes) - direct)) <= 1e-12
    times = np.linspace(0.0, 2.0 * math.pi, 13)
    got, want = moments(classes, times), moments(cells, times)
    assert np.max(np.abs(got.mean - want.mean)) <= 1e-12
    assert np.max(np.abs(got.variance - want.variance)) <= 1e-12


def test_mean_coefficients_direct_frozen():
    abc = mean_coefficients_direct(g01_state())
    assert abc.shape == (3, 1)
    # all three integrals are dyadic rationals at level 6, hence exact
    assert abc[0, 0] == 0.5
    assert abc[1, 0] == 0.125
    assert abc[2, 0] == -1.0 / 32.0


def test_uniform_variance_at_t0_frozen():
    curve = moments(g01_state(), [0.0])
    # 1/12 minus the cell-center quadrature defect h^2/12 at h = 1/64
    assert curve.mean[0, 0] == 0.5
    assert curve.variance[0, 0] == 1365.0 / 16384.0


def test_moments_match_three_term_curve():
    state = g01_state()
    abc = mean_coefficients_direct(state)
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=40))
    curve = moments(state, times)
    pred = (
        abc[0] * np.cos(times / 2.0)[:, None] ** 2
        + abc[1] * np.sin(times / 2.0)[:, None] ** 2
        + abc[2] * np.sin(times)[:, None]
    )
    assert np.max(np.abs(curve.mean - pred)) < 1e-14
    assert np.all(curve.variance >= 0.0)


def test_moments_match_dense_evaluation():
    # reference: the flow evaluated on the full (T, N) array, then summed;
    # the three-term path reorders the sums, which moves a few ulp only
    state = grid_state(misaligned_f0_2d(), misaligned_g0_2d(), 7)
    times = np.linspace(0.0, 2.0 * math.pi, 37)
    curve = moments(state, times)
    x = state.space.centers()
    y, _, _ = evaluate_scalar(state.alpha[None, :], state.beta[None, :], times[:, None])
    yw = y * state.space.weights
    mean = yw @ x
    var = yw @ (x * x) - mean * mean
    assert np.max(np.abs(curve.mean - mean)) <= 1e-14
    assert np.max(np.abs(curve.variance - var)) <= 1e-14


def test_moments_memory_is_linear_in_cells_plus_times():
    # level 10 in 2-D has 2^20 cells; a (100, N) float array alone is 800 MB,
    # while the cell rows, centers and their squares take about 56 MB
    state = grid_state(uniform2d(), g02_2d(), 10)
    tracemalloc.start()
    try:
        curve = moments(state, np.linspace(0.0, math.pi, 100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert curve.mean.shape == (100, 2)
    assert peak < 64 * 2**20


def test_fit_recovers_direct_coefficients():
    state = g01_state()
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=17))
    curve = moments(state, times)
    fit = fit_mean_coefficients(times, curve.mean)
    assert np.max(np.abs(fit - mean_coefficients_direct(state))) < 1e-12


def test_fit_single_curve_shape():
    times = np.array([0.0, 0.9, 1.7, 2.8])
    values = 2.0 * np.cos(times / 2.0) ** 2 - 0.25 * np.sin(times)
    fit = fit_mean_coefficients(times, values)
    assert fit.shape == (3,)
    assert np.allclose(fit, [2.0, 0.0, -0.25], atol=1e-12)


def test_fit_needs_three_samples():
    with pytest.raises(InsufficientPoints):
        fit_mean_coefficients([0.0, 1.0], [1.0, 2.0])


def test_moments_reject_non_grid_space():
    space = FiniteMeasureSpace(np.ones(3))
    f0 = FiniteDensity(space, np.full(3, 1.0 / 3.0))
    g0 = normalize_velocity(f0, SignedFunction(space, np.array([1.0, -1.0, 0.0])))
    state = geodesic_flow(f0, g0)
    with pytest.raises(SpaceMismatch):
        moments(state, [0.0])
    with pytest.raises(SpaceMismatch):
        mean_coefficients_direct(state)


def test_moment_curve_validation():
    with pytest.raises(ValueError):
        MomentCurve(np.array([0.0, 1.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        MomentCurve(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        MomentCurve(np.array([0.0]), np.zeros(1), np.array([-0.5]))


def test_2d_catalogs_with_equal_marginals_share_moment_curves():
    # both velocities integrate the same way against x and x^2 per column,
    # so the moment curves coincide even though the catalogs differ
    times = np.linspace(0.0, 2.0 * math.pi, 9)
    lad_a = build_ladder(uniform2d(), g02_2d(), [4])
    lad_b = build_ladder(uniform2d(), g03_2d(), [4])
    curve_a = moments(lad_a.levels[4].state, times)
    curve_b = moments(lad_b.levels[4].state, times)
    assert np.max(np.abs(curve_a.mean - curve_b.mean)) < 1e-12
    assert np.max(np.abs(curve_a.variance - curve_b.variance)) < 1e-12


def test_checkerboard_catalog_degenerates_at_coarse_level():
    lad = build_ladder(uniform2d(), g03_2d(), [3])
    assert lad.levels[3].degenerate
    assert lad.levels[3].alpha == 0.0


# ---------------------------------------------------------------------------
# conic classification


def ellipse_points(n=40, a=2.0, b=0.5, angle=0.0, shift=(0.0, 0.0), seed=3):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 2.0 * math.pi, size=n)
    pts = np.stack([a * np.cos(tau), b * np.sin(tau)], axis=1)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return pts @ rot.T + np.asarray(shift)


def test_classify_circle():
    fit = classify_conic(ellipse_points(a=1.0, b=1.0))
    assert fit.label == ELLIPSE
    assert fit.residual < 1e-12
    assert abs(float(np.linalg.norm(fit.coefficients)) - 1.0) < 1e-12


def test_classify_is_rotation_translation_invariant():
    plain = classify_conic(ellipse_points())
    moved = classify_conic(ellipse_points(angle=0.7, shift=(13.0, -4.0)))
    assert plain.label == moved.label == ELLIPSE
    assert abs(plain.residual - moved.residual) < 1e-10


def test_classify_line():
    t = np.linspace(-1.0, 2.0, 25)
    for direction in ((1.0, 0.5), (0.0, 1.0), (1.0, 0.0)):
        d = np.asarray(direction)
        pts = np.array([7.0, -3.0]) + t[:, None] * d
        fit = classify_conic(pts)
        assert fit.label == LINE
        assert fit.residual <= 1e-12


def test_classify_parabola_and_hyperbola_are_degenerate():
    t = np.linspace(-2.0, 2.0, 30)
    parabola = np.stack([t, t * t], axis=1)
    assert classify_conic(parabola).label == DEGENERATE
    s = np.concatenate([t[t < -0.2], t[t > 0.2]])
    hyperbola = np.stack([s, 1.0 / s], axis=1)
    assert classify_conic(hyperbola).label == DEGENERATE


def test_classify_identical_points():
    fit = classify_conic(np.tile([0.3, 0.4], (8, 1)))
    assert fit.label == DEGENERATE
    assert fit.residual == 0.0
    assert fit.coefficients is None


def test_classify_needs_six_points():
    with pytest.raises(InsufficientPoints):
        classify_conic(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        classify_conic(np.zeros((8, 3)))


def test_generic_simplex_trajectory_is_an_ellipse():
    p0 = SimplexPoint(np.array([1.0 / 3.0, 1.0 / 3.0]))
    v0 = TangentVector(ellipse_param_n2(1.0))
    times = np.linspace(0.0, 1.3, 60)
    pts = np.array([q.theta for q in simplex_trajectory(p0, v0, times)])
    fit = classify_conic(pts)
    assert fit.label == ELLIPSE
    assert fit.residual <= 1e-8


def test_vertex_directed_trajectory_is_a_line():
    p0 = SimplexPoint(np.array([1.0 / 3.0, 1.0 / 3.0]))
    v0 = ellipsoid_tangent(p0, np.array([1.0, 1.0]))
    times = np.linspace(0.0, 1.1, 50)
    pts = np.array([q.theta for q in simplex_trajectory(p0, v0, times)])
    fit = classify_conic(pts)
    assert fit.label == LINE
    assert fit.residual <= 1e-10


# ---------------------------------------------------------------------------
# export


def test_write_moments_csv(tmp_path):
    state = g01_state(level=3)
    times = np.array([0.0, 1.0, 2.0])
    curve = moments(state, times)
    path = tmp_path / "moments.csv"
    write_moments_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mean_1", "var_1"]
    assert len(rows) == 4
    assert float(rows[1][1]) == curve.mean[0, 0]
    assert float(rows[3][2]) == curve.variance[2, 0]
