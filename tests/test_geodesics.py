"""Closed-form geodesic flow: scalar solutions, normalized velocities,
density evolution and the simplex specialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frgeo import (
    BoundaryTouch,
    DegenerateVelocity,
    DyadicGrid,
    FiniteDensity,
    GeodesicState,
    NonpositiveInitialDensity,
    NotCentered,
    NotUnitSpeed,
    SignedFunction,
    SimplexPoint,
    SpaceMismatch,
    TangentVector,
    UnitVelocity,
    ZeroDirection,
    boundary_touch_time,
    density_at,
    ellipse_param_n2,
    ellipsoid_tangent,
    evaluate_scalar,
    geodesic_flow,
    integrate,
    metric_inner,
    normalize_velocity,
    simplex_flow_samples,
    simplex_state,
    simplex_trajectory,
)
from frgeo.catalogs import g01_1d, uniform1d
from frgeo.geodesics import flow_blocks, positions_at
from frgeo.simplex import BOUNDARY_FLOOR
from frgeo.spaces import VALUES_PER_BLOCK
from conftest import random_interior_point, random_unit_tangent
from oracles import geodesic_residual_coupled, geodesic_residual_decoupled, solve_scalar_ivp

BARY = SimplexPoint(np.array([1 / 3, 1 / 3]))


def g01_state(level=3):
    grid = DyadicGrid(1, level)
    f0 = FiniteDensity(grid, uniform1d().cell_averages(grid))
    g_raw = SignedFunction(grid, g01_1d().cell_averages(grid))
    return geodesic_flow(f0, normalize_velocity(f0, g_raw))


# ---------------------------------------------------------------------------
# scalar building blocks


def test_solve_scalar_ivp_frozen():
    assert solve_scalar_ivp(1.0, 0.0) == (1.0, 0.0)
    alpha, beta = solve_scalar_ivp(0.5, 0.5)
    assert abs(alpha - 1.0) < 1e-15
    assert abs(beta - math.pi / 4) < 1e-15
    alpha, beta = solve_scalar_ivp(1 / 3, math.sqrt(2.0) / 6.0)
    assert abs(alpha - 0.5) < 1e-15
    assert abs(beta - math.atan(math.sqrt(2.0) / 2.0)) < 1e-15
    with pytest.raises(NonpositiveInitialDensity):
        solve_scalar_ivp(0.0, 1.0)
    with pytest.raises(NonpositiveInitialDensity):
        solve_scalar_ivp(-0.3, 0.0)


def test_evaluate_scalar_frozen():
    y, ydot, kin = evaluate_scalar(1.0, 0.0, math.pi)
    assert abs(y) < 1e-30 and abs(ydot) < 1e-15 and abs(kin - 1.0) < 1e-15


def test_evaluate_scalar_identities():
    rng = np.random.default_rng(13)
    alpha = np.exp(rng.uniform(-1, 1, size=40))
    beta = rng.uniform(-np.pi / 2, np.pi / 2, size=40)
    for t in rng.uniform(-10, 10, size=20):
        y, ydot, kin = evaluate_scalar(alpha, beta, t)
        assert np.max(np.abs(y + kin - alpha)) < 1e-13
        # (y')^2 = y * kinetic, division-free on both sides
        assert np.max(np.abs(ydot**2 - y * kin)) < 1e-13


def test_scalar_solution_satisfies_the_ode():
    # y'' = -(alpha/2) cos(2 phase); residual 2yy'' + y^2 - y'^2 must vanish
    rng = np.random.default_rng(31)
    for _ in range(30):
        y0 = float(np.exp(rng.uniform(-1, 1)))
        z0 = float(rng.standard_normal())
        alpha, beta = solve_scalar_ivp(y0, z0)
        t = float(rng.uniform(0, 2 * np.pi))
        y, ydot, _ = evaluate_scalar(alpha, beta, t)
        acc = -0.5 * alpha * math.cos(2.0 * (t / 2.0 - beta))
        assert abs(geodesic_residual_decoupled(y, ydot, acc)) < 1e-10


# ---------------------------------------------------------------------------
# velocity normalization and flow construction


def test_normalize_velocity_scaling_invariance():
    grid = DyadicGrid(1, 3)
    f0 = FiniteDensity(grid, uniform1d().cell_averages(grid))
    base = g01_1d().cell_averages(grid)
    ref = normalize_velocity(f0, SignedFunction(grid, base))
    for c in (2.0, 0.125, 37.0):
        scaled = normalize_velocity(f0, SignedFunction(grid, c * base))
        assert np.allclose(scaled.g.values, ref.g.values, rtol=1e-14, atol=0)


def test_normalize_velocity_degenerate():
    grid = DyadicGrid(1, 2)  # g01 averages to zero on quarter cells
    f0 = FiniteDensity(grid, uniform1d().cell_averages(grid))
    g_raw = SignedFunction(grid, g01_1d().cell_averages(grid))
    with pytest.raises(DegenerateVelocity):
        normalize_velocity(f0, g_raw)


def test_normalize_velocity_rejections():
    grid = DyadicGrid(1, 3)
    f0 = FiniteDensity(grid, np.ones(8))
    with pytest.raises(NotCentered):
        normalize_velocity(f0, SignedFunction(grid, np.ones(8)))
    with pytest.raises(NotCentered):
        normalize_velocity(f0, SignedFunction(grid, np.full(8, np.nan)))
    with pytest.raises(SpaceMismatch):
        normalize_velocity(f0, SignedFunction(DyadicGrid(1, 2), np.zeros(4)))
    zero_cell = np.array([0.0, 2.0] + [1.0] * 6)
    zero_cell = zero_cell / np.dot(zero_cell, grid.weights)
    f_degenerate = FiniteDensity(grid, zero_cell)
    with pytest.raises(NonpositiveInitialDensity):
        normalize_velocity(
            f_degenerate, SignedFunction(grid, g01_1d().cell_averages(grid))
        )


def test_normalize_velocity_keeps_unscaled_energy_that_is_finite():
    # g^2 = 1e-320 underflows but g^2 / f0 is about 1: scaling g up to
    # max |g| ~ 1 first would overflow g^2 / f0 = 1e-320^-1 instead
    grid = DyadicGrid(1, 2)
    f0 = FiniteDensity(grid, [1e-320, 1e-320, 2.0, 2.0])
    g = normalize_velocity(f0, SignedFunction(grid, [1e-160, -1e-160, 0.0, 0.0]))
    assert g.g.values[0] > 0 > g.g.values[1]


@pytest.mark.parametrize("value", [1.0, 1e308])
def test_normalize_velocity_scales_an_overflow_by_its_energy_ratio(value):
    # g^2 / f0 overflows beside f0 = 1e-320 even for g = +-1: g is scaled by
    # the power of two of max |g| / sqrt(f0), not of max |g|
    grid = DyadicGrid(1, 2)
    f0 = FiniteDensity(grid, [1e-320, 1e-320, 2.0, 2.0])
    g = normalize_velocity(f0, SignedFunction(grid, [value, -value, 0.0, 0.0]))
    state = geodesic_flow(f0, g)
    assert np.array_equal(state.alpha, [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(state.beta, [math.pi / 2, -math.pi / 2, 0.0, 0.0])


def test_unit_velocity_validation():
    grid = DyadicGrid(1, 3)
    f0 = FiniteDensity(grid, np.ones(8))
    good = g01_1d().cell_averages(grid) / 2.0  # energy 1/4
    with pytest.raises(NotUnitSpeed):
        UnitVelocity(SignedFunction(grid, good), f0)
    with pytest.raises(NotCentered):
        UnitVelocity(SignedFunction(grid, np.full(8, 0.5)), f0)
    with pytest.raises(NotCentered):
        UnitVelocity(SignedFunction(grid, np.full(8, np.nan)), f0)


def test_geodesic_flow_frozen_amplitudes():
    state = g01_state(level=3)
    b = math.atan(2.0)
    assert np.allclose(state.alpha, [5, 5, 1, 1, 1, 1, 1, 1], atol=1e-12)
    assert np.allclose(state.beta, [b, -b, 0, 0, 0, 0, 0, 0], atol=1e-12)
    # integral of alpha is 2 for every unit-speed flow
    assert abs(np.dot(state.alpha, state.space.weights) - 2.0) < 1e-12


def test_geodesic_state_rejects_inconsistent_data():
    grid = DyadicGrid(1, 2)
    ones = np.ones(4)
    with pytest.raises(ValueError):
        GeodesicState(grid, 3 * ones, 0 * ones, ones, 0 * ones)  # mass 3
    with pytest.raises(ValueError):
        # alpha/beta do not reconstruct the claimed f0
        GeodesicState(grid, 2 * ones, 0 * ones, ones, 0 * ones)


@pytest.mark.parametrize(
    "field, match",
    [
        ("alpha", "strictly positive"),
        ("beta", "reconstruct"),
        ("f0", "reconstruct"),
        ("g0", "reconstruct"),
    ],
)
def test_geodesic_state_rejects_nan(field, match):
    grid = DyadicGrid(1, 2)
    ones = np.ones(4)
    arrays = {"alpha": 2 * ones, "beta": 0 * ones, "f0": 2 * ones, "g0": 0 * ones}
    GeodesicState(grid, **arrays)
    arrays[field] = np.where(np.arange(4) == 1, np.nan, arrays[field])
    with pytest.raises(ValueError, match=match):
        GeodesicState(grid, **arrays)


def test_geodesic_flow_rejects_foreign_velocity():
    grid = DyadicGrid(1, 3)
    f0 = FiniteDensity(grid, np.ones(8))
    other = FiniteDensity(grid, np.full(8, 1.0) + np.array([0.5, -0.5, 0, 0, 0, 0, 0, 0]))
    v = normalize_velocity(other, SignedFunction(grid, g01_1d().cell_averages(grid)))
    with pytest.raises(SpaceMismatch):
        geodesic_flow(f0, v)


# ---------------------------------------------------------------------------
# density evolution


def test_density_endpoints():
    state = g01_state()
    f0 = state.f0
    q = state.g0**2 / state.f0
    assert np.max(np.abs(density_at(state, 0.0).values - f0)) < 1e-14
    assert np.max(np.abs(density_at(state, math.pi).values - q)) < 1e-15
    assert np.max(np.abs(density_at(state, 2 * math.pi).values - f0)) < 1e-13
    for t, kinetic in ((0.0, q), (math.pi, f0)):
        s = FiniteDensity(state.space, evaluate_scalar(state.alpha, state.beta, t)[2])
        assert np.max(np.abs(s.values - kinetic)) < 1e-15


def test_velocity_values_at_start():
    state = g01_state()
    ydot = evaluate_scalar(state.alpha, state.beta, 0.0)[1]
    assert np.max(np.abs(ydot - state.g0)) < 1e-15


def test_conservation_and_period_property_loop():
    rng = np.random.default_rng(53)
    state = g01_state(level=4)
    for t in rng.uniform(-15.0, 15.0, size=100):
        f = density_at(state, float(t))
        s = FiniteDensity(state.space, evaluate_scalar(state.alpha, state.beta, float(t))[2])
        assert abs(integrate(f) - 1.0) < 1e-12
        assert abs(integrate(s) - 1.0) < 1e-12
        # pointwise Pythagoras f + f_kinetic = alpha
        assert np.max(np.abs(f.values + s.values - state.alpha)) < 1e-13
        g = density_at(state, float(t) + 2.0 * math.pi)
        assert np.max(np.abs(f.values - g.values)) < 1e-13


# ---------------------------------------------------------------------------
# simplex specialization


def test_simplex_state_requires_unit_speed():
    v = TangentVector(np.array([0.3, 0.1]))
    with pytest.raises(NotUnitSpeed):
        simplex_state(BARY, v)
    with pytest.raises(SpaceMismatch):
        simplex_state(BARY, TangentVector(np.array([0.1])))


def test_simplex_trajectory_frozen():
    v = TangentVector(ellipse_param_n2(math.pi / 2))
    pts = simplex_trajectory(BARY, v, np.array([0.0]))
    assert np.allclose(pts[0].theta, BARY.theta, atol=1e-15)
    pts = simplex_trajectory(BARY, v, np.array([math.pi]))
    assert np.allclose(pts[0].theta, [1 / 6, 1 / 6], atol=1e-14)


def test_simplex_trajectory_mass():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p0 = random_interior_point(rng, int(rng.integers(1, 7)))
        v0 = random_unit_tangent(rng, p0)
        horizon = 0.9 * boundary_touch_time(p0, v0)
        times = np.linspace(0.0, horizon, 50)
        for pt in simplex_trajectory(p0, v0, times):
            assert abs(pt.full.sum() - 1.0) < 1e-12


def test_simplex_flow_satisfies_coupled_system():
    rng = np.random.default_rng(67)
    p0 = random_interior_point(rng, 4)
    v0 = random_unit_tangent(rng, p0)
    state = simplex_state(p0, v0)
    for t in np.linspace(0.0, 0.8 * boundary_touch_time(p0, v0), 7):
        phase = t / 2.0 - state.beta
        y = state.alpha * np.cos(phase) ** 2
        ydot = -state.alpha * np.cos(phase) * np.sin(phase)
        acc = -0.5 * state.alpha * np.cos(2.0 * phase)
        res = geodesic_residual_coupled(
            SimplexPoint(y[:-1]), TangentVector(ydot[:-1]), acc[:-1]
        )
        assert np.max(np.abs(res)) < 1e-12


def test_boundary_touch_time_frozen():
    v = ellipsoid_tangent(BARY, np.array([1.0, 1.0]))
    t_star = boundary_touch_time(BARY, v)
    assert abs(t_star - (math.pi - 2.0 * math.atan(math.sqrt(2.0)))) < 1e-12
    v2 = ellipsoid_tangent(BARY, np.array([2.0, -1.0]))
    assert abs(
        boundary_touch_time(BARY, v2)
        - (math.pi - 2.0 * math.atan(1.0 / math.sqrt(2.0)))
    ) < 1e-12


def test_boundary_touch_before_pi():
    rng = np.random.default_rng(71)
    for _ in range(20):
        p0 = random_interior_point(rng, int(rng.integers(1, 8)))
        v0 = random_unit_tangent(rng, p0)
        assert 0.0 < boundary_touch_time(p0, v0) < math.pi


def test_trajectory_boundary_touch_raises():
    v = ellipsoid_tangent(BARY, np.array([1.0, 1.0]))
    t_star = boundary_touch_time(BARY, v)
    with pytest.raises(BoundaryTouch) as info:
        simplex_trajectory(BARY, v, np.array([0.0, t_star]))
    assert info.value.coordinate == 3
    assert abs(info.value.time - t_star) < 1e-12


def test_default_sweep_moves_at_unit_fisher_rao_speed():
    # sqrt f lies on the unit sphere, where the Fisher-Rao distance is twice
    # the great-circle angle: d(f0, f) = 4 asin(|sqrt f - sqrt f0| / 2).  The
    # 12 trajectories of the default sweep at 100 samples on [0, pi/2]
    times = np.linspace(0.0, math.pi / 2.0, 100)
    touched = 0
    for k in range(12):
        v = TangentVector(ellipse_param_n2(2.0 * math.pi * k / 12))
        y, _ = simplex_flow_samples(BARY, v, times)
        d = 4.0 * np.arcsin(np.linalg.norm(np.sqrt(y) - np.sqrt(y[0]), axis=1) / 2.0)
        before = times <= boundary_touch_time(BARY, v)
        # until the touch, d = t: sqrt, the norm and asin each round, and
        # 1e-15 is about 4.5 ulp of pi/2 (measured at most 2 ulp)
        assert np.max(np.abs(d[before] - times[before])) <= 1e-15
        # past it, sqrt f would turn negative and the closed form reflects,
        # so the chord is shorter than the arc (d = 1.3622 at t = 1.380)
        assert np.all(d[~before] < times[~before])
        touched += not before.all()
    assert touched == 9


def test_flow_samples_shapes_and_velocity():
    v = ellipsoid_tangent(BARY, np.array([1.0, -2.0]))
    times = np.linspace(0.0, 1.0, 11)
    y, ydot = simplex_flow_samples(BARY, v, times)
    assert y.shape == (11, 3) and ydot.shape == (11, 3)
    assert np.allclose(y[0], BARY.full, atol=1e-15)
    assert np.allclose(ydot[0], v.full, atol=1e-14)
    # velocities stay tangent to the mass constraint
    assert np.max(np.abs(ydot.sum(axis=1))) < 1e-13


@pytest.mark.parametrize("n", range(1, 8))
def test_flow_samples_blocks_match_one_whole_grid_evaluation(n):
    # JSON re-evaluation checks rely on simplex_flow_samples giving the
    # bits of one whole-grid evaluate_scalar call, at any sample count
    rng = np.random.default_rng(100 + n)
    p0 = random_interior_point(rng, n)
    v0 = random_unit_tangent(rng, p0)
    state = simplex_state(p0, v0)
    rows = VALUES_PER_BLOCK // (n + 1)
    for count in (1, rows - 1, rows, rows + 1, 10_001):
        times = np.linspace(0.0, 7.0, count)  # past the touch and the period
        y, ydot = simplex_flow_samples(p0, v0, times)
        y_ref, ydot_ref, _ = evaluate_scalar(
            state.alpha[None, :], state.beta[None, :], times[:, None]
        )
        assert y.shape == ydot.shape == (count, n + 1)
        assert y.tobytes() == y_ref.tobytes() and ydot.tobytes() == ydot_ref.tobytes()



@pytest.mark.parametrize("n", range(1, 8))
def test_positions_equal_evaluate_scalar_bit_for_bit(n):
    # the positions-only closed form skips sin, y' and the kinetic term;
    # JSON re-evaluation checks (perfbench's included) rely on the bits of
    # evaluate_scalar's y
    rng = np.random.default_rng(200 + n)
    p0 = random_interior_point(rng, n)
    v0 = random_unit_tangent(rng, p0)
    state = simplex_state(p0, v0)
    rows = VALUES_PER_BLOCK // (n + 1)
    touch = boundary_touch_time(p0, v0)
    for count in (1, rows - 1, rows, rows + 1, 10_001):
        times = np.linspace(0.0, 7.0, count)  # past the touch and the period
        y_ref = evaluate_scalar(state.alpha[None, :], state.beta[None, :], times[:, None])[0]
        assert positions_at(state, times).tobytes() == y_ref.tobytes()
        # checked blocks of samples before the touch, as simplex_trajectory
        # collects them
        inside = np.linspace(0.0, 0.9 * touch, count)
        y_ref = evaluate_scalar(state.alpha[None, :], state.beta[None, :], inside[:, None])[0]
        blocks = list(flow_blocks(state, inside, BOUNDARY_FLOOR))
        assert [s for s, _ in blocks] == list(range(0, count, rows))
        assert np.concatenate([y for _, y in blocks]).tobytes() == y_ref.tobytes()
        points = simplex_trajectory(p0, v0, inside)
        assert np.array([q.theta for q in points]).tobytes() == y_ref[:, :-1].tobytes()


def whole_grid_touch(state, times):
    """("touch", coordinate, time) of the first floor touch of one
    whole-grid check."""
    y = evaluate_scalar(state.alpha[None, :], state.beta[None, :], times[:, None])[0]
    bad = np.argwhere(y < BOUNDARY_FLOOR)
    return None if not bad.size else ("touch", int(bad[0][1]) + 1, float(times[bad[0][0]]))


def first_failure(state, times, floor):
    """The verdict of the block-wise check: None, ("touch", coordinate,
    time) or ("mass", message)."""
    try:
        for _ in flow_blocks(state, times, floor):
            pass
    except BoundaryTouch as exc:
        return "touch", exc.coordinate, exc.time
    except ValueError as exc:
        return "mass", str(exc)
    return None


def test_block_floor_check_names_the_whole_grid_touch():
    v = ellipsoid_tangent(BARY, np.array([1.0, 1.0]))
    state = simplex_state(BARY, v)
    t_star = boundary_touch_time(BARY, v)
    rows = VALUES_PER_BLOCK // 3
    # the only sample on the floor is the last of a block, the first of the
    # next, or the first of the grid's last, short, block
    for count, extra in ((rows, 5), (rows + 1, 5), (2 * rows + 1, 0)):
        times = np.concatenate([np.linspace(0.0, t_star, count), t_star + np.arange(1, extra + 1)])
        expected = whole_grid_touch(state, times)
        assert expected == ("touch", 3, t_star)
        assert first_failure(state, times, BOUNDARY_FLOOR) == expected
    # the perfbench sweep_touch configuration: 64 directions, 1,000 samples
    times = np.linspace(0.0, math.pi / 2.0, 1000)
    touches = 0
    for k in range(64):
        state = simplex_state(BARY, TangentVector(ellipse_param_n2(2.0 * math.pi * k / 64)))
        expected = whole_grid_touch(state, times)
        assert first_failure(state, times, BOUNDARY_FLOOR) == expected
        touches += expected is not None
    assert touches > 0


def test_flow_blocks_report_the_earlier_of_a_mass_failure_and_a_touch():
    # at t = 1e300 the tau = 1 phases have lost every bit of beta: the
    # coordinates (0.0711, 0.1825, 0.1710) stay above the floor but sum to
    # 0.4246, while the sample at t* touches the floor
    v = TangentVector(ellipse_param_n2(1.0))
    state = simplex_state(BARY, v)
    t_star = boundary_touch_time(BARY, v)
    mass = "the frame at t=1e+300 is not a density: density integrates to 0.424613888042451"
    rows = VALUES_PER_BLOCK // 3
    for pad in (0, rows - 2, rows - 1):  # both in one block, or in two
        lead = np.zeros(pad)
        verdict = first_failure(state, np.concatenate([lead, [1e300, t_star]]), BOUNDARY_FLOOR)
        assert verdict[0] == "mass" and verdict[1].startswith(mass)
        verdict = first_failure(state, np.concatenate([lead, [t_star, 1e300]]), BOUNDARY_FLOOR)
        assert verdict[0] == "touch" and verdict[2] == t_star
    # within a row the floor comes first
    assert first_failure(state, np.array([1e300]), 0.1) == ("touch", 1, 1e300)


def test_flow_blocks_without_a_floor_raise_no_touch():
    # past t* the closed form reflects off the zero: without a floor only
    # the mass is checked, and every row is handed out as positions_at gives it
    touched = 0
    for k in range(12):
        v = TangentVector(ellipse_param_n2(2.0 * math.pi * k / 12))
        state = simplex_state(BARY, v)
        times = np.concatenate([np.linspace(0.0, 7.0, 2001), [boundary_touch_time(BARY, v)]])
        assert first_failure(state, times, -math.inf) is None
        rows = np.concatenate([y for _, y in flow_blocks(state, times)])
        assert rows.tobytes() == positions_at(state, times).tobytes()
        touched += first_failure(state, times, BOUNDARY_FLOOR) is not None
    assert touched == 12


@pytest.mark.parametrize("level", [3, 6])
def test_flow_blocks_name_the_first_row_finite_density_rejects(level):
    # the whole-block tests only flag rows; each row's verdict is
    # FiniteDensity's, and the first rejected row is named
    state = g01_state(level)
    times = np.linspace(0.0, 1e7, 3001)
    expected = None
    for t, y in zip(times.tolist(), positions_at(state, times)):
        try:
            FiniteDensity(state.space, y)
        except ValueError as exc:
            expected = ("mass", f"the frame at t={t!r} is not a density: {exc}")
            break
    assert expected is not None
    assert first_failure(state, times, -math.inf) == expected
    assert first_failure(state, times[times < 1e4], -math.inf) is None


def test_ellipsoid_tangent():
    v = ellipsoid_tangent(BARY, np.array([1.0, 1.0]))
    r = math.sqrt(2.0) / 6.0
    assert np.allclose(v.v, [r, r], atol=1e-15)
    with pytest.raises(ZeroDirection):
        ellipsoid_tangent(BARY, np.zeros(2))


def test_ellipsoid_tangent_ignores_the_scale_of_the_direction():
    # the direction is scaled by a power of two before its norm is taken,
    # so w and ldexp(w, k) give the same velocity bit for bit, even where
    # the norm of ldexp(w, k) itself over- or underflows
    p = SimplexPoint(np.array([0.2, 0.3]))
    w = np.array([0.7, -1.3])
    v = ellipsoid_tangent(p, w).v
    for k in (500, -500, 900, -900):
        assert np.array_equal(ellipsoid_tangent(p, np.ldexp(w, k)).v, v), k
    # the least subnormal is a direction too
    tiny = ellipsoid_tangent(p, np.array([5e-324, 0.0])).v
    assert np.all(np.isfinite(tiny)) and tiny[0] > 0.0 and tiny[1] == 0.0
    assert metric_inner(p, TangentVector(tiny), TangentVector(tiny)) == pytest.approx(1.0)


def test_ellipse_param_frozen():
    assert np.allclose(
        ellipse_param_n2(math.pi / 2),
        [math.sqrt(2.0) / 6.0, math.sqrt(2.0) / 6.0],
        atol=1e-15,
    )
    assert np.allclose(
        ellipse_param_n2(0.0),
        [-math.sqrt(6.0) / 6.0, math.sqrt(6.0) / 6.0],
        atol=1e-15,
    )
    taus = np.linspace(-3.0, 9.0, 57)
    assert np.allclose(
        ellipse_param_n2(taus), ellipse_param_n2(taus + 2 * np.pi), atol=1e-12
    )


def test_ellipse_param_unit_speed_identity():
    taus = np.linspace(0.0, 2 * np.pi, 100)
    v = ellipse_param_n2(taus)
    lhs = v[:, 0] ** 2 + v[:, 1] ** 2 + v[:, 0] * v[:, 1]
    assert np.max(np.abs(lhs - 1 / 6)) < 1e-14
