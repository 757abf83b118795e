"""Fixed-step RK4 oracle vs the closed-form flow."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frgeo import (
    IntegratorConfig,
    LeftDomain,
    OdeTrajectory,
    SimplexPoint,
    TangentVector,
    boundary_touch_time,
    ellipse_param_n2,
    integrate_coupled,
    simplex_trajectory,
)
from conftest import random_interior_point, random_unit_tangent
from oracles import integrate_decoupled

BARY = SimplexPoint(np.array([1 / 3, 1 / 3]))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(0.0, 1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(0.1, -1.0)
    assert IntegratorConfig(0.3, 1.0).n_steps == 4
    assert IntegratorConfig(0.25, 1.0).n_steps == 4
    assert IntegratorConfig(0.1, 0.0).n_steps == 0


def test_trajectory_validation():
    with pytest.raises(ValueError):
        OdeTrajectory(
            np.array([0.0, 0.0, 0.1]), np.zeros((3, 1)), np.zeros((3, 1))
        )
    with pytest.raises(ValueError):
        OdeTrajectory(np.array([0.0, 0.1]), np.zeros((3, 1)), np.zeros((3, 1)))


def test_final_partial_step_lands_on_t_end():
    traj = integrate_decoupled(
        np.array([1.0]), np.array([0.0]), IntegratorConfig(0.3, 1.0)
    )
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)
    assert traj.times[-1] == 1.0


@pytest.mark.parametrize(
    "step, t_end", [(1e-4, 1.0), (0.1, 1.0), (0.1, 0.30000000000000004)]
)
def test_time_grid_lands_exactly_on_t_end(step, t_end):
    # accumulating t += h ended at 0.9999999999999062 (step 1e-4) and at
    # 0.9999999999999999 (step 0.1), and added an empty fourth step after
    # 3 * 0.1 == 0.30000000000000004
    cfg = IntegratorConfig(step, t_end)
    coupled = integrate_coupled(BARY, TangentVector(ellipse_param_n2(1.0)), cfg)
    decoupled = integrate_decoupled(np.array([1.0]), np.array([0.0]), cfg)
    for traj in (coupled, decoupled):
        assert traj.times[-1] == t_end
        assert traj.times.size == cfg.n_steps + 1
        assert np.array_equal(traj.times[:-1], np.arange(cfg.n_steps) * step)


def test_decoupled_matches_closed_form():
    cfg = IntegratorConfig(1e-3, math.pi / 2)
    traj = integrate_decoupled(np.array([1.0]), np.array([0.0]), cfg)
    ref = np.cos(traj.times / 2.0) ** 2
    assert np.abs(traj.positions[:, 0] - ref).max() < 1e-8

    cfg = IntegratorConfig(1e-3, math.pi)
    traj = integrate_decoupled(np.array([0.5]), np.array([0.5]), cfg)
    ref = np.cos(traj.times / 2.0 - math.pi / 4.0) ** 2
    assert np.abs(traj.positions[:, 0] - ref).max() < 1e-8


def test_decoupled_zero_velocity_halves_at_quarter_period():
    traj = integrate_decoupled(
        np.array([0.7]), np.array([0.0]), IntegratorConfig(1e-3, math.pi / 2)
    )
    assert abs(traj.positions[-1, 0] - 0.35) < 1e-8


def test_decoupled_left_domain():
    # y = cos^2(t/2) hits zero at t = pi; integration must abort there
    with pytest.raises(LeftDomain) as info:
        integrate_decoupled(
            np.array([1.0]), np.array([0.0]), IntegratorConfig(1e-3, 3.2)
        )
    assert info.value.coordinate == 1
    assert abs(info.value.time - math.pi) < 0.01


def test_decoupled_rejects_initial_boundary_state():
    with pytest.raises(LeftDomain) as info:
        integrate_decoupled(
            np.array([0.5, 1e-10]), np.array([0.0, 0.0]), IntegratorConfig(0.1, 1.0)
        )
    assert info.value.time == 0.0
    assert info.value.coordinate == 2


def test_coupled_zero_velocity_is_stationary():
    p0 = SimplexPoint(np.array([0.3, 0.25, 0.2]))
    traj = integrate_coupled(
        p0, TangentVector(np.zeros(3)), IntegratorConfig(0.05, 1.0)
    )
    assert np.max(np.abs(traj.positions - p0.theta)) == 0.0
    assert np.max(np.abs(traj.velocities)) == 0.0


def test_coupled_matches_closed_form():
    v0 = TangentVector(ellipse_param_n2(1.0))
    t_end = 0.95 * boundary_touch_time(BARY, v0)
    traj = integrate_coupled(BARY, v0, IntegratorConfig(1e-3, t_end))
    closed = np.array([p.theta for p in simplex_trajectory(BARY, v0, traj.times)])
    assert np.abs(closed - traj.positions).max() < 1e-6


def test_coupled_matches_closed_form_random_starts():
    rng = np.random.default_rng(89)
    for n in (2, 5):
        for _ in range(3):
            p0 = random_interior_point(rng, n)
            v0 = random_unit_tangent(rng, p0)
            t_end = 0.9 * boundary_touch_time(p0, v0)
            traj = integrate_coupled(p0, v0, IntegratorConfig(2e-3, t_end))
            closed = np.array(
                [p.theta for p in simplex_trajectory(p0, v0, traj.times)]
            )
            assert np.abs(closed - traj.positions).max() < 1e-6


def test_coupled_order_four_convergence():
    v0 = TangentVector(ellipse_param_n2(1.0))
    t_end = 0.95 * boundary_touch_time(BARY, v0)
    errs = {}
    for step in (0.04, 0.02):
        traj = integrate_coupled(BARY, v0, IntegratorConfig(step, t_end))
        closed = np.array(
            [p.theta for p in simplex_trajectory(BARY, v0, traj.times)]
        )
        errs[step] = np.abs(closed - traj.positions).max()
    rate = math.log2(errs[0.04] / errs[0.02])
    assert rate >= 3.7, rate


def test_coupled_left_domain_near_boundary_time():
    v0 = TangentVector(ellipse_param_n2(1.0))
    t_star = boundary_touch_time(BARY, v0)
    with pytest.raises(LeftDomain) as info:
        integrate_coupled(BARY, v0, IntegratorConfig(1e-3, t_star + 0.1))
    assert abs(info.value.time - t_star) < 0.01


def test_coupled_accepts_non_unit_speed():
    # the coupled system is the general geodesic equation
    p0 = SimplexPoint(np.array([0.4, 0.3]))
    v0 = TangentVector(np.array([0.05, -0.02]))
    traj = integrate_coupled(p0, v0, IntegratorConfig(1e-2, 1.0))
    assert traj.times.size == 101
    assert traj.times[-1] == 1.0


def test_coupled_equals_decoupled_for_unit_speed():
    v0 = TangentVector(ellipse_param_n2(2.0))
    t_end = 0.95 * boundary_touch_time(BARY, v0)
    cfg = IntegratorConfig(1e-3, t_end)
    coupled = integrate_coupled(BARY, v0, cfg)
    decoupled = integrate_decoupled(BARY.full, v0.full, cfg)
    last = 1.0 - coupled.positions.sum(axis=1)
    full = np.column_stack([coupled.positions, last])
    assert np.abs(full - decoupled.positions).max() < 1e-6


def test_coupled_conserves_speed_and_mass():
    v0 = TangentVector(ellipse_param_n2(1.0))
    t_end = 0.95 * boundary_touch_time(BARY, v0)
    traj = integrate_coupled(BARY, v0, IntegratorConfig(1e-3, t_end))
    last = 1.0 - traj.positions.sum(axis=1)
    v_last = -traj.velocities.sum(axis=1)
    speed = (traj.velocities**2 / traj.positions).sum(axis=1) + v_last**2 / last
    assert np.abs(speed - 1.0).max() < 1e-5
    # mass is structural: the dependent coordinate is recomputed, never stepped
    assert np.abs(traj.positions.sum(axis=1) + last - 1.0).max() < 1e-15
