"""RK4 stepping kernels: exit records, the float loop against its numpy
reference in ``oracles``, and the time grid."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import frgeo
from conftest import within_a_second
from frgeo import kernels
from frgeo.spaces import block_rows
from oracles import _coupled_accel, _coupled_low, _make_coupled, rk4_decoupled
from oracles import rk4_coupled_reference as REFERENCE


def test_backend_reports_a_known_name():
    assert kernels.backend_name() == "numpy"


def test_exit_record_initial_violation():
    y0 = np.array([1.0, 1e-12])
    z0 = np.zeros(2)
    times, pos, vel, n_valid, coord, t_exit = rk4_decoupled(
        y0, z0, 0.1, 1.0, 1e-9
    )
    assert n_valid == 0
    assert coord == 1  # 0-based offending coordinate
    assert t_exit == 0.0


def test_exit_record_mid_run():
    # cos^2(t/2) reaches the floor just before pi
    times, pos, vel, n_valid, coord, t_exit = rk4_decoupled(
        np.array([1.0]), np.array([0.0]), 1e-3, 4.0, 1e-9
    )
    assert 0 < n_valid < times.size
    assert coord == 0
    assert abs(t_exit - np.pi) < 0.05


@pytest.mark.parametrize(
    "y0, z0, coord, t_exit",
    [
        # a NaN coordinate never counts as low: coordinate 1 exits at pi
        ([np.nan, 1.0], [0.0, 0.0], 1, np.pi),
        ([np.nan, 1e-12], [0.0, 0.0], 1, 0.0),
        # the last coordinate, cos^2((t + 1)/2), exits first, at pi - 1
        ([1.0, 1.0, np.cos(0.5) ** 2], [0.0, 0.0, -np.sin(1.0) / 2.0], 2, np.pi - 1.0),
    ],
)
def test_decoupled_exit_matches_per_coordinate_check(y0, z0, coord, t_exit):
    out = rk4_decoupled(np.array(y0), np.array(z0), 1e-3, 4.0, 1e-9)
    assert out[4] == coord and abs(out[5] - t_exit) < 0.05


# ---------------------------------------------------------------------------
# the float stepping loop against the reference factory loop

EXIT_BRANCHES = ("stage 2", "stage 3", "stage 4", "end of step")


def _interior_start(n, seed):
    """Seeded interior point and unit-speed velocity of the n-simplex."""
    rng = np.random.default_rng(seed)
    raw = rng.gamma(shape=2.0, scale=1.0, size=n + 1)
    p0 = frgeo.SimplexPoint((0.9 * raw / raw.sum() + 0.1 / (n + 1))[:n])
    v0 = frgeo.ellipsoid_tangent(p0, rng.standard_normal(n))
    return np.array(p0.theta), np.array(v0.v)


def _assert_same_run(args, rows=None):
    """Float loop and reference agree bit for bit on the first ``rows`` rows
    (all valid rows by default) and on the exit record."""
    new = kernels.rk4_coupled(*args)
    ref = REFERENCE(*args)
    assert new[3:] == ref[3:]
    rows = ref[3] if rows is None else rows
    for a, b in zip(new[:3], ref[:3]):
        assert np.array_equal(a[:rows], b[:rows])
    return ref


@pytest.mark.parametrize("n", range(1, 8))
def test_float_loop_equals_reference_on_full_runs(n):
    theta0, v0 = _interior_start(n, seed=n)
    p0, tangent = frgeo.SimplexPoint(theta0), frgeo.TangentVector(v0)
    # a horizon that is no multiple of the step, so the last step is short
    t_end = 0.9 * frgeo.boundary_touch_time(p0, tangent)
    ref = _assert_same_run((theta0, v0, 0.01, t_end, 1e-9))
    assert ref[3] == ref[0].size
    assert ref[0][-1] == t_end


def _recording_reference():
    """The reference loop and the list of its domain checks' distances to
    the boundary (smallest coordinate, the dependent one included)."""
    distances = []

    def low(theta, eps):
        distances.append(min(theta.min(), 1.0 - np.sum(theta)))
        return _coupled_low(theta, eps)

    return _make_coupled(_coupled_accel, low), distances


def _exit_cases(n):
    """{branch: (args, check index)} leaving the domain at each kind of check.

    Check 0 is the start; check 4 i + 1 ... 4 i + 4 are stage 2, stage 3,
    stage 4 and the end of step i.  Setting eps to the distance of a check
    that lies strictly below every earlier one makes it the first to fire.
    """
    recording, distances = _recording_reference()
    cases = {}
    # large steps make the midpoint stages overshoot, which stage 3 needs
    # when n = 1: there the smaller coordinate always accelerates away from
    # the boundary
    for seed in range(4):
        for step in (0.05, 2.0):
            theta0, v0 = _interior_start(n, seed)
            distances.clear()
            recording(theta0, v0, step, 3.2, 1e-9)
            cases.setdefault("start", ((theta0, v0, step, 3.2, distances[0]), 0))
            lowest = distances[0]
            for c in range(1, len(distances)):
                if 0.0 < distances[c] < lowest:
                    lowest = distances[c]
                    args = (theta0, v0, step, 3.2, lowest)
                    cases.setdefault(EXIT_BRANCHES[(c - 1) % 4], (args, c))
    return cases


@pytest.mark.parametrize("n", range(1, 8))
def test_float_loop_equals_reference_on_every_exit_branch(n):
    cases = _exit_cases(n)
    assert sorted(cases) == sorted(("start", *EXIT_BRANCHES))
    recording, distances = _recording_reference()
    for branch, (args, c) in cases.items():
        distances.clear()
        recording(*args)
        assert len(distances) == c + 1, branch  # check c fired
        n_valid = (c + 3) // 4  # rows 0..i for an exit inside step i
        # row 0 is written before the start check, row i + 1 before the
        # end-of-step check
        rows = max(n_valid, 1) + (branch == "end of step")
        ref = _assert_same_run(args, rows)
        assert ref[3] == n_valid, branch


@pytest.mark.parametrize("n", [8, 12, 64])
def test_float_loop_near_reference_from_eight_coordinates(n):
    # from 8 items np.sum adds in unrolled pairwise order, the float loop
    # left to right, so the two differ in the last bits; 1e-13 is the
    # tolerance benchmarks/bench_kernels.py holds them to
    theta0, v0 = _interior_start(n, seed=n)
    args = (theta0, v0, 1e-3, 0.5, 1e-9)
    new = kernels.rk4_coupled(*args)
    ref = REFERENCE(*args)
    assert new[3:] == ref[3:] == (ref[0].size, -1, 0.5)
    assert np.array_equal(new[0], ref[0])
    assert np.abs(new[1] - ref[1]).max() < 1e-13
    assert np.abs(new[2] - ref[2]).max() < 1e-13


def test_step_count_lands_on_t_end_with_a_positive_last_step():
    # ceil(t_end / step) is one more than needed here, and one less here
    assert kernels.step_count(0.1, 0.30000000000000004) == 3
    assert kernels.step_count(0.09398574599985944, 6.485016473990302) == 70
    assert kernels.step_count(0.1, 0.0) == 0
    rng = np.random.default_rng(3)
    for step, t_end in zip(rng.uniform(1e-4, 0.5, 500), rng.uniform(1e-3, 4.0, 500)):
        n = kernels.step_count(step, t_end)
        assert (n - 1) * step < t_end <= n * step
    for t_end in (1.0, 0.30000000000000004):
        times = REFERENCE(np.array([0.3, 0.3]), np.array([0.1, -0.1]), 0.1, t_end, 1e-9)[0]
        assert times[-1] == t_end and np.all(np.diff(times) > 0.0)


def test_step_count_stops_at_the_float_index_limit():
    # above 2^53 steps, (n - 1) * step rounds to n * step: the count used to
    # spin in its decrement loop; 5e-324 makes t_end / step infinite
    too_many = [(1e-300, 1.0), (5e-324, 1.0), (1e-320, 1e-300),
                (1.0, 2.0**53 + 2), (0.5, 2.0**52 + 1)]
    for step, t_end in too_many:
        with pytest.raises(ValueError, match="more steps"):
            within_a_second(kernels.step_count, step, t_end)
    # up to the limit the count stays exact, and takes no search
    assert within_a_second(kernels.step_count, 1.0, 2.0**53) == 2**53
    assert within_a_second(kernels.step_count, 0.5, 2.0**52 - 0.5) == 2**53 - 1
    assert kernels.MAX_STEPS <= np.iinfo(np.intp).max - 1


# ---------------------------------------------------------------------------
# the generated float loop: output contract, flush blocks and its cache


@pytest.mark.parametrize("n", [1, 2, 5])
def test_float_loop_keeps_full_length_arrays_on_every_exit_branch(n):
    # integrate_coupled and perfbench tell an exit by n_valid != times.size
    for branch, (args, _) in _exit_cases(n).items():
        times, pos, vel, n_valid, coord, _ = kernels.rk4_coupled(*args)
        rows = kernels.step_count(args[2], args[3]) + 1
        assert times.shape == (rows,), branch
        assert pos.shape == vel.shape == (rows, n), branch
        assert n_valid < rows and coord == -1, branch


def test_float_loop_equals_reference_across_flush_blocks():
    theta0, v0 = _interior_start(3, seed=3)
    blocks = block_rows(2 * 3 + 1)  # the float loop's buffered rows at n = 3
    # two and a half blocks of steps: two full blocks and a partial one
    steps = 5 * blocks // 2
    ref = _assert_same_run((theta0, v0, 0.25 / steps, 0.25, 1e-9))
    assert ref[3] == ref[0].size
    assert 2 * blocks + 1 < ref[0].size < 3 * blocks + 1
    # leaving the domain at the exact touch, in the second block
    touch = frgeo.boundary_touch_time(
        frgeo.SimplexPoint(theta0), frgeo.TangentVector(v0)
    )
    ref = _assert_same_run((theta0, v0, touch / (1.5 * blocks + 0.5), 2.0 * touch, 1e-9))
    assert blocks < ref[3] < 2 * blocks


def test_float_loop_leaves_its_arguments_and_first_row_alone():
    theta0, v0 = _interior_start(4, seed=1)
    saved = theta0.copy(), v0.copy()
    for eps in (1e-9, 1.0):  # a full run, and an exit at the start
        times, pos, vel = kernels.rk4_coupled(theta0, v0, 0.01, 0.3, eps)[:3]
        assert times[0] == 0.0
        assert np.array_equal(pos[0], theta0) and np.array_equal(vel[0], v0)
    assert np.array_equal(theta0, saved[0]) and np.array_equal(v0, saved[1])


def test_float_loop_checks_every_coordinate_beside_a_nan():
    # a NaN coordinate compares false in the domain check, whatever its
    # place; the other coordinates are still checked
    for theta0 in ([np.nan, 0.0, 0.4], [0.0, np.nan, 0.4], [0.4, 0.0, np.nan]):
        out = kernels.rk4_coupled(np.array(theta0), np.zeros(3), 0.1, 0.3, 1e-9)
        assert out[3:] == (0, -1, 0.0), theta0
    times, pos, _, n_valid, _, _ = kernels.rk4_coupled(
        np.array([np.nan, 0.3, 0.4]), np.zeros(3), 0.1, 0.3, 1e-9
    )
    assert n_valid == times.size == 4 and np.all(np.isnan(pos[1:]))


def test_float_loop_compiles_for_many_coordinates():
    # every sum is one statement per term, so no expression nests n deep
    theta0, v0 = _interior_start(300, seed=300)
    args = (theta0, v0, 1e-3, 0.02, 1e-9)
    new = kernels.rk4_coupled(*args)
    ref = REFERENCE(*args)
    assert new[3:] == ref[3:] == (21, -1, 0.02)
    assert np.abs(new[1] - ref[1]).max() < 1e-13
    assert np.abs(new[2] - ref[2]).max() < 1e-13


def test_float_loop_is_compiled_once_per_coordinate_count(monkeypatch):
    theta0, v0 = _interior_start(6, seed=6)
    first = kernels.rk4_coupled(theta0, v0, 0.01, 0.1, 1e-9)
    loop = kernels._COUPLED_LOOPS[6]

    def no_source(n):
        raise AssertionError(f"loop for n = {n} generated twice")

    monkeypatch.setattr(kernels, "_coupled_source", no_source)
    second = kernels.rk4_coupled(theta0, v0, 0.01, 0.1, 1e-9)
    assert kernels._COUPLED_LOOPS[6] is loop
    for a, b in zip(first[:3], second[:3]):
        assert np.array_equal(a, b)


def test_float_loop_buffers_one_block_at_a_time():
    # Python-float rows held between flushes stay a fixed amount, not a
    # multiple of the run's length
    theta0, v0 = _interior_start(2, seed=2)
    kernels.rk4_coupled(theta0, v0, 0.01, 0.02, 1e-9)  # compile first
    tracemalloc.start()
    try:
        times, pos, vel = kernels.rk4_coupled(theta0, v0, 1e-4, 0.25, 1e-9)[:3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = times.nbytes + pos.nbytes + vel.nbytes
    # the whole run's 2,500 rows as Python floats would take about 400 kB
    assert times.size == 2501
    assert peak < output + 256 * 1024
