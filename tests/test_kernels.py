"""RK4 stepping kernels: backend selection and numba/numpy parity."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import frgeo
from conftest import within_a_second
from frgeo import kernels


def test_backend_reports_a_known_name():
    assert kernels.backend_name() in ("numba", "numpy")


def test_numba_disabled_flag_parsing():
    assert not kernels.numba_disabled({})
    for off in ("", "0", "false", "no", "FALSE", "No"):
        assert not kernels.numba_disabled({"FRG_NO_NUMBA": off})
    for on in ("1", "true", "yes", "anything"):
        assert kernels.numba_disabled({"FRG_NO_NUMBA": on})


def test_warm_up_is_idempotent():
    kernels.warm_up()
    kernels.warm_up()


def _sample_problem():
    theta0 = np.array([0.35, 0.3])
    v0 = np.array([0.21, -0.33])
    return theta0, v0


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_coupled_backend_parity():
    theta0, v0 = _sample_problem()
    args = (theta0, v0, 1e-3, 1.2, 1e-9)
    t_np, p_np, v_np, n_np, c_np, e_np = kernels.rk4_coupled_numpy(*args)
    t_jit, p_jit, v_jit, n_jit, c_jit, e_jit = kernels.rk4_coupled_jit(*args)
    assert (n_np, c_np, e_np) == (n_jit, c_jit, e_jit)
    assert np.array_equal(t_np, t_jit)
    assert np.abs(p_np - p_jit).max() < 1e-13
    assert np.abs(v_np - v_jit).max() < 1e-13


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_decoupled_backend_parity():
    y0 = np.array([1.0, 0.5, 0.25])
    z0 = np.array([0.0, 0.3, -0.1])
    args = (y0, z0, 1e-3, 1.5, 1e-9)
    t_np, p_np, v_np, n_np, c_np, e_np = kernels.rk4_decoupled_numpy(*args)
    t_jit, p_jit, v_jit, n_jit, c_jit, e_jit = kernels.rk4_decoupled_jit(*args)
    assert (n_np, c_np, e_np) == (n_jit, c_jit, e_jit)
    assert np.abs(p_np - p_jit).max() < 1e-13
    assert np.abs(v_np - v_jit).max() < 1e-13


def test_exit_record_initial_violation():
    y0 = np.array([1.0, 1e-12])
    z0 = np.zeros(2)
    times, pos, vel, n_valid, coord, t_exit = kernels.rk4_decoupled_numpy(
        y0, z0, 0.1, 1.0, 1e-9
    )
    assert n_valid == 0
    assert coord == 1  # 0-based offending coordinate
    assert t_exit == 0.0


def test_exit_record_mid_run():
    # cos^2(t/2) reaches the floor just before pi
    times, pos, vel, n_valid, coord, t_exit = kernels.rk4_decoupled_numpy(
        np.array([1.0]), np.array([0.0]), 1e-3, 4.0, 1e-9
    )
    assert 0 < n_valid < times.size
    assert coord == 0
    assert abs(t_exit - np.pi) < 0.05


def _backend_in_fresh_interpreter(no_numba=None):
    """Run ``backend_name()`` in a new Python that imports this same ``frgeo``.

    The child inherits the caller's environment; ``FRG_NO_NUMBA`` is dropped
    and then set to ``no_numba`` when given, and the directory holding the
    imported package is put first on ``PYTHONPATH``.
    """
    env = dict(os.environ)
    env.pop("FRG_NO_NUMBA", None)
    if no_numba is not None:
        env["FRG_NO_NUMBA"] = no_numba
    package_root = os.path.dirname(os.path.dirname(frgeo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    code = "import frgeo.kernels as k; print(k.backend_name())"
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_env_flag_selects_numpy_backend():
    out = _backend_in_fresh_interpreter(no_numba="1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_default_backend_is_numba_when_available():
    out = _backend_in_fresh_interpreter()
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numba"


def test_fallback_integrates_same_as_selected_backend():
    # whichever backend is active, results must match the numpy reference
    theta0, v0 = _sample_problem()
    args = (theta0, v0, 5e-3, 0.9, 1e-9)
    ref = kernels.rk4_coupled_numpy(*args)
    act = kernels.rk4_coupled(*args)
    assert np.abs(ref[1] - act[1]).max() < 1e-13


# ---------------------------------------------------------------------------
# the float stepping loop against the reference factory loop

REFERENCE = kernels._make_coupled(kernels._coupled_accel, kernels._coupled_low)
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
    new = kernels.rk4_coupled_numpy(*args)
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
        return kernels._coupled_low(theta, eps)

    return kernels._make_coupled(kernels._coupled_accel, low), distances


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
    # tolerance the backends are held to
    theta0, v0 = _interior_start(n, seed=n)
    args = (theta0, v0, 1e-3, 0.5, 1e-9)
    new = kernels.rk4_coupled_numpy(*args)
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
