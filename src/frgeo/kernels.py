"""Fixed-step RK4 stepping kernels, compiled with numba when available.

The integrators in :mod:`frgeo.oracle` spend essentially all of their time in
the sequential stepping loops below.  Each loop is written once, inside a
factory (``_make_coupled``, ``_make_decoupled``), over numpy arrays.  Which
loop runs:

* numba importable and ``FRG_NO_NUMBA`` unset: the factory loops, compiled
  with ``numba.njit``;
* otherwise: for the coupled system ``rk4_coupled_numpy``, a loop over plain
  Python floats, and for the decoupled system the factory loop as numpy.

The coupled oracle integrates one trajectory of a few coordinates, and
numpy spends about a microsecond on each call whatever the array size.  The
factory loop makes about 120 such calls per step (about 150 us per step);
the float loop does the same arithmetic in 20-40 us per step for n = 1..7
(2-vCPU VM, Python 3.11).  It performs every operation in the order of
``_coupled_accel`` and the factory loop, each sum left to right as
``np.sum`` adds fewer than 8 items, so below 8 coordinates its results are
bit-identical to the factory loop's; from 8 on, ``np.sum`` adds pairwise
and the two differ in the last bits.  The factory loop stays as the source
numba compiles and as the tests' reference.  Set ``FRG_NO_NUMBA=1`` (before
import) to force the fallback; ``benchmarks/bench_kernels.py`` times the
loops and checks them against each other.

Step i of every loop ends at ``min((i + 1) * step, t_end)``
(``step_count`` steps), so the time grid lands exactly on ``t_end`` with no
empty step.

Kernels return plain arrays plus an exit record instead of raising, so the
same code object works under both backends:

    (times, positions, velocities, n_valid, exit_coord, exit_time)

``n_valid`` counts the rows actually filled; it equals ``len(times)`` iff
the integration stayed inside the domain.  ``exit_coord`` is the 0-based
index of the offending coordinate (-1 when the dependent simplex coordinate
or no single coordinate is to blame).
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


def numba_disabled(env: dict | None = None) -> bool:
    """True when FRG_NO_NUMBA requests the pure-numpy fallback."""
    source = os.environ if env is None else env
    return str(source.get("FRG_NO_NUMBA", "")).strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


def step_count(step, t_end):
    """Steps of the RK4 time grid: the least n with n * step >= t_end.

    Step i ends at t_{i+1} = min((i + 1) * step, t_end), so the grid lands
    exactly on t_end, and (n - 1) * step < t_end keeps the last step
    positive.  ceil(t_end / step) alone can be one off in floats either way.
    """
    if not t_end > 0.0:
        return 0
    n = max(1, int(math.ceil(t_end / step)))
    while n > 1 and (n - 1) * step >= t_end:
        n -= 1
    while n * step < t_end:
        n += 1
    return n


def _coupled_accel(theta, v):
    # 2 theta'' = -(theta_k/theta_last)(sum v)^2 + v_k^2/theta_k - theta_k q
    theta_last = 1.0 - np.sum(theta)
    sv = np.sum(v)
    q = np.sum(v * v / theta)
    return -0.5 * (theta / theta_last * sv * sv - v * v / theta + theta * q)


def _coupled_low(theta, eps):
    # any coordinate (including the dependent one) at or below the floor?
    return theta.min() <= eps or (1.0 - np.sum(theta)) <= eps


def _decoupled_accel(y, z):
    # y'' = (y'^2 - y^2) / (2y), each coordinate independent
    return (z * z - y * y) / (2.0 * y)


def _first_low(y, eps):
    for k in range(y.size):
        if y[k] <= eps:
            return k
    return -1


# step_count comes in as an argument, like accel and low, so that numba
# compiles it along with the loop
def _make_coupled(accel, low, steps=step_count):
    def loop(theta0, v0, step, t_end, eps):
        n = theta0.size
        n_steps = steps(step, t_end)
        times = np.empty(n_steps + 1)
        pos = np.empty((n_steps + 1, n))
        vel = np.empty((n_steps + 1, n))
        times[0] = 0.0
        pos[0] = theta0
        vel[0] = v0
        if low(theta0, eps):
            return times, pos, vel, 0, -1, 0.0
        t = 0.0
        for i in range(n_steps):
            t_next = min((i + 1) * step, t_end)
            h = t_next - t
            th = pos[i]
            v = vel[i]
            a1 = accel(th, v)
            th2 = th + 0.5 * h * v
            v2 = v + 0.5 * h * a1
            if low(th2, eps):
                return times, pos, vel, i + 1, -1, t + 0.5 * h
            a2 = accel(th2, v2)
            th3 = th + 0.5 * h * v2
            v3 = v + 0.5 * h * a2
            if low(th3, eps):
                return times, pos, vel, i + 1, -1, t + 0.5 * h
            a3 = accel(th3, v3)
            th4 = th + h * v3
            v4 = v + h * a3
            if low(th4, eps):
                return times, pos, vel, i + 1, -1, t_next
            a4 = accel(th4, v4)
            t = t_next
            times[i + 1] = t
            pos[i + 1] = th + h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            vel[i + 1] = v + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            if low(pos[i + 1], eps):
                return times, pos, vel, i + 1, -1, t
        return times, pos, vel, n_steps + 1, -1, t_end

    return loop


def _make_decoupled(accel, first_low, steps=step_count):
    def loop(y0, z0, step, t_end, eps):
        n = y0.size
        n_steps = steps(step, t_end)
        times = np.empty(n_steps + 1)
        pos = np.empty((n_steps + 1, n))
        vel = np.empty((n_steps + 1, n))
        times[0] = 0.0
        pos[0] = y0
        vel[0] = z0
        bad = first_low(y0, eps)
        if bad >= 0:
            return times, pos, vel, 0, bad, 0.0
        t = 0.0
        for i in range(n_steps):
            t_next = min((i + 1) * step, t_end)
            h = t_next - t
            y = pos[i]
            z = vel[i]
            a1 = accel(y, z)
            y2 = y + 0.5 * h * z
            z2 = z + 0.5 * h * a1
            bad = first_low(y2, eps)
            if bad >= 0:
                return times, pos, vel, i + 1, bad, t + 0.5 * h
            a2 = accel(y2, z2)
            y3 = y + 0.5 * h * z2
            z3 = z + 0.5 * h * a2
            bad = first_low(y3, eps)
            if bad >= 0:
                return times, pos, vel, i + 1, bad, t + 0.5 * h
            a3 = accel(y3, z3)
            y4 = y + h * z3
            z4 = z + h * a3
            bad = first_low(y4, eps)
            if bad >= 0:
                return times, pos, vel, i + 1, bad, t_next
            a4 = accel(y4, z4)
            t = t_next
            times[i + 1] = t
            pos[i + 1] = y + h / 6.0 * (z + 2.0 * z2 + 2.0 * z3 + z4)
            vel[i + 1] = z + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            bad = first_low(pos[i + 1], eps)
            if bad >= 0:
                return times, pos, vel, i + 1, bad, t
        return times, pos, vel, n_steps + 1, -1, t_end

    return loop


def _floats_accel(th, v, last):
    # _coupled_accel on lists, with theta_last given; each sum runs left to
    # right from 0.0, np.sum's order and start below 8 items
    sv = 0.0
    for y in v:
        sv += y
    w = [y * y / x for x, y in zip(th, v)]
    q = 0.0
    for y in w:
        q += y
    return [-0.5 * (x / last * sv * sv - y + x * q) for x, y in zip(th, w)]


def _floats_last(th):
    s = 0.0
    for x in th:
        s += x
    return 1.0 - s


def rk4_coupled_numpy(theta0, v0, step, t_end, eps):
    """The coupled loop of ``_make_coupled(_coupled_accel, _coupled_low)``
    on Python floats: the backend without numba (see the module docstring).

    Each stage's theta_last serves its domain check and its acceleration.
    Rows go straight into the preallocated arrays, so no step's lists
    outlive it.
    """
    n = theta0.size
    n_steps = step_count(step, t_end)
    times = np.empty(n_steps + 1)
    pos = np.empty((n_steps + 1, n))
    vel = np.empty((n_steps + 1, n))
    times[0] = 0.0
    pos[0] = theta0
    vel[0] = v0
    th = theta0.tolist()
    v = v0.tolist()
    last = _floats_last(th)
    if min(th) <= eps or last <= eps:
        return times, pos, vel, 0, -1, 0.0
    t = 0.0
    for i in range(n_steps):
        t_next = min((i + 1) * step, t_end)
        h = t_next - t
        half = 0.5 * h
        a1 = _floats_accel(th, v, last)
        th2 = [x + half * y for x, y in zip(th, v)]
        v2 = [x + half * y for x, y in zip(v, a1)]
        last = _floats_last(th2)
        if min(th2) <= eps or last <= eps:
            return times, pos, vel, i + 1, -1, t + half
        a2 = _floats_accel(th2, v2, last)
        th3 = [x + half * y for x, y in zip(th, v2)]
        v3 = [x + half * y for x, y in zip(v, a2)]
        last = _floats_last(th3)
        if min(th3) <= eps or last <= eps:
            return times, pos, vel, i + 1, -1, t + half
        a3 = _floats_accel(th3, v3, last)
        th4 = [x + h * y for x, y in zip(th, v3)]
        v4 = [x + h * y for x, y in zip(v, a3)]
        last = _floats_last(th4)
        if min(th4) <= eps or last <= eps:
            return times, pos, vel, i + 1, -1, t_next
        a4 = _floats_accel(th4, v4, last)
        t = t_next
        sixth = h / 6.0
        th = [
            x + sixth * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
            for x, y1, y2, y3, y4 in zip(th, v, v2, v3, v4)
        ]
        v = [
            x + sixth * (y1 + 2.0 * y2 + 2.0 * y3 + y4)
            for x, y1, y2, y3, y4 in zip(v, a1, a2, a3, a4)
        ]
        times[i + 1] = t
        pos[i + 1] = th
        vel[i + 1] = v
        last = _floats_last(th)
        if min(th) <= eps or last <= eps:
            return times, pos, vel, i + 1, -1, t
    return times, pos, vel, n_steps + 1, -1, t_end


rk4_decoupled_numpy = _make_decoupled(_decoupled_accel, _first_low)

if HAVE_NUMBA:
    # closures over jitted helpers cannot be disk-cached, so no cache=True
    # on the loops; compile time is paid once per process (see warm_up)
    rk4_coupled_jit = njit(
        _make_coupled(
            njit(cache=True)(_coupled_accel),
            njit(cache=True)(_coupled_low),
            njit(cache=True)(step_count),
        )
    )
    rk4_decoupled_jit = njit(
        _make_decoupled(
            njit(cache=True)(_decoupled_accel),
            njit(cache=True)(_first_low),
            njit(cache=True)(step_count),
        )
    )
else:  # pragma: no cover
    rk4_coupled_jit = None
    rk4_decoupled_jit = None

USING_NUMBA = HAVE_NUMBA and not numba_disabled()

if USING_NUMBA:
    rk4_coupled = rk4_coupled_jit
    rk4_decoupled = rk4_decoupled_jit
else:
    rk4_coupled = rk4_coupled_numpy
    rk4_decoupled = rk4_decoupled_numpy


def backend_name() -> str:
    return "numba" if USING_NUMBA else "numpy"


def warm_up() -> None:
    """Trigger JIT compilation outside any timed region (no-op on numpy)."""
    if USING_NUMBA:
        theta = np.array([0.4, 0.3])
        v = np.array([0.01, -0.02])
        rk4_coupled(theta, v, 0.1, 0.2, 1e-9)
        rk4_decoupled(theta, v, 0.1, 0.2, 1e-9)
