"""Fixed-step RK4 integration of the coupled geodesic equation, an
independent check of the closed-form flow.

``integrate_coupled`` integrates the coupled second-order system in the
free simplex coordinates,

    2 theta_k'' + (theta_k / theta_{n+1}) (sum theta')^2
                - theta_k'^2 / theta_k + theta_k sum_j theta_j'^2 / theta_j = 0,

where theta_{n+1} = 1 - sum theta_k is recomputed at every stage (never
integrated), which keeps the total mass exactly one along the numerical
trajectory.  It raises :class:`~frgeo.errors.LeftDomain` as soon as any
coordinate, the dependent one included, falls to ``DOMAIN_EPS`` or below
at any internal stage; the equation is singular on the boundary, so no
step across it is attempted.

``rk4_coupled`` steps the system.  It integrates one trajectory of a few
coordinates, where each numpy call costs about a microsecond whatever the
array size, and a loop over numpy arrays makes about 120 calls per step.
So it runs straight-line code over local variables, one per coordinate,
that ``_coupled_source`` unrolls for each coordinate count n.  It is
compiled the first time n is seen, at about 0.4 ms per coordinate, before
the output arrays are allocated, and cached in ``_COUPLED_LOOPS``.  It
buffers its rows as Python floats, about ``spaces.VALUES_PER_BLOCK`` =
1,024 of them (93 rows at n = 5), between slice writes into the
preallocated arrays.  A step calls no builtin: each domain check is one
chain of comparisons and the step's end one clamp.  It takes about 2 us at
n = 2 and 4.5 us at n = 5 (2-vCPU VM, Python 3.11; 1.1-5.9 us for
n = 1..7).  ``tests/oracles.py`` holds the same loop over numpy arrays, the
reference it agrees with bit for bit below 8 coordinates.

Step i ends at ``min((i + 1) * step, t_end)`` (``step_count`` steps), so
the time grid lands exactly on ``t_end`` with no empty step.
``rk4_coupled`` returns plain arrays and an exit record, which
``integrate_coupled`` turns into ``LeftDomain``:

    (times, positions, velocities, n_valid, exit_coord, exit_time)

``n_valid`` counts the rows actually filled; it equals ``len(times)`` iff
the integration stayed inside the domain.  ``exit_coord`` is always -1:
the check covers the whole state and blames no single coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LeftDomain
from .simplex import SimplexPoint, TangentVector
from .spaces import block_rows

# above it the equations' 1/theta terms stay under 1e9 and 1 - sum theta keeps
# about 7 significant digits; nearer the boundary a stage loses its accuracy
DOMAIN_EPS = 1e-9

# (i + 1) * step is exact in i + 1 only up to 2^53, and numpy indexes
# arrays of at most intp max items (n_steps + 1 of them)
MAX_STEPS = min(2**53, np.iinfo(np.intp).max - 1)


def step_count(step, t_end):
    """Steps of the RK4 time grid: the least n with n * step >= t_end.

    Step i ends at t_{i+1} = min((i + 1) * step, t_end), so the grid lands
    exactly on t_end, and (n - 1) * step < t_end keeps the last step
    positive.  ceil(t_end / step) alone can be one off in floats either way.
    Raises ValueError when that takes more than ``MAX_STEPS`` steps.
    """
    if not t_end > 0.0:
        return 0
    ratio = t_end / step
    if ratio <= MAX_STEPS:  # also false for an infinite ratio
        n = max(1, int(math.ceil(ratio)))
        while n > 1 and (n - 1) * step >= t_end:
            n -= 1
        while n * step < t_end:
            n += 1
        if n <= MAX_STEPS:
            return n
    raise ValueError("the time grid has more steps than floats or numpy can index")


def _tables(x0, v0, n_steps):
    """Time, position and velocity arrays of n_steps + 1 rows, row 0 the start."""
    times = np.empty(n_steps + 1)
    pos = np.empty((n_steps + 1, x0.size))
    vel = np.empty((n_steps + 1, x0.size))
    times[0] = 0.0
    pos[0] = x0
    vel[0] = v0
    return times, pos, vel


# the float loop of each coordinate count, compiled on first use
_COUPLED_LOOPS: dict = {}


def _flush(times, pos, vel, row, tb, pb, vb):
    # buffered rows (pb and vb flat) into rows row, row + 1, ... of the arrays
    end = row + len(tb)
    times[row:end] = tb
    pos[row:end] = np.reshape(pb, (-1, pos.shape[1]))
    vel[row:end] = np.reshape(vb, (-1, vel.shape[1]))


def _coupled_source(n):
    """Source of the float loop for n coordinates, unrolled over k.

    A line with ``$`` is repeated for k = 0..n-1, ``$`` standing for k.
    Stage s keeps coordinate k of its position and velocity in ``p{s}_k``
    and ``u{s}_k`` (``p_k`` and ``u_k`` at stage 1), its acceleration in
    ``a{s}_k``.
    """
    ks = range(n)

    def each(line):
        return [line.replace("$", str(k)) for k in ks]

    def names(stem):
        return ", ".join(f"{stem}_{k}" for k in ks)

    def total(name, stem):  # one expression, left to right from the first term
        return [f"{name} = " + " + ".join(each(f"{stem}_$"))]

    def low(x):  # any coordinate or the dependent one at the floor, no min()
        return " or ".join([*each(f"{x}_$ <= eps"), "last <= eps"])

    def stage(x, y, a, x1, y1, new_x, new_y, t_exit, *keep):
        # acceleration a at (x, y), then the next point (x1, y1) and its check
        return [
            *each(f"w_$ = {y}_$ * {y}_$ / {x}_$"),
            *total("q", "w"),
            *each(f"{a}_$ = -0.5 * ({x}_$ / last * sv * sv - w_$ + {x}_$ * q)"),
            *each(f"{x1}_$ = {new_x}"),
            *each(f"{y1}_$ = {new_y}"),
            *total("s", x1),
            *total("su", y1),
            *keep,
            "last = 1.0 - s",
            f"if {low(x1)}:",
            "    _flush(times, pos, vel, i0 + 1, tb, pb, vb)",
            f"    return i + 1, {t_exit}",
            "sv = su",
        ]

    step = [
        "t_next = (i + 1) * step",
        "if t_end < t_next:",
        "    t_next = t_end",
        "h = t_next - t",
        "half = 0.5 * h",
        "sixth = h / 6.0",
        *stage("p", "u", "a1", "p2", "u2", "p_$ + half * u_$", "u_$ + half * a1_$", "t + half"),
        *stage("p2", "u2", "a2", "p3", "u3", "p_$ + half * u2_$", "u_$ + half * a2_$", "t + half"),
        *stage("p3", "u3", "a3", "p4", "u4", "p_$ + h * u3_$", "u_$ + h * a3_$", "t_next"),
        *stage(
            "p4", "u4", "a4", "p", "u",
            "p_$ + sixth * (u_$ + 2.0 * u2_$ + 2.0 * u3_$ + u4_$)",
            "u_$ + sixth * (a1_$ + 2.0 * a2_$ + 2.0 * a3_$ + a4_$)",
            "t", "t = t_next", "tb.append(t)",
            f"pb += ({names('p')},)", f"vb += ({names('u')},)",
        ),
    ]
    rows = block_rows(2 * n + 1)  # rows buffered: a row is t, n positions, n velocities
    lines = [
        "def loop(th, v, step, t_end, eps, n_steps, times, pos, vel):",
        f"    {names('p')}, = th",
        f"    {names('u')}, = v",
        *("    " + line for line in total("s", "p") + total("sv", "u")),
        "    last = 1.0 - s",
        f"    if {low('p')}:",
        "        return 0, 0.0",
        "    t = 0.0",
        f"    for i0 in range(0, n_steps, {rows}):",
        "        tb, pb, vb = [], [], []",
        f"        for i in range(i0, min(i0 + {rows}, n_steps)):",
        *("            " + line for line in step),
        "        _flush(times, pos, vel, i0 + 1, tb, pb, vb)",
        "    return n_steps + 1, t_end",
    ]
    return "\n".join(lines) + "\n"


def _coupled_loop(n):
    """The float loop for n coordinates, compiled the first time n is seen."""
    loop = _COUPLED_LOOPS.get(n)
    if loop is None:
        namespace = {"_flush": _flush}
        exec(compile(_coupled_source(n), f"<rk4 float loop, n = {n}>", "exec"), namespace)
        loop = _COUPLED_LOOPS[n] = namespace["loop"]
    return loop


def rk4_coupled(theta0, v0, step, t_end, eps):
    """One run of the float loop for ``theta0.size`` coordinates (see the
    module docstring).

    w_k is formed only once a stage's domain check has passed, so no
    coordinate at or below the floor is divided by.  A domain check is the
    chain ``p_0 <= eps or ... or last <= eps``: a NaN coordinate (and so
    ``last``) compares false, and the other coordinates are still checked.
    Only there does it differ from ``min(p_0, ...) <= eps``, which keeps a
    first NaN and skips later ones (the numpy reference never exits on a NaN).
    The loop is compiled before the arrays are allocated.  Rows are written
    into them every ``block_rows(2 * n + 1)`` steps (about
    ``spaces.VALUES_PER_BLOCK`` buffered floats) and on exit.
    """
    loop = _coupled_loop(theta0.size)
    n_steps = step_count(step, t_end)
    times, pos, vel = _tables(theta0, v0, n_steps)
    n_valid, exit_time = loop(
        theta0.tolist(), v0.tolist(), step, t_end, eps, n_steps, times, pos, vel
    )
    return times, pos, vel, n_valid, -1, exit_time


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration.

    Step i ends at min((i + 1) * step, t_end): the final step is shortened
    to land exactly on t_end, and is never empty (``step_count``).
    """

    step: float
    t_end: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must be non-negative")

    @property
    def n_steps(self) -> int:
        return step_count(self.step, self.t_end)


@dataclass(frozen=True)
class OdeTrajectory:
    """Sampled numerical trajectory: times, positions and velocities."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        for name in ("positions", "velocities"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape[0] != t.size:
                raise ValueError(f"{name} length does not match times")


def integrate_coupled(
    p0: SimplexPoint, v0: TangentVector, config: IntegratorConfig
) -> OdeTrajectory:
    """RK4 integration of the coupled system from (p0, v0).

    The initial velocity is arbitrary (unit speed is not assumed).  Raises
    LeftDomain if the trajectory reaches the boundary region.
    """
    if v0.v.size != p0.n:
        raise ValueError("velocity dimension does not match the point")
    times, pos, vel, n_valid, _, exit_time = rk4_coupled(
        p0.theta, v0.v, float(config.step), float(config.t_end), DOMAIN_EPS
    )
    if n_valid != times.size:
        raise LeftDomain(float(exit_time))
    return OdeTrajectory(times, pos, vel)


# read by perfbench/checks.py; goes with the benchmark refresh
rk4_coupled_jit = None


# read by perfbench/run.py for its run record; goes with the benchmark refresh
def backend_name() -> str:
    return "numpy"
