"""Information geometry of the open probability simplex.

A point of the n-simplex is the free coordinate vector theta = (theta_1, ...,
theta_n) with every theta_i > 0 and sum theta_i < 1; the dependent coordinate
theta_{n+1} = 1 - sum theta_i is always recomputed, never stored.  The
Riemannian structure is the Fisher information of the categorical family
p(x_j) = theta_j:

    J(theta)_ij = delta_ij / theta_i + 1 / theta_{n+1}

with the closed-form inverse  (J^-1)_ij = theta_i (delta_ij - theta_j).
Tangent vectors carry free components v_1..v_n and the dependent component
v_{n+1} = -sum v_i, so that curves stay inside the simplex hyperplane.

The metric inner product is evaluated in the expanded O(n) form

    <u, w> = (sum u)(sum w) / theta_{n+1} + sum_i u_i w_i / theta_i,

which agrees with u^T J w but never forms the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAtom
from .spaces import frozen_floats

BOUNDARY_FLOOR = 1e-12
DENSE_CHRISTOFFEL_LIMIT = 64

# numpy renamed trapz -> trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class SimplexPoint:
    """Interior point of the n-simplex, stored by its n free coordinates."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", frozen_floats(self.theta))
        if self.theta.ndim != 1 or self.theta.size < 1:
            raise ValueError("theta must be a nonempty vector")
        last = 1.0 - float(np.sum(self.theta))
        if not (np.min(self.theta) >= BOUNDARY_FLOOR and last >= BOUNDARY_FLOOR):
            raise ValueError(
                "point is on or numerically too close to the simplex boundary"
            )

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def theta_last(self) -> float:
        return 1.0 - float(np.sum(self.theta))

    @property
    def full(self) -> np.ndarray:
        """All n+1 coordinates, the dependent one recomputed."""
        return np.append(self.theta, self.theta_last)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector in free coordinates; the last component is derived."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", frozen_floats(self.v))
        if self.v.ndim != 1 or self.v.size < 1:
            raise ValueError("v must be a nonempty vector")

    @property
    def v_last(self) -> float:
        return -float(np.sum(self.v))

    @property
    def full(self) -> np.ndarray:
        return np.append(self.v, self.v_last)


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


def metric_inner(p: SimplexPoint, u: TangentVector, w: TangentVector) -> float:
    """Fisher inner product in the expanded O(n) form (see module docstring)."""
    su = float(np.sum(u.v))
    sw = float(np.sum(w.v))
    return su * sw / p.theta_last + float(np.sum(u.v * w.v / p.theta))


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
