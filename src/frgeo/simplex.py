"""Information geometry of the open probability simplex.

A point of the n-simplex is the free coordinate vector theta = (theta_1, ...,
theta_n) with every theta_i > 0 and sum theta_i < 1; the dependent coordinate
theta_{n+1} = 1 - sum theta_i is always recomputed, never stored.  The
Riemannian structure is the Fisher information of the categorical family
p(x_j) = theta_j:

    J(theta)_ij = delta_ij / theta_i + 1 / theta_{n+1}.

Tangent vectors carry free components v_1..v_n and the dependent component
v_{n+1} = -sum v_i, so that curves stay inside the simplex hyperplane.

The metric inner product is evaluated in the expanded O(n) form

    <u, w> = (sum u)(sum w) / theta_{n+1} + sum_i u_i w_i / theta_i,

which agrees with u^T J w but never forms the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import frozen_floats

BOUNDARY_FLOOR = 1e-12


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


def metric_inner(p: SimplexPoint, u: TangentVector, w: TangentVector) -> float:
    """Fisher inner product in the expanded O(n) form (see module docstring)."""
    su = float(np.sum(u.v))
    sw = float(np.sum(w.v))
    return su * sw / p.theta_last + float(np.sum(u.v * w.v / p.theta))
