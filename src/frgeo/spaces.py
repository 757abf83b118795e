"""Finite measure spaces and dyadic pixel grids.

Three concrete carriers are used everywhere else in the package:

* :class:`FiniteMeasureSpace` -- N abstract atoms 0..N-1 with strictly
  positive weights.  The probability simplex lives here via the counting
  measure on n+1 atoms.
* :class:`DyadicGrid` -- the level-j dyadic pixelation of the unit cube
  [0,1)^m.  Cells are half-open boxes of side 2^-j; the carried measure
  assigns every cell the weight 2^-mj, so densities on the grid are the
  usual cell values.
* :class:`CellClasses` -- a grid's cells grouped into products of per-axis
  runs, on which projected box catalogs are constant: grid states cost
  O(per-axis cell types), and cells appear only to be written out.

Functions on a space are thin wrappers around a value vector:
:class:`FiniteDensity` (non-negative, integrates to one) and
:class:`SignedFunction` (no constraint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# a density's weighted sum is 1 up to rounding far below 1e-12; a flow
# sampled at a large t, whose phases lose beta's low bits, drifts beyond it
NORMALIZATION_TOL = 1e-12

# values in one block of a table filled, buffered or written piecewise (the
# simplex closed form, the RK4 float loop's buffer, CSV and JSON output):
# bounds what is held whatever the table's length
VALUES_PER_BLOCK = 1024


def block_rows(width: int) -> int:
    """Rows of a table ``width`` values wide per block: about
    ``VALUES_PER_BLOCK`` values, and at least one row."""
    return max(1, VALUES_PER_BLOCK // width)


def frozen_floats(a) -> np.ndarray:
    """A read-only float copy of ``a``, at least 1-D."""
    out = np.array(a, dtype=float, ndmin=1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace:
    """Atoms 0..N-1 carrying strictly positive weights.

    Two spaces are equal when they are of the same class and their
    ``_key()``s are equal; each class states its key.
    """

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", frozen_floats(self.weights))
        if self.weights.ndim != 1 or self.weights.size < 2:
            raise ValueError("a measure space needs at least two atoms")
        if not (self.weights > 0).all():
            raise ValueError("all atom weights must be strictly positive")

    @classmethod
    def counting(cls, n_points: int) -> "FiniteMeasureSpace":
        """Counting measure on ``n_points`` atoms (every weight 1)."""
        return cls(np.ones(int(n_points)))

    @property
    def n_points(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def _key(self):
        # weights are positive and finite, so equal bytes are equal values
        return self.weights.tobytes()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class DyadicGrid(FiniteMeasureSpace):
    """Level-``level`` dyadic grid on [0,1)^``dimension``.

    Cells are indexed by multi-indices k = (k_1, ..., k_m) with
    0 <= k_i < 2^level and linearized row-major with k_m fastest, which is
    numpy's C order.  Cell k is the half-open box
    prod_i [k_i 2^-level, (k_i+1) 2^-level).  ``weights`` is built on first use.
    """

    def __init__(self, dimension: int, level: int):
        if dimension < 1:
            raise ValueError("grid dimension must be >= 1")
        if level < 0:
            raise ValueError("grid level must be >= 0")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "level", int(level))
        n = self.cell_count
        if n < 2:
            # level-0 grids have a single cell; the measure-space contract
            # wants at least two atoms, so keep them out of the API
            raise ValueError("grid must have at least two cells (m*level >= 1)")

    @cached_property
    def weights(self) -> np.ndarray:
        return frozen_floats(np.full(self.cell_count, self.cell_weight))

    @property
    def n_points(self) -> int:
        return self.cell_count

    def _key(self):
        return (self.dimension, self.level)

    def __repr__(self) -> str:
        return f"DyadicGrid(dimension={self.dimension}, level={self.level})"

    @property
    def side_count(self) -> int:
        """Cells per axis, 2^level."""
        return 1 << self.level

    @property
    def cell_count(self) -> int:
        return self.side_count**self.dimension

    @property
    def cell_side(self) -> float:
        return 0.5**self.level

    @property
    def cell_weight(self) -> float:
        return 0.5 ** (self.level * self.dimension)

    def centers(self) -> np.ndarray:
        """(N, m) array of cell centers (k + 1/2) 2^-level."""
        mesh = np.meshgrid(*[self.axis_centers()] * self.dimension, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)

    def axis_centers(self) -> np.ndarray:
        """The 2^level cell centers (k + 1/2) 2^-level along one axis."""
        return (np.arange(self.side_count) + 0.5) * self.cell_side


def outer(factors: list[np.ndarray]) -> np.ndarray:
    """Flattened outer product of per-axis factors, in C order."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out.reshape(-1)


@dataclass(frozen=True, eq=False)
class CellClasses(FiniteMeasureSpace):
    """The cells of a dyadic grid grouped into products of per-axis runs.

    ``edges[d]`` bounds the runs of consecutive cells along axis d,
    0 = e_0 < e_1 < ... < e_n = 2^level.  Class (i_1, ..., i_m), in C order,
    is the product of run i_d on every axis and weighs its cell count times
    the cell weight (exact while m * level <= 53).
    """

    def __init__(self, grid: DyadicGrid, edges):
        edges = tuple(tuple(int(k) for k in e) for e in edges)
        if len(edges) != grid.dimension or any(
            e[0] != 0 or e[-1] != grid.side_count or any(a >= b for a, b in zip(e, e[1:]))
            for e in edges
        ):
            raise ValueError("run edges must rise strictly from 0 to 2^level on each axis")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "edges", edges)
        FiniteMeasureSpace.__init__(self, outer([np.diff(e) * grid.cell_side for e in edges]))

    def _key(self):
        return (self.grid, self.edges)

    def __repr__(self) -> str:
        return f"CellClasses(grid={self.grid!r}, edges={self.edges!r})"

    def axis_sums(self, axis: int, power: int) -> np.ndarray:
        """Per run along ``axis``, the sum over its cells of the center
        coordinate to ``power`` (0, 1 or 2), exact and then rounded."""
        # sum over k < n of (2k + 1)^power, the centers scaled by (2 side)^power
        below = (lambda n: n, lambda n: n * n, lambda n: n * (4 * n * n - 1) // 3)[power]
        e, scale = self.edges[axis], (2 * self.grid.side_count) ** power
        return np.array([(below(b) - below(a)) / scale for a, b in zip(e, e[1:])])

    def cell_classes(self) -> np.ndarray:
        """The class of every cell of the grid, in cell order."""
        out = np.zeros((), dtype=np.intp)
        for e in self.edges:
            runs = np.repeat(np.arange(len(e) - 1), np.diff(e))
            out = np.add.outer(out * (len(e) - 1), runs)
        return out.reshape(-1)


@dataclass(frozen=True)
class SignedFunction:
    """Real-valued function on a finite measure space."""

    space: FiniteMeasureSpace
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_floats(self.values))
        if self.values.shape != (self.space.n_points,):
            raise ValueError("value vector does not match the space")


@dataclass(frozen=True)
class FiniteDensity(SignedFunction):
    """Non-negative function integrating to one against the space weights."""

    def __post_init__(self):
        super().__post_init__()
        if not (self.values >= 0).all():
            raise ValueError("density values must be non-negative")
        total = float(np.dot(self.values, self.space.weights))
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(
                f"density integrates to {total!r}, not 1 (tol {NORMALIZATION_TOL})"
            )

    @property
    def min_value(self) -> float:
        return float(self.values.min())


def integrate(h: SignedFunction) -> float:
    """Integral of ``h`` against its space's measure, sum_i h_i mu_i."""
    return float(np.dot(h.values, h.space.weights))


def exact_dot(x: np.ndarray, w: np.ndarray) -> float:
    """sum_a x_a w_a, correctly rounded (Dekker's exact products, then one
    math.fsum), so independent of how atoms are ordered or grouped into
    classes; exact unless a product over- or underflows."""
    p = x * w
    (xh, xl), (wh, wl) = _split(x), _split(w)
    e = ((xh * wh - p) + xh * wl + xl * wh) + xl * wl
    return math.fsum(np.concatenate([p, e]).tolist())


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * a  # 2^27 + 1: Veltkamp's split into 26-bit halves
    high = c - (c - a)
    return high, a - high
