"""Finite measure spaces and dyadic pixel grids.

Two concrete carriers are used everywhere else in the package:

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Atoms 0..N-1 carrying strictly positive weights."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(np.atleast_1d(self.weights)))
        if self.weights.ndim != 1 or self.weights.size < 2:
            raise ValueError("a measure space needs at least two atoms")
        if not np.all(self.weights > 0):
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMeasureSpace)
            and not isinstance(other, (DyadicGrid, CellClasses))
            and self.weights.shape == other.weights.shape
            and bool(np.array_equal(self.weights, other.weights))
        )

    def __hash__(self):
        return hash(("fms", self.weights.tobytes()))


@dataclass(frozen=True)
class DyadicGrid(FiniteMeasureSpace):
    """Level-``level`` dyadic grid on [0,1)^``dimension``.

    Cells are indexed by multi-indices k = (k_1, ..., k_m) with
    0 <= k_i < 2^level and linearized row-major with k_m fastest, which is
    numpy's C order.  Cell k is the half-open box
    prod_i [k_i 2^-level, (k_i+1) 2^-level).  ``weights`` is built on first use.
    """

    dimension: int = 1
    level: int = 0

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
        return _freeze(np.full(self.cell_count, self.cell_weight))

    @property
    def n_points(self) -> int:
        return self.cell_count

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

    def refine(self) -> "DyadicGrid":
        return DyadicGrid(self.dimension, self.level + 1)

    def multi_index(self, flat: int) -> tuple[int, ...]:
        """Multi-index (k_1, ..., k_m) of a linear cell index."""
        if not 0 <= flat < self.cell_count:
            raise IndexError(f"cell index {flat} out of range")
        side = self.side_count
        out = []
        for _ in range(self.dimension):
            out.append(flat % side)
            flat //= side
        return tuple(reversed(out))

    def flat_index(self, multi: tuple[int, ...]) -> int:
        """Linear index of a multi-index (k_m varies fastest)."""
        if len(multi) != self.dimension:
            raise ValueError("multi-index has wrong length")
        flat = 0
        for k in multi:
            if not 0 <= k < self.side_count:
                raise IndexError(f"axis index {k} out of range")
            flat = flat * self.side_count + int(k)
        return flat

    def children(self, flat: int) -> np.ndarray:
        """Linear indices, at level+1, of the 2^m cells refining cell ``flat``."""
        child = self.refine()
        base = self.multi_index(flat)
        idx = []
        for offset in range(1 << self.dimension):
            bits = [(offset >> (self.dimension - 1 - d)) & 1 for d in range(self.dimension)]
            idx.append(child.flat_index(tuple(2 * k + b for k, b in zip(base, bits))))
        return np.array(sorted(idx))

    def _axis_coords(self) -> np.ndarray:
        return np.arange(self.side_count, dtype=float)

    def corners(self) -> np.ndarray:
        """(N, m) array of lower-left cell corners k 2^-level."""
        return self._lattice(self._axis_coords() * self.cell_side)

    def centers(self) -> np.ndarray:
        """(N, m) array of cell centers (k + 1/2) 2^-level."""
        return self._lattice(self.axis_centers())

    def axis_centers(self) -> np.ndarray:
        """The 2^level cell centers (k + 1/2) 2^-level along one axis."""
        return (self._axis_coords() + 0.5) * self.cell_side

    def _lattice(self, axis: np.ndarray) -> np.ndarray:
        mesh = np.meshgrid(*[axis] * self.dimension, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicGrid)
            and self.dimension == other.dimension
            and self.level == other.level
        )

    def __hash__(self):
        return hash(("grid", self.dimension, self.level))


def outer(factors: list[np.ndarray]) -> np.ndarray:
    """Flattened outer product of per-axis factors, in C order."""
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out.reshape(-1)


@dataclass(frozen=True)
class CellClasses(FiniteMeasureSpace):
    """The cells of a dyadic grid grouped into products of per-axis runs.

    ``edges[d]`` bounds the runs of consecutive cells along axis d,
    0 = e_0 < e_1 < ... < e_n = 2^level.  Class (i_1, ..., i_m), in C order,
    is the product of run i_d on every axis and weighs its cell count times
    the cell weight (exact while m * level <= 53).
    """

    weights: np.ndarray = field(default=None, repr=False, compare=False)  # derived
    grid: DyadicGrid = None
    edges: tuple[tuple[int, ...], ...] = ()

    def __init__(self, grid: DyadicGrid, edges):
        edges = tuple(tuple(int(k) for k in e) for e in edges)
        if len(edges) != grid.dimension or any(
            e[0] != 0 or e[-1] != grid.side_count or list(e) != sorted(set(e)) for e in edges
        ):
            raise ValueError("run edges must rise strictly from 0 to 2^level on each axis")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "edges", edges)
        FiniteMeasureSpace.__init__(self, outer([np.diff(e) * grid.cell_side for e in edges]))

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
        object.__setattr__(self, "values", _freeze(np.atleast_1d(self.values)))
        if self.values.shape != (self.space.n_points,):
            raise ValueError("value vector does not match the space")


@dataclass(frozen=True)
class FiniteDensity(SignedFunction):
    """Non-negative function integrating to one against the space weights."""

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values < 0):
            raise ValueError("density values must be non-negative")
        total = float(np.dot(self.values, self.space.weights))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"density integrates to {total!r}, not 1 (tol {NORMALIZATION_TOL})"
            )

    @property
    def min_value(self) -> float:
        return float(np.min(self.values))


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
