"""Finite measure spaces and dyadic pixel grids.

Two concrete carriers are used everywhere else in the package:

* :class:`FiniteMeasureSpace` -- N abstract atoms 0..N-1 with strictly
  positive weights.  The probability simplex lives here via the counting
  measure on n+1 atoms.
* :class:`DyadicGrid` -- the level-j dyadic pixelation of the unit cube
  [0,1)^m.  Cells are half-open boxes of side 2^-j; the carried measure
  assigns every cell the weight 2^-mj, so densities on the grid are the
  usual cell values.

Functions on a space are thin wrappers around a value vector:
:class:`FiniteDensity` (non-negative, integrates to one) and
:class:`SignedFunction` (no constraint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
            and not isinstance(other, DyadicGrid)
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
    prod_i [k_i 2^-level, (k_i+1) 2^-level).
    """

    dimension: int = 1
    level: int = 0
    weights: np.ndarray = field(default=None, repr=False)  # derived

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
        object.__setattr__(
            self, "weights", _freeze(np.full(n, self.cell_weight))
        )

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
