"""Piecewise-constant catalog functions on the unit cube, with exact arithmetic.

A catalog function is a finite union of constant values on axis-aligned
half-open boxes tiling [0,1)^m.  Box bounds and values are stored as
`fractions.Fraction`, so integrals, overlays and cell averages are computed
in exact rational arithmetic; floats entering a catalog are embedded exactly
(every float is a rational).  This is what makes alignment statements like
"the projection reproduces the function exactly at level j" hold to the last
bit instead of to quadrature error.

The on-disk descriptor format is one box per line::

    value  x_lo  x_hi  [y_lo  y_hi]

with tokens parsed by ``Fraction`` (so ``1/3``, ``0.125`` and ``-2`` all
work).  Blank lines and ``#`` comments are ignored.

``overlay`` lists its regions in (f box, g box) index order, as a loop over
every pair would, but tests only the pairs that one sweep along an axis
finds overlapping there (``_sweep``, shared with the tiling check): a sort
of the B_f + B_g boxes plus those pairs, near-linear for 1-D catalogs,
where the loop cost B_f * B_g pair tests.

On a dyadic grid, ``grid_classes`` groups cells that meet the same bounds
or gap between bounds on every axis (at most 2 B_d + 1 runs for B_d bounds
on axis d, at any level); ``project_classes`` averages once per class, bit
for bit each cell's average, and ``cell_averages`` scatters to cells.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InvalidCatalogFunction
from .spaces import CellClasses, DyadicGrid

FractionLike = Fraction | int | float | str
Bounds = list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box with a constant value."""

    value: Fraction
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    @classmethod
    def make(cls, value: FractionLike, *bounds: FractionLike) -> "Box":
        if len(bounds) % 2 != 0 or not bounds:
            raise InvalidCatalogFunction(
                "a box needs an even, positive number of bounds"
            )
        lo = tuple(_frac(b) for b in bounds[0::2])
        hi = tuple(_frac(b) for b in bounds[1::2])
        return cls(_frac(value), lo, hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> Fraction:
        v = _ONE
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def intersects(self, other: "Box") -> bool:
        return all(
            max(a1, a2) < min(b1, b2)
            for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection_bounds(
        self, other: "Box"
    ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
        lo = tuple(max(a1, a2) for a1, a2 in zip(self.lo, other.lo))
        hi = tuple(min(b1, b2) for b1, b2 in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return lo, hi

    def axis_moment(self, axis: int, power: int = 1) -> Fraction:
        """Exact integral of x_axis^power over the box."""
        a, b = self.lo[axis], self.hi[axis]
        m = (b ** (power + 1) - a ** (power + 1)) / Fraction(power + 1)
        for d, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if d != axis:
                m *= hi - lo
        return m


def _sweep(boxes: list[Box], dimension: int) -> Iterator[tuple[int, list[int]]]:
    """Each box's index, in lo[d] order, with the earlier boxes whose hi[d]
    exceeds its lo[d]: the only earlier boxes it can overlap (boxes that
    only touch do not).  d is the first axis with the most distinct lower
    bounds, so strips across any axis keep few boxes active.  The list of
    indices is valid until the next step."""
    d = max(range(dimension), key=lambda e: len({b.lo[e] for b in boxes}))
    active: list[int] = []
    for j in sorted(range(len(boxes)), key=lambda k: boxes[k].lo[d]):
        lo = boxes[j].lo[d]
        active = [i for i in active if boxes[i].hi[d] > lo]
        yield j, active
        active.append(j)


def _validate_tiling(boxes: list[Box], dimension: int) -> None:
    total = _ZERO
    for b in boxes:
        if b.dimension != dimension:
            raise InvalidCatalogFunction("boxes of mixed dimension")
        try:
            float(b.value)
        except OverflowError:
            raise InvalidCatalogFunction(
                "box value outside the float range (|value| > 1.8e308)"
            ) from None
        for a, c in zip(b.lo, b.hi):
            if not (_ZERO <= a < c <= _ONE):
                raise InvalidCatalogFunction(
                    f"box bounds [{a}, {c}) do not sit inside [0, 1)"
                )
        total += b.volume
    for j, earlier in _sweep(boxes, dimension):
        b = boxes[j]
        for i in earlier:
            if boxes[i].intersects(b):
                b1, b2 = (boxes[i], b) if i < j else (b, boxes[i])
                raise InvalidCatalogFunction(
                    f"overlapping boxes {b1.lo}-{b1.hi} and {b2.lo}-{b2.hi}"
                )
    if total != _ONE:
        raise InvalidCatalogFunction(
            f"boxes tile volume {total}, not the whole unit cube"
        )


@dataclass(frozen=True)
class BoxFunction:
    """Exact piecewise-constant function given by a disjoint box tiling."""

    dimension: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        _validate_tiling(list(self.boxes), self.dimension)

    @classmethod
    def from_rows(
        cls, dimension: int, rows: list[tuple[FractionLike, ...]]
    ) -> "BoxFunction":
        return cls(dimension, tuple(Box.make(r[0], *r[1:]) for r in rows))

    def integral(self) -> Fraction:
        return sum((b.value * b.volume for b in self.boxes), _ZERO)

    def square_integral(self) -> Fraction:
        return sum((b.value * b.value * b.volume for b in self.boxes), _ZERO)

    def moment(self, axis: int, power: int = 1) -> Fraction:
        """Exact integral of x_axis^power times the function."""
        return sum((b.value * b.axis_moment(axis, power) for b in self.boxes), _ZERO)

    def scaled(self, factor: FractionLike) -> "BoxFunction":
        f = _frac(factor)
        return BoxFunction(
            self.dimension,
            tuple(Box(b.value * f, b.lo, b.hi) for b in self.boxes),
        )

    def min_value(self) -> Fraction:
        return min(b.value for b in self.boxes)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Point values at an (N, m) float array (half-open box membership)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for b in self.boxes:
            inside = np.ones(pts.shape[0], dtype=bool)
            for d in range(self.dimension):
                inside &= (pts[:, d] >= float(b.lo[d])) & (pts[:, d] < float(b.hi[d]))
            out[inside] = float(b.value)
        return out

    @property
    def bounds(self) -> Bounds:
        """Each box's (lo, hi) bounds, in box order."""
        return [(b.lo, b.hi) for b in self.boxes]

    def class_averages(self, classes: CellClasses) -> np.ndarray:
        """Exact averages on classes cut at every box bound (see grid_classes)."""
        if classes.grid.dimension != self.dimension:
            raise InvalidCatalogFunction("grid dimension does not match the catalog")
        values = np.array([float(b.value) for b in self.boxes])
        return project_classes(classes, self.bounds, values)

    def cell_averages(self, grid: DyadicGrid) -> np.ndarray:
        """Exact per-cell averages on a dyadic grid, flattened in cell order."""
        if grid.dimension != self.dimension:
            raise InvalidCatalogFunction("grid dimension does not match the catalog")
        classes = grid_classes(grid, self.bounds)
        return self.class_averages(classes)[classes.cell_classes()]


def _axis_ends(lo: Fraction, hi: Fraction, level: int) -> tuple[int, int, float, float]:
    """The first and last level-j cell [lo, hi) meets, and its exact overlap
    with each, as integer ratios rounded once (int division is correctly
    rounded, like ``float(Fraction)``)."""
    side = 1 << level
    (p, q), (r, s) = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    first, last = p * side // q, -(-r * side // s) - 1
    # min(hi, (first + 1) / side) - lo and hi - max(lo, last / side)
    lo_n, hi_n, den = p * s * side, r * q * side, s * q * side
    head = (min(hi_n, (first + 1) * s * q) - lo_n) / den
    return first, last, head, (hi_n - max(lo_n, last * s * q)) / den


def grid_classes(grid: DyadicGrid, *bounds: Bounds) -> CellClasses:
    """Classes of ``grid`` whose cells each region of ``bounds`` meets alike.

    Each axis is cut at the floor and ceiling of every bound times 2^level,
    so a cell a bound falls inside is a run of its own, and the cells
    between lie in one gap between bounds.  The first axis is also cut at
    its middle, so there are two classes at least, as a measure space needs.
    """
    side = grid.side_count
    edges = []
    for d in range(grid.dimension):
        cuts = {0, side // 2, side} if d == 0 else {0, side}
        for x in (b[d] for regions in bounds for region in regions for b in region):
            k, rest = divmod(x.numerator * side, x.denominator)
            cuts.update((k, k + (rest > 0)))
        edges.append(sorted(cuts))
    return CellClasses(grid, edges)


def project_classes(classes: CellClasses, bounds: Bounds, values: np.ndarray) -> np.ndarray:
    """Averages of sum_r values[r] * indicator(region r) on each class.

    ``classes`` must be cut at every region bound (``grid_classes``).  Each
    region adds the outer product of its exact per-axis overlaps (once per
    distinct interval and axis; every cell of a run has its first cell's,
    and only end cells are partial) into the classes it covers, in region
    order: bit for bit the cell-by-cell sum, exact for aligned regions, and
    no per-cell array at any level.
    """
    grid = classes.grid
    acc = np.zeros(tuple(len(e) - 1 for e in classes.edges))
    caches: list[dict] = [{} for _ in classes.edges]  # interval -> runs, overlaps
    for (lo, hi), val in zip(bounds, np.asarray(values).tolist()):
        if val == 0.0:
            continue
        runs, block = [], None
        for a, b, cuts, cache in zip(lo, hi, classes.edges, caches):
            key = (a.numerator, a.denominator, b.numerator, b.denominator)
            if key not in cache:
                first, last, head, tail = _axis_ends(a, b, grid.level)
                i, k = (bisect.bisect_left(cuts, c) for c in (first, last + 1))
                if cuts[i] != first or cuts[k] != last + 1:
                    raise ValueError("classes are not cut at a region bound")
                whole = 1.0 / grid.side_count
                cache[key] = slice(i, k), np.array(
                    [tail if c == last else head if c == first else whole for c in cuts[i:k]]
                )
            runs.append(cache[key][0])
            o = cache[key][1]
            block = o if block is None else np.multiply.outer(block, o)
        acc[tuple(runs)] += val * block
    # divide by the cell volume (a power of two, exact)
    return acc.reshape(-1) * float(grid.side_count**grid.dimension)


def project_regions(grid: DyadicGrid, bounds: Bounds, values: np.ndarray) -> np.ndarray:
    """Cell averages of sum_r values[r] * indicator(region r) on ``grid``:
    ``project_classes`` on the classes of ``bounds``, scattered to cells."""
    classes = grid_classes(grid, bounds)
    return project_classes(classes, bounds, values)[classes.cell_classes()]


@dataclass(frozen=True)
class OverlayRegion:
    """Common refinement cell of two catalogs: constant pair (f, g)."""

    f_value: Fraction
    g_value: Fraction
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    @property
    def volume(self) -> Fraction:
        v = _ONE
        for a, b in zip(self.lo, self.hi):
            v *= b - a
        return v

    def axis_moment(self, axis: int, power: int = 1) -> Fraction:
        return Box(_ONE, self.lo, self.hi).axis_moment(axis, power)


def overlay(f: BoxFunction, g: BoxFunction) -> tuple[OverlayRegion, ...]:
    """Common box refinement of two catalogs on the same cube: the non-empty
    intersections of an f box and a g box, in (f box, g box) index order,
    from one sweep over both catalogs' boxes (see the module docstring)."""
    if f.dimension != g.dimension:
        raise InvalidCatalogFunction("catalogs of different dimension")
    n = len(f.boxes)
    pairs = []
    for j, earlier in _sweep([*f.boxes, *g.boxes], f.dimension):
        for i in earlier:
            if (i < n) != (j < n):
                pairs.append((i, j - n) if i < n else (j, i - n))
    regions = []
    for a, b in sorted(pairs):
        bf, bg = f.boxes[a], g.boxes[b]
        inter = bf.intersection_bounds(bg)
        if inter is not None:
            regions.append(OverlayRegion(bf.value, bg.value, *inter))
    total = sum((r.volume for r in regions), _ZERO)
    if total != _ONE:
        raise InvalidCatalogFunction("overlay does not tile the unit cube")
    return tuple(regions)


def overlay_energy(f: BoxFunction, g: BoxFunction) -> Fraction:
    """Exact integral of g^2 / f (f must be nonzero on every region)."""
    return regions_energy(overlay(f, g))


def regions_energy(regions) -> Fraction:
    """Exact integral of g^2 / f over overlay regions (f nonzero on each)."""
    total = _ZERO
    for r in regions:
        if r.f_value == 0:
            raise InvalidCatalogFunction("division by a zero-valued f region")
        total += r.g_value * r.g_value / r.f_value * r.volume
    return total


def load_catalog(path: str | Path) -> BoxFunction:
    """Read a box catalog descriptor file (see module docstring)."""
    rows = []
    dimension = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (3, 5):
            raise InvalidCatalogFunction(
                f"{path}:{lineno}: expected 'value x_lo x_hi [y_lo y_hi]'"
            )
        try:
            parsed = [Fraction(t) for t in tokens]
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidCatalogFunction(f"{path}:{lineno}: {exc}") from exc
        row_dim = (len(tokens) - 1) // 2
        if dimension is None:
            dimension = row_dim
        elif dimension != row_dim:
            raise InvalidCatalogFunction(f"{path}:{lineno}: mixed dimensions")
        rows.append(tuple(parsed))
    if not rows:
        raise InvalidCatalogFunction(f"{path}: empty catalog")
    return BoxFunction.from_rows(dimension, rows)
