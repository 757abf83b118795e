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

The tiling check and the overlay's closing check sum box volumes in
integers, each axis's lengths over the lcm of its bound denominators
(``_volume_ratio``), so the sums build no Fraction.

On a dyadic grid, ``grid_classes`` groups cells that meet the same bounds
or gap between bounds on every axis (at most 2 B_d + 1 runs for B_d bounds
on axis d, at any level); ``project_classes`` averages once per class, bit
for bit each cell's average, and ``cell_averages`` scatters to cells.  A
level's projection does no rational arithmetic: a catalog's bounds become
integer (numerator, denominator) pairs and its values floats once, on first
use (``BoxFunction.projection``), class edges are integer cell indices,
and class sums are plain floats (see ``project_classes``).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidCatalogFunction
from .spaces import CellClasses, DyadicGrid

FractionLike = Fraction | int | float | str
Bounds = list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]
# a rational as its (numerator, denominator) pair, denominator positive
Ratio = tuple[int, int]
RatioBounds = list[tuple[tuple[Ratio, ...], tuple[Ratio, ...]]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x: FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ratio_bounds(bounds: Bounds) -> RatioBounds:
    """``bounds`` with every bound as its (numerator, denominator) pair."""
    return [
        (tuple(a.as_integer_ratio() for a in lo), tuple(b.as_integer_ratio() for b in hi))
        for lo, hi in bounds
    ]


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


def _volume_ratio(boxes, dimension: int) -> tuple[int, int]:
    """The summed volume of ``boxes`` (anything with Fraction ``lo`` and
    ``hi``) as integers (n, d), n / d exact: each axis's lengths are
    integers over the lcm of that axis's bound denominators."""
    dens = [
        math.lcm(*(x.denominator for b in boxes for x in (b.lo[d], b.hi[d])))
        for d in range(dimension)
    ]
    total = 0
    for b in boxes:
        v = 1
        for a, c, den in zip(b.lo, b.hi, dens):
            v *= c.numerator * (den // c.denominator) - a.numerator * (den // a.denominator)
        total += v
    return total, math.prod(dens)


def _validate_tiling(boxes: list[Box], dimension: int) -> None:
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
    for j, earlier in _sweep(boxes, dimension):
        b = boxes[j]
        for i in earlier:
            if boxes[i].intersects(b):
                b1, b2 = (boxes[i], b) if i < j else (b, boxes[i])
                raise InvalidCatalogFunction(
                    f"overlapping boxes {b1.lo}-{b1.hi} and {b2.lo}-{b2.hi}"
                )
    total, cube = _volume_ratio(boxes, dimension)
    if total != cube:
        raise InvalidCatalogFunction(
            f"boxes tile volume {Fraction(total, cube)}, not the whole unit cube"
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

    @cached_property
    def projection(self) -> tuple[RatioBounds, list[float]]:
        """The box bounds as integer ratios and the box values as floats, in
        box order: what ``grid_classes`` and ``project_classes`` read, built
        once per catalog."""
        return ratio_bounds(self.bounds), [float(b.value) for b in self.boxes]

    def class_averages(self, classes: CellClasses) -> np.ndarray:
        """Exact averages on classes cut at every box bound (see grid_classes)."""
        if classes.grid.dimension != self.dimension:
            raise InvalidCatalogFunction("grid dimension does not match the catalog")
        return project_classes(classes, self.projection)[0]

    def cell_averages(self, grid: DyadicGrid) -> np.ndarray:
        """Exact per-cell averages on a dyadic grid, flattened in cell order."""
        if grid.dimension != self.dimension:
            raise InvalidCatalogFunction("grid dimension does not match the catalog")
        classes = grid_classes(grid, self.projection[0])
        return self.class_averages(classes)[classes.cell_classes()]


def _axis_ends(lo: Ratio, hi: Ratio, level: int) -> tuple[int, int, float, float]:
    """The first and last level-j cell [lo, hi) meets, and its exact overlap
    with each, as integer ratios rounded once (int division is correctly
    rounded, like ``float(Fraction)``)."""
    side = 1 << level
    (p, q), (r, s) = lo, hi
    first, last = p * side // q, -(-r * side // s) - 1
    # min(hi, (first + 1) / side) - lo and hi - max(lo, last / side)
    lo_n, hi_n, den = p * s * side, r * q * side, s * q * side
    head = (min(hi_n, (first + 1) * s * q) - lo_n) / den
    return first, last, head, (hi_n - max(lo_n, last * s * q)) / den


def grid_classes(grid: DyadicGrid, *bounds: RatioBounds) -> CellClasses:
    """Classes of ``grid`` whose cells each region of ``bounds`` meets alike.

    Each axis is cut at the floor and ceiling of every distinct bound times
    2^level, so a cell a bound falls inside is a run of its own, and the
    cells between lie in one gap between bounds.  The first axis is also
    cut at its middle, so there are two classes at least, as a measure
    space needs.
    """
    side = grid.side_count
    edges = []
    for d in range(grid.dimension):
        cuts = {0, side // 2, side} if d == 0 else {0, side}
        for p, q in {x[d] for regions in bounds for region in regions for x in region}:
            k, rest = divmod(p * side, q)
            cuts.update((k, k + (rest > 0)))
        edges.append(sorted(cuts))
    return CellClasses(grid, edges)


def project_classes(
    classes: CellClasses, *catalogs: tuple[RatioBounds, list[float]]
) -> list[np.ndarray]:
    """Per (bounds, values) catalog, the averages of sum_r values[r] *
    indicator(region r) on each class.

    ``classes`` must be cut at every region bound (``grid_classes``).  Each
    region adds val * (o_1 * ... * o_m) to the sum of every class it
    covers, o_d its exact overlap with that class's first cell along axis d
    (every cell of a run has its first cell's, and only end cells are
    partial), in region order, and the sums are then times 2^(m j).  These
    are the IEEE operations of a cell-by-cell sum, in its order, so each
    class value is bit for bit its cells' average, and exact for aligned
    regions.  The sums are plain Python floats, one per class and no array
    per region: one multiply-add per (region, covered class) pair, which
    sums to O(classes) over a tiling.  Bounds are integer ratios and the
    overlaps integer ratios rounded once, computed once per distinct
    interval and axis for all the catalogs.
    """
    grid = classes.grid
    whole = 1.0 / grid.side_count
    scale = float(grid.side_count**grid.dimension)  # 1 / the cell volume, exact
    runs = [len(e) - 1 for e in classes.edges]
    caches: list[dict] = [{} for _ in classes.edges]  # interval -> (run, overlap) pairs
    out = []
    for bounds, values in catalogs:
        acc = [0.0] * math.prod(runs)
        for (lo, hi), val in zip(bounds, np.asarray(values).tolist()):
            if val == 0.0:
                continue
            covered = None  # (flat class index, product of overlaps) pairs
            for a, b, cuts, n, cache in zip(lo, hi, classes.edges, runs, caches):
                axis = cache.get((a, b))
                if axis is None:
                    first, last, head, tail = _axis_ends(a, b, grid.level)
                    i, k = (bisect.bisect_left(cuts, c) for c in (first, last + 1))
                    if cuts[i] != first or cuts[k] != last + 1:
                        raise ValueError("classes are not cut at a region bound")
                    axis = cache[a, b] = [
                        (r, tail if c == last else head if c == first else whole)
                        for r, c in zip(range(i, k), cuts[i:k])
                    ]
                covered = axis if covered is None else [
                    (c * n + r, p * o) for c, p in covered for r, o in axis
                ]
            for c, p in covered:
                acc[c] += val * p
        out.append(np.array(acc) * scale)
    return out


def project_regions(grid: DyadicGrid, bounds: Bounds, values: np.ndarray) -> np.ndarray:
    """Cell averages of sum_r values[r] * indicator(region r) on ``grid``:
    ``project_classes`` on the classes of ``bounds``, scattered to cells."""
    ratios = ratio_bounds(bounds)
    classes = grid_classes(grid, ratios)
    return project_classes(classes, (ratios, values))[0][classes.cell_classes()]


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
    total, cube = _volume_ratio(regions, f.dimension)
    if total != cube:
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
