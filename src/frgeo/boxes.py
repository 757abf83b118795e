"""Piecewise-constant catalog functions on the unit cube, with exact arithmetic.

A catalog function is a finite union of constant values on axis-aligned
half-open boxes tiling [0,1)^m.  Bounds and values enter as
`fractions.Fraction` (a float enters exactly, as every float is a
rational).  A ``BoxFunction`` turns its bounds once into integers over each
axis's lcm of bound denominators (``integer_bounds``), and every exact step
runs on those: the tiling checks, the sweep, the integral, the overlay and
its energy, and each level's projection.  The integral and the energy also
take the values as integer numerators over one common denominator, and
build a single Fraction at the end (``_ratio_sum``).  Fractions remain at
the edges: parsed boxes and their values, those two results, overlay
regions' ``lo``, ``hi`` and ``volume``, and error messages.  This is what
makes alignment statements like "the projection reproduces the function
exactly at level j" hold to the last bit instead of to quadrature error.

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
for bit each cell's average, and ``cell_averages`` scatters to cells.  A
level's projection does no rational arithmetic: class edges are integer
cell indices, overlaps integer ratios rounded once, and class sums plain
floats (see ``project_classes``).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import InvalidCatalogFunction
from .spaces import CellClasses, DyadicGrid

FractionLike = Fraction | int | float | str
Bounds = list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]
# a box's (lo, hi) bounds as integers over its axes' common denominators
Span = tuple[tuple[int, ...], tuple[int, ...]]
# per axis the common denominator, and each box's span over them
IntBounds = tuple[tuple[int, ...], list[Span]]


def _frac(x: FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def integer_bounds(bounds: Bounds, dimension: int) -> IntBounds:
    """``bounds`` as integers: per axis d the lcm D_d of the bound
    denominators, and every bound x on axis d as x * D_d."""
    dens = tuple(
        math.lcm(*(x.denominator for lo, hi in bounds for x in (lo[d], hi[d])))
        for d in range(dimension)
    )
    return dens, [
        tuple(tuple(x.numerator * (D // x.denominator) for x, D in zip(ends, dens)) for ends in box)
        for box in bounds
    ]


def _span_volume(span: Span) -> int:
    """The volume of ``span``, times the product of its denominators."""
    return math.prod(b - a for a, b in zip(*span))


def _overlap(p: Span, q: Span) -> Span | None:
    """The intersection of two spans over the same denominators, or None if
    they do not overlap (spans that only touch do not)."""
    lo, hi = tuple(map(max, p[0], q[0])), tuple(map(min, p[1], q[1]))
    if any(a >= b for a, b in zip(lo, hi)):
        return None
    return lo, hi


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


def _sweep(spans: list[Span], dimension: int) -> Iterator[tuple[int, list[int]]]:
    """Each span's index, in lo[d] order, with the earlier spans whose hi[d]
    exceeds its lo[d]: the only earlier spans it can overlap (spans that
    only touch do not).  d is the first axis with the most distinct lower
    bounds, so strips across any axis keep few spans active.  The list of
    indices is valid until the next step."""
    d = max(range(dimension), key=lambda e: len({lo[e] for lo, _ in spans}))
    active: list[int] = []
    for j in sorted(range(len(spans)), key=lambda k: spans[k][0][d]):
        lo = spans[j][0][d]
        active = [i for i in active if spans[i][1][d] > lo]
        yield j, active
        active.append(j)


@dataclass(frozen=True)
class BoxFunction:
    """Exact piecewise-constant function given by a disjoint box tiling;
    ``int_bounds`` (see ``integer_bounds``) and ``floats``, the box values
    as floats, are built once, with the tiling checks."""

    dimension: int
    boxes: tuple[Box, ...]
    int_bounds: IntBounds = field(init=False, repr=False, compare=False)
    floats: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(b.dimension != self.dimension for b in self.boxes):
            raise InvalidCatalogFunction("boxes of mixed dimension")
        dens, spans = integer_bounds(self.bounds, self.dimension)
        floats = []
        for b, (lo, hi) in zip(self.boxes, spans):
            try:
                floats.append(float(b.value))
            except OverflowError:
                raise InvalidCatalogFunction(
                    "box value outside the float range (|value| > 1.8e308)"
                ) from None
            for a, c, m, n, den in zip(b.lo, b.hi, lo, hi, dens):
                if not 0 <= m < n <= den:
                    raise InvalidCatalogFunction(
                        f"box bounds [{a}, {c}) do not sit inside [0, 1)"
                    )
        for j, earlier in _sweep(spans, self.dimension):
            for i in earlier:
                if _overlap(spans[i], spans[j]) is not None:
                    b1, b2 = (self.boxes[k] for k in sorted((i, j)))
                    raise InvalidCatalogFunction(
                        f"overlapping boxes {b1.lo}-{b1.hi} and {b2.lo}-{b2.hi}"
                    )
        total, cube = sum(map(_span_volume, spans)), math.prod(dens)
        if total != cube:
            raise InvalidCatalogFunction(
                f"boxes tile volume {Fraction(total, cube)}, not the whole unit cube"
            )
        object.__setattr__(self, "int_bounds", (dens, spans))
        object.__setattr__(self, "floats", floats)

    @classmethod
    def from_rows(
        cls, dimension: int, rows: list[tuple[FractionLike, ...]]
    ) -> "BoxFunction":
        return cls(dimension, tuple(Box.make(r[0], *r[1:]) for r in rows))

    def integral(self) -> Fraction:
        dens, spans = self.int_bounds
        terms = [
            (b.value.numerator, b.value.denominator, _span_volume(s))
            for b, s in zip(self.boxes, spans)
        ]
        return _ratio_sum(terms, math.prod(dens))

    def scaled(self, factor: FractionLike) -> "BoxFunction":
        f = _frac(factor)
        return BoxFunction(
            self.dimension,
            tuple(Box(b.value * f, b.lo, b.hi) for b in self.boxes),
        )

    def min_value(self) -> Fraction:
        return min(b.value for b in self.boxes)

    @property
    def bounds(self) -> Bounds:
        """Each box's (lo, hi) bounds, in box order."""
        return [(b.lo, b.hi) for b in self.boxes]

    def cell_averages(self, grid: DyadicGrid) -> np.ndarray:
        """Exact per-cell averages on a dyadic grid, flattened in cell order."""
        if grid.dimension != self.dimension:
            raise InvalidCatalogFunction("grid dimension does not match the catalog")
        classes = grid_classes(grid, self.int_bounds)
        averages = project_classes(classes, (self.int_bounds, self.floats))[0]
        return averages[classes.cell_classes()]


def _axis_ends(a: int, b: int, den: int, level: int) -> tuple[int, int, float, float]:
    """The first and last level-j cell [a / den, b / den) meets, and its
    exact overlap with each, as integer ratios rounded once (int division
    is correctly rounded, like ``float(Fraction)``)."""
    side = 1 << level
    # in units of 1 / (den * side), where cell k starts at k * den
    lo, hi, unit = a * side, b * side, den * side
    first, last = lo // den, -(-hi // den) - 1
    head = (min(hi, (first + 1) * den) - lo) / unit
    return first, last, head, (hi - max(lo, last * den)) / unit


def grid_classes(grid: DyadicGrid, *bounds: IntBounds) -> CellClasses:
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
        for n, den in {(x[d], dens[d]) for dens, spans in bounds for span in spans for x in span}:
            k, rest = divmod(n * side, den)
            cuts.update((k, k + (rest > 0)))
        edges.append(sorted(cuts))
    return CellClasses(grid, edges)


def project_classes(
    classes: CellClasses, *catalogs: tuple[IntBounds, list[float]]
) -> list[np.ndarray]:
    """Per (bounds, values) catalog, the averages of sum_r values[r] *
    indicator(region r) on each class; ``values`` are Python floats, as
    ``BoxFunction.floats`` holds them.

    ``classes`` must be cut at every region bound (``grid_classes``).  Each
    region adds val * (o_1 * ... * o_m) to the sum of every class it
    covers, o_d its exact overlap with that class's first cell along axis d
    (every cell of a run has its first cell's, and only end cells are
    partial), in region order, and the sums are then times 2^(m j).  These
    are the IEEE operations of a cell-by-cell sum, in its order, so each
    class value is bit for bit its cells' average, and exact for aligned
    regions.  The sums are plain Python floats, one per class and no array
    per region: one multiply-add per (region, covered class) pair, which
    sums to O(classes) over a tiling.  The overlaps are integer ratios
    rounded once, computed once per distinct interval and axis for all
    the catalogs.
    """
    grid = classes.grid
    whole = 1.0 / grid.side_count
    scale = float(grid.side_count**grid.dimension)  # 1 / the cell volume, exact
    runs = [len(e) - 1 for e in classes.edges]
    caches: list[dict] = [{} for _ in classes.edges]  # (a, b, den) -> (run, overlap) pairs
    out = []
    for (dens, spans), values in catalogs:
        acc = [0.0] * math.prod(runs)
        for (lo, hi), val in zip(spans, values):
            if val == 0.0:
                continue
            covered = None  # (flat class index, product of overlaps) pairs
            for a, b, den, cuts, n, cache in zip(lo, hi, dens, classes.edges, runs, caches):
                axis = cache.get((a, b, den))
                if axis is None:
                    first, last, head, tail = _axis_ends(a, b, den, grid.level)
                    i, k = (bisect.bisect_left(cuts, c) for c in (first, last + 1))
                    if cuts[i] != first or cuts[k] != last + 1:
                        raise ValueError("classes are not cut at a region bound")
                    axis = cache[a, b, den] = [
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
    int_bounds = integer_bounds(bounds, grid.dimension)
    classes = grid_classes(grid, int_bounds)
    averages = project_classes(classes, (int_bounds, np.asarray(values).tolist()))[0]
    return averages[classes.cell_classes()]


@dataclass(frozen=True)
class OverlayRegion:
    """Common refinement cell of two catalogs: constant pair (f, g) on
    ``span``, integers over the overlay's common denominators ``dens``."""

    f_value: Fraction
    g_value: Fraction
    dens: tuple[int, ...]
    span: Span

    @property
    def lo(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.span[0], self.dens))

    @property
    def hi(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.span[1], self.dens))

    @property
    def volume(self) -> Fraction:
        return Fraction(_span_volume(self.span), math.prod(self.dens))


def overlay(f: BoxFunction, g: BoxFunction) -> tuple[OverlayRegion, ...]:
    """Common box refinement of two catalogs on the same cube: the non-empty
    intersections of an f box and a g box, in (f box, g box) index order,
    from one sweep over both catalogs' boxes (see the module docstring), in
    integers over the lcm of the two catalogs' denominators."""
    if f.dimension != g.dimension:
        raise InvalidCatalogFunction("catalogs of different dimension")
    dens = tuple(map(math.lcm, f.int_bounds[0], g.int_bounds[0]))
    spans = [  # f's spans, then g's, over the joint denominators
        tuple(tuple(x * (den // d) for x, den, d in zip(ends, dens, own)) for ends in span)
        for own, catalog_spans in (f.int_bounds, g.int_bounds) for span in catalog_spans
    ]
    n = len(f.boxes)
    pairs = []
    for j, earlier in _sweep(spans, f.dimension):
        for i in earlier:
            if (i < n) != (j < n):
                pairs.append((i, j) if i < n else (j, i))
    regions = []
    for a, b in sorted(pairs):
        span = _overlap(spans[a], spans[b])
        if span is not None:
            regions.append(OverlayRegion(f.boxes[a].value, g.boxes[b - n].value, dens, span))
    if sum(_span_volume(r.span) for r in regions) != math.prod(dens):
        raise InvalidCatalogFunction("overlay does not tile the unit cube")
    return tuple(regions)


def regions_energy(regions: tuple[OverlayRegion, ...]) -> Fraction:
    """Exact integral of g^2 / f over the regions of an overlay (f nonzero
    on each): each g^2 / f as the integer ratio (g_n^2 f_d) / (g_d^2 f_n)
    of the values' numerators and denominators, the sign moved up, summed
    by ``_ratio_sum``."""
    if any(r.f_value == 0 for r in regions):
        raise InvalidCatalogFunction("division by a zero-valued f region")
    terms = []
    for r in regions:
        (gn, gd), (fn, fd) = r.g_value.as_integer_ratio(), r.f_value.as_integer_ratio()
        sign = 1 if fn > 0 else -1
        terms.append((sign * gn * gn * fd, gd * gd * abs(fn), _span_volume(r.span)))
    return _ratio_sum(terms, math.prod(regions[0].dens))


def _ratio_sum(terms: list[tuple[int, int, int]], den: int) -> Fraction:
    """sum n / d * w over integer terms (n, d, w), d > 0, divided by ``den``,
    exactly: the numerators over the lcm of the d's, and one Fraction."""
    common = math.lcm(*(d for _, d, _ in terms))
    return Fraction(sum(n * (common // d) * w for n, d, w in terms), common * den)


def load_catalog(path: str | Path) -> BoxFunction:
    """Read a box catalog descriptor file (see module docstring)."""
    rows = []
    dimension = None
    text = Path(path).read_text(encoding="utf-8-sig")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
