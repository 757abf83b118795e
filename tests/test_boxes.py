"""Exact piecewise-constant catalogs: tiling checks, integrals, projections."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from frgeo import (
    Box,
    BoxFunction,
    DyadicGrid,
    InvalidCatalogFunction,
    load_catalog,
    overlay,
)
from frgeo import boxes
from frgeo.boxes import _axis_ends, grid_classes, integer_bounds, project_classes, regions_energy
from frgeo.catalogs import (
    g01_1d,
    g02_1d,
    misaligned_f0_1d,
    misaligned_f0_2d,
    misaligned_g0_1d,
    misaligned_g0_2d,
    uniform1d,
)
from frgeo.pixelation import _phi_coarse, project_pair
from frgeo.pixelation import test_functions_1d as tents_1d
from frgeo.pixelation import test_functions_2d as tents_2d
from oracles import axis_moment, evaluate, moment, square_integral

F = Fraction


def test_box_make_and_volume():
    b = Box.make(3, 0, F(1, 2))
    assert b.dimension == 1
    assert b.volume == F(1, 2)
    b2 = Box.make(1, 0, F(1, 4), F(1, 8), F(1, 2))
    assert b2.volume == F(1, 4) * F(3, 8)
    with pytest.raises(InvalidCatalogFunction):
        Box.make(1, 0, F(1, 2), F(1, 4))  # odd number of bounds


def test_axis_moment_exact():
    b = Box.make(1, 0, F(1, 2))
    assert axis_moment(b, 0, 1) == F(1, 8)
    assert axis_moment(b, 0, 2) == F(1, 24)
    b2 = Box.make(1, 0, F(1, 2), 0, 1)
    assert axis_moment(b2, 0, 1) == F(1, 8)  # full-height strip
    assert axis_moment(b2, 1, 1) == F(1, 4)


def test_tiling_validation():
    with pytest.raises(InvalidCatalogFunction):
        # gap: covers only half the interval
        BoxFunction.from_rows(1, [(1, 0, F(1, 2))])
    with pytest.raises(InvalidCatalogFunction):
        # overlap
        BoxFunction.from_rows(1, [(1, 0, F(2, 3)), (1, F(1, 3), 1)])
    outside = re.escape("box bounds [0, 3/2) do not sit inside [0, 1)")
    with pytest.raises(InvalidCatalogFunction, match=outside):
        # outside the unit cube
        BoxFunction.from_rows(1, [(1, 0, F(3, 2))])
    with pytest.raises(InvalidCatalogFunction):
        BoxFunction.from_rows(1, [(1, F(1, 2), F(1, 2)), (1, 0, 1)])  # empty box
    with pytest.raises(InvalidCatalogFunction, match="float range"):
        # exact as a rational, but float() of it overflows
        BoxFunction.from_rows(1, [(F(10) ** 400, 0, F(1, 2)), (1, F(1, 2), 1)])
    # the first and the last of eleven boxes overlap on [1/10, 3/20); the gap
    # [9/10, 19/20) makes the volume exactly one
    tenths = [(1, F(k, 10), F(k + 1, 10)) for k in range(2, 9)]
    far = [(1, F(1, 10), F(2, 10)), *tenths, (1, F(19, 20), 1), (1, 0, F(3, 20))]
    # the message names the pair in list order
    first_listed = r"overlapping boxes \(Fraction\(1, 10"
    with pytest.raises(InvalidCatalogFunction, match=first_listed):
        BoxFunction.from_rows(1, far)
    # boxes that only touch, at edges and at the center corner, tile the square
    quadrants = [(1, F(i, 2), F(i + 1, 2), F(j, 2), F(j + 1, 2))
                 for i, j in ((1, 1), (0, 1), (1, 0), (0, 0))]
    assert BoxFunction.from_rows(2, quadrants).integral() == 1
    # an overlap in y between two boxes of the same x range, listed apart;
    # the gap [0, 1/2) x [7/8, 1) makes the volume exactly one
    right = [(1, F(1, 2), 1, F(k, 4), F(k + 1, 4)) for k in range(4)]
    hidden = [(1, 0, F(1, 2), 0, F(1, 2)), *right, (1, 0, F(1, 2), F(3, 8), F(7, 8))]
    with pytest.raises(InvalidCatalogFunction, match="overlapping"):
        BoxFunction.from_rows(2, hidden)
    # strips across either axis; a box over strips 1 and 2, listed last or
    # first, is named after or before strip 1
    for axis in (0, 1):
        rows = [_strip(axis, F(k, 16), F(k + 1, 16)) for k in range(16)]
        extra = _strip(axis, F(3, 32), F(6, 32))
        assert BoxFunction.from_rows(2, rows).integral() == 1
        for listed in (rows + [extra], [extra] + rows):
            b1, b2 = (Box.make(*r) for r in listed if r in (rows[1], extra))
            named = f"overlapping boxes {b1.lo}-{b1.hi} and {b2.lo}-{b2.hi}"
            with pytest.raises(InvalidCatalogFunction, match=re.escape(named)):
                BoxFunction.from_rows(2, listed)


def test_tiling_volume_is_summed_exactly():
    # the gap [1/3, 2/5) is 1/15 wide; every length is exact over the lcm of
    # the denominators, 105, where over 7 both gap ends would floor to 2
    rows = [(1, 0, F(1, 3)), (1, F(2, 5), F(4, 7)), (1, F(4, 7), 1)]
    with pytest.raises(InvalidCatalogFunction, match="^boxes tile volume 14/15, not the whole"):
        BoxFunction.from_rows(1, rows)
    assert BoxFunction.from_rows(1, [*rows, (1, F(1, 3), F(2, 5))]).integral() == 1


def _strip(axis, lo, hi):
    """Row of a 2-D box spanning [lo, hi) on ``axis`` and [0, 1) across."""
    return (1, lo, hi, 0, 1) if axis == 0 else (1, 0, 1, lo, hi)


@pytest.mark.parametrize("axis", [0, 1])
def test_strip_tilings_are_checked_in_near_linear_time(monkeypatch, axis):
    # 1,024 strips that only touch: a sweep across the strips keeps at most
    # one box active, a sweep along them keeps all (about 520,000 tests)
    calls = []
    overlap = boxes._overlap
    monkeypatch.setattr(boxes, "_overlap", lambda p, q: calls.append(1) or overlap(p, q))
    rows = [_strip(axis, F(k, 1024), F(k + 1, 1024)) for k in range(1024)]
    assert BoxFunction.from_rows(2, rows).integral() == 1
    assert len(calls) < 1024


def _overlap_verdict_matches(rows):
    """Sweep verdict equals the pairwise one, and a reported pair is an
    overlapping pair named in list order.  Returns the verdict."""
    boxes_ = [Box.make(*row) for row in rows]
    pairs = [
        (b1, b2)
        for i, b1 in enumerate(boxes_)
        for b2 in boxes_[i + 1 :]
        if b1.intersection_bounds(b2) is not None
    ]
    try:
        BoxFunction.from_rows(2, rows)
        verdict = False
    except InvalidCatalogFunction as exc:
        verdict = "overlapping" in str(exc)
        if verdict:
            assert any(
                str(exc) == f"overlapping boxes {b1.lo}-{b1.hi} and {b2.lo}-{b2.hi}"
                for b1, b2 in pairs
            )
    assert verdict == bool(pairs)
    return verdict


@pytest.mark.parametrize("seed", range(6))
def test_overlap_verdict_matches_pairwise_check(seed):
    rng = np.random.default_rng(seed)
    verdicts = set()
    for _ in range(20):
        rows = []
        for _ in range(int(rng.integers(2, 12))):
            bounds = []
            for _ in range(2):
                a, b = sorted(rng.choice(9, size=2, replace=False).tolist())
                bounds += [F(a, 8), F(b, 8)]
            rows.append((1, *bounds))
        verdicts.add(_overlap_verdict_matches(rows))
    assert verdicts == {False, True}
    # strips across x and across y, which the sweep takes along x and y
    for axis in (0, 1):
        verdicts = set()
        for _ in range(20):
            cuts = [
                sorted(rng.choice(9, size=2, replace=False).tolist())
                for _ in range(int(rng.integers(2, 5)))
            ]
            rows = [_strip(axis, F(a, 8), F(b, 8)) for a, b in cuts]
            verdicts.add(_overlap_verdict_matches(rows))
        assert verdicts == {False, True}


def test_exact_integrals_of_builtin_wavelets():
    g = g01_1d()
    assert g.integral() == 0
    assert square_integral(g) == 1
    # first moment: 2 int_0^{1/8} x dx - 2 int_{1/8}^{1/4} x dx = -1/32
    assert moment(g, 0, 1) == F(-1, 32)
    assert g02_1d().integral() == 0
    assert square_integral(g02_1d()) == 1
    assert uniform1d().integral() == 1
    assert moment(uniform1d(), 0, 1) == F(1, 2)


def test_scaled():
    g = g01_1d().scaled(F(1, 2))
    assert square_integral(g) == F(1, 4)
    assert g.integral() == 0


def test_evaluate_half_open_membership():
    g = g01_1d()
    vals = evaluate(g, np.array([[0.0], [0.1249], [0.125], [0.25], [0.9]]))
    assert np.array_equal(vals, [2.0, 2.0, -2.0, 0.0, 0.0])


def test_cell_averages_aligned():
    g = g01_1d()
    level3 = g.cell_averages(DyadicGrid(1, 3))
    assert np.array_equal(level3, [2.0, -2.0, 0, 0, 0, 0, 0, 0])
    # at level 2 the +2/-2 eighths share a cell and cancel exactly
    level2 = g.cell_averages(DyadicGrid(1, 2))
    assert np.array_equal(level2, np.zeros(4))


def test_cell_averages_misaligned_exact():
    f = misaligned_f0_1d()
    # level 1: each half mixes 3/4 and 3/2 in ratio 2:1, averaging to 1
    assert np.array_equal(f.cell_averages(DyadicGrid(1, 1)), [1.0, 1.0])
    avg = f.cell_averages(DyadicGrid(1, 3))
    # cell [1/4,3/8) is 2/3 low value, 1/3 high value
    assert abs(avg[2] - (F(2, 3) * F(3, 4) + F(1, 3) * F(3, 2))) < 1e-15


def test_projection_preserves_integrals():
    for catalog, target in ((misaligned_f0_1d(), 1.0), (misaligned_g0_1d(), 0.0)):
        for level in (1, 3, 6):
            classes = grid_classes(DyadicGrid(1, level), catalog.int_bounds)
            proj = project_classes(classes, (catalog.int_bounds, catalog.floats))[0]
            assert abs(np.dot(proj, classes.weights) - target) < 1e-14


def test_projection_refinement_consistency():
    # averaging the level-(j+1) projection back over parent cells must
    # reproduce the level-j projection
    catalog = misaligned_f0_1d()
    coarse = catalog.cell_averages(DyadicGrid(1, 4))
    fine = catalog.cell_averages(DyadicGrid(1, 5))
    merged = fine.reshape(-1, 2).mean(axis=1)
    assert np.max(np.abs(merged - coarse)) < 1e-14


def test_projection_dimension_mismatch():
    with pytest.raises(InvalidCatalogFunction):
        g01_1d().cell_averages(DyadicGrid(2, 2))


def test_overlay_regions_and_energy():
    f = misaligned_f0_1d()
    g = misaligned_g0_1d()
    regions = overlay(f, g)
    assert len(regions) == 3
    assert sum(r.volume for r in regions) == 1
    assert regions_energy(overlay(f, g)) == 1  # exact rational arithmetic
    with pytest.raises(InvalidCatalogFunction):
        overlay(f, BoxFunction.from_rows(2, [(1, 0, 1, 0, 1)]))


def test_overlay_energy_rejects_zero_density_region():
    f = BoxFunction.from_rows(1, [(0, 0, F(1, 2)), (2, F(1, 2), 1)])
    with pytest.raises(InvalidCatalogFunction, match="^division by a zero-valued f region$"):
        regions_energy(overlay(f, uniform1d()))


# ---------------------------------------------------------------------------
# overlay: a sweep, in the nested loop's region order


def _nested_overlay(f, g):
    """Overlay regions as (f value, g value, lo, hi): every f box against
    every g box, in that loop order."""
    out = []
    for bf in f.boxes:
        for bg in g.boxes:
            lo = tuple(max(a, b) for a, b in zip(bf.lo, bg.lo))
            hi = tuple(min(a, b) for a, b in zip(bf.hi, bg.hi))
            if all(a < b for a, b in zip(lo, hi)):
                out.append((bf.value, bg.value, lo, hi))
    return out


def _assert_overlay_is_nested_loop(f, g):
    got = [(r.f_value, r.g_value, r.lo, r.hi) for r in overlay(f, g)]
    assert got == _nested_overlay(f, g)
    assert all(type(x) is F for r in got for x in (r[0], r[1], *r[2], *r[3]))


def _random_tiling(rng, dimension, count, den, bounds=None):
    """``count`` boxes tiling the unit cube by random guillotine cuts at
    multiples of 1/den, listed in random order, with random rational values.
    Tilings on one den share faces, edges and corners.  ``bounds``, if
    given, are the boxes' (lo, hi) instead."""
    if bounds is None:
        bounds = [((F(0),) * dimension, (F(1),) * dimension)]
        while len(bounds) < count:
            k, d = int(rng.integers(len(bounds))), int(rng.integers(dimension))
            lo, hi = bounds[k]
            a, b = int(lo[d] * den), int(hi[d] * den)
            if b - a < 2:
                continue
            c = F(int(rng.integers(a + 1, b)), den)
            bounds[k] = (lo, hi[:d] + (c,) + hi[d + 1 :])
            bounds.append((lo[:d] + (c,) + lo[d + 1 :], hi))
        bounds = [bounds[k] for k in rng.permutation(len(bounds))]
    rows = [
        (F(int(rng.integers(1, 50)), int(rng.integers(1, 9))), *sum(zip(lo, hi), ()))
        for lo, hi in bounds
    ]
    return BoxFunction.from_rows(dimension, rows)


def _touching_kinds(f, g):
    """How many (f box, g box) pairs meet only along a face (an interval in
    2-D) and only at a corner."""
    face = corner = 0
    for bf in f.boxes:
        for bg in g.boxes:
            gaps = [min(b1, b2) - max(a1, a2)
                    for a1, b1, a2, b2 in zip(bf.lo, bf.hi, bg.lo, bg.hi)]
            if min(gaps) == 0:
                zeros = sum(x == 0 for x in gaps)
                face += zeros == 1 and max(gaps) > 0
                corner += zeros == len(gaps)
    return face, corner


def _grid_tiling(rng, xs, ys):
    """The product tiling of cuts ``xs`` by ``ys``, in random order."""
    cells = [((a, c), (b, d)) for a, b in zip(xs, xs[1:]) for c, d in zip(ys, ys[1:])]
    return _random_tiling(rng, 2, 0, 1, [cells[k] for k in rng.permutation(len(cells))])


@pytest.mark.parametrize("seed", range(8))
def test_overlay_equals_nested_loop(seed):
    rng = np.random.default_rng(seed)
    one = {d: BoxFunction.from_rows(d, [(F(3, 2), *[0, 1] * d)]) for d in (1, 2)}
    quarters = [F(k, 4) for k in range(5)]
    # grids whose boxes meet along faces and at corners, e.g. at (1/2, 1/2)
    grids = (
        _grid_tiling(rng, quarters, quarters),
        _grid_tiling(rng, [F(0), F(1, 2), F(1)], [F(0), F(1, 3), F(1, 2), F(1)]),
    )
    assert min(_touching_kinds(*grids)) > 0
    for dimension, den in ((1, 48), (2, 12)):
        f = _random_tiling(rng, dimension, int(rng.integers(2, 40)), den)
        g = _random_tiling(rng, dimension, int(rng.integers(2, 40)), den)
        same = _random_tiling(rng, dimension, 0, den, [(b.lo, b.hi) for b in f.boxes])
        cases = [(f, g), (g, f), (f, same), (one[dimension], g), (f, one[dimension]),
                 (one[dimension], one[dimension])]
        if dimension == 2:
            cases += [grids, grids[::-1], (grids[0], f), (g, grids[1])]
        for a, b in cases:
            _assert_overlay_is_nested_loop(a, b)


@pytest.mark.parametrize("dimension", [1, 2])
def test_overlay_of_256_box_catalogs_tests_few_pairs(monkeypatch, dimension):
    # the nested loop tested all 65,536 pairs.  The sweep tests the pairs
    # that meet along its axis: in 1-D only the regions, fewer than 512, and
    # about a tenth of all pairs for these 2-D guillotine tilings
    rng = np.random.default_rng(256 + dimension)
    den = 4099 if dimension == 1 else 64
    f, g = (_random_tiling(rng, dimension, 256, den) for _ in range(2))
    calls = []
    overlap = boxes._overlap
    monkeypatch.setattr(boxes, "_overlap", lambda p, q: calls.append(1) or overlap(p, q))
    regions = overlay(f, g)
    monkeypatch.undo()
    _assert_overlay_is_nested_loop(f, g)
    assert len(calls) < (512 if dimension == 1 else 2**16 // 4)
    if dimension == 1:
        assert len(calls) == len(regions)


def test_overlay_missing_a_pair_fails_its_volume_check(monkeypatch):
    # every 1-D sweep candidate is a real region, so a sweep that loses one
    # leaves a hole the closing volume check must see
    f, g = misaligned_f0_1d(), misaligned_g0_1d()
    sweep, dropped = boxes._sweep, []

    def lossy(boxes_, dimension):
        for j, earlier in sweep(boxes_, dimension):
            if earlier and not dropped:
                dropped.append((earlier[0], j))
                earlier = earlier[1:]
            yield j, earlier

    monkeypatch.setattr(boxes, "_sweep", lossy)
    with pytest.raises(InvalidCatalogFunction, match="overlay does not tile the unit cube"):
        overlay(f, g)
    assert dropped


def test_load_catalog_round_trip(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text(
        """
        # a lopsided density
        3/4   0    1/3
        3/2   1/3  2/3   # middle third
        3/4   2/3  1
        """
    )
    loaded = load_catalog(path)
    assert loaded.dimension == 1
    assert loaded.integral() == 1
    assert loaded.boxes == misaligned_f0_1d().boxes


def test_load_catalog_errors(tmp_path):
    bad_tokens = tmp_path / "bad.txt"
    bad_tokens.write_text("1 0\n")
    with pytest.raises(InvalidCatalogFunction):
        load_catalog(bad_tokens)

    mixed = tmp_path / "mixed.txt"
    mixed.write_text("1 0 1\n1 0 1 0 1\n")
    with pytest.raises(InvalidCatalogFunction):
        load_catalog(mixed)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(InvalidCatalogFunction):
        load_catalog(empty)

    unparsable = tmp_path / "nan.txt"
    unparsable.write_text("one 0 1\n")
    with pytest.raises(InvalidCatalogFunction):
        load_catalog(unparsable)


def test_random_dyadic_catalogs_project_exactly():
    # a catalog whose breakpoints are dyadic at level k projects exactly at
    # every level >= k: the projection equals the evaluated cell values
    rng = np.random.default_rng(11)
    k = 3
    cuts = [F(i, 2**k) for i in range(2**k + 1)]
    for _ in range(10):
        vals = rng.integers(-5, 6, size=2**k)
        rows = [(int(v), cuts[i], cuts[i + 1]) for i, v in enumerate(vals)]
        catalog = BoxFunction.from_rows(1, rows)
        for level in (k, k + 2):
            grid = DyadicGrid(1, level)
            proj = catalog.cell_averages(grid)
            assert np.array_equal(proj, evaluate(catalog, grid.centers()))


# ---------------------------------------------------------------------------
# per-axis overlaps: only the end cells are computed in rational arithmetic


def _reference_axis_overlaps(lo, hi, level):
    """One exact Fraction per covered cell (the direct definition)."""
    side = 1 << level
    first = math.floor(lo * side)
    last = math.ceil(hi * side) - 1
    lengths = []
    for k in range(first, last + 1):
        a = max(lo, F(k, side))
        b = min(hi, F(k + 1, side))
        lengths.append(float(b - a) if b > a else 0.0)
    return first, np.array(lengths)


def _assert_same_overlaps(lo, hi, level):
    # _axis_ends gives the end cells and their overlaps; every cell between
    # them is covered whole
    den = math.lcm(lo.denominator, hi.denominator)
    first, last, head, tail = _axis_ends(int(lo * den), int(hi * den), den, level)
    ref_first, ref_lengths = _reference_axis_overlaps(lo, hi, level)
    assert (first, last) == (ref_first, ref_first + ref_lengths.size - 1), (lo, hi, level)
    assert (head, tail) == (ref_lengths[0], ref_lengths[-1]), (lo, hi, level)
    assert np.all(ref_lengths[1:-1] == 1.0 / (1 << level)), (lo, hi, level)


def _random_bounds(rng, count):
    # odd denominators never sit on a dyadic cell edge
    out = []
    for _ in range(count):
        den = int(rng.integers(1, 500)) * 2 + 1
        a, b = sorted(rng.choice(den + 1, size=2, replace=False))
        out.append((F(int(a), den), F(int(b), den)))
    return out


@pytest.mark.parametrize("level", range(15))
def test_axis_overlaps_match_reference_random_bounds(level):
    rng = np.random.default_rng(100 + level)
    for lo, hi in _random_bounds(rng, 20):
        _assert_same_overlaps(lo, hi, level)


@pytest.mark.parametrize("level", range(15))
def test_axis_overlaps_match_reference_special_bounds(level):
    side = 1 << level
    cases = [
        (F(0), F(1)),  # the whole axis
        (F(1, 3 * side), F(2, 3 * side)),  # inside the first cell
        (F(3 * side - 2, 3 * side), F(3 * side - 1, 3 * side)),  # inside the last
        (F(0), F(1, 3)),  # starts on an edge
        (F(1, 3), F(1)),  # ends on an edge
        (F(0), F(1, side)),  # exactly one cell
    ]
    if side > 2:
        cases += [
            (F(1, side), F(side - 1, side)),  # both ends on edges
            (F(1, side), F(5, 3 * side)),  # starts on an edge, ends inside
            (F(4, 3 * side), F(2, side)),  # starts inside, ends on an edge
        ]
    for lo, hi in cases:
        _assert_same_overlaps(lo, hi, level)


def test_axis_overlaps_single_cell_is_region_length():
    first, last, head, tail = _axis_ends(5, 6, 17, 2)
    assert first == last == 1
    assert head == tail == float(F(1, 17))


def test_project_regions_2d_misaligned_matches_reference():
    f = misaligned_f0_2d()
    bounds = [(b.lo, b.hi) for b in f.boxes]
    values = np.array([float(b.value) for b in f.boxes])
    # plus overlapping regions with odd-denominator bounds on both axes
    rng = np.random.default_rng(5)
    xs, ys = _random_bounds(rng, 6), _random_bounds(rng, 6)
    bounds += [((x0, y0), (x1, y1)) for (x0, x1), (y0, y1) in zip(xs, ys)]
    values = np.concatenate([values, rng.normal(size=6)])
    for level in (1, 3, 6):
        grid = DyadicGrid(2, level)
        fast = boxes.project_regions(grid, bounds, values)
        assert np.array_equal(fast, _dense_reference(grid, bounds, values))


# ---------------------------------------------------------------------------
# class projection against the dense per-cell sums


def _dense_reference(grid, bounds, values):
    """Per-cell sums of every region's exact overlaps, one Fraction per
    covered cell, accumulated on a full (side,)*m array in region order."""
    side = grid.side_count
    acc = np.zeros((side,) * grid.dimension)
    for (lo, hi), val in zip(bounds, values):
        if val == 0.0:
            continue
        axes = [_reference_axis_overlaps(a, b, grid.level) for a, b in zip(lo, hi)]
        block = axes[0][1]
        for _, lengths in axes[1:]:
            block = np.multiply.outer(block, lengths)
        acc[tuple(slice(s, s + o.size) for s, o in axes)] += val * block
    return acc.reshape(-1) * float(side**grid.dimension)


def _staggered_regions(strips, seed):
    """A 2-D tiling whose strips each have their own odd-denominator x breaks."""
    rng = np.random.default_rng(seed)

    def breaks():
        inner = [F(k, strips) + F(int(rng.integers(1, 6)), 13 * strips)
                 for k in range(1, strips)]
        return [F(0), *inner, F(1)]

    ys = breaks()
    return [
        ((x0, y0), (x1, y1))
        for y0, y1 in zip(ys, ys[1:])
        for xs in [breaks()]
        for x0, x1 in zip(xs, xs[1:])
    ]


def _region_sets(dimension):
    rng = np.random.default_rng(40 + dimension)
    if dimension == 1:
        misaligned = misaligned_f0_1d().bounds + misaligned_g0_1d().bounds
        staggered = [((a,), (b,)) for (a, _), (b, _) in _staggered_regions(7, 3)[:7]]
        odd = [((a,), (b,)) for a, b in _random_bounds(rng, 12)]
    else:
        misaligned = misaligned_f0_2d().bounds
        staggered = _staggered_regions(6, 4)
        xs, ys = _random_bounds(rng, 8), _random_bounds(rng, 8)
        odd = [((x0, y0), (x1, y1)) for (x0, x1), (y0, y1) in zip(xs, ys)]
    return {"misaligned": misaligned, "staggered": staggered, "odd": odd}


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("level", range(1, 11))
def test_class_projection_matches_dense_reference(dimension, level):
    grid = DyadicGrid(dimension, level)
    rng = np.random.default_rng(level)
    for name, bounds in _region_sets(dimension).items():
        values = rng.normal(size=len(bounds))
        values[::5] = 0.0  # zero-valued regions add nothing
        classes = grid_classes(grid, integer_bounds(bounds, dimension))
        [got] = boxes.project_classes(classes, (integer_bounds(bounds, dimension), values))
        # runs are cut at 0, 2^level, the floor and ceiling of each of the
        # B_d distinct bounds on axis d, and the middle of the first axis
        for d, runs in enumerate(len(e) - 1 for e in classes.edges):
            distinct = {x[d] for lo, hi in bounds for x in (lo, hi)}
            assert runs <= 2 * len(distinct) + 1 + (d == 0), name
        want = _dense_reference(grid, bounds, values)
        scattered = got[classes.cell_classes()]
        assert np.array_equal(scattered.view(np.int64), want.view(np.int64)), name
        assert np.array_equal(boxes.project_regions(grid, bounds, values), want)


def test_class_projection_needs_cuts_at_every_bound():
    grid = DyadicGrid(1, 4)
    f = misaligned_f0_1d()
    with pytest.raises(ValueError, match="not cut"):
        boxes.project_classes(grid_classes(grid), (f.int_bounds, np.ones(3)))


# ---------------------------------------------------------------------------
# ladder levels: both catalogs at once, and no rational arithmetic per level


def _seeded_pair_1d(seed, count=16):
    """A 1-D (f0, g0) pair of ``count`` boxes: breakpoint i at i/count plus
    an odd-denominator offset, so no dyadic grid aligns, and values with 30
    digits, f0 of unit mass."""
    rng = random.Random(seed)
    edges = [F(0)]
    for i in range(1, count):
        q = rng.choice((3, 5, 7, 9, 11, 13))
        k = rng.choice([k for k in range(-(q // 2), q // 2 + 1) if k])
        edges.append(F(i, count) + F(k, 2 * count * q))
    edges.append(F(1))
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    f = [F(rng.randrange(10**29, 10**30), 10**30) for _ in lengths]
    mass = sum(v * h for v, h in zip(f, lengths))
    g = [F(rng.randrange(-(10**30), 10**30), 10**30) for _ in lengths]
    return [(v / mass, a, b) for v, a, b in zip(f, edges, edges[1:])], [
        (v, a, b) for v, a, b in zip(g, edges, edges[1:])
    ]


def _seeded_pair(dimension):
    """The 1-D seeded pair, or in 2-D the product of two of them (f0 of
    unit mass, 256 boxes each)."""
    f, g = _seeded_pair_1d(7)
    if dimension == 1:
        return BoxFunction.from_rows(1, f), BoxFunction.from_rows(1, g)
    fy, _ = _seeded_pair_1d(8)

    def product(xs, ys):
        return BoxFunction.from_rows(
            2, [(u * v, a, b, c, d) for u, a, b in xs for v, c, d in ys]
        )

    return product(f, fy), product(g, fy)


@pytest.mark.parametrize(
    "dimension, levels", [(1, range(1, 15)), (2, range(1, 11))], ids=["1d", "2d"]
)
def test_project_pair_matches_dense_reference(dimension, levels):
    # f and g share their bounds, so g's projection runs on f's cached
    # overlaps; the dense reference is one array per cell, so 2-D stops at
    # level 10 (2^20 cells)
    f0, g0 = _seeded_pair(dimension)
    for level in levels:
        fd, g_raw = project_pair(f0, g0, level)
        grid = DyadicGrid(dimension, level)
        cells = fd.space.cell_classes()
        for catalog, got in ((f0, fd.values), (g0, g_raw.values)):
            values = np.array([float(b.value) for b in catalog.boxes])
            want = _dense_reference(grid, catalog.bounds, values)
            assert np.array_equal(got[cells].view(np.int64), want.view(np.int64)), level


_LADDER_PAIRS = {
    "misaligned_1d": lambda: (misaligned_f0_1d(), misaligned_g0_1d()),
    "misaligned_2d": lambda: (misaligned_f0_2d(), misaligned_g0_2d()),
    "seeded_1d": lambda: _seeded_pair(1),
    "seeded_2d": lambda: _seeded_pair(2),
}


@pytest.mark.parametrize("pair", sorted(_LADDER_PAIRS))
def test_ladder_levels_use_no_fractions(monkeypatch, pair):
    # a level reads each catalog's integer bounds and float values, built
    # with the catalog: it builds no Fraction, and it reads, unpacks and
    # hashes none
    f0, g0 = _LADDER_PAIRS[pair]()
    phi = (tents_1d() if f0.dimension == 1 else tents_2d())[0]
    built, touched = [], []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def levels():
        for level in range(3, 13):
            fd, _ = project_pair(f0, g0, level)
            _phi_coarse(phi, 16, fd.space)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    levels()
    assert built == []
    for name in ("numerator", "denominator"):
        read = getattr(F, name)
        monkeypatch.setattr(
            F, name, property(lambda x, read=read, name=name: touched.append(name) or read.fget(x))
        )
    for name in ("__hash__", "as_integer_ratio", "__float__"):
        method = getattr(F, name)
        monkeypatch.setattr(
            F, name, lambda x, method=method, name=name: touched.append(name) or method(x)
        )
    levels()
    assert built == [] and touched == []


@pytest.mark.parametrize("pair", sorted(_LADDER_PAIRS))
def test_catalog_bounds_use_no_fractions(monkeypatch, tmp_path, pair):
    # a catalog turns its bounds into integers once, when it is built:
    # parsing builds one Fraction per token, from its string, and then
    # validation, the overlay and the ladder levels build and compare none
    f0, g0 = _LADDER_PAIRS[pair]()
    rows = [
        [(b.value, *sum(zip(b.lo, b.hi), ())) for b in catalog.boxes] for catalog in (f0, g0)
    ]
    paths = [tmp_path / "f0.txt", tmp_path / "g0.txt"]
    for path, catalog_rows in zip(paths, rows):
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in catalog_rows))
    built, compared = [], []
    new, richcmp = F.__new__, F._richcmp

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(F, "_richcmp", lambda x, y, op: compared.append(op) or richcmp(x, y, op))
    loaded = [load_catalog(path) for path in paths]
    assert len(built) == sum(len(row) for catalog_rows in rows for row in catalog_rows)
    assert all(len(args) == 1 and isinstance(args[0], str) for args in built)
    built.clear()
    rebuilt = [BoxFunction.from_rows(f0.dimension, catalog_rows) for catalog_rows in rows]
    regions = overlay(*loaded)
    for level in range(3, 13):
        project_pair(*loaded, level)
    monkeypatch.undo()
    assert built == [] and compared == []
    assert rebuilt == loaded == [f0, g0]
    assert regions == overlay(f0, g0)
