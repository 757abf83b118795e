"""Finite measure spaces, dyadic grids, densities and integration."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest

from frgeo import (
    CellClasses,
    DyadicGrid,
    FiniteDensity,
    FiniteMeasureSpace,
    SignedFunction,
    integrate,
)


def test_counting_measure_basics():
    space = FiniteMeasureSpace.counting(3)
    assert space.n_points == 3
    assert space.total_mass == 3.0
    assert np.array_equal(space.weights, np.ones(3))


def test_space_rejects_bad_weights():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([1.0]))  # a single atom is not a space
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        FiniteMeasureSpace(np.array([1.0, -0.5]))
    with pytest.raises(ValueError, match="strictly positive"):
        FiniteMeasureSpace(np.array([1.0, np.nan]))


def test_space_weights_frozen():
    space = FiniteMeasureSpace.counting(4)
    with pytest.raises(ValueError):
        space.weights[0] = 2.0


def test_grid_geometry_1d():
    grid = DyadicGrid(1, 3)
    assert grid.side_count == 8
    assert grid.cell_count == 8
    assert grid.cell_side == 0.125
    assert grid.cell_weight == 0.125
    assert grid.total_mass == 1.0
    assert np.array_equal(grid.centers()[:, 0], (np.arange(8) + 0.5) / 8.0)


def test_grid_geometry_2d():
    grid = DyadicGrid(2, 1)
    assert grid.cell_count == 4
    assert grid.cell_weight == 0.25
    assert abs(grid.total_mass - 1.0) < 1e-15
    # row-major: the second axis varies fastest
    expected = np.array(
        [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
    )
    assert np.array_equal(grid.centers(), expected)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DyadicGrid(0, 3)
    with pytest.raises(ValueError):
        DyadicGrid(1, -1)
    with pytest.raises(ValueError):
        DyadicGrid(1, 0)  # single cell is below the two-atom minimum


def test_grid_equality_and_hash():
    a = DyadicGrid(1, 3)
    b = DyadicGrid(1, 3)
    assert a == b and hash(a) == hash(b)
    assert a != DyadicGrid(1, 4)
    assert a != DyadicGrid(2, 3)
    assert repr(a) == "DyadicGrid(dimension=1, level=3)"
    # same weights, but an abstract space, a grid and cell classes are three
    # different spaces, whichever side is asked
    flat = FiniteMeasureSpace(np.full(8, 0.125))
    cells = CellClasses(a, [range(9)])
    assert np.array_equal(cells.weights, flat.weights)
    for x, y in ((a, flat), (a, cells), (flat, cells)):
        assert x != y and y != x
    twin = FiniteMeasureSpace(np.full(8, 0.125))
    assert flat == twin and hash(flat) == hash(twin)
    for space, attr in ((a, "level"), (a, "dimension"), (flat, "weights")):
        with pytest.raises(FrozenInstanceError):
            setattr(space, attr, 4)
    # a grid is compared, hashed and printed without its per-cell weights
    deep = DyadicGrid(2, 40)
    assert deep == DyadicGrid(2, 40) and hash(deep) == hash(DyadicGrid(2, 40))
    assert deep != a and deep != flat and flat != deep
    assert repr(deep) == "DyadicGrid(dimension=2, level=40)"
    assert "weights" not in deep.__dict__


def test_cell_classes_weights_layout_and_run_sums():
    grid = DyadicGrid(2, 3)
    classes = CellClasses(grid, [(0, 3, 4, 8), (0, 4, 8)])
    cells = classes.cell_classes().reshape(8, 8)
    assert cells[:3].tolist() == [[0] * 4 + [1] * 4] * 3
    assert cells[3].tolist() == [2] * 4 + [3] * 4
    assert cells[4:].tolist() == [[4] * 4 + [5] * 4] * 4
    assert np.array_equal(classes.weights, np.bincount(cells.ravel()) * grid.cell_weight)
    assert classes == CellClasses(grid, [[0, 3, 4, 8], [0, 4, 8]])
    assert hash(classes) == hash(CellClasses(grid, [[0, 3, 4, 8], [0, 4, 8]]))
    assert classes != CellClasses(grid, [[0, 4, 8], [0, 4, 8]])
    assert classes != FiniteMeasureSpace(classes.weights)
    assert FiniteMeasureSpace(classes.weights) != classes
    assert repr(classes) == (
        "CellClasses(grid=DyadicGrid(dimension=2, level=3), edges=((0, 3, 4, 8), (0, 4, 8)))"
    )
    for attr, value in (("edges", ()), ("grid", DyadicGrid(2, 4)), ("weights", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(classes, attr, value)
    # nor do classes build their grid's per-cell weights to be compared
    deep_grid = DyadicGrid(2, 40)
    deep_classes = CellClasses(deep_grid, [(0, 1 << 40), (0, 1, 1 << 40)])
    assert deep_classes == CellClasses(DyadicGrid(2, 40), [(0, 1 << 40), (0, 1, 1 << 40)])
    assert hash(deep_classes) == hash(CellClasses(deep_grid, [(0, 1 << 40), (0, 1, 1 << 40)]))
    assert repr(deep_classes).startswith("CellClasses(grid=DyadicGrid(dimension=2, level=40)")
    assert "weights" not in deep_grid.__dict__
    x = grid.axis_centers()
    for power in (0, 1, 2):
        assert np.array_equal(classes.axis_sums(0, power), np.add.reduceat(x**power, [0, 3, 4]))
    # correctly rounded at any level: over the first n cells, the centers sum
    # to n^2 / (2 side) and their squares to (n^3 / 3 - n / 12) / side^2
    side, n = 1 << 60, 1 << 59
    deep = CellClasses(DyadicGrid(1, 60), [(0, n, side)])
    assert deep.axis_sums(0, 1)[0] == float(Fraction(n * n, 2 * side))
    assert deep.axis_sums(0, 2)[0] == float((Fraction(n**3, 3) - Fraction(n, 12)) / side**2)
    # wrong axis count, repeated, unsorted and out-of-range edges, and ends
    # other than 0 and 2^level
    for bad in (
        [(0, 4, 8)], [(0, 4, 4, 8), (0, 8)], [(0, 8), (0, 2, 6, 6, 8)],
        [(0, 5, 3, 8), (0, 8)], [(0, 4, 2, 4, 8), (0, 8)], [(0, 8), (0, 9, 8)],
        [(0, -1, 8), (0, 8)], [(0, 4, 8, 8), (0, 8)], [(1, 8), (0, 8)], [(0, 7), (0, 8)],
        [(0, 4, 9), (0, 8)], [(-1, 4, 8), (0, 8)],
    ):
        with pytest.raises(ValueError, match="^run edges must rise strictly from 0 to 2"):
            CellClasses(grid, bad)


def test_signed_function_shape_check():
    space = FiniteMeasureSpace.counting(3)
    with pytest.raises(ValueError):
        SignedFunction(space, np.zeros(4))


def test_density_validation():
    space = FiniteMeasureSpace.counting(4)
    FiniteDensity(space, np.full(4, 0.25))
    with pytest.raises(ValueError):
        FiniteDensity(space, np.array([0.5, 0.5, 0.25, -0.25]))
    with pytest.raises(ValueError):
        FiniteDensity(space, np.full(4, 0.3))  # integrates to 1.2
    with pytest.raises(ValueError, match="non-negative"):
        FiniteDensity(FiniteMeasureSpace.counting(2), [np.nan, np.nan])
    d = FiniteDensity(space, np.array([0.1, 0.2, 0.3, 0.4]))
    assert d.min_value == 0.1


def test_integrate_against_weights():
    space = FiniteMeasureSpace(np.array([0.5, 1.5, 2.0]))
    h = SignedFunction(space, np.array([2.0, -1.0, 0.5]))
    assert integrate(h) == 0.5 * 2.0 - 1.5 + 2.0 * 0.5


def test_integrate_linear_function_exactly():
    # cell-center quadrature integrates x exactly on every dyadic grid
    for level in (2, 5, 8):
        grid = DyadicGrid(1, level)
        h = SignedFunction(grid, grid.centers()[:, 0])
        assert abs(integrate(h) - 0.5) < 1e-14
    grid = DyadicGrid(2, 3)
    h = SignedFunction(grid, grid.centers().sum(axis=1))
    assert abs(integrate(h) - 1.0) < 1e-14


def test_integrate_is_linear():
    rng = np.random.default_rng(21)
    grid = DyadicGrid(1, 5)
    for _ in range(25):
        a = rng.standard_normal(grid.n_points)
        b = rng.standard_normal(grid.n_points)
        c = float(rng.standard_normal())
        lhs = integrate(SignedFunction(grid, a + c * b))
        rhs = integrate(SignedFunction(grid, a)) + c * integrate(
            SignedFunction(grid, b)
        )
        assert abs(lhs - rhs) < 1e-12
