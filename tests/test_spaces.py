"""Finite measure spaces, dyadic grids, densities and integration."""

from __future__ import annotations

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
    assert np.array_equal(grid.corners()[:, 0], np.arange(8) / 8.0)
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


def test_grid_refine():
    grid = DyadicGrid(2, 2)
    fine = grid.refine()
    assert fine.level == 3
    assert fine.dimension == 2
    assert fine.cell_count == 4 * grid.cell_count


def test_index_round_trip():
    rng = np.random.default_rng(7)
    for grid in (DyadicGrid(1, 4), DyadicGrid(2, 3), DyadicGrid(3, 2)):
        for flat in rng.integers(0, grid.cell_count, size=20):
            multi = grid.multi_index(int(flat))
            assert grid.flat_index(multi) == flat
    with pytest.raises(IndexError):
        DyadicGrid(1, 2).multi_index(4)
    with pytest.raises(ValueError):
        DyadicGrid(2, 2).flat_index((1,))


def test_children_refine_the_parent_cell():
    grid = DyadicGrid(2, 2)
    fine = grid.refine()
    for flat in (0, 5, grid.cell_count - 1):
        kids = grid.children(flat)
        assert kids.size == 4
        lo = grid.corners()[flat]
        hi = lo + grid.cell_side
        for kid in kids:
            c = fine.centers()[kid]
            assert np.all(c > lo) and np.all(c < hi)


def test_grid_equality_and_hash():
    a = DyadicGrid(1, 3)
    b = DyadicGrid(1, 3)
    assert a == b and hash(a) == hash(b)
    assert a != DyadicGrid(1, 4)
    assert a != DyadicGrid(2, 3)
    # same weights, but an abstract space is not a grid
    flat = FiniteMeasureSpace(np.full(8, 0.125))
    assert a != flat and flat != a


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
    x = grid.axis_centers()
    for power in (0, 1, 2):
        assert np.array_equal(classes.axis_sums(0, power), np.add.reduceat(x**power, [0, 3, 4]))
    # correctly rounded at any level: over the first n cells, the centers sum
    # to n^2 / (2 side) and their squares to (n^3 / 3 - n / 12) / side^2
    side, n = 1 << 60, 1 << 59
    deep = CellClasses(DyadicGrid(1, 60), [(0, n, side)])
    assert deep.axis_sums(0, 1)[0] == float(Fraction(n * n, 2 * side))
    assert deep.axis_sums(0, 2)[0] == float((Fraction(n**3, 3) - Fraction(n, 12)) / side**2)
    for bad in ([(0, 4, 8)], [(0, 4, 4, 8), (0, 8)], [(1, 8), (0, 8)], [(0, 7), (0, 8)]):
        with pytest.raises(ValueError):
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
