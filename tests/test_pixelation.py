"""Dyadic pixelation ladders, renormalizers and weak-convergence errors."""

from __future__ import annotations

import csv
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from frgeo import (
    BoxFunction,
    HypothesisViolation,
    TentFunction,
    build_ladder,
    integrate,
    three_term_errors,
    weak_error,
)
from frgeo.catalogs import (
    g01_1d,
    g01_2d,
    g02_1d,
    misaligned_f0_1d,
    misaligned_f0_2d,
    misaligned_g0_1d,
    misaligned_g0_2d,
    single_break_g0_1d,
    uniform1d,
    uniform2d,
)
from frgeo.boxes import overlay
from frgeo.cli import _catalog_state, write_ladder_csv
from frgeo.pixelation import (
    LADDER_FIELDS,
    _block_values,
    _pairing,
    _phi_coarse,
    _separable_phi,
    _stair_integrals,
    continuum_cell_averages,
    ladder_summary_rows,
    region_flow_values,
)
from frgeo.pixelation import test_functions_1d as tents_1d
from frgeo.pixelation import test_functions_2d as tents_2d
from frgeo.geodesics import normalize_velocity, velocity_energy
from frgeo.spaces import CellClasses, DyadicGrid, FiniteDensity, SignedFunction
from oracles import alpha_sequence, phi_staircase, square_integral, tent_values


def misaligned_ladder(levels, dimension=1):
    if dimension == 1:
        return build_ladder(misaligned_f0_1d(), misaligned_g0_1d(), levels)
    return build_ladder(misaligned_f0_2d(), misaligned_g0_2d(), levels)


# ---------------------------------------------------------------------------
# test functions


def test_tent_function_evaluation():
    phi = TentFunction((0.5,), (0.25,))
    assert tent_values(phi, np.array([[0.5]]))[0] == 1.0
    assert tent_values(phi, np.array([[0.25], [0.75], [0.1]])).tolist() == [0.0, 0.0, 0.0]
    assert abs(tent_values(phi, np.array([[0.625]]))[0] - 0.5) < 1e-15
    phi2 = TentFunction((0.5, 0.5), (0.25, 0.25))
    assert tent_values(phi2, np.array([[0.5, 0.5]]))[0] == 1.0
    assert abs(tent_values(phi2, np.array([[0.625, 0.625]]))[0] - 0.25) < 1e-15


def test_tent_function_support_validation():
    with pytest.raises(ValueError):
        TentFunction((0.1,), (0.2,))  # support crosses zero
    with pytest.raises(ValueError):
        TentFunction((0.9,), (0.15,))
    with pytest.raises(ValueError):
        TentFunction((0.5,), (0.0,))
    with pytest.raises(ValueError):
        TentFunction((0.5, 0.5), (0.25,))  # length mismatch


def test_fixed_test_sets():
    ones = tents_1d()
    assert len(ones) == 12
    assert all(phi.dimension == 1 for phi in ones)
    twos = tents_2d()
    assert len(twos) == 9
    assert all(phi.dimension == 2 for phi in twos)


def test_phi_staircase_midpoint_sampling():
    # the outer product of per-axis staircases is phi at the cell midpoints,
    # bit for bit: 1.0 * a * b == a * b
    for phi in (TentFunction((0.5,), (0.25,)), *tents_1d(), *tents_2d()):
        for level in (4, 7):
            stair = phi_staircase(phi, phi.dimension, level)
            grid = DyadicGrid(phi.dimension, level)
            assert np.array_equal(stair, tent_values(phi, grid.centers()))
        with pytest.raises(ValueError):
            phi_staircase(phi, 3 - phi.dimension, 4)


def _coarsen_mean(values: np.ndarray, m: int, j_fine: int, j_coarse: int) -> np.ndarray:
    """Reference: average a level-j_fine cell array over level-j_coarse cells."""
    if j_fine == j_coarse:
        return values
    side_c = 1 << j_coarse
    ratio = 1 << (j_fine - j_coarse)
    shaped = values.reshape((side_c, ratio) * m)
    # axes 1, 3, ... are the fine offsets inside each coarse cell
    return shaped.mean(axis=tuple(range(1, 2 * m, 2))).reshape(-1)


@pytest.mark.parametrize("dimension", [1, 2])
def test_separable_phi_coarse_matches_block_means(dimension):
    # the coarse test function is the outer product of per-axis block means;
    # against the float staircase's block means it differs by the sampling
    # and summation rounding (2.2e-16 in 1-D, 7.2e-16 in 2-D), and in 1-D it
    # is the exact block mean of the exact tent values, correctly rounded
    phis = tents_1d() if dimension == 1 else tents_2d()
    j_ref = 9
    for phi in phis:
        fine = phi_staircase(phi, dimension, j_ref)
        exact = [_exact_tent(phi, 0, j_ref, k) for k in range(1 << j_ref)]
        for j in range(2, j_ref):
            # one class per cell: the class sums are the block means
            cells = np.arange((1 << j) + 1)
            classes = CellClasses(DyadicGrid(dimension, j), [cells] * dimension)
            got = _phi_coarse(phi, j_ref, classes) / classes.grid.cell_weight
            want = _coarsen_mean(fine, dimension, j_ref, j)
            assert np.allclose(got, want, rtol=0.0, atol=1e-15)
            if dimension == 1:
                ratio = 1 << (j_ref - j)
                means = [sum(exact[k : k + ratio]) / ratio for k in range(0, 1 << j_ref, ratio)]
                assert got.tolist() == [float(x) for x in means]


def _exact_tent(phi: TentFunction, axis: int, j_ref: int, k: int) -> Fraction:
    """Axis ``axis``'s tent at the midpoint of level-j_ref cell k, exactly."""
    c, r = Fraction(phi.centers[axis]), Fraction(phi.radii[axis])
    x = Fraction(2 * k + 1, 2 << j_ref)
    return max(Fraction(0), 1 - abs(x - c) / r)


def _exact_stair_integral(phi, axis, j_ref, lo, hi) -> Fraction:
    """Integral over [lo, hi) of the exact midpoint staircase, cell by cell."""
    side = 1 << j_ref
    c, r = Fraction(phi.centers[axis]), Fraction(phi.radii[axis])
    # the cells beyond those that hold c - r and c + r have value 0
    first = max(math.floor(lo * side), math.floor((c - r) * side))
    total = Fraction(0)
    for k in range(first, min(math.ceil(hi * side), math.ceil((c + r) * side))):
        overlap = min(hi, Fraction(k + 1, side)) - max(lo, Fraction(k, side))
        total += overlap * _exact_tent(phi, axis, j_ref, k)
    return total


def _stair_points(rng, phi, axis, j_ref) -> list[list[Fraction]]:
    """Sorted point lists: odd-denominator intervals anywhere (up to level
    8), a few cells long, inside one cell, around each kink, and outside
    the support."""
    side = 1 << j_ref
    c, r = Fraction(phi.centers[axis]), Fraction(phi.radii[axis])

    def near(k):  # a point inside cell k with an odd denominator
        q = 2 * rng.randrange(1, 500) + 1
        return (k + Fraction(rng.randrange(q), q)) / side

    span, lists = min(40, side // 2), []
    for _ in range(4):
        if j_ref <= 8:
            qs = [2 * rng.randrange(1, 10**6) + 1 for _ in range(3)]
            lists.append(sorted(Fraction(rng.randrange(q + 1), q) for q in qs))
        k = rng.randrange(side - span)
        lists.append(sorted([near(k), near(k + rng.randrange(span)), near(k + span)]))
    k = rng.randrange(side)
    lists.append(sorted([near(k), near(k)]))  # inside one cell
    for kink in (c - r, c, c + r):
        k = math.floor(kink * side)
        lists.append([near(k - 1), near(k), kink, near(k), near(k + 1)])
        lists[-1].sort()
    lists.append([Fraction(0), (c - r) / 2, c - r])  # left of the support
    lists.append([c + r, (c + r + 1) / 2, Fraction(1)])  # right of it
    return lists


@pytest.mark.parametrize("j_ref", [*range(4, 21), 1074])
def test_axis_integrals_are_correctly_rounded(j_ref):
    # the closed form against a Fraction sum of the exact tent values at the
    # midpoints (not the float samples): every integral rounded correctly;
    # below level 52 the last tent has its three kinks on cell midpoints
    rng = random.Random(j_ref)
    on_midpoints = TentFunction((0.5 + 2.0 ** -(j_ref + 1),), (0.25,))
    for phi in (*tents_1d(), *tents_2d(), on_midpoints):
        for axis in range(phi.dimension):
            for points in _stair_points(rng, phi, axis, j_ref):
                pairs = [x.as_integer_ratio() for x in points]
                got = _stair_integrals(phi, axis, j_ref, pairs)
                want = [
                    float(_exact_stair_integral(phi, axis, j_ref, a, b))
                    for a, b in zip(points, points[1:])
                ]
                assert got == want, (phi, axis, points)


# ---------------------------------------------------------------------------
# ladders and renormalizers


def test_aligned_g01_alpha_sequence():
    ladder = build_ladder(uniform1d(), g01_1d(), list(range(2, 9)))
    seq = dict(alpha_sequence(ladder))
    assert ladder.levels[2].degenerate
    assert ladder.levels[2].state is None
    for j in range(3, 9):
        assert abs(seq[j] - 1.0) <= 1e-15
        assert not ladder.levels[j].degenerate


def test_aligned_g02_alpha_sequence():
    ladder = build_ladder(uniform1d(), g02_1d(), list(range(3, 9)))
    assert ladder.levels[3].degenerate
    for j in range(4, 9):
        assert abs(ladder.levels[j].alpha - 1.0) <= 1e-15


def test_aligned_2d_alpha_sequence():
    ladder = build_ladder(uniform2d(), g01_2d(), [3, 4, 5])
    for j in (3, 4, 5):
        assert abs(ladder.levels[j].alpha - 1.0) <= 1e-15


def test_misaligned_alpha_sequence_frozen():
    ladder = misaligned_ladder(list(range(3, 9)))
    seq = alpha_sequence(ladder)
    expected = [0.75, 0.9, 0.9375, 0.975, 0.984375, 0.99375]
    for (j, alpha), want in zip(seq, expected):
        assert abs(alpha - want) < 1e-15, (j, alpha)
    alphas = [a for _, a in seq]
    assert all(a < 1.0 for a in alphas)
    assert all(b > a for a, b in zip(alphas, alphas[1:]))  # increasing to 1


def test_misaligned_2d_alpha_sequence_frozen():
    ladder = misaligned_ladder([3, 4, 5], dimension=2)
    for (j, alpha), want in zip(alpha_sequence(ladder), [0.75, 0.9, 0.9375]):
        assert abs(alpha - want) < 1e-15


def test_misaligned_2d_alpha_is_correctly_rounded():
    # exact values 39/40 and 639/640; a per-cell dot product is 1 ulp above
    ladder = misaligned_ladder([6, 10], dimension=2)
    assert ladder.levels[6].alpha == float(Fraction(39, 40))
    assert ladder.levels[10].alpha == float(Fraction(639, 640))
    # on 6 classes, not 2^20 cells
    assert ladder.levels[10].state.space.n_points == 6


@pytest.mark.parametrize(
    "dimension, j", [*((1, j) for j in range(3, 9)), *((2, j) for j in range(3, 6))]
)
def test_grid_kinds_and_ladder_levels_share_one_projection(dimension, j):
    catalogs = (
        (misaligned_f0_1d(), misaligned_g0_1d())
        if dimension == 1
        else (misaligned_f0_2d(), misaligned_g0_2d())
    )
    cli_state = _catalog_state(*catalogs, j)
    ladder_state = build_ladder(*catalogs, [j]).levels[j].state
    assert cli_state.space == ladder_state.space
    assert cli_state.space.weights.tobytes() == ladder_state.space.weights.tobytes()
    for name in ("alpha", "beta", "f0", "g0"):
        assert getattr(cli_state, name).tobytes() == getattr(ladder_state, name).tobytes()


def test_single_break_catalog_builds():
    ladder = build_ladder(uniform1d(), single_break_g0_1d(), [2, 4, 6])
    alphas = [a for _, a in alpha_sequence(ladder)]
    assert all(a < 1.0 for a in alphas)
    assert alphas[0] < alphas[1] < alphas[2]


def test_renormalized_velocity_is_exactly_unit():
    ladder = misaligned_ladder([3, 5, 7])
    for j, level in ladder.levels.items():
        state = level.state
        weights = state.space.weights  # cell counts times the cell weight
        energy = float(np.dot(state.g0**2 / state.f0, weights))
        assert abs(energy - 1.0) < 1e-13
        # projection preserves mass and mean exactly
        assert abs(np.dot(level.density.values, weights) - 1.0) < 1e-14
        assert abs(np.dot(state.g0, weights)) < 1e-14


def test_alpha_upper_bound_for_uniform_density():
    # Cauchy-Schwarz on cell averages: alpha_j <= 1 when f0 is uniform
    rng = np.random.default_rng(19)
    trials = 0
    while trials < 5:
        cuts = sorted(rng.choice(np.arange(1, 40), size=3, replace=False))
        bounds = [Fraction(0)] + [Fraction(int(c), 40) for c in cuts] + [Fraction(1)]
        vals = rng.integers(-3, 4, size=4)
        rows = [
            (int(v), a, b) for v, a, b in zip(vals, bounds[:-1], bounds[1:])
        ]
        g = BoxFunction.from_rows(1, rows)
        mean = g.integral()
        centered = BoxFunction.from_rows(
            1, [(v - mean, a, b) for v, a, b in rows]
        )
        if square_integral(centered) == 0:
            continue
        ladder = build_ladder(uniform1d(), _unit_energy(centered), [2, 4, 6])
        for _, alpha in alpha_sequence(ladder):
            assert alpha <= 1.0 + 1e-12
        trials += 1


def _unit_energy(g: BoxFunction) -> BoxFunction:
    """Scale a zero-mean catalog to unit energy against the uniform density.

    The square root is irrational in general, so the scale is the float
    root promoted to an exact rational; the residual energy mismatch is a
    couple of ulps, far inside the hypothesis tolerance.
    """
    root = float(square_integral(g)) ** 0.5
    return g.scaled(Fraction(1, 1) / Fraction(root))


def test_hypothesis_violations_are_named():
    with pytest.raises(HypothesisViolation) as info:
        build_ladder(BoxFunction.from_rows(1, [(2, 0, 1)]), g01_1d(), [3])
    assert info.value.condition == "unit-mass"

    with pytest.raises(HypothesisViolation) as info:
        build_ladder(uniform1d(), misaligned_f0_1d(), [3])  # mean is 1
    assert info.value.condition == "zero-mean"

    with pytest.raises(HypothesisViolation) as info:
        build_ladder(misaligned_f0_1d(), misaligned_g0_1d(), [3], delta=1)
    assert info.value.condition == "density-floor"

    with pytest.raises(HypothesisViolation) as info:
        build_ladder(uniform1d(), g01_1d().scaled(Fraction(1, 2)), [3])
    assert info.value.condition == "unit-energy"

    with pytest.raises(HypothesisViolation) as info:
        build_ladder(uniform1d(), g01_2d(), [3])
    assert info.value.condition == "dimension"

    with pytest.raises(HypothesisViolation) as info:
        build_ladder(uniform1d(), g01_1d(), [3], delta=0)
    assert info.value.condition == "delta"


# ---------------------------------------------------------------------------
# weak errors


def test_weak_error_uniform_density_at_t0():
    ladder = build_ladder(uniform1d(), g01_1d(), [3, 4])
    phi = tents_1d()[0]
    for j in (3, 4):
        assert weak_error(ladder, j, 0.0, phi) < 1e-14


def test_weak_error_aligned_any_time():
    # aligned data: the discrete flow is the exact cell average of the
    # continuum flow, so the pairing error is pure rounding
    ladder = build_ladder(uniform1d(), g01_1d(), [3, 5])
    phi = tents_1d()[2]
    for t in (0.0, 0.7, math.pi / 2, math.pi):
        for j in (3, 5):
            assert weak_error(ladder, j, t, phi) < 1e-13


def test_weak_error_decreases_for_misaligned_data():
    ladder = misaligned_ladder([3, 5])
    phi = tents_1d()[0]
    for t in (0.0, math.pi / 2):
        e3 = weak_error(ladder, 3, t, phi, j_ref=9)
        e5 = weak_error(ladder, 5, t, phi, j_ref=9)
        assert e5 < e3


def test_weak_error_guards():
    ladder = build_ladder(uniform1d(), g01_1d(), [2, 3])
    phi = tents_1d()[0]
    with pytest.raises(HypothesisViolation) as info:
        weak_error(ladder, 2, 0.0, phi)  # degenerate level
    assert info.value.condition == "degenerate-level"
    with pytest.raises(ValueError):
        weak_error(ladder, 3, 0.0, phi, j_ref=3)


def test_unknown_level_is_a_value_error():
    ladder = misaligned_ladder([3, 5])
    phi = tents_1d()[0]
    for call in (
        lambda: weak_error(ladder, 4, 0.0, phi),
        lambda: three_term_errors(ladder, 4, phi),
    ):
        with pytest.raises(ValueError, match=r"level 4 .*\[3, 5\]"):
            call()


@pytest.mark.parametrize(
    "make_ladder, phi, j_ref, degenerate_levels",
    [
        (lambda: misaligned_ladder([3, 4, 6]), tents_1d()[4], None, []),
        (lambda: misaligned_ladder([3, 5]), tents_1d()[7], 9, []),
        (lambda: misaligned_ladder([2, 3], 2), tents_2d()[5], None, []),
        (
            lambda: build_ladder(uniform1d(), g01_1d(), [2, 3, 5]),
            tents_1d()[0],
            None,
            [2],
        ),
    ],
    ids=["misaligned-1d", "misaligned-1d-jref", "misaligned-2d", "degenerate-level"],
)
def test_summary_rows_equal_public_calls(make_ladder, phi, j_ref, degenerate_levels):
    # the summary shares one staircase and one set of continuum pairings
    # across levels; every number must still equal the public call exactly
    ladder = make_ladder()
    rows = ladder_summary_rows(ladder, phi, j_ref)
    assert [row["j"] for row in rows] == sorted(ladder.levels)
    assert [row["j"] for row in rows if row["degenerate"]] == degenerate_levels
    for row in rows:
        j = row["j"]
        assert (row["e_f"], row["e_g"], row["e_q"]) == three_term_errors(
            ladder, j, phi, j_ref
        )
        if row["degenerate"]:
            assert row["weak_error_t0"] is None and row["weak_error_tpi2"] is None
            continue
        assert row["weak_error_t0"] == weak_error(ladder, j, 0.0, phi, j_ref)
        assert row["weak_error_tpi2"] == weak_error(
            ladder, j, math.pi / 2.0, phi, j_ref
        )


def test_three_term_errors():
    ladder = misaligned_ladder([3, 5])
    phi = tents_1d()[1]
    e3 = three_term_errors(ladder, 3, phi, j_ref=9)
    e5 = three_term_errors(ladder, 5, phi, j_ref=9)
    assert all(e > 0 for e in e3)
    for a, b in zip(e5, e3):
        assert a < b

    aligned = build_ladder(uniform1d(), g01_1d(), [2, 4])
    e_f, e_g, e_q = three_term_errors(aligned, 2, phi)
    assert e_f < 1e-14  # projection of the uniform density is exact
    assert e_g is None and e_q is None  # degenerate level
    e_f, e_g, e_q = three_term_errors(aligned, 4, phi)
    assert e_f < 1e-14 and e_g < 1e-13 and e_q < 1e-13


def _seeded_pair(seed: int, boxes: int = 16):
    """A 1-D pair with non-dyadic breaks, built as the ``ladder`` benchmark's."""
    rng = random.Random(seed)
    edges = [Fraction(0)]
    for i in range(1, boxes):
        q = rng.choice((3, 5, 7, 9, 11, 13))
        k = rng.choice([k for k in range(-(q // 2), q // 2 + 1) if k])
        edges.append(Fraction(i, boxes) + Fraction(k, 2 * boxes * q))
    edges.append(Fraction(1))
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    f = [Fraction(rng.randint(14, 18), 16) for _ in lengths]
    mass = sum(v * h for v, h in zip(f, lengths))
    f = [v / mass for v in f]
    w = [
        Fraction(2 * i, boxes - 1) - 1 + Fraction(rng.randint(-2, 2), 64)
        for i in range(boxes)
    ]
    mean = sum(wi * v * h for wi, v, h in zip(w, f, lengths))
    g = [(wi - mean) * v for wi, v in zip(w, f)]
    f0 = BoxFunction.from_rows(1, list(zip(f, edges, edges[1:])))
    g0 = BoxFunction.from_rows(1, list(zip(g, edges, edges[1:])))
    energy = sum(
        (r.g_value**2 / r.f_value * r.volume for r in overlay(f0, g0)), Fraction(0)
    )
    digits = 10**30
    scale = Fraction(
        math.isqrt(energy.denominator * digits**2 // energy.numerator), digits
    )
    return f0, g0.scaled(scale)


def _axis_stairs(phi: TentFunction, j_ref: int) -> list[np.ndarray]:
    """phi's per-axis float staircases, each the phi_staircase of one tent."""
    return [
        phi_staircase(TentFunction((c,), (r,)), 1, j_ref)
        for c, r in zip(phi.centers, phi.radii)
    ]


def _exact_axis_pairing(lo, hi, stair, side) -> Fraction:
    """Exact integral over [lo, hi) of a 1-D staircase with float values."""
    total = Fraction(0)
    for k in range(math.floor(lo * side), math.ceil(hi * side)):
        if stair[k]:
            overlap = min(hi, Fraction(k + 1, side)) - max(lo, Fraction(k, side))
            total += overlap * Fraction(float(stair[k]))
    return total


@pytest.mark.parametrize(
    "make_ladder, phis, j_ref",
    [
        (lambda: misaligned_ladder([3, 10]), tents_1d(), 14),
        (lambda: build_ladder(*_seeded_pair(1), [3, 9]), tents_1d(), 13),
        (lambda: misaligned_ladder([3, 4], 2), tents_2d(), 8),
    ],
    ids=["misaligned-1d-jref14", "seeded-16-boxes", "misaligned-2d-jref8"],
)
def test_continuum_pairings_match_exact_reference(make_ladder, phis, j_ref):
    # reference: the float staircase and float region values taken as exact
    # rationals, paired with exact overlaps per axis and multiplied; the
    # pairings are O(1), so 2e-16 is a few ulp
    ladder = make_ladder()
    values = [
        *_block_values(ladder.regions),
        *(region_flow_values(ladder.regions, t) for t in (0.0, 0.7, math.pi / 2)),
    ]
    side = 1 << j_ref
    for phi in phis:
        _, weights = _separable_phi(ladder, phi, j_ref)
        stairs = _axis_stairs(phi, j_ref)
        exact_weights = [
            math.prod(
                _exact_axis_pairing(lo, hi, stair, side)
                for lo, hi, stair in zip(r.lo, r.hi, stairs)
            )
            for r in ladder.regions
        ]
        for v in values:
            got = _pairing(v, weights)
            want = sum(Fraction(float(x)) * w for x, w in zip(v, exact_weights))
            assert abs(Fraction(got) - want) <= 2e-16, (phi, float(want), got)


def test_ladder_summary_memory_follows_deepest_level():
    # the summary holds no array that grows with 2^j or j_ref: at 2-D levels
    # 3-30 (j_ref = 34) it adds a few per-class arrays to the ladder
    ladder = misaligned_ladder(list(range(3, 31)), dimension=2)
    tracemalloc.start()
    try:
        rows = ladder_summary_rows(ladder, tents_2d()[4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 28
    assert peak < 2**20


def test_continuum_cell_averages_conserve_mass():
    ladder = misaligned_ladder([3])
    grid = DyadicGrid(1, 7)
    for t in (0.0, 1.0, math.pi / 2):
        avg = continuum_cell_averages(ladder, t, 7)
        assert abs(float(np.dot(avg, grid.weights)) - 1.0) < 1e-12


def test_region_flow_middle_third_vanishes_at_quarter_period():
    # |g0| = f0 on every region, so beta = +-pi/4 and the middle third
    # (negative sign) is pinched to zero at t = pi/2
    ladder = misaligned_ladder([3])
    vals = region_flow_values(ladder.regions, math.pi / 2)
    assert abs(vals[1]) < 1e-15
    assert abs(vals[0] - 1.5) < 1e-14
    vals0 = region_flow_values(ladder.regions, 0.0)
    assert np.allclose(vals0, [0.75, 1.5, 0.75], atol=1e-14)


# ---------------------------------------------------------------------------
# export


def test_write_ladder_csv(tmp_path):
    ladder = build_ladder(uniform1d(), g01_1d(), [2, 3])
    phi = tents_1d()[0]
    path = tmp_path / "ladder.csv"
    write_ladder_csv(path, ladder, phi)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "j",
        "alpha_j",
        "degenerate",
        "e_f",
        "e_g",
        "e_q",
        "weak_error_t0",
        "weak_error_tpi2",
    ]
    assert rows[1][0] == "2" and rows[1][2] == "true"
    assert rows[1][4] == "" and rows[1][6] == ""  # degenerate: no e_g, no w0
    assert rows[2][0] == "3" and rows[2][2] == "false"
    assert float(rows[2][1]) == 1.0


# ---------------------------------------------------------------------------
# class states against per-cell references


def _per_cell_rows(ladder, phi, j_ref):
    """Summary rows computed cell by cell: per-cell projection and
    normalisation, phi's block means on every cell, np.dot pairings."""
    j_ref, weights = _separable_phi(ladder, phi, j_ref)
    stairs = _axis_stairs(phi, j_ref)
    times = (0.0, math.pi / 2.0)
    flows = [region_flow_values(ladder.regions, t) for t in times]
    cont = [_pairing(v, weights) for v in (*_block_values(ladder.regions), *flows)]
    rows = []
    for j in sorted(ladder.levels):
        grid = DyadicGrid(ladder.dimension, j)
        ratio = 1 << (j_ref - j)
        phi_j = stairs[0].reshape(-1, ratio).mean(axis=1)
        for s in stairs[1:]:
            phi_j = np.multiply.outer(phi_j, s.reshape(-1, ratio).mean(axis=1))
        phi_j = phi_j.reshape(-1)

        def pairing(v):
            return float(np.dot(v * phi_j, grid.weights))

        f = FiniteDensity(grid, ladder.f0.cell_averages(grid))
        g = ladder.g0.cell_averages(grid)
        alpha = velocity_energy(f, g)
        row = [j, alpha, abs(pairing(f.values) - cont[0])]
        if ladder.levels[j].degenerate:
            rows.append(row + [None] * 4)
            continue
        g_unit = normalize_velocity(f, SignedFunction(grid, g)).g.values
        row += [
            abs(pairing(g_unit) - cont[1]),
            abs(pairing(g_unit**2 / f.values) - cont[2]),
        ]
        alpha_x = (f.values**2 + g_unit**2) / f.values
        beta_x = np.arctan(g_unit / f.values)
        for t, c in zip(times, cont[3:]):
            row.append(abs(pairing(alpha_x * np.cos(t / 2.0 - beta_x) ** 2) - c))
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "make_ladder, phi, j_ref",
    [
        (lambda: misaligned_ladder(list(range(3, 11))), tents_1d()[3], None),
        (lambda: misaligned_ladder(list(range(2, 7)), 2), tents_2d()[4], None),
        (lambda: build_ladder(*_seeded_pair(2), [3, 6, 9]), tents_1d()[9], 12),
        (lambda: build_ladder(uniform1d(), g01_1d(), [2, 3, 5]), tents_1d()[0], None),
    ],
    ids=["misaligned-1d", "misaligned-2d", "seeded-16-boxes", "degenerate-level"],
)
def test_class_rows_match_per_cell_reference(make_ladder, phi, j_ref):
    # alpha_j is a correctly rounded sum, so it is the per-cell value bit for
    # bit; the pairings regroup O(1) sums, so they agree to 1e-15 absolute
    ladder = make_ladder()
    reference = _per_cell_rows(ladder, phi, j_ref)
    for row, want in zip(ladder_summary_rows(ladder, phi, j_ref), reference):
        got = [row[k] for k in LADDER_FIELDS if k != "degenerate"]
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:]):
            assert (a is None) == (b is None)
            if a is not None:
                assert abs(a - b) <= 1e-15, (row["j"], a, b)
