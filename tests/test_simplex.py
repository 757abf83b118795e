"""Fisher information on the open simplex: matrices, score, Christoffel,
residuals and arc lengths."""

from __future__ import annotations

import math

import numpy as np
import pytest

from frgeo import (
    SimplexPoint,
    TangentVector,
    ellipsoid_tangent,
    metric_inner,
)
from conftest import random_interior_point, random_unit_tangent
from oracles import (
    InvalidAtom,
    christoffel,
    euclidean_length,
    fisher_inverse,
    fisher_length,
    fisher_matrix,
    geodesic_residual_coupled,
    geodesic_residual_decoupled,
    rank_one_diag_det,
    rank_one_diag_inverse,
    score,
    score_covariance,
)

BARY = SimplexPoint(np.array([1 / 3, 1 / 3]))


def test_simplex_point_basics():
    p = SimplexPoint(np.array([0.2, 0.3]))
    assert p.n == 2
    assert abs(p.theta_last - 0.5) < 1e-15
    assert np.allclose(p.full, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, 0.5]))  # boundary: theta_3 = 0
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, -0.1]))
    with pytest.raises(ValueError, match="boundary"):
        SimplexPoint(np.array([0.2, np.nan]))


def test_tangent_vector_dependent_component():
    v = TangentVector(np.array([0.25, -0.1]))
    assert abs(v.v_last + 0.15) < 1e-15
    assert abs(v.full.sum()) < 1e-15


def test_fisher_matrix_frozen_values():
    assert np.allclose(fisher_matrix(BARY), [[6.0, 3.0], [3.0, 6.0]], atol=1e-13)
    p1 = SimplexPoint(np.array([0.5]))
    assert np.allclose(fisher_matrix(p1), [[4.0]], atol=1e-15)


def test_fisher_inverse_frozen_values():
    expected = np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
    assert np.allclose(fisher_inverse(BARY), expected, atol=1e-15)
    p1 = SimplexPoint(np.array([0.5]))
    assert np.allclose(fisher_inverse(p1), [[0.25]], atol=1e-15)


def test_fisher_inverse_property_loop():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        p = random_interior_point(rng, n)
        prod = fisher_matrix(p) @ fisher_inverse(p)
        assert np.max(np.abs(prod - np.eye(n))) < 1e-10


def test_rank_one_diag_det_frozen():
    assert rank_one_diag_det(np.array([1.0, 1.0])) == 3.0
    assert rank_one_diag_det(np.array([1.0, 2.0, 3.0])) == 17.0
    assert rank_one_diag_det(np.array([5.0])) == 6.0
    # zero entries are fine: no division happens
    assert rank_one_diag_det(np.array([0.0, 2.0])) == 2.0
    assert rank_one_diag_det(np.array([0.0, 0.0])) == 0.0


def test_rank_one_diag_det_vs_lu():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        c = np.exp(rng.uniform(-2.0, 2.0, size=n))
        lemma = rank_one_diag_det(c)
        lu = float(np.linalg.det(np.ones((n, n)) + np.diag(c)))
        assert abs(lemma - lu) <= 1e-10 * max(abs(lemma), abs(lu))


def test_rank_one_diag_inverse_frozen():
    inv = rank_one_diag_inverse(np.array([1.0, 1.0]))
    assert np.allclose(inv, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-15)
    assert np.allclose(rank_one_diag_inverse(np.array([5.0])), [[1 / 6]], atol=1e-15)
    with pytest.raises(ZeroDivisionError):
        rank_one_diag_inverse(np.array([0.0, 0.0]))


def test_rank_one_diag_inverse_vs_solver():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        c = np.exp(rng.uniform(-1.5, 1.5, size=n))
        m = np.ones((n, n)) + np.diag(c)
        assert np.max(np.abs(m @ rank_one_diag_inverse(c) - np.eye(n))) < 1e-10


def test_metric_inner_matches_matrix_form():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        p = random_interior_point(rng, n)
        u = TangentVector(rng.standard_normal(n))
        w = TangentVector(rng.standard_normal(n))
        expanded = metric_inner(p, u, w)
        matrix = float(u.v @ fisher_matrix(p) @ w.v)
        assert abs(expanded - matrix) < 1e-11 * max(1.0, abs(matrix))


def test_metric_inner_frozen():
    r = math.sqrt(2.0) / 6.0
    w = TangentVector(np.array([r, r]))
    assert abs(metric_inner(BARY, w, w) - 1.0) < 1e-14
    ones = TangentVector(np.array([1.0, 1.0]))
    assert abs(metric_inner(BARY, ones, ones) - 18.0) < 1e-12


def test_score_frozen_and_errors():
    assert np.allclose(score(1, BARY), [3.0, 0.0], atol=1e-15)
    assert np.allclose(score(3, BARY), [-3.0, -3.0], atol=1e-13)
    with pytest.raises(InvalidAtom):
        score(0, BARY)
    with pytest.raises(InvalidAtom):
        score(4, BARY)


def test_score_mean_zero():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        p = random_interior_point(rng, n)
        mean = sum(p.full[l - 1] * score(l, p) for l in range(1, n + 2))
        assert np.max(np.abs(mean)) < 1e-13


def test_score_covariance_is_fisher_matrix():
    assert np.allclose(score_covariance(BARY), [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)
    p1 = SimplexPoint(np.array([0.5]))
    assert np.allclose(score_covariance(p1), [[4.0]], atol=1e-13)
    rng = np.random.default_rng(43)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        p = random_interior_point(rng, n)
        diff = score_covariance(p) - fisher_matrix(p)
        assert np.max(np.abs(diff)) < 1e-12 * np.max(np.abs(fisher_matrix(p)))


def test_christoffel_frozen_values():
    gamma = christoffel(BARY)
    assert abs(gamma[0, 0, 0] + 0.5) < 1e-14
    assert abs(gamma[0, 0, 1] - 0.5) < 1e-14
    assert abs(gamma[0, 1, 1] - 1.0) < 1e-14
    # symmetry in the lower indices
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-15


def test_christoffel_size_limit():
    rng = np.random.default_rng(3)
    p = random_interior_point(rng, 65)
    with pytest.raises(ValueError):
        christoffel(p)


def test_coupled_residual_matches_christoffel_contraction():
    # residual_k = 2 a_k + 2 Gamma^k_ij v_i v_j, so both must agree
    rng = np.random.default_rng(59)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        p = random_interior_point(rng, n)
        v = TangentVector(rng.standard_normal(n))
        a = rng.standard_normal(n)
        gamma = christoffel(p)
        expected = 2.0 * a + 2.0 * np.einsum("kij,i,j->k", gamma, v.v, v.v)
        got = geodesic_residual_coupled(p, v, a)
        assert np.max(np.abs(got - expected)) < 1e-10


def test_decoupled_residual_frozen():
    assert geodesic_residual_decoupled(1.0, 0.0, -0.5) == 0.0
    assert geodesic_residual_decoupled(1.0, 1.0, 0.0) == 0.0
    assert geodesic_residual_decoupled(1.0, 0.0, 0.0) == 1.0


def _segment_samples(p0, direction, length, n_samples):
    dt = length / (n_samples - 1)
    v = TangentVector(direction)
    pts = []
    for k in range(n_samples):
        theta = p0.theta + k * dt * direction
        pts.append((SimplexPoint(theta), v))
    return pts, dt


def test_euclidean_length_frozen_segment():
    p0 = SimplexPoint(np.array([0.4, 0.3]))
    samples, dt = _segment_samples(p0, np.array([1.0, -1.0]), 0.1, 11)
    # velocity (1,-1,0) in full coordinates has norm sqrt(2)
    assert abs(euclidean_length(samples, dt) - 0.1 * math.sqrt(2.0)) < 1e-14


def test_length_domination():
    rng = np.random.default_rng(83)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        p0 = random_interior_point(rng, n)
        direction = rng.standard_normal(n) * 0.05
        samples, dt = _segment_samples(p0, direction, 0.02, 9)
        le = euclidean_length(samples, dt)
        lf = fisher_length(samples, dt)
        assert le <= lf + 1e-12
        delta = min(min(p.full.min() for p, _ in samples), 1.0)
        assert lf <= delta**-0.5 * math.sqrt(n + 1) * le + 1e-12


def test_fisher_length_of_unit_speed_curve():
    # along a unit-speed geodesic the integrand is exactly one, so the
    # trapezoid sum returns the time span to rounding
    from frgeo import simplex_flow_samples

    rng = np.random.default_rng(97)
    p0 = random_interior_point(rng, 3)
    v0 = random_unit_tangent(rng, p0)
    t_end = 0.8
    times = np.linspace(0.0, t_end, 501)
    y, ydot = simplex_flow_samples(p0, v0, times)
    samples = [
        (SimplexPoint(y[s, :-1]), TangentVector(ydot[s, :-1]))
        for s in range(times.size)
    ]
    dt = t_end / (times.size - 1)
    assert abs(fisher_length(samples, dt) - t_end) < 1e-10
