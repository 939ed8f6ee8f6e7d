"""Tests for the max-margin solver, its KKT certificates, and the
closed-form failure bound."""

import itertools
import time

import numpy as np
import pytest

from reprogram_lab.data_models import generate_orthosep
from reprogram_lab.errors import ConfigError
from reprogram_lab.maxmargin import (
    KKT_TOL,
    MarginSolution,
    failure_probability_bound,
    kkt_residuals,
    max_margin_vector,
)
from reprogram_lab.numerics import SeededRng
from reprogram_lab.verify import _BASE_PROPOSITION, four_point_dataset


def brute_force_margin(points):
    """Independent oracle: enumerate active sets of the primal QP.

    For every subset of constraints, solve the equality-constrained
    problem, keep candidates whose multipliers are nonnegative and whose
    vector is feasible, and return the lowest objective value.
    """
    x = np.atleast_2d(points)
    n = x.shape[0]
    best = None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = x[list(subset)]
            gram = sub @ sub.T
            try:
                lam = np.linalg.solve(gram, np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-10):
                continue
            v = sub.T @ lam
            if np.all(x @ v >= 1.0 - 1e-9):
                value = 0.5 * float(v @ v)
                if best is None or value < best[0] - 1e-12:
                    best = (value, v)
    return best


def ill_conditioned_instance(seed, cond, n=10, d=20):
    """n points in d dimensions as U diag(s) Vᵀ with orthonormal U, V and
    singular values s log-spaced from 1 down to 1 / cond."""
    rng = SeededRng(seed, 0)
    u, _ = np.linalg.qr(rng.gaussian(n * n).reshape(n, n))
    v, _ = np.linalg.qr(rng.gaussian(d * n).reshape(d, n))
    return u @ np.diag(np.logspace(0.0, -np.log10(cond), n)) @ v.T


def feasible_instance(rng, max_n=6, max_d=4):
    """Random one-class instance guaranteed feasible: every point has a
    positive inner product with a common direction."""
    n = 1 + int(rng.uniform64(1)[0] % max_n)
    d = 1 + int(rng.uniform64(1)[0] % max_d)
    direction = rng.gaussian(d)
    direction /= np.linalg.norm(direction)
    points = np.empty((n, d))
    for i in range(n):
        g = rng.gaussian(d)
        g -= (g @ direction) * direction
        points[i] = direction * (0.5 + rng.random(1)[0]) + 0.7 * g
    return points


class TestMaxMarginVector:
    def test_single_point(self):
        sol = max_margin_vector(np.array([[2.0, 0.0]]))
        np.testing.assert_allclose(sol.vector, [0.5, 0.0], atol=1e-9)
        np.testing.assert_allclose(sol.multipliers, [0.25], atol=1e-9)

    def test_symmetric_pair_both_active(self):
        sol = max_margin_vector(np.array([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(sol.vector, [1.0, 0.0], atol=1e-8)
        margins = np.array([[1.0, 1.0], [1.0, -1.0]]) @ sol.vector
        np.testing.assert_allclose(margins, [1.0, 1.0], atol=1e-8)

    def test_matches_brute_force_enumeration(self):
        rng = SeededRng(50, 0)
        for _ in range(40):
            points = feasible_instance(rng)
            sol = max_margin_vector(points)
            oracle = brute_force_margin(points)
            assert oracle is not None
            assert 0.5 * sol.vector @ sol.vector == pytest.approx(oracle[0], abs=1e-6)

    def test_scale_covariance(self):
        points = feasible_instance(SeededRng(52, 0))
        base = max_margin_vector(points).vector
        scaled = max_margin_vector(4.0 * points).vector
        np.testing.assert_allclose(scaled, base / 4.0, atol=1e-7)

    def test_positive_cone_membership_on_orthosep_class(self):
        data = generate_orthosep(5, 6, 3, SeededRng(53, 0))
        positives = data.points[data.labels > 0]
        sol = max_margin_vector(positives)
        # stationarity with nonnegative multipliers puts v in the cone of
        # the class points
        assert np.all(positives @ sol.vector >= 1.0 - 1e-8)
        np.testing.assert_allclose(sol.vector, positives.T @ sol.multipliers, atol=1e-10)

    def test_infeasible_instance_detected(self):
        for points in (
            [[1.0], [-1.0]],
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
            [[1.0, 1.0], [-2.0, -2.0]],
        ):
            with pytest.raises(ConfigError, match="^the origin is a convex combination"):
                max_margin_vector(np.array(points))

    @pytest.mark.parametrize("cond", [1e3, 3e3, 1e4])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_ill_conditioned_instance(self, seed, cond):
        # the largest multipliers here reach 1e7, so the certificate holds
        # only because its residuals are relative to the multipliers' scale
        points = ill_conditioned_instance(seed, cond)
        started = time.perf_counter()
        sol = max_margin_vector(points)
        assert time.perf_counter() - started < 0.1
        feasibility, _, _ = kkt_residuals(sol, points)
        assert feasibility <= 1e-9
        assert sol.kkt_residual <= KKT_TOL
        oracle = brute_force_margin(points)
        assert 0.5 * sol.vector @ sol.vector == pytest.approx(oracle[0], rel=1e-9)
        stretched = sol.vector * (1.0 + 1e-6)
        off = MarginSolution(stretched, sol.multipliers, 0.0)
        assert max(kkt_residuals(off, points)) > KKT_TOL


def suite_instances():
    """Each class of the four-point set and of the proposition's dataset
    (d = 64, four points a class) at five seeds."""
    datasets = [four_point_dataset()] + [
        generate_orthosep(64, 4, 4, SeededRng(seed, _BASE_PROPOSITION))
        for seed in (97531, 8191, 1, 2, 3)
    ]
    return [data.points[data.labels * sign > 0] for data in datasets for sign in (1, -1)]


class TestKktResiduals:
    def test_optimal_solution_has_tiny_residuals(self):
        for points in (np.array([[2.0, 0.0]]), *suite_instances()):
            sol = max_margin_vector(points)
            feas, stat, comp = kkt_residuals(sol, points)
            assert feas <= 1e-10 and stat <= 1e-10 and comp <= 1e-10
            assert sol.kkt_residual <= KKT_TOL

    def test_zero_vector_feasibility_is_one(self):
        points = feasible_instance(SeededRng(54, 0))
        n = points.shape[0]
        sol = MarginSolution(
            vector=np.zeros(points.shape[1]),
            multipliers=np.zeros(n),
            kkt_residual=1.0,
        )
        feas, _, _ = kkt_residuals(sol, points)
        assert feas == 1.0

    def test_perturbed_multiplier_on_inactive_constraint(self):
        # one strictly interior constraint: (3, 0) is inactive for the
        # solution driven by (1, 0)
        points = np.array([[1.0, 0.0], [3.0, 0.0]])
        sol = max_margin_vector(points)
        slack = float(points[1] @ sol.vector - 1.0)
        assert slack > 0.1
        bumped = MarginSolution(
            vector=sol.vector,
            multipliers=sol.multipliers + np.array([0.0, 0.1]),
            kkt_residual=sol.kkt_residual,
        )
        _, _, comp = kkt_residuals(bumped, points)
        # complementarity is relative to max(1, sum of the multipliers)
        assert comp == pytest.approx(0.1 * slack / max(1.0, float(np.sum(bumped.multipliers))))


class TestFailureProbabilityBound:
    def test_frozen_value(self):
        v_pos = np.array([1.0, 0.0])
        v_neg = np.array([-1.0, 0.0])
        phi = np.array([-1.0, 0.0])
        bound = failure_probability_bound(v_pos, v_neg, phi, d=100, tau=0.1, m=1)
        assert bound == pytest.approx(0.5676676416183064, abs=1e-12)

    def test_limit_large_exponent(self):
        v_pos, v_neg = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        phi = np.array([-1.0, 0.0])
        bound = failure_probability_bound(v_pos, v_neg, phi, d=10**7, tau=0.5, m=1)
        assert bound == pytest.approx(0.5, abs=1e-12)

    def test_limit_vanishing_bias(self):
        v_pos, v_neg = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        phi = np.array([-1.0, 0.0])
        bound = failure_probability_bound(v_pos, v_neg, phi, d=100, tau=1e-12, m=1)
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_hypothesis_enforced(self):
        v_pos, v_neg = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        aligned = np.array([1.0, 0.0])
        with pytest.raises(ConfigError, match="must be negative"):
            failure_probability_bound(v_pos, v_neg, aligned, d=100, tau=0.1, m=1)
        # the opposite mapping satisfies the hypothesis for the same phi
        assert failure_probability_bound(v_pos, v_neg, aligned, d=100, tau=0.1, m=-1) < 1.0
