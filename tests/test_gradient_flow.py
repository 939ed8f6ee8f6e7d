"""Tests for loss functions, balanced live initialisation, Euler training,
and the directional-convergence diagnostics."""

import math

import numpy as np
import pytest

from reprogram_lab.data_models import LabeledDataset, generate_orthosep
from reprogram_lab.errors import NonFiniteLoss
from reprogram_lab.gradient_flow import (
    balanced_live_init,
    convergence_report,
    loss_value_and_derivative,
    train,
    train_to_crossing,
    trajectory_to_csv,
)
from reprogram_lab.maxmargin import max_margin_vector
from reprogram_lab.network import TwoLayerNet, forward
from reprogram_lab.numerics import SeededRng

FOUR_POINTS = LabeledDataset(
    points=np.array([[1.0, 0.1], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.1]]),
    labels=np.array([1.0, 1.0, -1.0, -1.0]),
)


class TestLossFunctions:
    def test_exponential_at_zero(self):
        assert loss_value_and_derivative("exponential", 0.0) == (1.0, -1.0)

    def test_logistic_at_zero(self):
        # l(0) is the trainers' crossing threshold, so it must be ln 2 exactly
        value, slope = loss_value_and_derivative("logistic", 0.0)
        assert value == math.log(2.0)
        assert slope == -0.5

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_derivative_dominated_by_value(self, kind):
        grid = np.arange(-20.0, 20.0 + 1e-9, 0.1)
        values, slopes = loss_value_and_derivative(kind, grid)
        assert np.all(np.abs(slopes) <= values + 1e-15)

    def test_logistic_stable_for_extreme_margins(self):
        values, slopes = loss_value_and_derivative("logistic", np.array([-800.0, 800.0]))
        assert values[0] == pytest.approx(800.0, rel=1e-12)
        assert slopes[0] == -1.0
        assert values[1] == 0.0 and slopes[1] == 0.0

    def test_margin_zero_loss_values(self):
        # l(0) at a zero margin is the trainers' crossing threshold
        assert loss_value_and_derivative("exponential", 0.0)[0] == 1.0
        assert loss_value_and_derivative("logistic", 0.0)[0] == math.log(2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            loss_value_and_derivative("hinge", 0.0)

    def test_logistic_matches_four_exp_formula_bitwise(self):
        # the logistic branch evaluates exp(-|u|) once; this is the
        # formula with the exponential written out at each use
        edges = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]
        u = np.concatenate([edges, np.linspace(-60.0, 60.0, 1201)])
        value, slope = loss_value_and_derivative("logistic", u)
        ref_value = np.where(
            u >= 0.0,
            np.log1p(np.exp(-np.abs(u))),
            -u + np.log1p(np.exp(-np.abs(u))),
        )
        ref_slope = np.where(
            u >= 0.0,
            -np.exp(-np.abs(u)) / (1.0 + np.exp(-np.abs(u))),
            -1.0 / (1.0 + np.exp(-np.abs(u))),
        )
        assert value.tobytes() == ref_value.tobytes()
        assert slope.tobytes() == ref_slope.tobytes()


class TestBalancedLiveInit:
    def test_balance_is_exact(self):
        theta = balanced_live_init(FOUR_POINTS, k=6, scale=0.7, rng=SeededRng(20, 0))
        norms = np.linalg.norm(theta.weights, axis=1)
        np.testing.assert_allclose(norms, np.abs(theta.outputs), atol=1e-12)
        np.testing.assert_allclose(norms, 0.7, atol=1e-12)

    def test_liveness_holds(self):
        theta = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(21, 0))
        active = FOUR_POINTS.points @ theta.weights.T > 0
        for s in (1.0, -1.0):
            rows = FOUR_POINTS.labels == s
            cols = np.sign(theta.outputs) == s
            assert np.any(active[rows][:, cols])

    def test_antipodal_dataset_always_initialises(self):
        data = LabeledDataset(
            points=np.array([[1.0, 0.0], [-1.0, 0.0]]), labels=np.array([1.0, -1.0])
        )
        for seed in range(100):
            theta = balanced_live_init(data, k=2, scale=0.5, rng=SeededRng(22, seed))
            assert theta.weights.shape == (2, 2)

    def test_single_label_dataset_rejected(self):
        data = LabeledDataset(points=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        with pytest.raises(ValueError):
            balanced_live_init(data, k=2, scale=0.5, rng=SeededRng(23, 0))


class TestTrain:
    def test_zero_steps_echoes_initial_state(self):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(24, 0))
        report = train(theta0, FOUR_POINTS, "exponential", 1e-3, max_steps=0)
        assert report.steps_run == 0
        np.testing.assert_array_equal(report.final_theta.weights, theta0.weights)
        np.testing.assert_array_equal(report.final_theta.outputs, theta0.outputs)
        assert report.loss_curve == [report.final_loss]

    def test_input_theta_not_mutated(self):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(25, 0))
        snapshot = theta0.weights.copy()
        train(theta0, FOUR_POINTS, "logistic", 1e-3, 100)
        np.testing.assert_array_equal(theta0.weights, snapshot)

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_loss_nonincreasing_within_discretisation_slack(self, kind):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(26, 0))
        report = train(theta0, FOUR_POINTS, kind, 1e-3, max_steps=2000, record_every=1)
        increases = np.diff(report.loss_curve)
        # per-step slack eta^2 G^2 with G << 10 on this dataset
        assert np.max(increases, initial=0.0) <= 1e-4
        assert np.all(np.array(report.loss_curve) > 0.0)

    def test_crossing_recorded_on_four_points(self):
        for seed in range(5):
            theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(27, seed))
            report = train(
                theta0, FOUR_POINTS, "exponential", 1e-3, 1_000_000,
                stop_loss=math.nextafter(1.0, 0.0), record_every=10_000,
            )
            assert report.crossed_margin_loss_at is not None
            assert report.final_loss < 1.0
            assert report.min_margin_curve[-1] > 0.0

    def test_balance_and_signs_preserved(self):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(28, 0))
        report = train(theta0, FOUR_POINTS, "exponential", 1e-3, 50_000, record_every=500)
        assert not report.sign_flip_detected
        max_loss = max(report.loss_curve)
        assert max(report.balance_residual_curve) <= 10.0 * 1e-3 * max_loss

    def test_gradient_matches_finite_differences(self):
        # five random differentiable points; the dedicated acceptance
        # criterion repeats this at twenty
        assert count_gradient_mismatches(points=5, seed=29) == 0

    def test_non_finite_loss_raises(self):
        # contradictory labels keep some margin negative forever, so a
        # huge step must blow the exponential loss up rather than stop
        clash = LabeledDataset(
            points=np.array([[1.0, 0.0], [1.0, 0.0]]), labels=np.array([1.0, -1.0])
        )
        theta0 = balanced_live_init(clash, k=4, scale=0.5, rng=SeededRng(30, 0))
        with pytest.raises(NonFiniteLoss):
            train(theta0, clash, "exponential", 1e6, 10_000)

    def test_non_finite_weights_raise(self):
        # one step of 1e308 sends a neuron's weights to inf while the
        # neuron is dead on every point, so the loss stays finite (1.0)
        rng = SeededRng(5, 27)
        data = LabeledDataset(rng.gaussian(4).reshape(2, 2), np.array([1.0, -1.0]))
        theta0 = TwoLayerNet(rng.gaussian(4).reshape(2, 2), rng.gaussian(2))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss, match="weights"):
            train(theta0, data, "exponential", 1e308, 50)

    def test_trained_sign_is_scale_invariant(self):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(31, 0))
        report = train(theta0, FOUR_POINTS, "logistic", 1e-3, 5000)
        theta = report.final_theta
        xs = SeededRng(31, 1).gaussian(20).reshape(10, 2)
        for alpha in (0.25, 3.0):
            scaled = TwoLayerNet(alpha * theta.weights, alpha * theta.outputs)
            for x in xs:
                assert np.sign(forward(scaled, x)) == np.sign(forward(theta, x))


def reference_euler(theta, dataset, kind, step_size, steps):
    """The Euler step of train written out per run, without the kernel."""
    w, a = theta.weights.copy(), theta.outputs.copy()
    xs, ys = dataset.points, dataset.labels
    for _ in range(steps):
        pre = xs @ w.T
        active = pre > 0.0
        margins = ys * (np.where(active, pre, 0.0) @ a)
        _, slopes = loss_value_and_derivative(kind, margins)
        coeff = slopes * ys
        grad_a = np.where(active, pre, 0.0).T @ coeff
        grad_w = a[:, None] * ((active * coeff[:, None]).T @ xs)
        w -= step_size * grad_w
        a -= step_size * grad_a
    return w, a


@pytest.mark.parametrize("kind", ["exponential", "logistic"])
def test_train_matches_reference_euler_bitwise(kind):
    for seed in range(3):
        data = generate_orthosep(3, 3, 2, SeededRng(33, seed))
        theta0 = balanced_live_init(data, k=5, scale=0.5, rng=SeededRng(34, seed))
        report = train(theta0, data, kind, 1e-2, 500)
        w, a = reference_euler(theta0, data, kind, 1e-2, 500)
        assert report.final_theta.weights.tobytes() == w.tobytes()
        assert report.final_theta.outputs.tobytes() == a.tobytes()


def crossing_runs(seed, count):
    datasets = [generate_orthosep(2, 2, 2, SeededRng(seed, 2 * i)) for i in range(count)]
    thetas = [
        balanced_live_init(data, k=4, scale=0.5, rng=SeededRng(seed, 2 * i + 1))
        for i, data in enumerate(datasets)
    ]
    return thetas, datasets


def train_each_to_crossing(thetas, datasets, kind, step_size, max_steps):
    """The per-run reference: train stopped just below the margin-zero loss."""
    stop_loss = math.nextafter(loss_value_and_derivative(kind, 0.0)[0], 0.0)
    reports = [
        train(theta, data, kind, step_size, max_steps, stop_loss, record_every=max_steps + 1)
        for theta, data in zip(thetas, datasets)
    ]
    return (
        [r.crossed_margin_loss_at for r in reports],
        np.array([r.min_margin_curve[-1] for r in reports]),
    )


class TestTrainToCrossing:
    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_run_train_bitwise(self, kind, seed):
        thetas, datasets = crossing_runs(seed, 6)
        steps, margins = train_to_crossing(thetas, datasets, kind, 1e-3, 1_000_000)
        ref_steps, ref_margins = train_each_to_crossing(thetas, datasets, kind, 1e-3, 1_000_000)
        assert None not in steps
        assert steps == ref_steps
        assert margins.tobytes() == ref_margins.tobytes()

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_budget_exhausted_runs_have_no_crossing(self, kind):
        thetas, datasets = crossing_runs(4, 6)
        full_steps, _ = train_to_crossing(thetas, datasets, kind, 1e-3, 1_000_000)
        # a budget between the fastest and the slowest crossing
        budget = sorted(full_steps)[len(full_steps) // 2]
        steps, margins = train_to_crossing(thetas, datasets, kind, 1e-3, budget)
        ref_steps, ref_margins = train_each_to_crossing(thetas, datasets, kind, 1e-3, budget)
        assert None in steps and any(s is not None for s in steps)
        assert steps == [s if s <= budget else None for s in full_steps]
        assert steps == ref_steps
        assert margins.tobytes() == ref_margins.tobytes()

    def test_one_non_finite_run_raises(self):
        # the contradictory labels of test_non_finite_loss_raises, batched
        # with a run that trains normally
        clash = LabeledDataset(
            points=np.array([[1.0, 0.0], [1.0, 0.0]]), labels=np.array([1.0, -1.0])
        )
        fine = LabeledDataset(
            points=np.array([[1.0, 0.0], [-1.0, 0.0]]), labels=np.array([1.0, -1.0])
        )
        thetas = [
            balanced_live_init(fine, k=4, scale=0.5, rng=SeededRng(30, 1)),
            balanced_live_init(clash, k=4, scale=0.5, rng=SeededRng(30, 0)),
        ]
        steps, _ = train_to_crossing(thetas[:1], [fine], "exponential", 1e6, 10_000)
        assert steps == [1]
        with pytest.raises(NonFiniteLoss):
            train_to_crossing(thetas, [fine, clash], "exponential", 1e6, 10_000)

    def test_no_runs(self):
        steps, margins = train_to_crossing([], [], "logistic", 1e-3, 10)
        assert steps == [] and margins.size == 0

    def test_mismatched_inputs_are_named(self):
        thetas, datasets = crossing_runs(5, 2)
        wider = generate_orthosep(3, 2, 2, SeededRng(5, 9))
        with pytest.raises(ValueError, match="2 nets for 1 datasets"):
            train_to_crossing(thetas, datasets[:1], "exponential", 1e-3, 10)
        with pytest.raises(ValueError, match="weight dimension does not match"):
            train_to_crossing(thetas, [datasets[0], wider], "exponential", 1e-3, 10)
        # runs that are each consistent but differ from one another in shape
        larger = generate_orthosep(2, 3, 2, SeededRng(5, 10))
        larger_net = balanced_live_init(larger, k=4, scale=0.5, rng=SeededRng(5, 11))
        with pytest.raises(ValueError, match=r"shape of points: \[\(4, 2\), \(5, 2\)\]"):
            train_to_crossing([thetas[0], larger_net], [datasets[0], larger], "exponential",
                              1e-3, 10)
        wide_net = balanced_live_init(datasets[1], k=6, scale=0.5, rng=SeededRng(5, 12))
        with pytest.raises(ValueError, match=r"shape of weights: \[\(4, 2\), \(6, 2\)\]"):
            train_to_crossing([thetas[0], wide_net], datasets, "exponential", 1e-3, 10)
        wider_net = balanced_live_init(wider, k=4, scale=0.5, rng=SeededRng(5, 13))
        with pytest.raises(ValueError, match=r"shape of points: \[\(4, 2\), \(4, 3\)\]"):
            train_to_crossing([thetas[0], wider_net], [datasets[0], wider], "exponential",
                              1e-3, 10)


def total_loss(w, a, dataset, kind):
    pre = dataset.points @ w.T
    outputs = np.maximum(pre, 0.0) @ a
    values, _ = loss_value_and_derivative(kind, dataset.labels * outputs)
    return float(np.sum(values))


def count_gradient_mismatches(points, seed, rel_tol=1e-4, h=1e-6):
    """Analytic full-batch gradient versus central finite differences at
    random differentiable points (no preactivation within 1e-6 of zero)."""
    mismatches = 0
    found = 0
    attempt = 0
    while found < points:
        attempt += 1
        rng = SeededRng(seed, attempt)
        data = generate_orthosep(3, 3, 2, rng)
        theta = TwoLayerNet(
            weights=rng.gaussian(4 * 3).reshape(4, 3), outputs=rng.gaussian(4)
        )
        if np.min(np.abs(data.points @ theta.weights.T)) < 1e-6:
            continue
        found += 1
        kind = "exponential" if attempt % 2 == 0 else "logistic"
        # one tiny Euler step exposes the implementation's gradient
        probe = 1e-6
        report = train(theta, data, kind, probe, 1, record_every=10)
        grad_w = (theta.weights - report.final_theta.weights) / probe
        grad_a = (theta.outputs - report.final_theta.outputs) / probe
        analytic = np.concatenate([grad_w.ravel(), grad_a])
        numeric = np.empty_like(analytic)
        flat_index = 0
        for row in range(4):
            for col in range(3):
                bump = theta.weights.copy()
                bump[row, col] += h
                up = total_loss(bump, theta.outputs, data, kind)
                bump[row, col] -= 2 * h
                down = total_loss(bump, theta.outputs, data, kind)
                numeric[flat_index] = (up - down) / (2 * h)
                flat_index += 1
        for row in range(4):
            bump = theta.outputs.copy()
            bump[row] += h
            up = total_loss(theta.weights, bump, data, kind)
            bump[row] -= 2 * h
            down = total_loss(theta.weights, bump, data, kind)
            numeric[flat_index] = (up - down) / (2 * h)
            flat_index += 1
        scale = max(np.linalg.norm(analytic), 1e-12)
        if np.linalg.norm(analytic - numeric) > rel_tol * scale:
            mismatches += 1
    return mismatches


class TestConvergenceReport:
    def test_exact_limit_point_has_zero_slack(self):
        v_pos = max_margin_vector(FOUR_POINTS.points[FOUR_POINTS.labels > 0]).vector
        v_neg = max_margin_vector(FOUR_POINTS.points[FOUR_POINTS.labels < 0]).vector
        norm_pos, norm_neg = np.linalg.norm(v_pos), np.linalg.norm(v_neg)
        # one neuron per sign in the limit shape: |a| = |w| = sqrt(|v_s|)
        theta = TwoLayerNet(
            weights=np.vstack(
                [math.sqrt(norm_pos) * v_pos / norm_pos,
                 math.sqrt(norm_neg) * v_neg / norm_neg]
            ),
            outputs=np.array([math.sqrt(norm_pos), -math.sqrt(norm_neg)]),
        )
        report = convergence_report(theta, v_pos, v_neg)
        assert report.min_cosine == pytest.approx(1.0, abs=1e-12)
        assert report.max_balance_residual <= 1e-12
        assert report.mass_ratio == pytest.approx(norm_pos / norm_neg, abs=1e-12)

    def test_scaling_leaves_report_invariant(self):
        v_pos = np.array([1.0, 0.0])
        v_neg = np.array([-1.0, 0.0])
        theta = TwoLayerNet(
            weights=np.array([[1.0, 0.0], [-1.0, 0.0]]), outputs=np.array([1.0, -1.0])
        )
        base = convergence_report(theta, v_pos, v_neg)
        scaled = convergence_report(
            TwoLayerNet(5.0 * theta.weights, 5.0 * theta.outputs), v_pos, v_neg
        )
        assert scaled.min_cosine == pytest.approx(base.min_cosine, abs=1e-15)
        assert scaled.mass_ratio == pytest.approx(base.mass_ratio, rel=1e-15)

    def test_tiny_neurons_are_excluded(self):
        theta = TwoLayerNet(
            weights=np.array([[1.0, 0.0], [1e-9, 1e-9]]), outputs=np.array([1.0, 1e-9])
        )
        report = convergence_report(theta, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert list(report.surviving) == [0]


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        theta0 = balanced_live_init(FOUR_POINTS, k=4, scale=0.5, rng=SeededRng(32, 0))
        report = train(theta0, FOUR_POINTS, "exponential", 1e-3, 200, record_every=100)
        text = trajectory_to_csv(report)
        lines = text.splitlines()
        assert lines[0] == "step,loss,balance_residual,min_margin"
        assert len(lines) == 1 + len(report.record_steps)
        assert lines[1].startswith("0,")
