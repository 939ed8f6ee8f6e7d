"""Tests for the Bernoulli hypercube model and orthogonally separable data."""

import math

import numpy as np
import pytest

from reprogram_lab.data_models import (
    BernoulliModel,
    LabeledDataset,
    bernoulli_points,
    check_orthosep,
    generate_orthosep,
    random_hypercube_direction,
    sample_bernoulli,
)
from reprogram_lab.numerics import SeededRng

FOUR_POINTS = LabeledDataset(
    points=np.array([[1.0, 0.1], [1.0, -0.1], [-1.0, 0.1], [-1.0, -0.1]]),
    labels=np.array([1.0, 1.0, -1.0, -1.0]),
)


def model_for(d, rho=2.0, tau=0.25, seed=0):
    phi = random_hypercube_direction(d, SeededRng(seed, 900))
    return BernoulliModel(direction=phi, radius=rho, bias=tau)


class TestBernoulliModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliModel(direction=np.array([0.5, 0.5]), radius=1.0, bias=0.25)
        phi = random_hypercube_direction(4, SeededRng(0, 0))
        with pytest.raises(ValueError):
            BernoulliModel(direction=phi, radius=-1.0, bias=0.25)
        with pytest.raises(ValueError):
            BernoulliModel(direction=phi, radius=1.0, bias=0.6)

    def test_max_bias_means_no_flips(self):
        model = model_for(16, rho=3.0, tau=0.5)
        xs, ys = sample_bernoulli(model, 200, SeededRng(1, 0))
        expected = ys[:, None] * (3.0 * model.direction)[None, :]
        assert np.array_equal(xs, expected)

    def test_labels_first_then_flips_row_major(self):
        # the order that lets a caller draw the points in row blocks
        model = model_for(12, rho=1.5, tau=0.1)
        xs, ys = sample_bernoulli(model, 50, SeededRng(6, 0))
        rng = SeededRng(6, 0)
        labels = rng.signs(50)
        flips = rng.random(50 * 12).reshape(50, 12) < 0.4
        expected = labels[:, None] * (1.5 * model.direction)[None, :] * np.where(flips, -1.0, 1.0)
        assert np.array_equal(ys, labels)
        assert xs.tobytes() == expected.tobytes()
        rng = SeededRng(6, 0)
        labels = rng.signs(50)
        blocks = [bernoulli_points(model, labels[i:i + 7], rng) for i in range(0, 50, 7)]
        assert np.concatenate(blocks).tobytes() == xs.tobytes()

    def test_hypercube_support_is_exact(self):
        model = model_for(8, rho=1.7, tau=0.2)
        xs, _ = sample_bernoulli(model, 500, SeededRng(2, 0))
        step = 1.7 / math.sqrt(8)
        assert set(np.unique(np.abs(xs))) == {step}

    def test_alignment_expectation(self):
        # E[y * phi.x] = 2 tau rho: each coordinate keeps its class sign
        # with probability 1/2 + tau.
        d, rho, tau, n = 32, 2.0, 0.15, 100_000
        model = model_for(d, rho, tau)
        xs, ys = sample_bernoulli(model, n, SeededRng(3, 0))
        stat = ys * (xs @ model.direction)
        sigma = rho * math.sqrt((1.0 - 4.0 * tau * tau) / d) / math.sqrt(n)
        assert abs(stat.mean() - 2.0 * tau * rho) < 3.0 * sigma

    def test_label_marginal(self):
        model = model_for(8)
        _, ys = sample_bernoulli(model, 100_000, SeededRng(4, 0))
        assert abs(np.mean(ys > 0) - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)


class TestHypercubeDirection:
    def test_unit_norm(self):
        for d in (1, 2, 17, 301):
            phi = random_hypercube_direction(d, SeededRng(5, d))
            assert abs(np.linalg.norm(phi) - 1.0) <= 1e-12

    def test_degenerate_dimension(self):
        phi = random_hypercube_direction(1, SeededRng(6, 0))
        assert phi[0] in (1.0, -1.0)

    def test_coordinate_sign_frequencies(self):
        d, n = 32, 10_000
        positive = np.zeros(d)
        for i in range(n):
            positive += random_hypercube_direction(d, SeededRng(7, i)) > 0
        freq = positive / n
        assert np.all(np.abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / n))


class TestCheckOrthosep:
    def test_single_point_is_separable(self):
        data = LabeledDataset(points=np.array([[1.0, 2.0]]), labels=np.array([1.0]))
        assert check_orthosep(data) is True

    def test_same_class_negative_product_fails(self):
        data = LabeledDataset(
            points=np.array([[1.0, 0.0], [-1.0, 0.0]]), labels=np.array([1.0, 1.0])
        )
        assert check_orthosep(data) is False

    def test_four_point_dataset_passes(self):
        assert check_orthosep(FOUR_POINTS) is True

    def test_exact_zero_cross_product_allowed(self):
        data = LabeledDataset(
            points=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([1.0, -1.0])
        )
        assert check_orthosep(data)


class TestGenerateOrthosep:
    def test_antipodal_pair_is_valid(self):
        data = LabeledDataset(
            points=np.array([[1.0, 0.0], [-1.0, 0.0]]), labels=np.array([1.0, -1.0])
        )
        assert check_orthosep(data)

    def test_generated_datasets_certify(self):
        data = generate_orthosep(8, 10, 10, SeededRng(8, 0))
        assert data.points.shape[0] == 20
        assert check_orthosep(data) is True

    def test_two_dimensional_generation(self):
        data = generate_orthosep(2, 2, 2, SeededRng(9, 0))
        assert check_orthosep(data)

    def test_reproducible_at_fixed_seed(self):
        a = generate_orthosep(5, 3, 4, SeededRng(10, 3))
        b = generate_orthosep(5, 3, 4, SeededRng(10, 3))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_every_point_acts_as_linear_separator(self):
        data = generate_orthosep(6, 5, 5, SeededRng(11, 0))
        for i in range(data.points.shape[0]):
            predictions = np.sign(data.labels[i] * (data.points @ data.points[i]))
            correct = predictions == data.labels
            # cross-class products may be exactly zero; those points sit on
            # the separator, never on the wrong side
            boundary = predictions == 0
            assert np.all(correct | (boundary & (data.labels != data.labels[i])))

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            generate_orthosep(1, 1, 1, SeededRng(12, 0))

