"""Tests for network construction, evaluation, and serialisation."""

import math

import numpy as np
import pytest

from reprogram_lab.errors import DimensionMismatch
from reprogram_lab.network import (
    TwoLayerNet,
    forward,
    forward_batch,
    network_to_text,
    random_init,
)
from reprogram_lab.numerics import SeededRng


class TestRandomInit:
    def test_output_weights_have_exact_discrete_support(self):
        net = random_init(d=17, k=40, rng=SeededRng(1, 0))
        step = 1.0 / math.sqrt(40)
        assert set(np.unique(np.abs(net.outputs))) == {step}

    def test_hidden_weight_moments(self):
        # 1000 x 100 = 1e5 entries with claimed mean 0 and variance 1/d
        d, k = 100, 1000
        net = random_init(d, k, SeededRng(2, 0))
        entries = net.weights.ravel()
        n = entries.size
        sigma_mean = math.sqrt(1.0 / d / n)
        assert abs(entries.mean()) < 3 * sigma_mean
        sigma_var = (1.0 / d) * math.sqrt(2.0 / n)
        assert abs(entries.var() - 1.0 / d) < 3 * sigma_var

    def test_identical_seed_identical_network(self):
        a = random_init(8, 5, SeededRng(3, 4))
        b = random_init(8, 5, SeededRng(3, 4))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.outputs, b.outputs)


class TestForward:
    def test_zero_input_gives_zero(self):
        net = random_init(6, 9, SeededRng(4, 0))
        assert forward(net, np.zeros(6)) == 0.0

    def test_single_active_neuron(self):
        net = TwoLayerNet(weights=np.array([[1.0, 0.0, 0.0]]), outputs=np.array([1.0]))
        assert forward(net, np.array([2.0, 5.0, -1.0])) == 2.0

    def test_matches_naive_double_loop(self):
        net = random_init(12, 7, SeededRng(5, 0))
        x = SeededRng(5, 1).gaussian(12)
        expected = 0.0
        for j in range(net.k):
            pre = 0.0
            for i in range(net.d):
                pre += net.weights[j, i] * x[i]
            expected += net.outputs[j] * max(pre, 0.0)
        assert forward(net, x) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        net = random_init(4, 3, SeededRng(6, 0))
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(5))
        with pytest.raises(DimensionMismatch):
            forward_batch(net, np.zeros((2, 5)))

    def test_batch_agrees_with_single(self):
        net = random_init(9, 6, SeededRng(7, 0))
        xs = SeededRng(7, 1).gaussian(5 * 9).reshape(5, 9)
        batch = forward_batch(net, xs)
        singles = [forward(net, x) for x in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    def test_positive_two_homogeneity(self):
        net = random_init(10, 8, SeededRng(8, 0))
        x = SeededRng(8, 1).gaussian(10)
        base = forward(net, x)
        for alpha in (0.5, 2.0, 7.25):
            scaled = TwoLayerNet(weights=alpha * net.weights, outputs=alpha * net.outputs)
            assert forward(scaled, x) == pytest.approx(alpha * alpha * base, rel=1e-12)

    def test_output_variance_near_half_at_width_4096(self):
        # For norm-sqrt(d) inputs the preactivations are i.i.d. standard
        # normal regardless of d, so the output law at width 4096 is the
        # same for every input dimension; d = 4 keeps the 6000 fresh
        # networks affordable while exercising the real construction.
        k, d, nets = 4096, 4, 6000
        x = np.zeros(d)
        x[0] = math.sqrt(d)
        outputs = np.empty(nets)
        for i in range(nets):
            net = random_init(d, k, SeededRng(9, i))
            outputs[i] = forward(net, x)
        assert abs(outputs.var() - 0.5) < 0.05


def test_norm_covers_both_layers():
    net = TwoLayerNet(weights=np.array([[3.0, 0.0], [0.0, 0.0]]), outputs=np.array([0.0, 4.0]))
    assert net.norm() == 5.0


class TestSerialisation:
    def test_round_trip_is_exact(self):
        # 17 significant digits: float() of each token gives back the weight
        net = random_init(5, 4, SeededRng(10, 0))
        rows = [[float(v) for v in line.split()] for line in network_to_text(net).splitlines()]
        assert np.array_equal(np.array(rows[1:5]), net.weights)
        assert np.array_equal(np.array(rows[5]), net.outputs)

    def test_header_and_shape(self):
        net = random_init(3, 2, SeededRng(11, 0))
        lines = network_to_text(net).splitlines()
        assert lines[0] == "3 2"
        assert len(lines) == 1 + 2 + 1
