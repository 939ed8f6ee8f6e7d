"""Tests for network construction, evaluation, and serialisation."""

import math

import numpy as np
import pytest

from reprogram_lab.errors import ConfigError
from reprogram_lab.gradient_flow import loss_value_and_derivative
from reprogram_lab.network import (
    Kernel,
    TwoLayerNet,
    forward,
    forward_batch,
    network_to_text,
    random_init,
    random_init_products,
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


class TestRandomInitProducts:
    # (1, 1): one entry; k = 41: the cosine and sine halves split a row;
    # d = 1001: an odd count, whose last sine variate is dropped, and rows
    # split between blocks of 2^14 pairs; d = 40000: rows longer than a block
    @pytest.mark.parametrize("d, k", [
        (1, 1), (256, 41), (1001, 41), (1001, 1), (3000, 50), (40000, 3), (4096, 256),
    ])
    def test_products_match_the_drawn_net(self, d, k):
        vectors = SeededRng(21, d).gaussian(2 * d).reshape(2, d)
        rng, reference = SeededRng(20, k), SeededRng(20, k)
        net = random_init(d, k, reference)
        outputs, products = random_init_products(d, k, rng)
        assert rng._counter == reference._counter
        assert outputs.tobytes() == net.outputs.tobytes()
        got = products(*vectors)
        assert got.shape == (2, k)
        # a sum of d rounded terms is off by a multiple of the sum of their sizes
        scale = np.abs(vectors) @ np.abs(net.weights).T
        assert np.all(np.abs(got - vectors @ net.weights.T) <= 1e-15 * scale)
        assert rng._counter == reference._counter

    def test_checks_the_size_before_drawing(self):
        rng = SeededRng(22, 0)
        with pytest.raises(ConfigError, match="^k must be at least 1"):
            random_init_products(4, 0, rng)
        with pytest.raises(ConfigError, match="^d must be at most"):
            random_init_products(1 << 62, 2, rng)
        assert rng._counter == 0

    def test_non_finite_product_is_a_config_error(self):
        _, products = random_init_products(4, 3, SeededRng(23, 0))
        with pytest.raises(ConfigError, match="^products with the hidden weights must be finite"):
            products(np.array([1.0, math.inf, 0.0, 0.0]))


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
        with pytest.raises(ConfigError):
            forward(net, np.zeros(5))
        with pytest.raises(ConfigError):
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


def reference_forward_pass(xs, ys, w, a):
    """The kernel's forward pass written out per call, with its views and
    products built afresh: active mask, hidden outputs, margins."""
    pre = xs @ w.swapaxes(-1, -2)
    active = pre > 0.0
    hidden = np.where(active, pre, 0.0)
    margins = ys * (hidden @ a[..., None])[..., 0]
    return active, hidden, margins


def reference_backward_pass(xs, a, active, hidden, coeff):
    grad_a = (hidden.swapaxes(-1, -2) @ coeff[..., None])[..., 0]
    grad_w = (active * coeff[..., None]).swapaxes(-1, -2) @ xs
    grad_w *= a[..., None]
    return grad_w, grad_a


def descent_problem(seed, stack):
    """Inputs, labels and parameters of ``stack`` runs (one unstacked run
    when stack is None) with n = 6, d = 5, k = 4."""
    lead = () if stack is None else (stack,)
    rng = SeededRng(12, seed)
    xs = rng.gaussian(math.prod(lead) * 30).reshape(*lead, 6, 5)
    ys = rng.signs(math.prod(lead) * 6).reshape(*lead, 6)
    w = 0.5 * rng.gaussian(math.prod(lead) * 20).reshape(*lead, 4, 5)
    a = 0.5 * rng.signs(math.prod(lead) * 4).reshape(*lead, 4)
    return xs, ys, w, a


class TestKernel:
    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    @pytest.mark.parametrize("stack", [None, 5])
    def test_descent_matches_reference_bitwise(self, kind, stack):
        # rows 1 and 3 of the stack leave at step 150, as runs leave a
        # stacked trainer once they are done
        xs, ys, w, a = descent_problem(stack or 0, stack)
        ref_w, ref_a = w.copy(), a.copy()
        kernel = Kernel.for_run(xs, ys, w, a)
        for step in range(300):
            if stack and step == 150:
                keep = np.array([True, False, True, False, True])
                xs, ys, ref_w, ref_a = xs[keep], ys[keep], ref_w[keep], ref_a[keep]
                kernel = Kernel.for_run(xs, ys, kernel.w[keep], kernel.a[keep])
            margins = kernel.forward()
            active, hidden, ref_margins = reference_forward_pass(xs, ys, ref_w, ref_a)
            assert margins.tobytes() == ref_margins.tobytes()
            assert kernel.active.tobytes() == active.tobytes()
            assert kernel.hidden.tobytes() == hidden.tobytes()
            _, slopes = loss_value_and_derivative(kind, margins)
            kernel.step(slopes * ys, -1e-2)
            grad_w, grad_a = reference_backward_pass(xs, ref_a, active, hidden, slopes * ys)
            grad_w *= 1e-2
            grad_a *= 1e-2
            ref_w -= grad_w
            ref_a -= grad_a
            assert kernel.w.tobytes() == ref_w.tobytes()
            assert kernel.a.tobytes() == ref_a.tobytes()


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
