"""Tests for analytic program construction, accuracy measurement, the two
image-combination schemes, and the program optimizer."""

import math
import tracemalloc

import numpy as np
import pytest

from reprogram_lab import reprogram
from reprogram_lab.data_models import BernoulliModel, random_hypercube_direction, sample_bernoulli
from reprogram_lab.errors import ConfigError, TieEncountered
from reprogram_lab.network import TwoLayerNet, forward_batch, random_init
from reprogram_lab.gradient_flow import loss_value_and_derivative
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import (
    SOFTSIGN_SCALE,
    ProgramImage,
    bilinear_resize,
    build_target_bias,
    construct_program,
    image_from_ppm,
    image_from_text,
    image_to_ppm,
    image_to_text,
    optimize_program,
    partition_neurons,
    reprogrammed_accuracy,
    scheme1_combine,
    scheme2_combine,
)


def unit_direction(d, seed=700):
    return random_hypercube_direction(d, SeededRng(seed, 0))


def random_image(h, w, c, seed):
    px = SeededRng(seed, 0).random(h * w * c).reshape(h, w, c) * 2.0 - 1.0
    return ProgramImage(pixels=px)


class TestPartitionNeurons:
    def test_aligned_neuron_is_helpful(self):
        phi = unit_direction(4)
        net = TwoLayerNet(weights=phi[None, :].copy(), outputs=np.array([1.0]))
        helpful, unhelpful = partition_neurons(net, phi)
        assert list(helpful) == [0] and list(unhelpful) == []

    def test_anti_aligned_neuron_is_unhelpful(self):
        phi = unit_direction(4)
        net = TwoLayerNet(weights=-phi[None, :], outputs=np.array([1.0]))
        helpful, unhelpful = partition_neurons(net, phi)
        assert list(helpful) == [] and list(unhelpful) == [0]

    def test_partition_covers_all_neurons(self):
        net = random_init(32, 64, SeededRng(60, 0))
        helpful, unhelpful = partition_neurons(net, unit_direction(32))
        assert helpful.size + unhelpful.size == 64
        assert not set(helpful) & set(unhelpful)

    def test_unhelpful_count_is_binomial_half(self):
        # each neuron lands in either set with probability 1/2 by sign
        # symmetry; the mean count over many networks concentrates at k/2
        k, nets = 64, 10_000
        total = 0
        for i in range(nets):
            rng = SeededRng(61, i)
            net = random_init(16, k, rng)
            phi = random_hypercube_direction(16, rng)
            _, unhelpful = partition_neurons(net, phi)
            total += unhelpful.size
        sigma_mean = math.sqrt(k / 4.0) / math.sqrt(nets)
        assert abs(total / nets - k / 2.0) < 3.0 * sigma_mean

    def test_exact_tie_raises(self):
        phi = np.array([1.0, 0.0])
        net = TwoLayerNet(weights=np.array([[0.0, 1.0]]), outputs=np.array([1.0]))
        with pytest.raises(TieEncountered):
            partition_neurons(net, phi)

    def test_non_unit_direction_rejected(self):
        net = random_init(4, 2, SeededRng(62, 0))
        with pytest.raises(ValueError):
            partition_neurons(net, np.array([1.0, 1.0, 0.0, 0.0]))


class TestConstructProgram:
    def test_all_helpful_gives_zero_program(self):
        phi = unit_direction(6)
        net = TwoLayerNet(
            weights=np.vstack([phi, 2.0 * phi]), outputs=np.array([0.5, 0.5])
        )
        assert partition_neurons(net, phi)[1].size == 0
        offset = construct_program(net, phi)
        assert offset.shape == (6,)
        np.testing.assert_array_equal(offset, np.zeros(6))
        np.testing.assert_array_equal(net.weights @ offset, np.zeros(2))

    def test_single_anti_aligned_neuron_closed_form(self):
        d = 9
        phi = unit_direction(d)
        w = -phi + 0.1 * np.roll(phi, 1)
        net = TwoLayerNet(weights=w[None, :], outputs=np.array([1.0]))
        offset = construct_program(net, phi)
        assert float(np.linalg.norm(net.weights @ offset)) == pytest.approx(
            math.sqrt(d), abs=1e-12
        )
        expected = -math.sqrt(d) * w / (w @ w)
        np.testing.assert_allclose(offset, expected, atol=1e-10)

    def test_bias_norm_is_sqrt_d_when_unhelpful_nonempty(self):
        # W p is the target bias, whose norm is sqrt(d) when some neuron is unhelpful
        for i in range(20):
            rng = SeededRng(63, i)
            net = random_init(24, 12, rng)
            phi = random_hypercube_direction(24, rng)
            offset = construct_program(net, phi)
            if partition_neurons(net, phi)[1].size:
                assert float(np.linalg.norm(net.weights @ offset)) == pytest.approx(
                    math.sqrt(24), abs=1e-9
                )

    def test_width_exceeding_dimension_rejected(self):
        net = random_init(4, 5, SeededRng(64, 0))
        with pytest.raises(ConfigError, match="k must"):
            construct_program(net, unit_direction(4))

    def test_program_acts_as_per_neuron_bias(self):
        rng = SeededRng(65, 0)
        net = random_init(20, 8, rng)
        phi = random_hypercube_direction(20, rng)
        offset = construct_program(net, phi)
        x = rng.gaussian(20)
        with_program = net.weights @ (offset + x)
        _, unhelpful = partition_neurons(net, phi)
        expected = net.weights @ x + build_target_bias(20, 8, unhelpful)
        np.testing.assert_allclose(with_program, expected, atol=1e-9)

    def test_offset_norm_approaches_sqrt_d(self):
        # at fixed width the minimum-norm solve tightens towards the bias
        # norm sqrt(d) as the dimension grows
        medians = []
        for d in (256, 1024, 4096):
            ratios = []
            for i in range(50):
                rng = SeededRng(66, (d << 8) + i)
                net = random_init(d, 16, rng)
                phi = random_hypercube_direction(d, rng)
                offset = construct_program(net, phi)
                if partition_neurons(net, phi)[1].size:
                    ratios.append(float(np.linalg.norm(offset)) / math.sqrt(d))
            medians.append(float(np.median(ratios)))
        gaps = [abs(m - 1.0) for m in medians]
        assert gaps[0] > gaps[1] > gaps[2]


class TestReprogrammedAccuracy:
    def test_constant_sign_network_matches_label_marginal(self):
        # every output is positive regardless of input: only y = +1 wins
        d = 10
        phi = unit_direction(d)
        net = TwoLayerNet(
            weights=np.vstack([phi, -phi]), outputs=np.array([1.0, 1.0])
        )
        model = BernoulliModel(direction=phi, radius=2.0, bias=0.3)
        trials = 40_000
        acc = reprogrammed_accuracy(net, np.zeros(d), model, 1, trials, SeededRng(67, 0))
        assert abs(acc - 0.5) < 3.0 * math.sqrt(0.25 / trials)

    def test_deterministic_data_independent_of_stream(self):
        # at maximal bias the sample for each label is a fixed point, so
        # the analytic program classifies both deterministically and the
        # measured accuracy cannot depend on the sampling stream
        d = 8
        rng = SeededRng(68, 0)
        net = random_init(d, 4, rng)
        phi = random_hypercube_direction(d, rng)
        offset = construct_program(net, phi)
        model = BernoulliModel(direction=phi, radius=1.5, bias=0.5)
        acc_a = reprogrammed_accuracy(net, offset, model, 1, 500, SeededRng(68, 2))
        acc_b = reprogrammed_accuracy(net, offset, model, 1, 500, SeededRng(68, 3))
        assert acc_a == acc_b == 1.0

    def test_zero_output_counts_as_failure(self):
        d = 4
        phi = unit_direction(d)
        dead = TwoLayerNet(weights=np.zeros((1, d)), outputs=np.array([1.0]))
        model = BernoulliModel(direction=phi, radius=1.0, bias=0.5)
        acc = reprogrammed_accuracy(dead, np.zeros(d), model, 1, 100, SeededRng(69, 0))
        assert acc == 0.0


    @pytest.mark.parametrize("d", [64, 100])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_blocks_match_one_shot_reference(self, d, blocks, extra, monkeypatch):
        # The block path reads the stream as one sample_bernoulli call does,
        # so the accuracy and the stream's next draw are equal.  Row outputs
        # agree to 1e-12 relative, not bitwise: OpenBLAS picks its kernel by
        # row count, so a row may round differently in a block than in one
        # batch over every trial.
        rows = reprogram._block_rows(d)
        trials = blocks * rows + extra
        net = random_init(d, 8, SeededRng(80, d))
        model = BernoulliModel(direction=unit_direction(d), radius=math.sqrt(d), bias=0.2)
        offset = SeededRng(81, d).gaussian(d)
        outputs = []

        def recorded(net, xs):
            outputs.append(forward_batch(net, xs))
            return outputs[-1]

        monkeypatch.setattr(reprogram, "forward_batch", recorded)
        rng = SeededRng(82, trials)
        acc = reprogrammed_accuracy(net, offset, model, -1, trials, rng)

        ref_rng = SeededRng(82, trials)
        xs, ys = sample_bernoulli(model, trials, ref_rng)
        ref_outputs = forward_batch(net, xs + offset)
        ref_acc = int(np.count_nonzero(-ys * ref_outputs > 0.0)) / trials
        assert acc == ref_acc
        assert rng.random(1)[0] == ref_rng.random(1)[0]
        assert [o.size for o in outputs] == [min(rows, trials - i) for i in range(0, trials, rows)]
        np.testing.assert_allclose(np.concatenate(outputs), ref_outputs, rtol=1e-12, atol=0.0)

    def test_memory_does_not_grow_with_trials(self):
        # one batch over every trial would hold several 100,000 x 64 arrays
        # (about 105 MB); blocks and the labels stay below 8 MB
        d = 64
        net = random_init(d, 8, SeededRng(83, 0))
        model = BernoulliModel(direction=unit_direction(d), radius=math.sqrt(d), bias=0.2)
        tracemalloc.start()
        try:
            reprogrammed_accuracy(net, np.zeros(d), model, 1, 100_000, SeededRng(84, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @pytest.mark.parametrize("shape", [(1,), (), (1, 16)])
    def test_offset_of_wrong_shape_is_dimension_mismatch(self, shape):
        d = 16
        net = random_init(d, 4, SeededRng(85, 0))
        model = BernoulliModel(direction=unit_direction(d), radius=2.0, bias=0.2)
        with pytest.raises(ConfigError):
            reprogrammed_accuracy(net, np.ones(shape), model, 1, 100, SeededRng(86, 0))


class TestScheme1:
    def test_figure_paste_side_is_48(self):
        program = random_image(224, 224, 3, seed=70)
        image = random_image(28, 28, 3, seed=71)
        combined = scheme1_combine(program, image, 2.0 ** (-20.0 / 9.0))
        offset = (224 - 48) // 2
        inside = np.zeros((224, 224), dtype=bool)
        inside[offset : offset + 48, offset : offset + 48] = True
        changed = np.any(combined.pixels != program.pixels, axis=2)
        assert not np.any(changed & ~inside)
        resized = bilinear_resize(image.pixels, 48, 48)
        np.testing.assert_array_equal(
            combined.pixels[offset : offset + 48, offset : offset + 48], resized
        )

    def test_zero_ratio_returns_program(self):
        program = random_image(16, 16, 3, seed=72)
        image = random_image(8, 8, 3, seed=73)
        np.testing.assert_array_equal(
            scheme1_combine(program, image, 0.0).pixels, program.pixels
        )

    def test_full_ratio_overwrites_everything(self):
        program = random_image(16, 16, 3, seed=74)
        image = random_image(8, 8, 3, seed=75)
        combined = scheme1_combine(program, image, 1.0)
        np.testing.assert_array_equal(
            combined.pixels, bilinear_resize(image.pixels, 16, 16)
        )

    def test_commutes_with_channel_permutation(self):
        program = random_image(12, 12, 3, seed=76)
        image = random_image(5, 5, 3, seed=77)
        perm = [2, 0, 1]
        direct = scheme1_combine(program, image, 0.6).pixels[:, :, perm]
        permuted = scheme1_combine(
            ProgramImage(pixels=program.pixels[:, :, perm]),
            ProgramImage(pixels=image.pixels[:, :, perm]),
            0.6,
        ).pixels
        np.testing.assert_array_equal(direct, permuted)

    def test_channel_mismatch(self):
        with pytest.raises(ConfigError):
            scheme1_combine(random_image(8, 8, 3, seed=78), random_image(4, 4, 1, seed=79), 0.5)

    def test_non_square_program_rejected(self):
        with pytest.raises(ValueError):
            scheme1_combine(random_image(8, 10, 3, seed=80), random_image(4, 4, 3, seed=81), 0.5)


class TestScheme2:
    def test_endpoint_identities_are_exact(self):
        program = random_image(10, 10, 3, seed=82)
        image = random_image(10, 10, 3, seed=83)
        np.testing.assert_array_equal(
            scheme2_combine(program, image, 0.0).pixels, program.pixels
        )
        np.testing.assert_array_equal(
            scheme2_combine(program, image, 1.0).pixels, image.pixels
        )

    def test_blend_matches_direct_evaluation(self):
        v = 2.0 ** (-40.0 / 9.0)  # the roughly 4.6% weighting
        program = random_image(9, 9, 3, seed=84)
        image = random_image(9, 9, 3, seed=85)
        combined = scheme2_combine(program, image, v)
        expected = np.empty_like(program.pixels)
        for i in range(9):
            for j in range(9):
                for c in range(3):
                    expected[i, j, c] = (
                        v * image.pixels[i, j, c] + (1 - v) * program.pixels[i, j, c]
                    )
        np.testing.assert_allclose(combined.pixels, expected, atol=1e-12)

    def test_idempotent_on_equal_images(self):
        img = random_image(7, 7, 2, seed=86)
        for v in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(
                scheme2_combine(img, img, v).pixels, img.pixels, atol=1e-15
            )

    def test_affine_in_both_arguments(self):
        a = random_image(6, 6, 1, seed=87)
        b = random_image(6, 6, 1, seed=88)
        c = random_image(6, 6, 1, seed=89)
        v, t = 0.35, 0.6
        mix_prog = ProgramImage(pixels=t * a.pixels + (1 - t) * b.pixels)
        left = scheme2_combine(mix_prog, c, v).pixels
        right = t * scheme2_combine(a, c, v).pixels + (1 - t) * scheme2_combine(b, c, v).pixels
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestBilinearResize:
    def test_identity_when_sizes_match(self):
        img = random_image(9, 13, 2, seed=90)
        np.testing.assert_allclose(
            bilinear_resize(img.pixels, 9, 13), img.pixels, atol=1e-15
        )

    def test_constant_image_stays_constant(self):
        px = np.full((5, 7, 3), 0.25)
        out = bilinear_resize(px, 11, 3)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_values_stay_in_range(self):
        img = random_image(6, 6, 3, seed=91)
        out = bilinear_resize(img.pixels, 17, 4)
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestImageSerialisation:
    def test_text_round_trip(self):
        img = random_image(4, 5, 3, seed=92)
        parsed = image_from_text(image_to_text(img))
        np.testing.assert_array_equal(parsed.pixels, img.pixels)

    def test_ppm_round_trip_quantises(self):
        img = random_image(6, 4, 3, seed=93)
        back = image_from_ppm(image_to_ppm(img))
        assert back.pixels.shape == img.pixels.shape
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 255.0

    def test_ppm_mapping_endpoints(self):
        px = np.zeros((1, 2, 3))
        px[0, 0, :] = -1.0
        px[0, 1, :] = 1.0
        data = image_to_ppm(ProgramImage(pixels=px))
        body = data.split(b"255\n", 1)[1]
        assert body == bytes([0, 0, 0, 255, 255, 255])

    def test_ppm_requires_three_channels(self):
        with pytest.raises(ConfigError):
            image_to_ppm(random_image(2, 2, 1, seed=94))

    @pytest.mark.parametrize("data,field", [
        (b"P6 1 -1 255\nabc", "height"),
        (b"P6 0 1 255\n", "width"),
        (b"P6 1 1 255", "raster"),
        (b"P6 2 1 255\n" + bytes(3), "raster"),
        (b"P6 1", "height"),
        (b"P6 x 1 255\n", "width"),
        (b"P6 1 1 ff\n", "maxval"),
        (b"P6 1_0 1 255\n", "width"),
        (b"P6 +1 1 +255\n", "width"),
        ("P6 1 \u0661 255\n".encode(), "height"),
    ], ids=["negative-height", "zero-width", "no-raster", "short-raster", "truncated-header",
            "non-integer-width", "non-integer-maxval", "underscore-width", "plus-sign",
            "arabic-indic-digit"])
    def test_malformed_ppm_names_the_field(self, data, field):
        with pytest.raises(ValueError, match=field):
            image_from_ppm(data)

    @pytest.mark.parametrize("text,field", [
        ("-1 -1 1\n0.5\n", "H must be at least 1"),
        ("x 1 1\n0\n", "H must be an integer"),
        ("1 0 1\n", "W must be at least 1"),
        ("1 1 2.5\n0 0\n", "C must be an integer"),
        ("1 1 1_0\n" + " 0" * 10, "C must be an integer"),
        ("+1 1 1\n0\n", "H must be an integer"),
        ("1 \u0661 1\n0\n", "W must be an integer"),
    ], ids=["negative-height", "non-integer-height", "zero-width", "fractional-channels",
            "underscore-channels", "plus-sign", "arabic-indic-digit"])
    def test_malformed_text_image_names_the_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            image_from_text(text)


class TestOptimizeProgram:
    def test_zero_steps_returns_initial_offset(self):
        d = 16
        phi = unit_direction(d)
        net = random_init(d, 4, SeededRng(95, 0))
        model = BernoulliModel(direction=phi, radius=2.0, bias=0.4)
        p_a, losses_a = optimize_program(net, model, 1, 0, 0.01, 8, SeededRng(95, 1))
        p_b, _ = optimize_program(net, model, 1, 0, 0.01, 8, SeededRng(95, 1))
        assert losses_a == []
        np.testing.assert_array_equal(p_a, p_b)
        assert np.max(np.abs(p_a)) < 1.2 * math.sqrt(d)

    def test_descent_on_smoothed_loss_curve(self):
        d, k = 64, 8
        rng = SeededRng(96, 0)
        net = random_init(d, k, rng)
        phi = random_hypercube_direction(d, rng)
        model = BernoulliModel(direction=phi, radius=math.sqrt(d), bias=0.4)
        _, losses = optimize_program(net, model, 1, 400, 0.01, 64, SeededRng(96, 1))
        window = 50
        smoothed = np.convolve(losses, np.ones(window) / window, mode="valid")
        assert smoothed[-1] <= smoothed[0]

    def test_accuracy_does_not_degrade(self):
        d, k = 64, 8
        rng = SeededRng(97, 0)
        net = random_init(d, k, rng)
        phi = random_hypercube_direction(d, rng)
        model = BernoulliModel(direction=phi, radius=math.sqrt(d), bias=0.4)
        initial, _ = optimize_program(net, model, 1, 0, 0.01, 64, SeededRng(97, 1))
        final, _ = optimize_program(net, model, 1, 400, 0.01, 64, SeededRng(97, 1))
        acc_before = reprogrammed_accuracy(net, initial, model, 1, 4000, SeededRng(97, 2))
        acc_after = reprogrammed_accuracy(net, final, model, 1, 4000, SeededRng(97, 3))
        se_before = math.sqrt(acc_before * (1.0 - acc_before) / 4000)
        assert acc_after >= acc_before - 2.0 * se_before


    @pytest.mark.parametrize("seed", [1, 5, 8191])
    @pytest.mark.parametrize("m", [1, -1])
    def test_matches_inline_forward_reference(self, seed, m):
        # the optimizer's trajectory, with the forward pass written out
        d, k, steps, lr, batch = 32, 6, 40, 0.05, 16
        rng = SeededRng(seed, 0)
        net = random_init(d, k, rng)
        model = BernoulliModel(direction=random_hypercube_direction(d, rng), radius=3.0, bias=0.3)
        offset, losses = optimize_program(net, model, m, steps, lr, batch, SeededRng(seed, 1))

        ref_rng = SeededRng(seed, 1)
        cap = SOFTSIGN_SCALE * math.sqrt(d)
        start = 2.0 * ref_rng.random_open(d) - 1.0
        q = start / (1.0 - np.abs(start))
        ref_losses = []
        for _ in range(steps):
            xs, ys = sample_bernoulli(model, batch, ref_rng)
            p = cap * q / (1.0 + np.abs(q))
            pre = (xs + p[None, :]) @ net.weights.T
            active = pre > 0.0
            outputs = np.maximum(pre, 0.0) @ net.outputs
            margins = m * ys * outputs
            value, slope = loss_value_and_derivative("logistic", margins)
            ref_losses.append(float(np.mean(value)))
            d_out = slope * (m * ys) / batch
            d_p = net.weights.T @ ((active * net.outputs[None, :]).T @ d_out)
            d_q = d_p * cap / (1.0 + np.abs(q)) ** 2
            q -= lr * d_q
        assert offset.tobytes() == (cap * q / (1.0 + np.abs(q))).tobytes()
        assert losses == ref_losses


class TestBuildTargetBias:
    def test_values_and_support(self):
        bias = build_target_bias(16, 5, np.array([1, 3]))
        assert bias[0] == bias[2] == bias[4] == 0.0
        assert bias[1] == bias[3] == -math.sqrt(16 / 2)
        assert np.linalg.norm(bias) == pytest.approx(4.0, abs=1e-12)
