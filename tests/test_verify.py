"""Tests for the verification suites: closed forms, flag semantics,
determinism, and small-scale passes of every suite."""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from reprogram_lab import numerics, verify
from reprogram_lab.errors import ExponentConditionViolated, HypothesisViolated
from reprogram_lab.gradient_flow import balanced_live_init
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import build_target_bias
from reprogram_lab.verify import (
    BOUND_C1,
    BOUND_C2,
    BOUND_C3,
    BOUND_C4,
    BOUND_C5,
    SuiteVerdict,
    Theorem1Config,
    appendix_a_suite,
    corollary1_parameters,
    corollary1_sweep,
    corollary2_suite,
    four_point_dataset,
    proposition_suite,
    signed_vertex_against,
    theorem1_montecarlo,
    theorem1_rhs,
    theorem2_suite,
    validate_exponents,
    train_to_directional_limit,
    verdict_to_text,
)
from reprogram_lab.verify import _log_loss, _rescaled_chunk

SMALL_T1 = Theorem1Config(
    d=256, k=41, rho=256**0.3, tau=256**-0.2,
    gamma=0.01, gamma_dag=0.01, trials=150, seed=301,
)
WORKERS_T1 = Theorem1Config(
    d=64, k=16, rho=64**0.3, tau=64**-0.2,
    gamma=0.01, gamma_dag=0.01, trials=120, seed=77,
)


def strip_runtime(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("runtime_seconds")
    )


class TestBoundConstants:
    def test_closed_forms(self):
        assert BOUND_C1 == 2.0 + 1.0 / math.sqrt(2.0 * math.pi)
        assert BOUND_C2 == math.sqrt(math.pi) / (8.0 * math.sqrt(2.0))
        assert BOUND_C3 == 1.0 / math.sqrt(2.0 * math.pi)
        assert BOUND_C4 == math.sqrt(2.0) + math.sqrt(math.pi) / 4.0 + 2.0 * math.pi / (math.pi - 1.0)
        assert BOUND_C5 == math.sqrt(math.pi) / 16.0

    def test_decimal_values(self):
        assert BOUND_C1 == pytest.approx(2.3989422804014326, abs=1e-12)
        assert BOUND_C2 == pytest.approx(0.15666426716443752, abs=1e-12)
        assert BOUND_C3 == pytest.approx(0.3989422804014327, abs=1e-12)
        assert BOUND_C4 == pytest.approx(4.791211438947994, abs=1e-12)
        assert BOUND_C5 == pytest.approx(0.11077836568159474, abs=1e-12)


class TestTheorem1Rhs:
    def test_strictly_increasing_in_tau(self):
        values = [
            theorem1_rhs(1024, 64, 4.0, tau, 0.05, 0.05)
            for tau in (0.2, 0.3, 0.4, 0.5)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_hypothesis_enforced(self):
        # 2 d tau^2 = 0.02 < ln(1/0.5)
        with pytest.raises(HypothesisViolated):
            theorem1_rhs(100, 10, 1.0, 0.01, 0.1, 0.5)

    def test_width_cannot_exceed_dimension(self):
        with pytest.raises(ValueError):
            theorem1_rhs(10, 11, 1.0, 0.3, 0.1, 0.1)

    def test_value_at_reference_configuration(self):
        # frozen by direct evaluation of the closed form
        d = 4096
        value = theorem1_rhs(d, 256, d**0.3, d**-0.2, 0.01, 0.01)
        assert value == pytest.approx(-1.869312660852031, abs=1e-12)

    def test_hand_computed_fixture(self):
        d, k, rho, tau, gamma, gamma_dag = 64, 16, 2.0, 0.4, 0.1, 0.2
        scale = math.sqrt(k) * rho / math.sqrt(d)
        inner = (
            BOUND_C2 * tau
            - BOUND_C3 * math.exp(-(d * d) / (2 * k * rho * rho)) * min(1.0, k * rho * rho / (d * d))
            - BOUND_C4 * math.sqrt(math.log(1 / gamma) / k)
            - BOUND_C5 * math.sqrt(math.log(1 / gamma_dag) / d)
        )
        assert theorem1_rhs(d, k, rho, tau, gamma, gamma_dag) == pytest.approx(
            scale * inner, rel=1e-15
        )


class TestTheorem1Montecarlo:
    def test_small_run_passes_and_reports(self):
        verdict = theorem1_montecarlo(SMALL_T1)
        assert verdict.passed
        assert verdict.measured["trials"] == 150
        assert not verdict.measured["vacuous"]
        assert verdict.measured["violations"] + 0 <= 150
        assert "violation_rate" in verdict.threshold

    def test_replay_is_bitwise(self):
        a = verdict_to_text(theorem1_montecarlo(SMALL_T1))
        b = verdict_to_text(theorem1_montecarlo(SMALL_T1))
        assert strip_runtime(a) == strip_runtime(b)

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_worker_count_does_not_change_results(self, workers):
        serial = verdict_to_text(theorem1_montecarlo(WORKERS_T1, workers=1))
        parallel = verdict_to_text(theorem1_montecarlo(WORKERS_T1, workers=workers))
        assert strip_runtime(serial) == strip_runtime(parallel)

    def test_threads_are_kept_across_calls(self):
        theorem1_montecarlo(WORKERS_T1, workers=2)
        first = {t.ident for t in threading.enumerate() if t.name.startswith("trial-block")}
        theorem1_montecarlo(WORKERS_T1, workers=2)
        again = {t.ident for t in threading.enumerate() if t.name.startswith("trial-block")}
        assert first and again == first

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_blocks_on_its_own_threads(self):
        theorem1_montecarlo(WORKERS_T1, workers=2)  # the parent's pool exists
        pid = os.fork()
        if pid == 0:
            try:
                verdict = theorem1_montecarlo(WORKERS_T1, workers=2)
                os._exit(0 if verdict.measured["trials"] == 120 else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its trial blocks")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_without_blas_setter_blocks_run_serially_in_order(self, monkeypatch):
        expected = verdict_to_text(theorem1_montecarlo(WORKERS_T1, workers=2))
        calls = []

        def recording_block(args):
            calls.append((args[1], threading.get_ident()))
            return original_block(args)

        original_block = verify._theorem1_block
        monkeypatch.setattr(numerics, "_openblas_thread_functions", lambda: None)
        monkeypatch.setattr(verify, "_theorem1_block", recording_block)
        got = verdict_to_text(theorem1_montecarlo(WORKERS_T1, workers=2))
        assert strip_runtime(got) == strip_runtime(expected)
        assert [start for start, _ in calls] == list(range(0, 120, verify._TRIAL_BLOCK))
        assert {ident for _, ident in calls} == {threading.get_ident()}

    def test_vacuous_floor_flagged_and_passes(self):
        cfg = Theorem1Config(
            d=64, k=16, rho=2.0, tau=0.4, gamma=0.45, gamma_dag=0.01,
            trials=50, seed=5,
        )
        verdict = theorem1_montecarlo(cfg)
        assert verdict.measured["probability_floor"] <= 0.0
        assert verdict.measured["vacuous"]
        assert verdict.passed


class TestTheorem1FloorExample:
    def test_accuracy_exceeds_best_positive_rhs_floor(self):
        # Find the largest probability floor (1 - C1 g)(1 - gd) over
        # probability parameters keeping the bound's RHS positive at the
        # reference configuration.  The search shows the floor is not
        # positive there (positivity forces g > 0.99), so the example is
        # vacuously satisfied; both facts are pinned here.
        d, k = 4096, 256
        rho, tau = d**0.3, d**-0.2
        best_floor = -math.inf
        for g in np.linspace(0.9, 0.9999, 60):
            for gd in np.geomspace(1e-4, 0.5, 40):
                try:
                    rhs = theorem1_rhs(d, k, rho, tau, float(g), float(gd))
                except HypothesisViolated:
                    continue
                if rhs > 0.0:
                    best_floor = max(best_floor, (1 - BOUND_C1 * g) * (1 - gd))
        assert best_floor > -math.inf, "no positive-RHS parameters found at all"
        assert best_floor <= 0.0
        cfg = Theorem1Config(
            d=d, k=k, rho=rho, tau=tau, gamma=0.01, gamma_dag=0.01,
            trials=40, seed=303,
        )
        verdict = theorem1_montecarlo(cfg)
        assert verdict.measured["accuracy"] > best_floor


class TestCorollary1:
    def test_exponent_validation(self):
        validate_exponents(2.0 / 3.0, 0.3, 0.2)
        with pytest.raises(ExponentConditionViolated):
            validate_exponents(2.0 / 3.0, 0.3, 0.4)  # eta_tau >= eta_k / 2
        with pytest.raises(ExponentConditionViolated):
            validate_exponents(2.0 / 3.0, 0.7, 0.2)  # eta_rho >= 1 - eta_k / 2
        with pytest.raises(ExponentConditionViolated):
            validate_exponents(1.2, 0.1, 0.2)

    def test_parameter_derivation(self):
        k, rho, tau, clamped = corollary1_parameters(4096, 2.0 / 3.0, 0.3, 0.2)
        assert k == 256
        assert rho == pytest.approx(4096**0.3)
        assert tau == pytest.approx(4096**-0.2)
        assert not clamped

    def test_tau_clamped_and_flagged(self):
        # d^-0.05 > 1/2 for small d
        _, _, tau, clamped = corollary1_parameters(4, 2.0 / 3.0, 0.3, 0.05)
        assert tau == 0.5
        assert clamped

    def test_width_clamped_to_dimension(self):
        k, _, _, _ = corollary1_parameters(3, 1.0, 0.0, 0.3)
        assert k == 3

    @pytest.mark.parametrize("workers", [1, 2, 3, None])
    def test_worker_count_does_not_change_results(self, workers):
        def sweep(workers):
            verdict, rows = corollary1_sweep(
                2.0 / 3.0, 0.3, 0.2, (64, 128), trials=60, seed=77, workers=workers
            )
            return strip_runtime(verdict_to_text(verdict)), rows

        assert sweep(workers) == sweep(1)

    def test_small_sweep_passes(self):
        verdict, rows = corollary1_sweep(
            2.0 / 3.0, 0.3, 0.2, (64, 256), trials=150, seed=17
        )
        assert [row["d"] for row in rows] == [64, 256]
        assert verdict.passed
        assert verdict.measured["accuracy_d256"] >= verdict.measured["accuracy_d64"] - 0.05


class TestTheorem2Suite:
    def test_small_run_crosses_always(self):
        verdict = theorem2_suite(
            n_datasets=4, d=2, k=4, n_pos=2, n_neg=2,
            step_size=1e-3, max_steps=1_000_000, seed=23,
        )
        assert verdict.passed
        assert verdict.measured["crossings"] == 8
        assert verdict.measured["crossings_exponential"] == 4
        assert verdict.measured["crossings_logistic"] == 4
        assert verdict.measured["correct_after_crossing"] == 8

    def test_insufficient_budget_fails_honestly(self):
        verdict = theorem2_suite(
            n_datasets=2, d=2, k=4, n_pos=2, n_neg=2,
            step_size=1e-3, max_steps=1, seed=23,
        )
        assert not verdict.passed
        assert verdict.measured["crossings"] == 0


class TestCorollary2Suite:
    def test_four_point_run_passes_all_checks(self):
        verdict = corollary2_suite(seed=11)
        assert verdict.passed
        assert verdict.measured["min_cosine"] >= 0.99
        assert verdict.measured["mass_ratio"] == pytest.approx(1.0, abs=0.02)
        assert verdict.measured["log10_norm_growth"] >= 1.0
        assert verdict.measured["log10_final_loss"] <= -6.0
        assert not verdict.measured["inconclusive"]

    def test_budget_exhaustion_is_inconclusive(self):
        verdict = corollary2_suite(seed=11, budget_steps=10)
        assert not verdict.passed
        assert verdict.measured["inconclusive"]

    def test_deterministic_replay(self):
        a = verdict_to_text(corollary2_suite(seed=12))
        b = verdict_to_text(corollary2_suite(seed=12))
        assert strip_runtime(a) == strip_runtime(b)


def reference_log_loss_and_weights(w, a, xs, ys, kind):
    """The directional-limit step's loss and weights, written out without
    the shared kernel."""
    pre = xs @ w.T
    act = pre > 0.0
    margins = ys * (np.where(act, pre, 0.0) @ a)
    m_min = float(np.min(margins))
    rel = np.exp(m_min - margins)
    if kind == "logistic":
        ratio = np.ones_like(margins)
        small = margins < 35.0
        ms = margins[small]
        ratio[small] = np.exp(ms) * np.log1p(np.exp(-ms))
        log_loss = -m_min + math.log(float(np.sum(rel * ratio)))
        weights = rel / (1.0 + np.exp(-margins))
    else:
        log_loss = -m_min + math.log(float(np.sum(rel)))
        weights = rel
    return log_loss, weights, act, pre


def reference_chunk(w, a, xs, ys, kind, step, steps):
    w, a = w.copy(), a.copy()
    for _ in range(steps):
        _, weights, act, pre = reference_log_loss_and_weights(w, a, xs, ys, kind)
        coeff = weights * ys
        grad_a = np.where(act, pre, 0.0).T @ coeff
        grad_w = a[:, None] * ((act * coeff[:, None]).T @ xs)
        w += step * grad_w
        a += step * grad_a
    return w, a


class TestDirectionalLimitStep:
    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    @pytest.mark.parametrize("trained", [False, True])
    def test_chunks_match_reference_bitwise(self, kind, trained):
        # from the initialisation, margins sit near 0, below the logistic
        # cutoff of 35; after 4000 training steps they are in the hundreds
        # or more, deep in the margin-shifted range
        data = four_point_dataset()
        xs, ys = data.points, data.labels
        theta = balanced_live_init(data, 8, 0.1, SeededRng(41, 0))
        if trained:
            theta = train_to_directional_limit(theta, data, kind, 1e-3, 4000)[0]
        w, a = theta.weights, theta.outputs
        ref_w, ref_a = w.copy(), a.copy()
        max_x2 = float(np.max(np.sum(xs * xs, axis=1)))
        for _ in range(3):
            log_loss = _log_loss(w, a, xs, ys, kind)
            assert log_loss == reference_log_loss_and_weights(w, a, xs, ys, kind)[0]
            step = 0.5 / (1.0 + float(np.max(np.sum(w * w, axis=1) + a * a)) * max_x2)
            w, a = _rescaled_chunk(w, a, xs, ys, kind, step, 1000)
            ref_w, ref_a = reference_chunk(ref_w, ref_a, xs, ys, kind, step, 1000)
            assert w.tobytes() == ref_w.tobytes()
            assert a.tobytes() == ref_a.tobytes()

    def test_chunk_leaves_its_input_alone(self):
        data = four_point_dataset()
        theta = balanced_live_init(data, 8, 0.1, SeededRng(42, 0))
        before = theta.copy()
        _rescaled_chunk(theta.weights, theta.outputs, data.points, data.labels,
                        "exponential", 1e-2, 10)
        assert theta.weights.tobytes() == before.weights.tobytes()
        assert theta.outputs.tobytes() == before.outputs.tobytes()


class TestPropositionSuite:
    def test_small_run_respects_bound(self):
        verdict = proposition_suite(seed=31, trials=1500, opt_steps=100)
        assert verdict.passed
        for key, limit in verdict.threshold.items():
            assert verdict.measured[key] <= limit

    @pytest.mark.parametrize("rank,tail", [(2, 0.0), (2, 1e-6), (8, 0.0)])
    def test_pseudo_inverse_program_matches_eigh_reference(self, rank, tail):
        # the analytic program of a trained (rank-deficient) network is
        # pinv(W, rcond=1e-5) @ b; the reference is the spectral
        # pseudo-inverse of W Wᵀ with eigenvalue cutoff 1e-10 * lambda_max.
        # A nonzero tail adds a singular value near 1e-6 sigma_max, which
        # both cutoffs must drop.
        rng = SeededRng(43, rank)
        factor = rng.gaussian(8 * rank).reshape(8, rank)
        weights = factor @ rng.gaussian(rank * 64).reshape(rank, 64)
        weights += tail * np.outer(rng.gaussian(8), rng.gaussian(64))
        bias = build_target_bias(64, 8, np.array([1, 4, 6]))
        eigval, eigvec = np.linalg.eigh(weights @ weights.T)
        cutoff = 1e-10 * float(eigval[-1])
        inverse = np.where(eigval > cutoff, 1.0 / np.where(eigval > cutoff, eigval, 1.0), 0.0)
        reference = weights.T @ (eigvec @ (inverse * (eigvec.T @ bias)))
        program = np.linalg.pinv(weights, rcond=1e-5) @ bias
        np.testing.assert_allclose(program, reference, rtol=0.0, atol=1e-12)

    def test_signed_vertex_maximises_alignment(self):
        delta = np.array([0.3, -2.0, 0.0, 1.4])
        phi = signed_vertex_against(delta, m=1)
        assert np.all(np.abs(phi) == 0.5)
        # cos(delta, phi) = -|delta|_1 / (2 |delta|) is the extreme value
        cos = float(delta @ phi) / np.linalg.norm(delta)
        assert cos == pytest.approx(
            -np.sum(np.abs(delta)) / (2.0 * np.linalg.norm(delta)), rel=1e-12
        )
        # zero coordinates resolve to +1 before the -m flip
        assert phi[2] == -0.5


class TestAppendixASuite:
    def test_small_run_passes(self):
        verdict = appendix_a_suite(
            seed=41, partition_trials=2000, sv_trials=120
        )
        assert verdict.passed
        assert verdict.measured["max_bias_norm_error"] <= 1e-9
        assert verdict.measured["sv_failure_rate"] <= verdict.threshold["sv_failure_rate"]

    def test_deterministic_replay(self):
        a = verdict_to_text(appendix_a_suite(seed=42, partition_trials=500, sv_trials=40))
        b = verdict_to_text(appendix_a_suite(seed=42, partition_trials=500, sv_trials=40))
        assert strip_runtime(a) == strip_runtime(b)


class TestSuiteVerdict:
    def test_threshold_keys_must_be_measured(self):
        with pytest.raises(ValueError):
            SuiteVerdict(
                name="x", passed=True, seed=0, runtime_seconds=0.0,
                measured={}, threshold={"missing": 1.0},
            )

    def test_text_rendering_is_sorted_and_typed(self):
        verdict = SuiteVerdict(
            name="demo", passed=False, seed=3, runtime_seconds=1.5,
            measured={"b": 2, "a": 0.5, "flag": True}, threshold={"a": 1.0},
        )
        text = verdict_to_text(verdict)
        assert "passed = false" in text
        assert text.index("measured.a") < text.index("measured.b")
        assert "measured.flag = true" in text
        assert "threshold.a = 1" in text


def test_four_point_dataset_shape():
    data = four_point_dataset()
    assert data.n == 4 and data.d == 2
    assert list(data.labels) == [1.0, 1.0, -1.0, -1.0]
