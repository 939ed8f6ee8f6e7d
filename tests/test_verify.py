"""Tests for the verification suites: closed forms, flag semantics,
determinism, and small-scale passes of every suite."""

import math
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from reprogram_lab import gradient_flow, numerics, reprogram, verify
from reprogram_lab.errors import ConfigError, TieEncountered
from reprogram_lab.data_models import (
    BernoulliModel,
    LabeledDataset,
    random_hypercube_direction,
    sample_bernoulli,
)
from reprogram_lab.gradient_flow import (
    _log_loss,
    _rescaled_chunk,
    balanced_live_init,
    train,
    train_to_crossing,
)
from reprogram_lab.maxmargin import failure_probability_bound, max_margin_vector
from reprogram_lab.network import Kernel, TwoLayerNet, forward, random_init
from reprogram_lab.numerics import SeededRng
from reprogram_lab.reprogram import (
    build_target_bias,
    construct_program,
    optimize_program,
    reprogrammed_accuracy,
)
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


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the suites see n available CPUs and run trials of
    every size (``min_weights`` = 0 and up) on n threads."""
    def use(count: int, min_weights: int = 0) -> None:
        monkeypatch.setattr(verify, "available_cpus", lambda: count)
        monkeypatch.setattr(verify, "_THREADS_MIN_WEIGHTS", min_weights)

    return use


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
        with pytest.raises(ConfigError, match="^tau must"):
            theorem1_rhs(100, 10, 1.0, 0.01, 0.1, 0.5)

    def test_width_cannot_exceed_dimension(self):
        with pytest.raises(ValueError):
            theorem1_rhs(10, 11, 1.0, 0.3, 0.1, 0.1)

    def test_dimension_past_float_range_is_a_config_error(self):
        # 2 d tau^2 would raise OverflowError converting d to float
        with pytest.raises(ConfigError, match="^d must not exceed"):
            theorem1_rhs(10**400, 4, 2.0, 0.3, 0.01, 0.01)

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

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_worker_count_does_not_change_results(self, cpus, count):
        assert WORKERS_T1.k * WORKERS_T1.d < verify._THREADS_MIN_WEIGHTS
        serial = verdict_to_text(theorem1_montecarlo(WORKERS_T1))  # the calling thread
        cpus(count)
        threaded = verdict_to_text(theorem1_montecarlo(WORKERS_T1))
        assert strip_runtime(serial) == strip_runtime(threaded)

    def test_default_workers_thread_only_large_trials(self, monkeypatch, cpus):
        threads = []

        def recording_block(args):
            threads.append(threading.get_ident())
            return original_block(args)

        original_block = verify._theorem1_block
        monkeypatch.setattr(verify, "_theorem1_block", recording_block)
        cpus(2, verify._THREADS_MIN_WEIGHTS)
        assert WORKERS_T1.k * WORKERS_T1.d < verify._THREADS_MIN_WEIGHTS
        expected = verdict_to_text(theorem1_montecarlo(WORKERS_T1))
        assert set(threads) == {threading.get_ident()}
        if numerics._openblas_thread_functions() is None:
            pytest.skip("blocks run in the calling thread without a BLAS thread setter")
        threads.clear()
        monkeypatch.setattr(verify, "_THREADS_MIN_WEIGHTS", WORKERS_T1.k * WORKERS_T1.d)
        got = verdict_to_text(theorem1_montecarlo(WORKERS_T1))
        assert threading.get_ident() not in threads
        assert strip_runtime(got) == strip_runtime(expected)

    def test_a_failed_block_raises_once_every_started_block_has_ended(self, monkeypatch, cpus):
        functions = numerics._openblas_thread_functions()
        if functions is None:
            pytest.skip("blocks run in the calling thread without a BLAS thread setter")
        blas_threads = functions[0]
        before = blas_threads()
        started, ended, failed_on = set(), set(), []

        def failing_block(args):
            started.add(args[1])
            try:
                if args[1] == verify._TRIAL_BLOCK:
                    failed_on.append(threading.get_ident())
                    raise RuntimeError("block failed")
                time.sleep(0.05)  # still running when the failure arrives
                return original_block(args)
            finally:
                ended.add(args[1])

        original_block = verify._theorem1_block
        monkeypatch.setattr(verify, "_theorem1_block", failing_block)
        cpus(2, WORKERS_T1.k * WORKERS_T1.d)
        with pytest.raises(RuntimeError, match="block failed"):
            theorem1_montecarlo(WORKERS_T1)
        assert failed_on and threading.get_ident() not in failed_on
        assert ended == started
        assert len(started) < WORKERS_T1.trials // verify._TRIAL_BLOCK  # the rest were cancelled
        assert blas_threads() == before

    def test_no_trial_thread_outlives_a_suite(self, monkeypatch, cpus):
        if numerics._openblas_thread_functions() is None:
            pytest.skip("blocks run in the calling thread without a BLAS thread setter")
        ran_on = set()

        def recording_block(args):
            ran_on.add(threading.current_thread().name)
            return original_block(args)

        original_block = verify._theorem1_block
        monkeypatch.setattr(verify, "_theorem1_block", recording_block)
        cpus(2)
        theorem1_montecarlo(WORKERS_T1)
        assert ran_on and all(name.startswith("trial-block") for name in ran_on)
        assert not [t for t in threading.enumerate() if t.name.startswith("trial-block")]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_blocks_on_its_own_threads(self, cpus):
        cpus(2)
        theorem1_montecarlo(WORKERS_T1)  # the parent has run trial threads
        pid = os.fork()
        if pid == 0:
            try:
                verdict = theorem1_montecarlo(WORKERS_T1)
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

    def test_without_blas_setter_blocks_run_serially_in_order(self, monkeypatch, cpus):
        cpus(2)
        expected = verdict_to_text(theorem1_montecarlo(WORKERS_T1))
        calls = []

        def recording_block(args):
            calls.append((args[1], threading.get_ident()))
            return original_block(args)

        original_block = verify._theorem1_block
        monkeypatch.setattr(numerics, "_openblas_thread_functions", lambda: None)
        monkeypatch.setattr(verify, "_theorem1_block", recording_block)
        got = verdict_to_text(theorem1_montecarlo(WORKERS_T1))
        assert strip_runtime(got) == strip_runtime(expected)
        assert [start for start, _ in calls] == list(range(0, 120, verify._TRIAL_BLOCK))
        assert {ident for _, ident in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("d, k, rho, tau, gamma, gamma_dag, positive", [
        (4096, 256, 4096**0.3, 4096**-0.2, 0.01, 0.01, False),  # the CLI default, rhs -1.87
        (256, 128, 1.0, 0.5, 0.99, 0.99, True),
    ])
    def test_rhs_positive_flag(self, d, k, rho, tau, gamma, gamma_dag, positive):
        cfg = Theorem1Config(
            d=d, k=k, rho=rho, tau=tau, gamma=gamma, gamma_dag=gamma_dag, trials=2, seed=5,
        )
        verdict = theorem1_montecarlo(cfg)
        assert verdict.measured["rhs_positive"] is positive
        assert (verdict.measured["rhs_value"] > 0.0) is positive
        if not positive:
            assert verdict.measured["rhs_value"] == pytest.approx(-1.87, abs=0.005)

    def test_construction_error_counts_as_a_violation(self, monkeypatch):
        cfg = Theorem1Config(
            d=16, k=7, rho=16**0.3, tau=0.5, gamma=0.01, gamma_dag=0.01, trials=10, seed=5,
        )
        clean = theorem1_montecarlo(cfg).measured
        fail_third_partition(monkeypatch)
        measured = theorem1_montecarlo(cfg).measured
        assert (clean["construction_errors"], clean["violations"], clean["accuracy"]) == (0, 0, 1.0)
        assert measured["construction_errors"] == 1
        assert measured["violations"] == 1
        assert measured["accuracy"] == 0.9

    def test_vacuous_floor_flagged_and_passes(self):
        cfg = Theorem1Config(
            d=64, k=16, rho=2.0, tau=0.4, gamma=0.45, gamma_dag=0.01,
            trials=50, seed=5,
        )
        verdict = theorem1_montecarlo(cfg)
        assert verdict.measured["probability_floor"] <= 0.0
        assert verdict.measured["vacuous"]
        assert verdict.passed

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: at d = 256 the threshold rhs is -3.31, so outputs of a net with "
        "no program clear it too (0 violations of 300 against 0.065; accuracy 0.483, not "
        "0.963); a positive-rhs config in reduced mode is needed before this can fail"
    ))
    def test_fails_without_a_program(self, monkeypatch):
        plant_zero_program(monkeypatch)
        cfg = Theorem1Config(
            d=256, k=41, rho=256**0.3, tau=256**-0.2, gamma=0.01, gamma_dag=0.01,
            trials=300, seed=97531,
        )
        assert theorem1_montecarlo(cfg).passed is False


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
                except ConfigError:
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
        with pytest.raises(ConfigError, match="^eta_tau must"):
            validate_exponents(2.0 / 3.0, 0.3, 0.4)  # eta_tau >= eta_k / 2
        with pytest.raises(ConfigError, match="^eta_rho must"):
            validate_exponents(2.0 / 3.0, 0.7, 0.2)  # eta_rho >= 1 - eta_k / 2
        with pytest.raises(ConfigError, match="^eta_k must"):
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

    def test_default_workers_are_chosen_per_dimension(self, monkeypatch, cpus):
        if numerics._openblas_thread_functions() is None:
            pytest.skip("blocks run in the calling thread without a BLAS thread setter")
        threads = {16: set(), 32: set()}

        def recording_block(args):
            threads[args[3]].add(threading.get_ident())
            return original_block(args)

        original_block = verify._corollary1_block
        monkeypatch.setattr(verify, "_corollary1_block", recording_block)
        k32 = corollary1_parameters(32, 2.0 / 3.0, 0.3, 0.2)[0]
        cpus(2, k32 * 32)  # above d = 16's
        corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), trials=20, seed=5)
        assert threads[16] == {threading.get_ident()}
        assert threading.get_ident() not in threads[32]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_worker_count_does_not_change_results(self, cpus, count):
        def sweep():
            verdict, rows = corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (64, 128), trials=60, seed=77)
            return strip_runtime(verdict_to_text(verdict)), rows

        serial = sweep()  # small trials: the calling thread
        cpus(count)
        assert sweep() == serial

    def test_small_sweep_passes(self):
        # this config passed at all of seeds 1-40; (64, 256) at 150 trials
        # passed at only 27 of them
        verdict, rows = corollary1_sweep(
            2.0 / 3.0, 0.3, 0.2, (256, 1024), trials=600, seed=17
        )
        assert [row["d"] for row in rows] == [256, 1024]
        assert verdict.passed
        assert verdict.measured["accuracy_d1024"] >= verdict.measured["accuracy_d256"] - 0.05

    def test_fails_without_a_program(self, monkeypatch):
        # With the program zeroed, this config failed at seeds 1, 2, 3 and
        # 17, with a gap of at most 0.027 against about 0.058 needed.
        plant_zero_program(monkeypatch)
        verdict, _ = corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (256, 1024), trials=600, seed=17)
        assert verdict.passed is False

    @pytest.mark.parametrize("d_list", [(1024, 256), (256, 256)], ids=["decreasing", "repeated"])
    def test_d_list_must_increase_before_any_trial(self, monkeypatch, d_list):
        # the verdict compares the first d with the last, as smallest and largest
        def no_trials(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(verify, "_corollary1_block", no_trials)
        with pytest.raises(ValueError, match="d_list must be strictly increasing"):
            corollary1_sweep(2.0 / 3.0, 0.3, 0.2, d_list, trials=10, seed=1)

    def test_trials_below_2_24_keep_dimensions_apart_before_any_trial(self, monkeypatch):
        # trial 2^24 at d would draw from trial 0's stream at d + 1
        def no_trials(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(verify, "_corollary1_block", no_trials)
        with pytest.raises(ConfigError, match="trials must be below 2\\^24"):
            corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 17), trials=1 << 24, seed=1)

    def test_construction_error_counts_as_a_failed_trial(self, monkeypatch):
        def sweep():
            verdict, _ = corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), trials=10, seed=5)
            return verdict.measured

        clean = sweep()
        fail_third_partition(monkeypatch)
        measured = sweep()
        assert (clean["construction_errors_d16"], clean["construction_errors_d32"]) == (0, 0)
        assert (measured["construction_errors_d16"], measured["construction_errors_d32"]) == (1, 0)
        assert clean["accuracy_d16"] == 1.0  # so the failed trial was a success
        assert measured["accuracy_d16"] == 0.9
        assert measured["accuracy_d32"] == clean["accuracy_d32"]


def solve_based_trial(rng, d, k, rho, tau):
    """The trial value with the program built: y * N(p + x), p from the solve."""
    net = random_init(d, k, rng)
    phi = random_hypercube_direction(d, rng)
    offset = construct_program(net, phi)
    xs, ys = sample_bernoulli(BernoulliModel(direction=phi, rho=rho, tau=tau), 1, rng)
    return ys[0] * forward(net, offset + xs[0]), float(np.linalg.norm(offset))


@pytest.mark.parametrize("d, k", [(256, 41), (1024, 102), (64, 64)])
def test_trial_reads_the_program_through_its_target_bias(d, k):
    # y * N(p + x) depends on p only through W p = b.  The solve-based value
    # rounds W (p + x) with entries of size norm(p), which reaches 1e5 at
    # k = d, so its error is relative to that norm too.
    rho, tau = d**0.3, min(d**-0.2, 0.5)
    rhs = theorem1_rhs(d, k, rho, tau, 0.01, 0.01)
    for i in range(300):
        value = verify._reprogram_trial(SeededRng(11, i), d, k, rho, tau)
        solved, p_norm = solve_based_trial(SeededRng(11, i), d, k, rho, tau)
        assert abs(value - solved) <= 1e-12 * max(1.0, abs(value), p_norm), i
        assert (value > 0.0, value > rhs) == (solved > 0.0, solved > rhs), i


def test_monte_carlo_suites_run_no_solve(monkeypatch):
    def no_solve(mat, rhs):
        raise AssertionError("a trial solved for its program")

    monkeypatch.setattr(reprogram, "min_norm_solve", no_solve)
    assert theorem1_montecarlo(WORKERS_T1).passed
    assert corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), 10, 1)[0].passed


def test_trial_streams_follow_each_suites_formula(monkeypatch):
    # one block body serves both suites, and each keeps its own stream ids
    streams = []

    class RecordingRng(SeededRng):
        def __init__(self, master_seed, stream_id=0):
            streams.append(stream_id)
            super().__init__(master_seed, stream_id)

    monkeypatch.setattr(verify, "SeededRng", RecordingRng)
    theorem1_montecarlo(Theorem1Config(
        d=16, k=7, rho=16**0.3, tau=0.5, gamma=0.01, gamma_dag=0.01, trials=7, seed=1,
    ))
    assert streams == [verify._BASE_THEOREM1 + i for i in range(7)]
    streams.clear()
    corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), trials=7, seed=1)
    assert streams == [verify._BASE_COROLLARY1 + (d << 24) + i for d in (16, 32) for i in range(7)]


def test_monte_carlo_suites_draw_no_weight_matrix(monkeypatch):
    def no_net(d, k, rng):
        raise AssertionError("a trial drew its whole weight matrix")

    monkeypatch.setattr(verify, "random_init", no_net)
    assert theorem1_montecarlo(WORKERS_T1).passed
    assert corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), 10, 1)[0].passed


@pytest.mark.parametrize("d, k", [(256, 41), (1001, 41), (64, 64)])
def test_trial_draws_what_the_materialised_net_draws(monkeypatch, d, k):
    # a, phi, x and y bit for bit as when W is drawn whole, before them,
    # and the stream ends at the same position
    seen = {}

    def recording(name):
        original = getattr(verify, name)

        def record(*args, **kwargs):
            seen[name] = result = original(*args, **kwargs)
            return result

        monkeypatch.setattr(verify, name, record)

    for name in ("random_init_products", "random_hypercube_direction", "sample_bernoulli"):
        recording(name)
    rho, tau = d**0.3, min(d**-0.2, 0.5)
    for i in range(5):
        rng, reference = SeededRng(13, i), SeededRng(13, i)
        verify._reprogram_trial(rng, d, k, rho, tau)
        net = random_init(d, k, reference)
        phi = random_hypercube_direction(d, reference)
        xs, ys = sample_bernoulli(BernoulliModel(direction=phi, rho=rho, tau=tau), 1, reference)
        assert seen["random_init_products"][0].tobytes() == net.outputs.tobytes()
        assert seen["random_hypercube_direction"].tobytes() == phi.tobytes()
        assert seen["sample_bernoulli"][0].tobytes() == xs.tobytes()
        assert seen["sample_bernoulli"][1].tobytes() == ys.tobytes()
        assert rng._counter == reference._counter


def test_trial_at_the_acceptance_shape_holds_no_weight_matrix():
    # W alone is 8 MB at d = 4096, k = 256; the trial holds one Box-Muller
    # block of it.  A fresh thread has no buffers of an earlier trial.
    d, k = 4096, 256
    peaks = []

    def one_trial():
        tracemalloc.start()
        try:
            verify._reprogram_trial(SeededRng(97531, 1), d, k, d**0.3, d**-0.2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=one_trial)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert peaks and peaks[0] < 3 * 2**20


def fail_third_partition(monkeypatch) -> None:
    """Make the third call to partition_scores from the trial path raise
    TieEncountered, the one construction error."""
    calls = []
    partition = verify.partition_scores

    def third_call_fails(scores):
        calls.append(scores)
        if len(calls) == 3:
            raise TieEncountered("injected construction error")
        return partition(scores)

    monkeypatch.setattr(verify, "partition_scores", third_call_fails)


def plant_zero_program(monkeypatch) -> None:
    """Zero the trial path's target bias, which is its program p = 0: W 0 = 0."""
    monkeypatch.setattr(verify, "build_target_bias", lambda d, k, unhelpful: np.zeros(k))


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

    def test_fails_when_a_point_carries_both_labels(self, monkeypatch):
        # l(u) + l(-u) >= 2 l(0) > l(0), so no run can ever cross; the runs
        # leave the stacked trainer only when the step budget is spent
        generate = verify.generate_orthosep

        def repeated_point(d, n_pos, n_neg, rng):
            data = generate(d, n_pos, n_neg, rng)
            points = data.points.copy()
            points[-1] = points[0]
            return LabeledDataset(points, data.labels)

        monkeypatch.setattr(verify, "generate_orthosep", repeated_point)
        verdict = theorem2_suite(
            n_datasets=3, d=2, k=4, n_pos=2, n_neg=2, step_size=1e-2, max_steps=3000, seed=7,
        )
        assert verdict.passed is False
        assert verdict.measured["runs"] == 6
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

    def test_fails_with_margin_vectors_swapped(self, monkeypatch):
        # every surviving neuron is then compared with the other sign's
        # max-margin vector, which points the opposite way
        report = verify.convergence_report
        monkeypatch.setattr(
            verify, "convergence_report",
            lambda theta, v_pos, v_neg: report(theta, v_neg, v_pos),
        )
        verdict = corollary2_suite(seed=11)
        assert verdict.passed is False
        assert verdict.measured["min_cosine"] == pytest.approx(-1.0)

    def test_budget_exhaustion_is_inconclusive(self):
        verdict = corollary2_suite(seed=11, budget_steps=10)
        assert not verdict.passed
        assert verdict.measured["inconclusive"]
        assert verdict.measured["direction_period"] == 0

    @pytest.mark.parametrize("seed, period", [(97531, 2), (30, 2), (71, 3)])
    def test_cycling_direction_stops_training(self, seed, period):
        # The chunk-end direction here cycles with period 2, 2 and 3 and
        # never stops moving; a stop that compares each chunk only with
        # the one before it runs until the rescaled-time budget is spent.
        verdict = corollary2_suite(seed=seed)
        assert verdict.passed
        assert verdict.measured["steps_used"] <= 20_000
        assert verdict.measured["direction_period"] == period

    # the first four of the 45 seeds in 10-129 whose direction stops moving
    @pytest.mark.parametrize("seed, steps", [(10, 6000), (14, 5000), (19, 5000), (20, 6000)])
    def test_still_direction_stops_where_it_did(self, seed, steps):
        verdict = corollary2_suite(seed=seed)
        assert verdict.passed
        assert verdict.measured["steps_used"] == steps
        assert verdict.measured["direction_period"] == 1

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
    return log_loss, m_min, weights, act, pre


def reference_chunk(w, a, xs, ys, kind, step, steps):
    w, a = w.copy(), a.copy()
    for _ in range(steps):
        _, _, weights, act, pre = reference_log_loss_and_weights(w, a, xs, ys, kind)
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
        kernel = Kernel.for_run(xs, ys, theta.weights, theta.outputs)
        w, a = kernel.w, kernel.a
        ref_w, ref_a = theta.weights.copy(), theta.outputs.copy()
        max_x2 = float(np.max(np.sum(xs * xs, axis=1)))
        for _ in range(3):
            log_loss, m_min = _log_loss(kernel.forward(), kind)
            assert (log_loss, m_min) == reference_log_loss_and_weights(w, a, xs, ys, kind)[:2]
            step = 0.25 / (1.0 + float(np.max(np.sum(w * w, axis=1) + a * a)) * max_x2)
            _rescaled_chunk(kernel, kind, step, 1000)
            ref_w, ref_a = reference_chunk(ref_w, ref_a, xs, ys, kind, step, 1000)
            assert w.tobytes() == ref_w.tobytes()
            assert a.tobytes() == ref_a.tobytes()


class TestDirectionalLimit:
    @pytest.mark.parametrize("target", [math.nan, math.inf])  # the CLI tests take 0 and -1
    def test_target_must_be_positive_and_finite(self, target):
        data = four_point_dataset()
        theta = balanced_live_init(data, 8, 0.1, SeededRng(41, 0))
        with pytest.raises(ValueError, match="target_loss must be positive and finite"):
            train_to_directional_limit(theta, data, "exponential", target, 2000)

    def test_theta0_is_left_alone(self):
        # the run passes a rescale and stops on a period-2 return
        data = four_point_dataset()
        theta = balanced_live_init(data, 8, 0.1, SeededRng(97531, verify._BASE_COROLLARY2))
        before_w, before_a = theta.weights.tobytes(), theta.outputs.tobytes()
        train_to_directional_limit(theta, data, "exponential", 1e-6, 100_000)
        assert theta.weights.tobytes() == before_w
        assert theta.outputs.tobytes() == before_a

    @pytest.mark.parametrize("spoil", [0.0, math.nan])
    def test_a_chunk_that_raises_the_loss_is_undone_and_ends_training(self, monkeypatch, spoil):
        # the third chunk, which starts on a rescale, ends on weights all
        # equal to ``spoil``: margins of 0 (the loss of an untrained net) or nan
        data = four_point_dataset()
        theta = balanced_live_init(data, 8, 0.1, SeededRng(97531, verify._BASE_COROLLARY2))
        two_chunks = train_to_directional_limit(theta, data, "exponential", 1e-6, 2000)
        chunk, starts = gradient_flow._rescaled_chunk, []

        def spoil_third(kernel, kind, step, steps):
            starts.append(kernel.theta.copy())
            chunk(kernel, kind, step, steps)
            if len(starts) == 3:
                kernel.theta[:] = spoil

        monkeypatch.setattr(gradient_flow, "_rescaled_chunk", spoil_third)
        with np.errstate(invalid="ignore"):
            net, used, log_loss, log_growth, period = train_to_directional_limit(
                theta, data, "exponential", 1e-6, 100_000
            )
        assert len(starts) == 3 and (used, period) == (2000, 0)
        assert np.concatenate([net.weights.ravel(), net.outputs]).tobytes() == starts[2].tobytes()
        margins = Kernel(data.points, data.labels, net.weights, net.outputs).forward()
        assert log_loss == _log_loss(margins, "exponential")[0] > two_chunks[2]
        assert log_growth == two_chunks[3]

    def test_a_rescale_does_not_undo_reaching_the_target(self):
        # A rescale raises the loss.  When that took a loss that had reached
        # a target below n * exp(-2 * MARGIN_REF) = 1.3e-69 back above it, the
        # steps went back to their form above target, which moved the run:
        # at 1e-100 it stopped after 40,000 steps on a period-10 return.
        # Here the chunk that first reaches 1e-6 also passes 1e-100.
        data = four_point_dataset()
        theta = balanced_live_init(data, 8, 0.1, SeededRng(97531, verify._BASE_COROLLARY2))
        high = train_to_directional_limit(theta, data, "exponential", 1e-6, 100_000)
        low = train_to_directional_limit(theta, data, "exponential", 1e-100, 100_000)
        assert low[1:] == high[1:] and low[1] == 6000 and low[4] == 2
        assert low[0].weights.tobytes() == high[0].weights.tobytes()

    def test_steps_above_target_are_plain_steps_scaled_by_the_loss(self, monkeypatch):
        # proposition's training at its defaults.  With steps above target
        # not divided by r = loss * exp(min margin), the weight norm grew by
        # e^70 before the direction came back
        results = []

        def spy(*args, **kwargs):
            results.append(train_to_directional_limit(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(verify, "train_to_directional_limit", spy)
        proposition_suite(seed=97531, trials=200, opt_steps=5)
        _, _, log_loss, log_growth, period = results[0]
        assert period == 1
        assert log_loss <= math.log(1e-6)
        assert log_growth < 30.0


class TestPropositionSuite:
    def test_small_run_respects_bound(self):
        verdict = proposition_suite(seed=31, trials=1500, opt_steps=100)
        assert verdict.passed
        for key, limit in verdict.threshold.items():
            assert verdict.measured[key] <= limit

    def test_fails_on_an_untrained_net(self, monkeypatch):
        # The bound is about trained nets; a random net can be reprogrammed.
        # Over seeds 1-12 this config failed at 1, 2, 3, 5, 7, 9, 10 and 12;
        # seed 3 failed by the widest excess, 0.20 over its limit.
        monkeypatch.setattr(
            verify, "train_to_directional_limit",
            lambda theta0, *args, **kwargs: (theta0, 0, 0.0, 0.0, 0),
        )
        verdict = proposition_suite(seed=3, trials=4000, opt_steps=100)
        assert verdict.passed is False
        assert verdict.measured["train_steps"] == 0

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
        # at the default sv_d = 1024, sv_k = 32 the lower bound has teeth
        assert verdict.measured["sv_lower_bound_positive"] is True

    def test_fails_with_rows_too_long(self, monkeypatch):
        # rows drawn at 1.1/sqrt(d) put s_max above the bound: over seeds
        # 1-12 the failure rate was 0.485-0.595 against a limit of 0.031
        init = verify.random_init

        def long_rows(d, k, rng):
            net = init(d, k, rng)
            return TwoLayerNet(1.1 * net.weights, net.outputs)

        monkeypatch.setattr(verify, "random_init", long_rows)
        verdict = appendix_a_suite(seed=1, partition_trials=200, sv_trials=200)
        assert verdict.passed is False
        assert verdict.measured["sv_failure_rate"] > verdict.threshold["sv_failure_rate"]

    def test_fails_with_neurons_unhelpful_at_rate_045(self, monkeypatch):
        # P(no unhelpful neuron) is then 0.55^k, not 2^-k; over seeds s = 1-12,
        # with coins from stream 99 of s, the k = 4 rate was off by
        # 0.020-0.036, against a slack of 0.016
        coins = SeededRng(1, 99)

        def biased_partition(net, direction):
            unhelpful = coins.random(net.k) < 0.45
            return np.flatnonzero(~unhelpful), np.flatnonzero(unhelpful)

        monkeypatch.setattr(verify, "partition_neurons", biased_partition)
        verdict = appendix_a_suite(seed=1, partition_trials=2000, sv_d=64, sv_k=8, sv_trials=20)
        assert verdict.passed is False
        key = "empty_rate_error_k4"
        assert verdict.measured[key] > verdict.threshold[key]

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
            measured={"b": 2, "a": 0.5, "flag": True, "np_flag": np.False_},
            threshold={"a": 1.0},
        )
        text = verdict_to_text(verdict)
        assert "passed = false" in text
        assert text.index("measured.a") < text.index("measured.b")
        assert "measured.flag = true" in text
        assert "measured.np_flag = false" in text
        assert "threshold.a = 1" in text


def test_four_point_dataset_shape():
    data = four_point_dataset()
    assert data.points.shape == (4, 2)
    assert list(data.labels) == [1.0, 1.0, -1.0, -1.0]



def _nan_calls():
    """call -> (expected error, its message pattern, the call)"""
    data = four_point_dataset()
    theta = balanced_live_init(data, 4, 0.5, SeededRng(5, 0))
    net = random_init(16, 4, SeededRng(5, 1))
    model = BernoulliModel(direction=np.full(16, 0.25), rho=4.0, tau=0.2)
    model_d4 = BernoulliModel(direction=np.full(4, 0.5), rho=4.0, tau=0.2)
    nan_entry = np.eye(2, 4)
    nan_entry[0, 0] = math.nan
    v_pos, v_neg = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    return {
        "theorem1_rhs": (
            ConfigError, "^rho must be positive",
            lambda: theorem1_rhs(64, 8, math.nan, 0.4, 0.05, 0.01),
        ),
        # rhs was -inf, and NaN trial values counted as ties
        "theorem1_montecarlo-rho-inf": (
            ConfigError, "^rho must be positive and finite",
            lambda: theorem1_montecarlo(Theorem1Config(
                d=16, k=4, rho=math.inf, tau=0.5, gamma=0.01, gamma_dag=0.01, trials=5, seed=1,
            )),
        ),
        "BernoulliModel-rho-inf": (
            ConfigError, "^rho must be positive and finite",
            lambda: BernoulliModel(direction=np.full(16, 0.25), rho=math.inf, tau=0.2),
        ),
        "optimize_program": (
            ConfigError, "^lr must be positive",
            lambda: optimize_program(net, model, 1, 5, math.nan, 16, SeededRng(5, 2)),
        ),
        "balanced_live_init": (
            ConfigError, "^scale must be positive",
            lambda: balanced_live_init(data, 4, math.nan, SeededRng(5, 3)),
        ),
        "train": (
            ConfigError, "^step_size must be positive",
            lambda: train(theta, data, "exponential", math.nan, 10),
        ),
        "train_to_crossing": (
            ConfigError, "^step_size must be positive",
            lambda: train_to_crossing([theta], [data], "exponential", math.nan, 10),
        ),
        "construct_program": (
            ConfigError, "^direction must have unit norm",
            lambda: construct_program(net, np.full(16, math.nan)),
        ),
        "failure_probability_bound": (
            ConfigError, "^v_pos - v_neg and direction must be nonzero and finite",
            lambda: failure_probability_bound(v_pos, v_neg, np.full(2, math.nan), 100, 0.1, 1),
        ),
        "min_norm_solve": (
            ConfigError, "^min_norm_solve expects finite entries",
            lambda: numerics.min_norm_solve(nan_entry, np.ones(2)),
        ),
        "singular_extremes": (
            ConfigError, "^singular_extremes expects finite entries",
            lambda: numerics.singular_extremes(nan_entry),
        ),
        "max_margin_vector": (
            ConfigError, "^points must be finite",
            lambda: max_margin_vector(np.array([[1.0, math.nan], [1.0, 1.0]])),
        ),
        "reprogrammed_accuracy-model-d": (
            ConfigError, "^data model has d = 4, network has d = 16",
            lambda: reprogrammed_accuracy(net, np.zeros(16), model_d4, 1, 10, SeededRng(5, 4)),
        ),
        "optimize_program-model-d": (
            ConfigError, "^data model has d = 4, network has d = 16",
            lambda: optimize_program(net, model_d4, 1, 5, 0.1, 16, SeededRng(5, 5)),
        ),
        "failure_probability_bound-lengths": (
            ConfigError,
            r"^v_pos, v_neg and direction must have one shape, got \(2,\), \(3,\) and \(2,\)",
            lambda: failure_probability_bound(v_pos, np.zeros(3), -v_pos, 100, 0.1, 1),
        ),
    }


@pytest.mark.parametrize("call", list(_nan_calls()))
def test_nan_argument_is_a_value_error_naming_it(capfd, call):
    # a check written as x <= 0 lets nan through, to fail late or not at
    # all, and a size mismatch must not surface as numpy's broadcast error;
    # nan reaching LAPACK makes it print "On entry to DLASCL ..."
    error, pattern, run = _nan_calls()[call]
    with pytest.raises(error, match=pattern):
        run()
    assert "On entry to" not in "".join(capfd.readouterr())


# suite -> (a BLAS-using callee it looks up on verify, a tiny call of it)
_HOLD_CALLS = {
    "theorem1": ("random_init_products", lambda: theorem1_montecarlo(WORKERS_T1)),
    "corollary1": (
        "random_init_products", lambda: corollary1_sweep(2.0 / 3.0, 0.3, 0.2, (16, 32), 10, 1),
    ),
    "theorem2": (
        "train_to_crossing",
        lambda: theorem2_suite(1, 2, 4, 2, 2, step_size=1e-3, max_steps=2000, seed=1),
    ),
    "corollary2": ("train_to_directional_limit", lambda: corollary2_suite(1, budget_steps=2000)),
    "proposition": (
        "reprogrammed_accuracy",
        lambda: proposition_suite(
            1, d=16, trials=100, budget_steps=2000, target_loss=1e-3, opt_steps=5,
        ),
    ),
    "appendix_a": (
        "singular_extremes",
        lambda: appendix_a_suite(1, partition_trials=10, sv_d=64, sv_k=8, sv_trials=5),
    ),
}


class TestSuitesHoldOneBlasThread:
    @pytest.fixture
    def blas_threads(self):
        """OpenBLAS's thread-count getter, with the count set to 2 for the test."""
        functions = numerics._openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
        getter, setter = functions
        before = getter()
        setter(2)
        yield getter
        setter(before)

    @pytest.mark.parametrize("suite", list(_HOLD_CALLS))
    def test_blas_runs_on_one_thread_inside_and_the_count_is_restored(
        self, monkeypatch, blas_threads, suite
    ):
        callee, call = _HOLD_CALLS[suite]
        original = getattr(verify, callee)
        seen = []

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, callee, recording)
        call()
        assert seen and set(seen) == {1}
        assert blas_threads() == 2

    def test_the_count_is_restored_when_a_suite_raises(self, blas_threads):
        with pytest.raises(ConfigError, match="datasets must be at least 1"):
            theorem2_suite(0, 2, 4, 2, 2, step_size=1e-3, max_steps=2000, seed=1)
        assert blas_threads() == 2
