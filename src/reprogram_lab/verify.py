"""Monte-Carlo and analytic verification suites.

One suite per claimed behaviour: the high-probability output bound for
random networks, its accuracy-trend corollary, the early-loss-crossing
guarantee for gradient flow, the directional-convergence corollary, the
failure bound for trained networks, and the singular-value / bias-vector
facts behind the analytic program.  Every suite is deterministic given
(config, seed): verdicts and all measured statistics replay bitwise.
Every suite runs with numpy's OpenBLAS held to one thread
(``numerics.one_blas_thread``), and restores the caller's count when it
returns or raises.

Statistical slack is three binomial standard errors on a rate, and two
combined standard errors on corollary1's accuracy gap.  A suite whose
analytic threshold leaves the unit interval passes vacuously and says so
(``vacuous`` flag) rather than being silently green.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data_models import (
    BernoulliModel,
    LabeledDataset,
    generate_orthosep,
    random_hypercube_direction,
    sample_bernoulli,
)
from .errors import ConfigError, TieEncountered
from .gradient_flow import (
    balanced_live_init,
    convergence_report,
    train_to_crossing,
    train_to_directional_limit,
)
from .maxmargin import failure_probability_bound, max_margin_vector
from .network import random_init, random_init_products
from .numerics import MAX_ENTRIES, SeededRng, one_blas_thread, singular_extremes
from .reprogram import (
    build_target_bias,
    optimize_program,
    partition_neurons,
    partition_scores,
    reprogrammed_accuracy,
)

# Constants of the random-network output bound: C1 collects the union
# bound over the probability parameters; C2..C5 come from combining the
# helpful- and unhelpful-neuron sum estimates at equal parameters.
BOUND_C1 = 2.0 + 1.0 / math.sqrt(2.0 * math.pi)
BOUND_C2 = math.sqrt(math.pi) / (8.0 * math.sqrt(2.0))
BOUND_C3 = 1.0 / math.sqrt(2.0 * math.pi)
BOUND_C4 = math.sqrt(2.0) + math.sqrt(math.pi) / 4.0 + 2.0 * math.pi / (math.pi - 1.0)
BOUND_C5 = math.sqrt(math.pi) / 16.0

# Stream-id bases keep every suite's trial streams disjoint.
_BASE_THEOREM1 = 1 << 40
_BASE_COROLLARY1 = 2 << 40
_BASE_THEOREM2 = 3 << 40
_BASE_COROLLARY2 = 4 << 40
_BASE_PROPOSITION = 5 << 40
_BASE_APPENDIX_A = 6 << 40

_TRIAL_BLOCK = 5  # fixed sharding granularity, independent of thread count
# Trials of fewer weights (k * d) than this run in the calling thread:
# threads hand the interpreter lock to each other between their short numpy
# calls and save a few percent at best.  On 2 cores two threads took 1.05 to
# 1.12 times one thread's time at d = 256 (k * d = 10,496), 1.02 to 1.06 at
# d = 1024 (104,448), 0.94 to 1.03 at 2048 (331,776) and 0.64 to 0.67 at
# 4096, k = 256.
_THREADS_MIN_WEIGHTS = 1 << 18

# Scale of the balanced initialisation of theorem2's and the
# proposition's training runs.
THEOREM2_INIT_SCALE = 0.5
PROPOSITION_INIT_SCALE = 0.5

# corollary2's thresholds: the least cosine of a surviving neuron to its
# max-margin vector, the largest balance residual as a fraction of the
# weight norm, the relative tolerance of the per-sign mass ratio, and the
# least growth factor of the weight norm.
COROLLARY2_MIN_COSINE = 0.99
COROLLARY2_BALANCE_FRACTION = 1e-3
COROLLARY2_MASS_RATIO_REL_TOL = 0.02
COROLLARY2_MIN_NORM_GROWTH = 10.0

# Widths at which appendix_a checks the empty-partition rate 2^-k.
APPENDIX_A_PARTITION_KS = (1, 4, 8)

# The canonical small orthogonally separable dataset used by the
# convergence suites: two almost-parallel points per class on opposite
# sides of the origin.
FOUR_POINT_POINTS = ((1.0, 0.1), (1.0, -0.1), (-1.0, 0.1), (-1.0, -0.1))
FOUR_POINT_LABELS = (1.0, 1.0, -1.0, -1.0)


def four_point_dataset() -> LabeledDataset:
    """The canonical 4-point, 2-D orthogonally separable dataset."""
    return LabeledDataset(
        points=np.array(FOUR_POINT_POINTS), labels=np.array(FOUR_POINT_LABELS)
    )


@dataclass(frozen=True)
class Theorem1Config:
    """Parameters of the random-network bound suite.

    The hypothesis 2 d tau^2 >= ln(1/gamma_dag) and k <= d are enforced
    when the bound is evaluated.
    """

    d: int
    k: int
    rho: float
    tau: float
    gamma: float
    gamma_dag: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SuiteVerdict:
    """Outcome of one verification suite.

    ``measured`` holds every statistic the suite computed (trial counts,
    rates, and the exact analytic thresholds used), sufficient to
    recompute the verdict externally.  Every ``threshold`` key is also
    present in ``measured``.
    """

    name: str
    passed: bool
    seed: int
    runtime_seconds: float
    measured: dict = field(default_factory=dict)
    threshold: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = set(self.threshold) - set(self.measured)
        if missing:
            raise ValueError(f"threshold keys missing from measured: {sorted(missing)}")


def _format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def verdict_to_text(verdict: SuiteVerdict) -> str:
    """Deterministic plain-text rendering (runtime_seconds is the only
    line that varies between identical runs)."""
    lines = [
        f"suite = {verdict.name}",
        f"passed = {'true' if verdict.passed else 'false'}",
        f"seed = {verdict.seed}",
        f"runtime_seconds = {verdict.runtime_seconds:.3f}",
    ]
    for key in sorted(verdict.measured):
        lines.append(f"measured.{key} = {_format_value(verdict.measured[key])}")
    for key in sorted(verdict.threshold):
        lines.append(f"threshold.{key} = {_format_value(verdict.threshold[key])}")
    return "\n".join(lines) + "\n"


def theorem1_rhs(
    d: int, k: int, rho: float, tau: float, gamma: float, gamma_dag: float
) -> float:
    """Closed-form right-hand side of the random-network output bound.

    Evaluates sqrt(k) rho / sqrt(d) times
    C2 tau - C3 exp(-d^2/(2 k rho^2)) min(1, k rho^2 / d^2)
    - C4 sqrt(ln(1/gamma)/k) - C5 sqrt(ln(1/gamma_dag)/d).
    """
    if k < 1:
        raise ConfigError("k must be at least 1")
    if k > d:
        raise ConfigError("width k must not exceed dimension d")
    if d > sys.float_info.max:
        raise ConfigError(f"d must not exceed {sys.float_info.max:.3g}")
    if not 0.0 < tau <= 0.5:
        raise ConfigError("tau must lie in (0, 1/2]")
    if not 0.0 < rho < math.inf:
        raise ConfigError("rho must be positive and finite")
    if not (0.0 < gamma < 1.0 and 0.0 < gamma_dag < 1.0):
        raise ConfigError("gamma and gamma_dag must lie in (0, 1)")
    if 2.0 * d * tau * tau < math.log(1.0 / gamma_dag):
        raise ConfigError(
            f"tau must satisfy 2 d tau^2 >= ln(1/gamma_dag), got 2 d tau^2 = "
            f"{2 * d * tau * tau:.6g} < {math.log(1 / gamma_dag):.6g}"
        )
    scale = math.sqrt(k) * rho / math.sqrt(d)
    exponent = d * d / (2.0 * k * rho * rho)
    inner = (
        BOUND_C2 * tau
        - BOUND_C3 * math.exp(-exponent) * min(1.0, k * rho * rho / (d * d))
        - BOUND_C4 * math.sqrt(math.log(1.0 / gamma) / k)
        - BOUND_C5 * math.sqrt(math.log(1.0 / gamma_dag) / d)
    )
    return scale * inner


def _reprogram_trial(rng: SeededRng, d: int, k: int, rho: float, tau: float) -> float:
    """y * N(p + x) = y * sum_j a_j relu(b_j + w_j . x) for a fresh random net,
    task direction and sample (x, y), drawn from ``rng`` word for word as
    random_init, random_hypercube_direction and sample_bernoulli draw them.
    The program p enters only as its target bias b = W p and is never
    built, and the hidden weights W only through W phi and W x:
    :func:`random_init_products` folds each Box-Muller block of W into them
    once phi and x are drawn, so no k-by-d array is held.  nan on a tie."""
    outputs, products = random_init_products(d, k, rng)
    phi = random_hypercube_direction(d, rng)
    xs, ys = sample_bernoulli(BernoulliModel(direction=phi, rho=rho, tau=tau), 1, rng)
    w_phi, w_x = products(phi, xs[0])
    try:
        _, unhelpful = partition_scores(outputs * w_phi)
    except TieEncountered:
        return math.nan
    bias = build_target_bias(d, k, unhelpful)
    return ys[0] * float(outputs @ np.maximum(w_x + bias, 0.0))


def _theorem1_block(args) -> list[float]:
    """One block's trial values in trial order; trial i draws stream base + i."""
    seed, start, count, d, k, rho, tau, base = args
    return [
        _reprogram_trial(SeededRng(seed, base + i), d, k, rho, tau)
        for i in range(start, start + count)
    ]


# One body, two names: the benchmark's tracer wraps each name apart, so
# each suite must look up its own name when it runs.
_corollary1_block = _theorem1_block


def available_cpus() -> int:
    """CPUs this process may run on: the thread count for large trials."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _check_trials(trials: int) -> None:
    """Trials lie in [1, 2^24): corollary1's streams of two dimensions are
    2^24 apart, and 2^24 trials are already 3.4 million block tuples."""
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if trials >= 1 << 24:
        raise ConfigError(f"trials must be below 2^24 = {1 << 24}, got {trials}")


def _run_blocks(
    fn, seed: int, trials: int, d: int, k: int, rho: float, tau: float, base: int
) -> np.ndarray:
    """Values of ``trials`` trials in trial order, run by ``fn`` in blocks
    (seed, start, count, d, k, rho, tau, base) of ``_TRIAL_BLOCK`` trials
    with BLAS held to one thread; ``base`` is the stream id of trial 0.

    Trials of at least ``_THREADS_MIN_WEIGHTS`` weights (k * d) run on one
    new thread per available CPU, smaller ones in the calling thread.  A
    trial is numpy ufunc loops and BLAS calls, which release the interpreter
    lock, so blocks on threads share the cores.  Blocks own their RNG
    streams and are joined in block order, so the values are identical for
    every thread count; with BLAS at one thread they do not depend on the
    machine's BLAS thread count either.  When the BLAS thread count cannot
    be set, the blocks run in order in the calling thread: threads over a
    multi-threaded BLAS were slower than that.
    """
    blocks = [
        (seed, start, min(_TRIAL_BLOCK, trials - start), d, k, rho, tau, base)
        for start in range(0, trials, _TRIAL_BLOCK)
    ]
    with one_blas_thread() as pinned:
        if not pinned or k * d < _THREADS_MIN_WEIGHTS or available_cpus() == 1:
            return np.concatenate([fn(b) for b in blocks])
        pool = ThreadPoolExecutor(available_cpus(), thread_name_prefix="trial-block")
        try:
            return np.concatenate(list(pool.map(fn, blocks)))
        finally:
            # cancel unstarted blocks and join: none runs on after BLAS is restored
            pool.shutdown(cancel_futures=True)


@one_blas_thread()
def theorem1_montecarlo(cfg: Theorem1Config) -> SuiteVerdict:
    """Monte-Carlo check of the random-network output bound.

    Each trial draws a fresh network, task direction, and labelled sample
    (the claim's probability is joint over all three) and tests
    y * N(p + x) > rhs for the analytic program p, read through W p = b; a
    tie counts as a violation.  The verdict passes if the violation
    fraction stays within the claimed allowance plus three binomial
    standard errors.  When the claimed probability floor
    (1 - C1 gamma)(1 - gamma_dag) is not positive the suite is vacuous:
    it passes and is flagged as such.  ``rhs_positive`` reports whether
    the threshold itself is above zero; when it is not, a pass only says
    the outputs clear a negative number.  It is not part of the verdict.
    """
    _check_trials(cfg.trials)
    started = time.perf_counter()
    rhs = theorem1_rhs(cfg.d, cfg.k, cfg.rho, cfg.tau, cfg.gamma, cfg.gamma_dag)
    floor = (1.0 - BOUND_C1 * cfg.gamma) * (1.0 - cfg.gamma_dag)
    vacuous = floor <= 0.0
    if vacuous:
        max_rate = 1.0
    else:
        allowed = 1.0 - floor
        max_rate = allowed + 3.0 * math.sqrt(allowed * (1.0 - allowed) / cfg.trials)
    values = _run_blocks(
        _theorem1_block, cfg.seed, cfg.trials, cfg.d, cfg.k, cfg.rho, cfg.tau, _BASE_THEOREM1
    )
    violations = int(np.count_nonzero(~(values > rhs)))  # nan, a construction error, violates
    successes = int(np.count_nonzero(values > 0.0))
    errors = int(np.count_nonzero(np.isnan(values)))
    rate = violations / cfg.trials
    return SuiteVerdict(
        name="theorem1",
        passed=vacuous or rate <= max_rate,
        seed=cfg.seed,
        runtime_seconds=time.perf_counter() - started,
        measured={
            "trials": cfg.trials,
            "violations": violations,
            "violation_rate": rate,
            "construction_errors": errors,
            "accuracy": successes / cfg.trials,
            "rhs_value": rhs,
            "rhs_positive": rhs > 0.0,
            "probability_floor": floor,
            "vacuous": vacuous,
        },
        threshold={"violation_rate": max_rate},
    )


def validate_exponents(eta_k: float, eta_rho: float, eta_tau: float) -> None:
    """Enforce the growth-rate exponent conditions (strict inequalities)."""
    for name, value in (("eta_k", eta_k), ("eta_rho", eta_rho), ("eta_tau", eta_tau)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    if not eta_rho < 1.0 - eta_k / 2.0:
        raise ConfigError(f"eta_rho must be below 1 - eta_k/2 = {1 - eta_k / 2}, got {eta_rho}")
    if not eta_tau < eta_k / 2.0:
        raise ConfigError(f"eta_tau must be below eta_k/2 = {eta_k / 2}, got {eta_tau}")


def corollary1_parameters(
    d: int, eta_k: float, eta_rho: float, eta_tau: float
) -> tuple[int, float, float, bool]:
    """Per-dimension sweep parameters (k, rho, tau, tau_clamped)."""
    k = min(math.ceil(d**eta_k), d)
    rho = d**eta_rho
    raw_tau = d**-eta_tau
    return k, rho, min(raw_tau, 0.5), raw_tau > 0.5


@one_blas_thread()
def corollary1_sweep(
    eta_k: float,
    eta_rho: float,
    eta_tau: float,
    d_list: tuple[int, ...],
    trials: int,
    seed: int,
) -> tuple[SuiteVerdict, list[dict]]:
    """Reprogrammed accuracy of the analytic program across dimensions.

    For each d the sweep sets k = ceil(d^eta_k) clamped to d,
    rho = d^eta_rho, and tau = d^-eta_tau clamped to 1/2 (flagged), then
    measures joint Monte-Carlo accuracy with label mapping m = 1; a
    construction error (a tie) counts as a failed trial and is reported per d.
    ``d_list`` must be strictly increasing, and ``trials`` below 2^24 so
    that the trial streams ``(d << 24) + i`` of two dimensions never meet.
    The verdict passes when accuracy at the largest d beats the smallest by
    more than two combined standard errors, or both exceed 0.95.
    """
    validate_exponents(eta_k, eta_rho, eta_tau)
    if len(d_list) < 2:
        raise ConfigError("the sweep needs at least two dimensions")
    if min(d_list) < 1:
        raise ConfigError("every d in d_list must be at least 1")
    if any(b <= a for a, b in zip(d_list, d_list[1:])):
        raise ConfigError(f"d_list must be strictly increasing, got {tuple(d_list)}")
    _check_trials(trials)
    started = time.perf_counter()
    rows = []
    for d in d_list:
        k, rho, tau, clamped = corollary1_parameters(d, eta_k, eta_rho, eta_tau)
        values = _run_blocks(
            _corollary1_block, seed, trials, d, k, rho, tau, _BASE_COROLLARY1 + (d << 24)
        )
        accuracy = int(np.count_nonzero(values > 0.0)) / trials
        rows.append(
            {
                "d": d,
                "k": k,
                "rho": rho,
                "tau": tau,
                "tau_clamped": clamped,
                "accuracy": accuracy,
                "stderr": math.sqrt(accuracy * (1.0 - accuracy) / trials),
                "construction_errors": int(np.count_nonzero(np.isnan(values))),
            }
        )
    first, last = rows[0], rows[-1]
    gap = last["accuracy"] - first["accuracy"]
    gap_needed = 2.0 * math.hypot(first["stderr"], last["stderr"])
    both_high = first["accuracy"] > 0.95 and last["accuracy"] > 0.95
    measured = {
        "accuracy_gap": gap,
        "both_accuracies_high": both_high,
        "trials_per_dimension": trials,
    }
    for row in rows:
        d = row["d"]
        measured[f"accuracy_d{d}"] = row["accuracy"]
        measured[f"stderr_d{d}"] = row["stderr"]
        measured[f"k_d{d}"] = row["k"]
        measured[f"tau_clamped_d{d}"] = row["tau_clamped"]
        measured[f"construction_errors_d{d}"] = row["construction_errors"]
    verdict = SuiteVerdict(
        name="corollary1",
        passed=gap > gap_needed or both_high,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold={"accuracy_gap": gap_needed},
    )
    return verdict, rows


@one_blas_thread()
def theorem2_suite(
    n_datasets: int,
    d: int,
    k: int,
    n_pos: int,
    n_neg: int,
    step_size: float,
    max_steps: int,
    seed: int,
) -> SuiteVerdict:
    """Every run must reach total loss below the margin-zero loss.

    Each generated orthogonally separable dataset is trained once per
    loss kind from a fresh balanced and live initialisation; a run counts
    as a crossing when the total loss drops strictly below l(0) within
    the step budget (training stops right there).  The verdict requires
    crossings in 100% of runs and checks that every training point is
    classified correctly at the crossing.
    """
    if n_datasets < 1:
        raise ConfigError("datasets must be at least 1")
    started = time.perf_counter()
    datasets = [
        generate_orthosep(d, n_pos, n_neg, SeededRng(seed, _BASE_THEOREM2 + 2 * i))
        for i in range(n_datasets)
    ]
    runs = crossings = correct_after = 0
    per_kind = {"exponential": 0, "logistic": 0}
    worst_steps = 0
    for offset, kind in enumerate(("exponential", "logistic")):
        thetas = [
            balanced_live_init(
                dataset, k, THEOREM2_INIT_SCALE,
                SeededRng(seed, _BASE_THEOREM2 + (1 << 30) + 2 * i + offset),
            )
            for i, dataset in enumerate(datasets)
        ]
        crossed_at, min_margins = train_to_crossing(thetas, datasets, kind, step_size, max_steps)
        for step, min_margin in zip(crossed_at, min_margins):
            runs += 1
            if step is not None:
                crossings += 1
                per_kind[kind] += 1
                worst_steps = max(worst_steps, step)
                if min_margin > 0.0:
                    correct_after += 1
    return SuiteVerdict(
        name="theorem2",
        passed=crossings == runs and correct_after == crossings,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured={
            "runs": runs,
            "crossings": crossings,
            "crossings_exponential": per_kind["exponential"],
            "crossings_logistic": per_kind["logistic"],
            "correct_after_crossing": correct_after,
            "worst_steps_to_cross": worst_steps,
        },
        threshold={"crossings": runs},
    )


@one_blas_thread()
def corollary2_suite(
    seed: int,
    k: int = 8,
    init_scale: float = 0.1,
    loss_kind: str = "exponential",
    target_loss: float = 1e-6,
    budget_steps: int = 10_000_000,
) -> SuiteVerdict:
    """Directional-convergence suite on the four-point dataset.

    Trains to the flow's directional limit (loss at or below
    ``target_loss`` and a weight direction that has stopped moving or
    come back to one it held at an earlier chunk end; the period found is
    reported as ``direction_period``, 0 when a budget or a chunk that
    would raise the loss ended training, and is not part of the verdict),
    computes the per-class max-margin vectors, and checks: every
    surviving neuron's cosine to its target is at least
    COROLLARY2_MIN_COSINE; the worst balance residual is at most
    COROLLARY2_BALANCE_FRACTION times the weight norm; the per-sign
    squared-output masses have ratio within COROLLARY2_MASS_RATIO_REL_TOL
    of norm(v_pos)/norm(v_neg); and the weight norm grew by at least
    COROLLARY2_MIN_NORM_GROWTH.  If the loss target is not reached within
    budget the verdict fails and is flagged inconclusive.
    """
    started = time.perf_counter()
    data = four_point_dataset()
    theta0 = balanced_live_init(data, k, init_scale, SeededRng(seed, _BASE_COROLLARY2))
    theta, steps_used, log_loss, log_growth, period = train_to_directional_limit(
        theta0, data, loss_kind, target_loss, budget_steps
    )
    inconclusive = log_loss > math.log(target_loss)
    v_pos = max_margin_vector(data.points[data.labels > 0]).vector
    v_neg = max_margin_vector(data.points[data.labels < 0]).vector
    report = convergence_report(theta, v_pos, v_neg)
    ratio_target = float(np.linalg.norm(v_pos) / np.linalg.norm(v_neg))
    balance_limit = COROLLARY2_BALANCE_FRACTION * theta.norm()
    mass_ratio_error = abs(report.mass_ratio - ratio_target)
    checks = {
        "cosine_ok": report.min_cosine >= COROLLARY2_MIN_COSINE,
        "balance_ok": report.max_balance_residual <= balance_limit,
        "mass_ratio_ok": mass_ratio_error <= COROLLARY2_MASS_RATIO_REL_TOL * ratio_target,
        "growth_ok": log_growth >= math.log(COROLLARY2_MIN_NORM_GROWTH),
    }
    measured = {
        "inconclusive": inconclusive,
        "steps_used": steps_used,
        "direction_period": period,
        "log10_final_loss": log_loss / math.log(10.0),
        "surviving_neurons": int(report.surviving.size),
        "min_cosine": report.min_cosine,
        "max_balance_residual": report.max_balance_residual,
        "balance_limit": balance_limit,
        "mass_ratio": report.mass_ratio,
        "mass_ratio_target": ratio_target,
        "log10_norm_growth": log_growth / math.log(10.0),
        **checks,
    }
    return SuiteVerdict(
        name="corollary2",
        passed=not inconclusive and all(checks.values()),
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold={
            "min_cosine": COROLLARY2_MIN_COSINE,
            "max_balance_residual": balance_limit,
            "mass_ratio": COROLLARY2_MASS_RATIO_REL_TOL,
            "log10_norm_growth": math.log10(COROLLARY2_MIN_NORM_GROWTH),
        },
    )


def signed_vertex_against(delta: np.ndarray, m: int) -> np.ndarray:
    """The hypercube vertex whose signs match -m * delta coordinatewise.

    This maximises |cos| between the vertex and delta subject to the
    vertex constraint; zero entries of delta resolve to +1.
    """
    d = delta.size
    signs = np.where(delta >= 0.0, 1.0, -1.0)
    return -m * signs / math.sqrt(d)


@one_blas_thread()
def proposition_suite(
    seed: int,
    d: int = 64,
    tau: float = 0.2,
    trials: int = 10_000,
    k: int = 8,
    n_pos: int = 4,
    n_neg: int = 4,
    loss_kind: str = "exponential",
    target_loss: float = 1e-6,
    budget_steps: int = 10_000_000,
    opt_steps: int = 400,
    opt_lr: float = 0.01,
    opt_batch: int = 128,
) -> SuiteVerdict:
    """Failure bound for a trained network, against three program sources.

    A network is trained on an orthogonally separable dataset into the
    directional-convergence regime.  For each label mapping m the task
    direction is the hypercube vertex sign-matched against
    -m (v_pos - v_neg) (the strongest instance of the bound's
    hypothesis), and the reprogrammed accuracy of the zero program, the
    analytic program built from the trained weights, and a
    gradient-optimised program must each stay within the closed-form
    bound plus three binomial standard errors.  Trained weights are
    numerically rank deficient, so the analytic program is the
    pseudo-inverse solution of W p = b rather than the exact solve.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if trials > MAX_ENTRIES:  # its labels are one draw: fail before training
        raise ConfigError(f"trials must be at most {MAX_ENTRIES}, got {trials}")
    started = time.perf_counter()
    data = generate_orthosep(d, n_pos, n_neg, SeededRng(seed, _BASE_PROPOSITION))
    theta0 = balanced_live_init(
        data, k, PROPOSITION_INIT_SCALE, SeededRng(seed, _BASE_PROPOSITION + 1)
    )
    v_pos = max_margin_vector(data.points[data.labels > 0]).vector
    v_neg = max_margin_vector(data.points[data.labels < 0]).vector
    delta = v_pos - v_neg
    # each m's task depends on the dataset alone: a bad tau fails before training
    tasks = []
    for m in (1, -1):
        phi = signed_vertex_against(delta, m)
        bound = failure_probability_bound(v_pos, v_neg, phi, d, tau, m)
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        model = BernoulliModel(direction=phi, rho=math.sqrt(d), tau=tau)
        tasks.append((m, phi, bound, limit, model))
    net, steps_used, log_loss, _, _ = train_to_directional_limit(
        theta0, data, loss_kind, target_loss, budget_steps
    )

    measured = {
        "train_steps": steps_used,
        "log10_final_loss": log_loss / math.log(10.0),
        "trials": trials,
    }
    threshold = {}
    stream = _BASE_PROPOSITION + 16
    for m, phi, bound, limit, model in tasks:
        tag = "pos" if m == 1 else "neg"
        measured[f"bound_m_{tag}"] = bound
        programs = {"zero": np.zeros(d)}
        _, unhelpful = partition_neurons(net, phi)
        bias = build_target_bias(d, k, unhelpful)
        # eigenvalues of W Wᵀ above 1e-10 λmax are singular values above 1e-5 σmax
        programs["analytic"] = np.linalg.pinv(net.weights, rcond=1e-5) @ bias
        programs["optimized"], _ = optimize_program(
            net, model, m, opt_steps, opt_lr, opt_batch, SeededRng(seed, stream)
        )
        stream += 1
        for source, offset in programs.items():
            accuracy = reprogrammed_accuracy(
                net, offset, model, m, trials, SeededRng(seed, stream)
            )
            stream += 1
            key = f"accuracy_{source}_m_{tag}"
            measured[key] = accuracy
            threshold[key] = limit
    return SuiteVerdict(
        name="proposition",
        passed=all(measured[key] <= limit for key, limit in threshold.items()),
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold=threshold,
    )


@one_blas_thread()
def appendix_a_suite(
    seed: int,
    partition_d: int = 64,
    partition_trials: int = 10_000,
    sv_d: int = 1024,
    sv_k: int = 32,
    sv_gamma: float = 0.01,
    sv_trials: int = 1_000,
) -> SuiteVerdict:
    """Bias-vector norm, empty-partition rate, and singular-value bounds.

    Three sub-checks: (1) the target bias vector has norm exactly
    sqrt(d), to 1e-9, on every trial where some neuron is unhelpful;
    (2) the fraction of trials where no neuron is unhelpful is within
    three binomial standard errors of 2^-k for each width k in
    APPENDIX_A_PARTITION_KS (memberships are independent fair coins);
    (3) extreme singular values of sampled weight matrices violate the
    closed-form concentration bounds at rate at most gamma plus three
    standard errors; these need sv_k <= sv_d.
    ``sv_lower_bound_positive``, not part of the verdict, says whether
    s_min can violate the lower bound at all.
    """
    if partition_trials < 1 or sv_trials < 1:
        raise ConfigError("partition_trials and sv_trials must be at least 1")
    if not 0.0 < sv_gamma < 1.0:
        raise ConfigError("sv_gamma must lie in (0, 1)")
    if sv_k > sv_d:
        raise ConfigError("sv_k must not exceed sv_d")
    started = time.perf_counter()
    measured = {"partition_trials": partition_trials, "sv_trials": sv_trials}
    threshold = {}
    passed = True

    max_norm_error = 0.0
    for k_index, k in enumerate(APPENDIX_A_PARTITION_KS):
        rng = SeededRng(seed, _BASE_APPENDIX_A + k_index)
        empty = 0
        target = math.sqrt(partition_d)
        for _ in range(partition_trials):
            net = random_init(partition_d, k, rng)
            _, unhelpful = partition_neurons(net, random_hypercube_direction(partition_d, rng))
            if unhelpful.size == 0:
                empty += 1
                continue
            bias = build_target_bias(partition_d, k, unhelpful)
            max_norm_error = max(
                max_norm_error, abs(float(np.linalg.norm(bias)) - target)
            )
        rate = empty / partition_trials
        expected = 2.0**-k
        slack = 3.0 * math.sqrt(expected * (1.0 - expected) / partition_trials)
        measured[f"empty_rate_k{k}"] = rate
        measured[f"empty_rate_error_k{k}"] = abs(rate - expected)
        threshold[f"empty_rate_error_k{k}"] = slack
        passed = passed and abs(rate - expected) <= slack
    measured["max_bias_norm_error"] = max_norm_error
    threshold["max_bias_norm_error"] = 1e-9
    passed = passed and max_norm_error <= 1e-9

    rng = SeededRng(seed, _BASE_APPENDIX_A + 16)
    spread = math.sqrt(2.0 * math.log(2.0 / sv_gamma))
    lower = (math.sqrt(sv_d) - math.sqrt(sv_k) - spread) / math.sqrt(sv_d)
    upper = (math.sqrt(sv_d) + math.sqrt(sv_k) + spread) / math.sqrt(sv_d)
    failures = 0
    for _ in range(sv_trials):
        net = random_init(sv_d, sv_k, rng)
        s_min, s_max = singular_extremes(net.weights)
        if s_min < lower or s_max > upper:
            failures += 1
    rate = failures / sv_trials
    sv_slack = sv_gamma + 3.0 * math.sqrt(sv_gamma * (1.0 - sv_gamma) / sv_trials)
    measured["sv_failure_rate"] = rate
    measured["sv_lower_bound"] = lower
    measured["sv_lower_bound_positive"] = lower > 0.0
    measured["sv_upper_bound"] = upper
    threshold["sv_failure_rate"] = sv_slack
    passed = passed and rate <= sv_slack

    return SuiteVerdict(
        name="appendix_a",
        passed=passed,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold=threshold,
    )
