"""Monte-Carlo and analytic verification suites.

One suite per claimed behaviour: the high-probability output bound for
random networks, its accuracy-trend corollary, the early-loss-crossing
guarantee for gradient flow, the directional-convergence corollary, the
failure bound for trained networks, and the singular-value / bias-vector
facts behind the analytic program.  Every suite is deterministic given
(config, seed): verdicts and all measured statistics replay bitwise.

Statistical slack is uniformly three binomial standard errors.  A suite
whose analytic threshold leaves the unit interval passes vacuously and
says so (``vacuous`` flag) rather than being silently green.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .data_models import (
    BernoulliModel,
    LabeledDataset,
    generate_orthosep,
    random_hypercube_direction,
    sample_bernoulli,
)
from .errors import (
    ExponentConditionViolated,
    GramNotPositiveDefinite,
    HypothesisViolated,
    NonFiniteLoss,
    TieEncountered,
)
from .gradient_flow import (
    TrainerConfig,
    WeightVector,
    _forward,
    _gradient,
    balanced_live_init,
    convergence_report,
    loss_value_and_derivative,
    train,
    train_to_crossing,
)
from .maxmargin import failure_probability_bound, max_margin_vector
from .network import forward, random_init
from .numerics import SeededRng, one_blas_thread, singular_extremes
from .reprogram import build_target_bias, construct_program, optimize_program, reprogrammed_accuracy

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

_TRIAL_BLOCK = 5  # fixed sharding granularity, independent of worker count

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
    if isinstance(value, bool):
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
    if k > d:
        raise ValueError("width k must not exceed dimension d")
    if not 0.0 < tau <= 0.5:
        raise ValueError("tau must lie in (0, 1/2]")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if not (0.0 < gamma < 1.0 and 0.0 < gamma_dag < 1.0):
        raise ValueError("gamma and gamma_dag must lie in (0, 1)")
    if 2.0 * d * tau * tau < math.log(1.0 / gamma_dag):
        raise HypothesisViolated(
            f"2 d tau^2 = {2 * d * tau * tau:.6g} is below ln(1/gamma_dag) = "
            f"{math.log(1 / gamma_dag):.6g}"
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
    """y * N(p + x) for a fresh random network, task direction, analytic
    program p and labelled sample (x, y), all drawn from ``rng``."""
    net = random_init(d, k, rng)
    phi = random_hypercube_direction(d, rng)
    program = construct_program(net, phi)
    model = BernoulliModel(direction=phi, radius=rho, bias=tau)
    xs, ys = sample_bernoulli(model, 1, rng)
    return ys[0] * forward(net, program.offset + xs[0])


def _theorem1_block(args) -> tuple[int, int, int]:
    """One block of independent (network, direction, sample) trials.

    Returns (violations, successes, construction_errors); a construction
    error counts as a violation.
    """
    seed, start, count, d, k, rho, tau, rhs = args
    violations = successes = errors = 0
    for i in range(start, start + count):
        try:
            value = _reprogram_trial(SeededRng(seed, _BASE_THEOREM1 + i), d, k, rho, tau)
        except (TieEncountered, GramNotPositiveDefinite):
            errors += 1
            violations += 1
            continue
        if not value > rhs:
            violations += 1
        if value > 0.0:
            successes += 1
    return violations, successes, errors


def available_cpus() -> int:
    """CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        return available_cpus()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    return workers


@functools.cache
def _thread_pool(workers: int) -> ThreadPoolExecutor:
    """A pool of ``workers`` threads kept for the life of the process.

    Fresh threads on every call would churn malloc arenas: a thread that
    starts before the previous call's threads have fully exited takes a
    new arena, and every arena keeps about one weight matrix of freed
    memory, which raised theorem1's peak RSS by about 10 MB at d = 4096.
    """
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="trial-block")


# A forked child has none of the parent's pool threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_thread_pool.cache_clear)


def _run_blocks(fn, blocks: list, workers: int) -> list:
    """Run trial blocks on ``workers`` threads with BLAS held to one thread.

    A trial is numpy ufunc loops and LAPACK calls, which release the
    interpreter lock, so blocks on threads share the cores.  Blocks have
    fixed granularity, own their RNG streams and return integer counts,
    so the aggregated result is identical for every worker count and
    block order.  With BLAS at one thread the bits of each trial do not
    depend on the machine's BLAS thread count either.  When the BLAS
    thread count cannot be set, the blocks run in order in the calling
    thread: threads over a multi-threaded BLAS were slower than that.
    """
    with one_blas_thread() as pinned:
        if not pinned or workers == 1:
            return [fn(b) for b in blocks]
        futures = [_thread_pool(workers).submit(fn, b) for b in blocks]
        try:
            return [future.result() for future in futures]
        finally:
            # on a failed block, let no block run on after BLAS is restored
            for future in futures:
                future.cancel()
            wait(futures)


def theorem1_montecarlo(cfg: Theorem1Config, workers: int | None = None) -> SuiteVerdict:
    """Monte-Carlo check of the random-network output bound.

    Each trial draws a fresh network, task direction, and labelled
    sample (the claim's probability is joint over all three), builds the
    analytic program, and tests y * N(p + x) > rhs.  The verdict passes
    if the violation fraction stays within the claimed allowance plus
    three binomial standard errors.  When the claimed probability floor
    (1 - C1 gamma)(1 - gamma_dag) is not positive the suite is vacuous:
    it passes and is flagged as such.  ``workers`` threads run the trial
    blocks, by default one per available CPU.
    """
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    workers = _resolve_workers(workers)
    started = time.perf_counter()
    rhs = theorem1_rhs(cfg.d, cfg.k, cfg.rho, cfg.tau, cfg.gamma, cfg.gamma_dag)
    floor = (1.0 - BOUND_C1 * cfg.gamma) * (1.0 - cfg.gamma_dag)
    vacuous = floor <= 0.0
    if vacuous:
        max_rate = 1.0
    else:
        allowed = 1.0 - floor
        max_rate = allowed + 3.0 * math.sqrt(allowed * (1.0 - allowed) / cfg.trials)
    blocks = [
        (cfg.seed, start, min(_TRIAL_BLOCK, cfg.trials - start),
         cfg.d, cfg.k, cfg.rho, cfg.tau, rhs)
        for start in range(0, cfg.trials, _TRIAL_BLOCK)
    ]
    results = _run_blocks(_theorem1_block, blocks, workers)
    violations = sum(r[0] for r in results)
    successes = sum(r[1] for r in results)
    errors = sum(r[2] for r in results)
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
            "probability_floor": floor,
            "vacuous": vacuous,
        },
        threshold={"violation_rate": max_rate},
    )


def validate_exponents(eta_k: float, eta_rho: float, eta_tau: float) -> None:
    """Enforce the growth-rate exponent conditions (strict inequalities)."""
    for name, value in (("eta_k", eta_k), ("eta_rho", eta_rho), ("eta_tau", eta_tau)):
        if not 0.0 <= value <= 1.0:
            raise ExponentConditionViolated(f"{name} = {value} must lie in [0, 1]")
    if not eta_rho < 1.0 - eta_k / 2.0:
        raise ExponentConditionViolated(
            f"eta_rho = {eta_rho} must be below 1 - eta_k/2 = {1 - eta_k / 2}"
        )
    if not eta_tau < eta_k / 2.0:
        raise ExponentConditionViolated(
            f"eta_tau = {eta_tau} must be below eta_k/2 = {eta_k / 2}"
        )


def corollary1_parameters(
    d: int, eta_k: float, eta_rho: float, eta_tau: float
) -> tuple[int, float, float, bool]:
    """Per-dimension sweep parameters (k, rho, tau, tau_clamped)."""
    k = min(math.ceil(d**eta_k), d)
    rho = d**eta_rho
    raw_tau = d**-eta_tau
    return k, rho, min(raw_tau, 0.5), raw_tau > 0.5


def _corollary1_block(args) -> int:
    seed, start, count, d, k, rho, tau = args
    successes = 0
    for i in range(start, start + count):
        rng = SeededRng(seed, _BASE_COROLLARY1 + (d << 24) + i)
        if _reprogram_trial(rng, d, k, rho, tau) > 0.0:
            successes += 1
    return successes


def corollary1_sweep(
    eta_k: float,
    eta_rho: float,
    eta_tau: float,
    d_list: tuple[int, ...],
    trials: int,
    seed: int,
    workers: int | None = None,
) -> tuple[SuiteVerdict, list[dict]]:
    """Reprogrammed accuracy of the analytic program across dimensions.

    For each d the sweep sets k = ceil(d^eta_k) clamped to d,
    rho = d^eta_rho, and tau = d^-eta_tau clamped to 1/2 (flagged), then
    measures joint Monte-Carlo accuracy with label mapping m = 1.  The
    verdict passes when accuracy at the largest d beats the smallest by
    more than two combined standard errors, or both exceed 0.95.
    ``workers`` threads run the trial blocks, by default one per
    available CPU.
    """
    validate_exponents(eta_k, eta_rho, eta_tau)
    if len(d_list) < 2:
        raise ValueError("the sweep needs at least two dimensions")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    workers = _resolve_workers(workers)
    started = time.perf_counter()
    rows = []
    for d in d_list:
        k, rho, tau, clamped = corollary1_parameters(d, eta_k, eta_rho, eta_tau)
        blocks = [
            (seed, start, min(_TRIAL_BLOCK, trials - start), d, k, rho, tau)
            for start in range(0, trials, _TRIAL_BLOCK)
        ]
        successes = sum(_run_blocks(_corollary1_block, blocks, workers))
        accuracy = successes / trials
        rows.append(
            {
                "d": d,
                "k": k,
                "rho": rho,
                "tau": tau,
                "tau_clamped": clamped,
                "accuracy": accuracy,
                "stderr": math.sqrt(accuracy * (1.0 - accuracy) / trials),
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
    verdict = SuiteVerdict(
        name="corollary1",
        passed=gap > gap_needed or both_high,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold={"accuracy_gap": gap_needed},
    )
    return verdict, rows


def theorem2_suite(
    n_datasets: int,
    d: int,
    k: int,
    n_pos: int,
    n_neg: int,
    step_size: float,
    max_steps: int,
    seed: int,
    init_scale: float = 0.5,
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
        raise ValueError("datasets must be at least 1")
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
                dataset, k, init_scale,
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


def _total_loss(theta: WeightVector, dataset: LabeledDataset, kind: str) -> float:
    margins = _forward(dataset.points, dataset.labels, theta.weights, theta.outputs)[2]
    values, _ = loss_value_and_derivative(kind, margins)
    return float(np.sum(values))


def _rescaled_chunk(w, a, xs, ys, kind, step, steps):
    """``steps`` Euler steps of the time-rescaled flow from (w, a), which
    are not modified.  The per-sample gradient weights -l'(margin) are
    scaled by exp(min margin), so they stay exact however small the loss
    gets."""
    w, a = w.copy(), a.copy()
    for _ in range(steps):
        active, hidden, margins = _forward(xs, ys, w, a)
        weights = np.exp(margins.min() - margins)
        if kind == "logistic":
            weights /= 1.0 + np.exp(-margins)
        grad_w, grad_a = _gradient(xs, a, active, hidden, weights * ys)
        grad_w *= step
        grad_a *= step
        w += grad_w
        a += grad_a
    return w, a


def _log_loss(w, a, xs, ys, kind) -> float:
    """Log of the total loss, computed with margin shifting so that
    arbitrarily small losses stay exact."""
    margins = _forward(xs, ys, w, a)[2]
    m_min = float(np.min(margins))
    rel = np.exp(m_min - margins)
    if kind == "logistic":
        small = margins < 35.0
        ms = margins[small]
        rel[small] *= np.exp(ms) * np.log1p(np.exp(-ms))
    return -m_min + math.log(float(np.sum(rel)))


def train_to_directional_limit(
    theta0: WeightVector,
    dataset: LabeledDataset,
    kind: str,
    target_loss: float,
    budget_steps: int,
    chunk: int = 1000,
    margin_ref: float = 80.0,
    direction_tol: float = 1e-9,
    s_budget: float = 2000.0,
) -> tuple[WeightVector, int, float, float]:
    """Drive training to the directional limit of the flow.

    Phase one runs chunks of plain fixed-step Euler descent, with the
    step chosen per chunk from the current loss and weight scale (halved
    and retried whenever a chunk fails to decrease the loss) until the
    loss reaches ``target_loss``.  Phase two follows the time-rescaled
    flow dtheta/ds = -grad L / loss-scale in a margin-shifted form that
    never underflows, rescaling the weights (2-homogeneity keeps the
    predictor's sign and the flow's directional limit) whenever margins
    pass 2 * margin_ref; it stops once the weight direction moves less
    than ``direction_tol`` per chunk, or the rescaled-time or step
    budgets run out.

    Returns (theta, steps_used, final_log_loss, log_norm_growth) where
    the last entry is ln(norm(theta_final)/norm(theta0)) accounting for
    every intermediate rescale.
    """
    xs, ys = dataset.points, dataset.labels
    max_x2 = float(np.max(np.sum(xs * xs, axis=1)))
    theta = theta0.copy()
    start_log_norm = math.log(theta.norm())
    used = 0
    damping = 1.0
    while used < budget_steps:
        loss = _total_loss(theta, dataset, kind)
        if loss <= target_loss:
            break
        scale2 = float(
            np.max(np.sum(theta.weights**2, axis=1) + theta.outputs**2)
        )
        step = damping * 0.5 / (loss * (1.0 + scale2 * max_x2))
        cfg = TrainerConfig(
            loss_kind=kind,
            step_size=step,
            max_steps=min(chunk, budget_steps - used),
            stop_loss=target_loss,
            record_every=chunk,
        )
        try:
            report = train(theta, dataset, cfg)
        except NonFiniteLoss:
            damping *= 0.5
            continue
        if report.final_loss > loss:
            damping *= 0.5
            continue
        theta = report.final_theta
        used += report.steps_run
        damping = min(1.0, damping * 1.5)

    w, a = theta.weights.copy(), theta.outputs.copy()
    damping = 0.5
    rescale_log = 0.0
    s_used = 0.0
    log_loss = _log_loss(w, a, xs, ys, kind)
    previous_direction = None
    while used < budget_steps and s_used < s_budget:
        min_margin = -(log_loss - math.log(len(ys)))
        if min_margin > 2.0 * margin_ref:
            alpha = math.sqrt(margin_ref / min_margin)
            w *= alpha
            a *= alpha
            rescale_log -= math.log(alpha)
            log_loss = _log_loss(w, a, xs, ys, kind)
        scale2 = float(np.max(np.sum(w * w, axis=1) + a * a))
        step = damping * 0.5 / (1.0 + scale2 * max_x2)
        steps = min(chunk, budget_steps - used)
        w_next, a_next = _rescaled_chunk(w, a, xs, ys, kind, step, steps)
        next_log_loss = _log_loss(w_next, a_next, xs, ys, kind)
        if not (math.isfinite(next_log_loss) and next_log_loss <= log_loss + 1e-9):
            damping *= 0.5
            if damping < 1e-14:
                break
            continue
        w, a = w_next, a_next
        log_loss = next_log_loss
        used += steps
        s_used += step * steps
        damping = min(0.5, damping * 1.5)
        direction = np.concatenate([w.ravel(), a])
        direction /= np.linalg.norm(direction)
        if (
            previous_direction is not None
            and log_loss <= math.log(target_loss)
            and float(np.linalg.norm(direction - previous_direction)) < direction_tol
        ):
            break
        previous_direction = direction

    final = WeightVector(w, a)
    log_growth = math.log(final.norm()) + rescale_log - start_log_norm
    return final, used, log_loss, log_growth


def corollary2_suite(
    seed: int,
    dataset: LabeledDataset | None = None,
    k: int = 8,
    init_scale: float = 0.1,
    loss_kind: str = "exponential",
    target_loss: float = 1e-6,
    budget_steps: int = 10_000_000,
    min_cosine: float = 0.99,
    balance_fraction: float = 1e-3,
    mass_ratio_rel_tol: float = 0.02,
    min_norm_growth: float = 10.0,
) -> SuiteVerdict:
    """Directional-convergence suite on a fixed dataset.

    Trains to the flow's directional limit (loss at or below
    ``target_loss`` and a stalled weight direction), computes the
    per-class max-margin vectors, and checks: every surviving neuron's
    cosine to its target is at least ``min_cosine``; the worst balance
    residual is at most ``balance_fraction`` times the weight norm; the
    per-sign squared-output masses have ratio within
    ``mass_ratio_rel_tol`` of norm(v_pos)/norm(v_neg); and the weight
    norm grew by at least ``min_norm_growth``.  If the loss target is
    not reached within budget the verdict fails and is flagged
    inconclusive.
    """
    started = time.perf_counter()
    data = dataset if dataset is not None else four_point_dataset()
    theta0 = balanced_live_init(data, k, init_scale, SeededRng(seed, _BASE_COROLLARY2))
    theta, steps_used, log_loss, log_growth = train_to_directional_limit(
        theta0, data, loss_kind, target_loss, budget_steps
    )
    inconclusive = log_loss > math.log(target_loss)
    v_pos = max_margin_vector(data.points[data.labels > 0]).vector
    v_neg = max_margin_vector(data.points[data.labels < 0]).vector
    report = convergence_report(theta, v_pos, v_neg)
    ratio_target = float(np.linalg.norm(v_pos) / np.linalg.norm(v_neg))
    balance_limit = balance_fraction * theta.norm()
    growth_ok = log_growth >= math.log(min_norm_growth)
    checks = {
        "cosine_ok": report.min_cosine >= min_cosine,
        "balance_ok": report.max_balance_residual <= balance_limit,
        "mass_ratio_ok": abs(report.mass_ratio - ratio_target) <= mass_ratio_rel_tol * ratio_target,
        "growth_ok": growth_ok,
    }
    measured = {
        "inconclusive": inconclusive,
        "steps_used": steps_used,
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
            "min_cosine": min_cosine,
            "max_balance_residual": balance_limit,
            "mass_ratio": mass_ratio_rel_tol,
            "log10_norm_growth": math.log10(min_norm_growth),
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


def proposition_suite(
    seed: int,
    d: int = 64,
    tau: float = 0.2,
    trials: int = 10_000,
    k: int = 8,
    n_pos: int = 4,
    n_neg: int = 4,
    init_scale: float = 0.5,
    loss_kind: str = "exponential",
    target_loss: float = 1e-6,
    budget_steps: int = 10_000_000,
    opt_steps: int = 400,
    opt_lr: float = 0.01,
    opt_batch: int = 128,
    s_budget: float = 100.0,
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
        raise ValueError("trials must be at least 1")
    started = time.perf_counter()
    data = generate_orthosep(d, n_pos, n_neg, SeededRng(seed, _BASE_PROPOSITION))
    theta0 = balanced_live_init(data, k, init_scale, SeededRng(seed, _BASE_PROPOSITION + 1))
    theta, steps_used, log_loss, _ = train_to_directional_limit(
        theta0, data, loss_kind, target_loss, budget_steps, s_budget=s_budget
    )
    net = theta.to_network()
    v_pos = max_margin_vector(data.points[data.labels > 0]).vector
    v_neg = max_margin_vector(data.points[data.labels < 0]).vector
    delta = v_pos - v_neg

    measured = {
        "train_steps": steps_used,
        "log10_final_loss": log_loss / math.log(10.0),
        "trials": trials,
    }
    threshold = {}
    passed = True
    stream = _BASE_PROPOSITION + 16
    for m in (1, -1):
        phi = signed_vertex_against(delta, m)
        bound = failure_probability_bound(v_pos, v_neg, phi, d, tau, m)
        limit = bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        model = BernoulliModel(direction=phi, radius=math.sqrt(d), bias=tau)
        tag = "pos" if m == 1 else "neg"
        measured[f"bound_m_{tag}"] = bound
        programs = {"zero": np.zeros(d)}
        scores = net.outputs * (net.weights @ phi)
        unhelpful = np.flatnonzero(scores < -1e-12 * float(np.max(np.abs(scores))))
        bias = build_target_bias(d, k, unhelpful)
        # eigenvalues of W Wᵀ above 1e-10 λmax are singular values above 1e-5 σmax
        programs["analytic"] = np.linalg.pinv(net.weights, rcond=1e-5) @ bias
        programs["optimized"], _ = optimize_program(
            net, model, m, opt_steps, opt_lr, opt_batch, SeededRng(seed, stream)
        )
        stream += 1
        for source, offset in programs.items():
            accuracy, _ = reprogrammed_accuracy(
                net, offset, model, m, trials, SeededRng(seed, stream)
            )
            stream += 1
            key = f"accuracy_{source}_m_{tag}"
            measured[key] = accuracy
            threshold[key] = limit
            passed = passed and accuracy <= limit
    return SuiteVerdict(
        name="proposition",
        passed=passed,
        seed=seed,
        runtime_seconds=time.perf_counter() - started,
        measured=measured,
        threshold=threshold,
    )


def appendix_a_suite(
    seed: int,
    partition_d: int = 64,
    partition_ks: tuple[int, ...] = (1, 4, 8),
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
    three binomial standard errors of 2^-k for each width (memberships
    are independent fair coins); (3) extreme singular values of sampled
    weight matrices violate the closed-form concentration bounds at rate
    at most gamma plus three standard errors.
    """
    if partition_trials < 1 or sv_trials < 1:
        raise ValueError("partition_trials and sv_trials must be at least 1")
    started = time.perf_counter()
    measured = {"partition_trials": partition_trials, "sv_trials": sv_trials}
    threshold = {}
    passed = True

    max_norm_error = 0.0
    for k_index, k in enumerate(partition_ks):
        rng = SeededRng(seed, _BASE_APPENDIX_A + k_index)
        empty = 0
        target = math.sqrt(partition_d)
        for _ in range(partition_trials):
            net = random_init(partition_d, k, rng)
            phi = random_hypercube_direction(partition_d, rng)
            scores = net.outputs * (net.weights @ phi)
            unhelpful = np.flatnonzero(scores < 0.0)
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
