"""Discrete-step simulation of gradient flow for two-layer ReLU networks
under exponential or logistic loss.

``train`` discretises the flow by plain Euler subgradient descent with a
fixed step: theta <- theta - step_size * g, where g selects 0 from the
ReLU subdifferential at kinks.  A run records the loss curve, per-neuron
balance residuals, output-sign flips, and the first step at which the
total loss drops below the single-sample loss at margin zero (the point
past which every training input is classified correctly).
``train_to_crossing`` takes the same steps for many runs as one stacked
batch, each up to its first crossing.  ``train_to_directional_limit``
follows the time-rescaled flow from theta0 to its directional limit, in
one loop of chunks.  Each trainer prepares the net's ``Kernel`` and its
loss branch once per run, then steps the weights in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_models import LabeledDataset
from .errors import ConfigError, NonFiniteLoss, ReprogramLabError
from .network import Kernel, TwoLayerNet
from .numerics import SeededRng

_INIT_RETRIES = 1000

# The directional-limit trainer runs DIRECTIONAL_CHUNK steps between
# checks, rescales the weights once the smallest margin passes
# 2 * MARGIN_REF, counts two chunk-end unit weight directions as the
# same direction when they are closer than DIRECTION_TOL, and stops once
# RESCALED_TIME_BUDGET of rescaled time has passed at target.
DIRECTIONAL_CHUNK = 1000
MARGIN_REF = 80.0
DIRECTION_TOL = 1e-9
RESCALED_TIME_BUDGET = 100.0

# A neuron survives training when its row norm exceeds this fraction of
# the largest row norm.
SURVIVAL_FRACTION = 1e-6


@dataclass
class TrajectoryReport:
    """Summary of one training run.

    Curves are sampled every ``record_every`` steps (plus the initial and
    final states).  ``crossed_margin_loss_at`` is the first step index at
    which the total loss fell strictly below the loss of a single sample
    at margin zero; None if that never happened within budget.
    """

    record_steps: list[int] = field(default_factory=list)
    loss_curve: list[float] = field(default_factory=list)
    balance_residual_curve: list[float] = field(default_factory=list)
    min_margin_curve: list[float] = field(default_factory=list)
    sign_flip_detected: bool = False
    crossed_margin_loss_at: int | None = None
    steps_run: int = 0
    final_theta: TwoLayerNet | None = None
    final_loss: float = math.nan


def _exponential(u):
    value = np.exp(-u)  # overflows to inf, which the trainers catch
    return value, -value


def _logistic(u):
    tail = np.exp(-np.abs(u))
    soft, denom, nonneg = np.log1p(tail), 1.0 + tail, u >= 0.0
    return np.where(nonneg, soft, -u + soft), np.where(nonneg, -tail / denom, -1.0 / denom)


# loss kind -> (values, slopes) of the sample loss at an array of margins
_LOSSES = {"exponential": _exponential, "logistic": _logistic}
LOSS_KINDS = tuple(_LOSSES)


def loss_value_and_derivative(kind: str, u):
    """Value and derivative of the sample loss at margin u.

    ``exponential``: exp(-u); ``logistic``: log(1 + exp(-u)).  Both are
    evaluated in numerically stable form for large |u| and accept scalars
    or arrays.  The derivative satisfies |l'(u)| <= l(u) everywhere.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    with np.errstate(over="ignore"):
        value, slope = _LOSSES[kind](np.asarray(u, dtype=np.float64))
    if np.isscalar(u):
        return float(value), float(slope)
    return value, slope


def _check_trainer(kind: str, step_size: float, max_steps: int) -> None:
    """Argument checks shared by the two Euler trainers."""
    if kind not in LOSS_KINDS:
        raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    if not step_size > 0.0:
        raise ConfigError("step_size must be positive")
    if max_steps < 0:
        raise ConfigError("max_steps must be >= 0")


def balanced_live_init(
    dataset: LabeledDataset, k: int, scale: float, rng: SeededRng
) -> TwoLayerNet:
    """Balanced and live random initialisation.

    Every hidden row gets norm exactly ``scale`` (a random direction) and
    every output weight is ±scale, so |outputs[j]| equals the row norm.
    The draw is resampled until it is live: for each label sign there is
    a neuron of that output sign active on an example of that sign.
    With k >= 2 a draw is live with probability at least 1/8, so the
    1,000 draws run out, raising :class:`ReprogramLabError`, with
    probability at most (7/8)^1000, about 1e-58.
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if not scale > 0.0:
        raise ConfigError("scale must be positive")
    labels = dataset.labels
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ConfigError("dataset must contain both labels")
    d = dataset.d
    for _ in range(_INIT_RETRIES):
        w = rng.gaussian(k * d).reshape(k, d)
        norms = np.linalg.norm(w, axis=1)
        if np.any(norms < 1e-12):
            continue
        w *= (scale / norms)[:, None]
        a = scale * rng.signs(k)
        kernel = Kernel(dataset.points, labels, w, a)
        kernel.forward()  # for its active mask, (n, k)
        if all(np.any(kernel.active[labels == s][:, np.sign(a) == s]) for s in (1.0, -1.0)):
            return TwoLayerNet(weights=w, outputs=a)
    raise ReprogramLabError(f"no live initialisation found in {_INIT_RETRIES} draws")


def train(
    theta0: TwoLayerNet,
    dataset: LabeledDataset,
    kind: str,
    step_size: float,
    max_steps: int,
    stop_loss: float = 0.0,
    record_every: int = 100,
) -> TrajectoryReport:
    """Full-batch Euler subgradient descent from theta0 under loss ``kind``.

    ``step_size`` plays the role of an increment of flow time per update;
    keeping it at or below 1e-2 divided by the initial loss is a sound
    default for the datasets this package generates.  Training stops at
    ``max_steps`` or once the loss is at or below ``stop_loss``; the
    curves are sampled every ``record_every`` steps.  The update
    direction selects 0 from the ReLU subdifferential at exact kinks,
    making it independent of measure-zero activation boundaries.  Raises
    :class:`NonFiniteLoss` if the loss or the weights leave the finite
    range (step size too large).  theta0 is not modified.
    """
    _check_trainer(kind, step_size, max_steps)
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")
    if theta0.d != dataset.d:
        raise ConfigError("weight dimension does not match the dataset")
    kernel = Kernel.for_run(dataset.points, dataset.labels, theta0.weights, theta0.outputs)
    w, a = kernel.w, kernel.a
    loss_of = _LOSSES[kind]
    ell0 = loss_value_and_derivative(kind, 0.0)[0]
    sign0 = np.sign(a)
    report = TrajectoryReport()

    def record(step: int, loss: float, margins: np.ndarray) -> None:
        report.record_steps.append(step)
        report.loss_curve.append(loss)
        residual = float(np.max(np.abs(np.linalg.norm(w, axis=1) - np.abs(a))))
        report.balance_residual_curve.append(residual)
        report.min_margin_curve.append(float(np.min(margins)))

    step = 0
    with np.errstate(over="ignore"):
        while True:
            margins = kernel.forward()
            values, slopes = loss_of(margins)
            loss = float(np.add.reduce(values))
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became non-finite at step {step}")
            if report.crossed_margin_loss_at is None and loss < ell0:
                report.crossed_margin_loss_at = step
            done = step >= max_steps or loss <= stop_loss
            if step % record_every == 0 or done:
                record(step, loss, margins)
            if done:
                break
            kernel.step(slopes * kernel.ys, -step_size)
            if not report.sign_flip_detected and np.count_nonzero(np.sign(a) != sign0):
                report.sign_flip_detected = True
            step += 1

    if not np.isfinite(kernel.theta).all():
        raise NonFiniteLoss(f"weights became non-finite by step {step}")
    report.steps_run = step
    report.final_theta = TwoLayerNet(weights=w, outputs=a)
    report.final_loss = report.loss_curve[-1]
    return report


def train_to_crossing(
    thetas: list[TwoLayerNet],
    datasets: list[LabeledDataset],
    kind: str,
    step_size: float,
    max_steps: int,
) -> tuple[list[int | None], np.ndarray]:
    """Train many runs to their first loss crossing as one stacked batch.

    Run i descends from thetas[i] on datasets[i] exactly as :func:`train`
    does (all runs share one shape).  It leaves the batch at the first
    step where its total loss is strictly below the margin-zero loss, or
    at ``max_steps``.  Returns per run that crossing step (None if the
    budget ran out first) and the minimum margin at the step the run
    stopped.  Each run's numbers equal, bit for bit, those of ``train``
    stopped just below the margin-zero loss.  Raises :class:`ConfigError` for
    runs of unequal shape, :class:`NonFiniteLoss` for a non-finite loss.
    """
    _check_trainer(kind, step_size, max_steps)
    if len(thetas) != len(datasets):
        raise ConfigError(f"{len(thetas)} nets for {len(datasets)} datasets")
    if any(theta.d != data.d for theta, data in zip(thetas, datasets)):
        raise ConfigError("weight dimension does not match the dataset")
    for field, shapes in (
        ("points", {data.points.shape for data in datasets}),
        ("weights", {theta.weights.shape for theta in thetas}),
    ):
        if len(shapes) > 1:
            raise ConfigError(f"runs differ in the shape of {field}: {sorted(shapes)}")
    if not thetas:
        return [], np.empty(0)
    kernel = Kernel.for_run(
        np.stack([data.points for data in datasets]),
        np.stack([data.labels for data in datasets]),
        np.stack([theta.weights for theta in thetas]),
        np.stack([theta.outputs for theta in thetas]),
    )
    loss_of = _LOSSES[kind]
    ell0 = loss_value_and_derivative(kind, 0.0)[0]
    runs = np.arange(len(thetas))  # original index of each batch row
    crossed_at: list[int | None] = [None] * len(thetas)
    min_margins = np.empty(len(thetas))
    step = 0
    with np.errstate(over="ignore"):
        while True:
            margins = kernel.forward()
            values, slopes = loss_of(margins)
            loss = np.add.reduce(values, axis=-1)
            if not np.isfinite(loss).all():
                raise NonFiniteLoss(f"loss became non-finite at step {step}")
            crossed = loss < ell0
            if step < max_steps and not crossed.any():
                kernel.step(slopes * kernel.ys, -step_size)
                step += 1
                continue
            stop = crossed if step < max_steps else np.ones_like(crossed)
            for run in runs[crossed]:
                crossed_at[run] = step
            min_margins[runs[stop]] = np.min(margins[stop], axis=-1)
            keep = ~stop
            if not keep.any():
                break
            # the runs left get a kernel of their own and repeat this step's forward pass
            runs, xs, ys = runs[keep], kernel.xs[keep], kernel.ys[keep]
            kernel = Kernel.for_run(xs, ys, kernel.w[keep], kernel.a[keep])
    return crossed_at, min_margins


def _rescaled_chunk(kernel: Kernel, kind: str, step: float, steps: int) -> None:
    """``steps`` Euler steps of the time-rescaled flow, taken in place on
    the kernel's weights.  The per-sample gradient weights -l'(margin) are
    scaled by exp(min margin), so they stay exact however small the loss
    gets."""
    logistic = kind == "logistic"
    for _ in range(steps):
        margins = kernel.forward()
        # min of Python floats: exact, without a numpy reduction's dispatch
        weights = np.exp(min(margins.tolist()) - margins)
        if logistic:
            weights /= 1.0 + np.exp(-margins)
        kernel.step(weights * kernel.ys, step)


def _log_loss(margins: np.ndarray, kind: str) -> tuple[float, float]:
    """(log of the total loss, min margin) at ``margins``; the loss is
    computed with margin shifting so that arbitrarily small losses stay
    exact."""
    m_min = float(np.min(margins))
    rel = np.exp(m_min - margins)
    if kind == "logistic":
        small = margins < 35.0
        ms = margins[small]
        rel[small] *= np.exp(ms) * np.log1p(np.exp(-ms))
    return -m_min + math.log(float(np.sum(rel))), m_min


def train_to_directional_limit(
    theta0: TwoLayerNet,
    dataset: LabeledDataset,
    kind: str,
    target_loss: float,
    budget_steps: int,
) -> tuple[TwoLayerNet, int, float, float, int]:
    """Drive training to the directional limit of the flow, in one loop.

    From theta0, steps one kernel in place through chunks of
    DIRECTIONAL_CHUNK Euler steps of the time-rescaled flow, whose
    per-sample weights -l'(margin) are scaled by exp(min margin): a
    positive rescaling of the gradient at every loss level, so it follows
    the flow's path and never underflows.  Margins past 2 * MARGIN_REF
    trigger a rescale of the weights (2-homogeneity keeps the predictor's
    sign and the directional limit).  A chunk's step is
    0.25 / (r * (1 + max_j(|w_j|^2 + a_j^2) * max|x|^2)), with
    r = sum_i exp(min margin - margin_i) until the loss first reaches
    ``target_loss`` (positive and finite) and 1 from then on, even when a
    rescale raises the loss again: a rescaled step is a plain step times
    exp(min margin), so until then this is the plain step
    0.25 / (loss * (1 + ...)).  Rescaled time counts from then on too.  A
    chunk that would raise the loss or make it non-finite is undone, and
    ends training.

    Training stops once the loss is at target and the unit weight direction
    at a chunk end lies within DIRECTION_TOL of that at any earlier chunk
    end: the direction stopped moving (period 1) or came back to one it
    held p chunks before, as far as a fixed-step flow that settles onto a
    few directions gets.  Otherwise RESCALED_TIME_BUDGET, the step budget
    or an undone chunk ends the loop.

    Returns (theta, steps_used, final_log_loss, log_norm_growth,
    direction_period): log_norm_growth is ln(norm(theta)/norm(theta0))
    across every rescale; direction_period is the lag of the match, 0 when
    a budget or an undone chunk ended the loop.  theta0 is not modified.
    Raises :class:`NonFiniteLoss` if the loss at theta0 overflows, as
    :func:`train` does: such a start is too large to report a loss for.
    """
    if not 0.0 < target_loss < math.inf:
        raise ConfigError("target_loss must be positive and finite")
    if budget_steps < 0:
        raise ConfigError("budget_steps must be >= 0")
    kernel = Kernel.for_run(dataset.points, dataset.labels, theta0.weights, theta0.outputs)
    w, a, theta = kernel.w, kernel.a, kernel.theta
    max_x2 = float(np.max(np.sum(kernel.xs * kernel.xs, axis=1)))
    margins = kernel.forward()
    loss = float(np.sum(loss_value_and_derivative(kind, margins)[0]))
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"initial loss is {loss}: the initialisation is too large")
    log_loss, m_min = _log_loss(margins, kind)
    log_n = math.log(len(margins))
    log_target = math.log(target_loss)
    used = 0
    rescale_log = 0.0
    s_used = 0.0
    visited = np.empty((0, theta.size))  # chunk-end unit directions, in order
    period = 0
    at_target = False
    while used < budget_steps and s_used < RESCALED_TIME_BUDGET:
        at_target = at_target or log_loss <= log_target
        min_margin = -(log_loss - log_n)
        if min_margin > 2.0 * MARGIN_REF:
            alpha = math.sqrt(MARGIN_REF / min_margin)
            theta *= alpha
            rescale_log -= math.log(alpha)
            log_loss, m_min = _log_loss(kernel.forward(), kind)
        r = 1.0 if at_target else math.exp(log_loss + m_min)
        scale2 = float(np.max(np.sum(w * w, axis=1) + a * a))
        step = 0.25 / (r * (1.0 + scale2 * max_x2))
        steps = min(DIRECTIONAL_CHUNK, budget_steps - used)
        start = theta.copy()
        _rescaled_chunk(kernel, kind, step, steps)
        next_log_loss, next_m_min = _log_loss(kernel.forward(), kind)
        if not (math.isfinite(next_log_loss) and next_log_loss <= log_loss + 1e-9):
            theta[:] = start
            break
        log_loss, m_min = next_log_loss, next_m_min
        used += steps
        if at_target:
            s_used += step * steps
        direction = theta / np.linalg.norm(theta)
        if log_loss <= log_target:
            close = np.flatnonzero(np.linalg.norm(visited - direction, axis=1) < DIRECTION_TOL)
            if close.size:
                period = len(visited) - int(close[-1])
                break
        visited = np.vstack([visited, direction])

    final = TwoLayerNet(w, a)
    log_growth = math.log(final.norm()) + rescale_log - math.log(theta0.norm())
    return final, used, log_loss, log_growth, period


@dataclass(frozen=True)
class ConvergenceReport:
    """Directional-convergence diagnostics against the max-margin targets.

    ``surviving`` holds the neurons whose row norm is above
    SURVIVAL_FRACTION of the largest; ``min_cosine`` is the least cosine
    between a surviving hidden row and the max-margin vector of its output
    sign (nan when none survives); ``max_balance_residual`` is the largest
    | ||w_j|| - |a_j| |; ``mass_ratio`` is the ratio of the summed squared
    positive to negative output weights, which converges to
    norm(v_pos)/norm(v_neg) for direction-converged weights.
    """

    surviving: np.ndarray
    min_cosine: float
    max_balance_residual: float
    mass_ratio: float


def convergence_report(
    theta: TwoLayerNet,
    v_pos: np.ndarray,
    v_neg: np.ndarray,
) -> ConvergenceReport:
    """Per-neuron alignment of trained weights with the margin vectors."""
    norms = np.linalg.norm(theta.weights, axis=1)
    surviving = np.flatnonzero(norms > SURVIVAL_FRACTION * float(np.max(norms)))
    cosines = []
    for j in surviving:
        target = v_pos if theta.outputs[j] > 0 else v_neg
        denom = norms[j] * np.linalg.norm(target)
        cosines.append(float(theta.weights[j] @ target) / float(denom))
    mass_pos = float(np.sum(theta.outputs[theta.outputs > 0] ** 2))
    mass_neg = float(np.sum(theta.outputs[theta.outputs < 0] ** 2))
    return ConvergenceReport(
        surviving=surviving,
        min_cosine=min(cosines, default=math.nan),
        max_balance_residual=float(np.max(np.abs(norms - np.abs(theta.outputs)))),
        mass_ratio=mass_pos / mass_neg if mass_neg > 0 else math.inf,
    )


def trajectory_to_csv(report: TrajectoryReport) -> str:
    """CSV with columns step, loss, balance_residual, min_margin."""
    lines = ["step,loss,balance_residual,min_margin"]
    for i, step in enumerate(report.record_steps):
        lines.append(
            f"{step},{report.loss_curve[i]:.17g},"
            f"{report.balance_residual_curve[i]:.17g},"
            f"{report.min_margin_curve[i]:.17g}"
        )
    return "\n".join(lines) + "\n"
