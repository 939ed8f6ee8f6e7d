"""Discrete-step simulation of gradient flow for two-layer ReLU networks
under exponential or logistic loss.

The flow is discretised by plain Euler subgradient descent with a fixed
step: theta <- theta - step_size * g, where g selects 0 from the ReLU
subdifferential at kinks.  A run records the loss curve, per-neuron
balance residuals, output-sign flips, and the first step at which the
total loss drops below the single-sample loss at margin zero (the point
past which every training input is classified correctly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data_models import LabeledDataset
from .errors import LivenessExhausted, NonFiniteLoss
from .network import TwoLayerNet
from .numerics import SeededRng

LOSS_KINDS = ("exponential", "logistic")

_INIT_RETRIES = 1000


@dataclass
class WeightVector:
    """All trainable weights: hidden rows (k, d) and output weights (k,)."""

    weights: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.outputs = np.asarray(self.outputs, dtype=np.float64)
        if self.weights.ndim != 2 or self.outputs.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (k, d) with outputs of length k")

    def copy(self) -> "WeightVector":
        return WeightVector(self.weights.copy(), self.outputs.copy())

    def norm(self) -> float:
        """Euclidean norm of the full flattened weight vector."""
        return math.sqrt(
            float(np.sum(self.weights * self.weights) + np.sum(self.outputs * self.outputs))
        )

    def to_network(self) -> TwoLayerNet:
        return TwoLayerNet(weights=self.weights.copy(), outputs=self.outputs.copy())


@dataclass(frozen=True)
class TrainerConfig:
    """Euler discretisation parameters.

    ``step_size`` plays the role of an increment of flow time per update;
    keeping step_size at or below 1e-2 divided by the initial loss is a
    sound default for the datasets this package generates.  Training stops
    at ``max_steps`` or once the loss is at or below ``stop_loss``.
    """

    loss_kind: str
    step_size: float
    max_steps: int
    stop_loss: float = 0.0
    record_every: int = 100

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.max_steps < 0 or self.record_every < 1:
            raise ValueError("max_steps must be >= 0 and record_every >= 1")


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
    final_theta: WeightVector | None = None
    final_loss: float = math.nan


def loss_value_and_derivative(kind: str, u):
    """Value and derivative of the sample loss at margin u.

    ``exponential``: exp(-u); ``logistic``: log(1 + exp(-u)).  Both are
    evaluated in numerically stable form for large |u| and accept scalars
    or arrays.  The derivative satisfies |l'(u)| <= l(u) everywhere.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"loss kind must be one of {LOSS_KINDS}")
    arr = np.asarray(u, dtype=np.float64)
    if kind == "exponential":
        with np.errstate(over="ignore"):  # inf is caught by the trainer
            value = np.exp(-arr)
        slope = -value
    else:
        tail = np.exp(-np.abs(arr))
        soft = np.log1p(tail)
        denom = 1.0 + tail
        value = np.where(arr >= 0.0, soft, -arr + soft)
        slope = np.where(arr >= 0.0, -tail / denom, -1.0 / denom)
    if np.isscalar(u):
        return float(value), float(slope)
    return value, slope


def margin_zero_loss(kind: str) -> float:
    """Loss of one sample at margin zero: 1 for exponential, ln 2 for logistic."""
    if kind == "exponential":
        return 1.0
    if kind == "logistic":
        return math.log(2.0)
    raise ValueError(f"loss kind must be one of {LOSS_KINDS}")


# The forward and backward pass of the net, written once for every trainer.
# Arrays may carry leading batch axes: xs (..., n, d), ys (..., n),
# w (..., k, d), a (..., k); a 2-D call is the batch-free case.  Each
# stacked matmul runs the same BLAS call per batch entry as the 2-D call,
# so a run gives the same bits alone and inside a batch.


def _forward(xs, ys, w, a):
    """Active mask (..., n, k), hidden outputs (..., n, k) and margins (..., n)."""
    pre = xs @ w.swapaxes(-1, -2)
    active = pre > 0.0
    hidden = np.where(active, pre, 0.0)
    margins = ys * (hidden @ a[..., None])[..., 0]
    return active, hidden, margins


def _gradient(xs, a, active, hidden, coeff):
    """(grad_w, grad_a) of sum_i l(margin_i), given coeff_i = l'(margin_i) * y_i.

    The ReLU's subgradient at an exact kink is taken as 0.
    """
    grad_a = (hidden.swapaxes(-1, -2) @ coeff[..., None])[..., 0]
    grad_w = (active * coeff[..., None]).swapaxes(-1, -2) @ xs
    grad_w *= a[..., None]
    return grad_w, grad_a


def balanced_live_init(
    dataset: LabeledDataset, k: int, scale: float, rng: SeededRng
) -> WeightVector:
    """Balanced and live random initialisation.

    Every hidden row gets norm exactly ``scale`` (a random direction) and
    every output weight is ±scale, so |outputs[j]| equals the row norm.
    The draw is resampled until it is live: for each label sign there is
    a neuron of that output sign active on an example of that sign.
    """
    if k < 2:
        raise ValueError("width must be at least 2")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    labels = dataset.labels
    if not (np.any(labels > 0) and np.any(labels < 0)):
        raise ValueError("dataset must contain both labels")
    d = dataset.d
    for _ in range(_INIT_RETRIES):
        w = rng.gaussian(k * d).reshape(k, d)
        norms = np.linalg.norm(w, axis=1)
        if np.any(norms < 1e-12):
            continue
        w *= (scale / norms)[:, None]
        a = scale * rng.signs(k)
        active = dataset.points @ w.T > 0.0  # (n, k)
        live = True
        for s in (1.0, -1.0):
            rows = labels == s
            cols = np.sign(a) == s
            if not np.any(active[rows][:, cols]):
                live = False
                break
        if live:
            return WeightVector(weights=w, outputs=a)
    raise LivenessExhausted(f"no live initialisation found in {_INIT_RETRIES} draws")


def train(theta0: WeightVector, dataset: LabeledDataset, cfg: TrainerConfig) -> TrajectoryReport:
    """Full-batch Euler subgradient descent from theta0.

    The update direction selects 0 from the ReLU subdifferential at exact
    kinks, making it independent of measure-zero activation boundaries.
    Raises :class:`NonFiniteLoss` if the loss leaves the finite range
    (step size too large).  theta0 is not modified.
    """
    w = theta0.weights.copy()
    a = theta0.outputs.copy()
    xs = dataset.points
    ys = dataset.labels
    if w.shape[1] != dataset.d:
        raise ValueError("weight dimension does not match the dataset")
    ell0 = margin_zero_loss(cfg.loss_kind)
    sign0 = np.sign(a)
    report = TrajectoryReport()

    def record(step: int, loss: float, margins: np.ndarray) -> None:
        report.record_steps.append(step)
        report.loss_curve.append(loss)
        residual = float(np.max(np.abs(np.linalg.norm(w, axis=1) - np.abs(a))))
        report.balance_residual_curve.append(residual)
        report.min_margin_curve.append(float(np.min(margins)))

    step = 0
    while True:
        active, hidden, margins = _forward(xs, ys, w, a)
        values, slopes = loss_value_and_derivative(cfg.loss_kind, margins)
        loss = float(np.sum(values))
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"loss became non-finite at step {step}")
        if report.crossed_margin_loss_at is None and loss < ell0:
            report.crossed_margin_loss_at = step
        done = step >= cfg.max_steps or loss <= cfg.stop_loss
        if step % cfg.record_every == 0 or done:
            record(step, loss, margins)
        if done:
            break
        grad_w, grad_a = _gradient(xs, a, active, hidden, slopes * ys)
        grad_w *= cfg.step_size
        grad_a *= cfg.step_size
        w -= grad_w
        a -= grad_a
        if not report.sign_flip_detected and np.any(np.sign(a) != sign0):
            report.sign_flip_detected = True
        step += 1

    report.steps_run = step
    report.final_theta = WeightVector(weights=w, outputs=a)
    report.final_loss = report.loss_curve[-1]
    return report


def train_to_crossing(
    thetas: list[WeightVector],
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
    stopped just below the margin-zero loss.  Raises
    :class:`NonFiniteLoss` if any run's loss leaves the finite range.
    """
    if not thetas:
        return [], np.empty(0)
    xs = np.stack([data.points for data in datasets])
    ys = np.stack([data.labels for data in datasets])
    w = np.stack([theta.weights for theta in thetas])
    a = np.stack([theta.outputs for theta in thetas])
    ell0 = margin_zero_loss(kind)
    runs = np.arange(len(thetas))  # original index of each batch row
    crossed_at: list[int | None] = [None] * len(thetas)
    min_margins = np.empty(len(thetas))
    step = 0
    while True:
        active, hidden, margins = _forward(xs, ys, w, a)
        values, slopes = loss_value_and_derivative(kind, margins)
        loss = np.sum(values, axis=-1)
        if not np.all(np.isfinite(loss)):
            raise NonFiniteLoss(f"loss became non-finite at step {step}")
        crossed = loss < ell0
        stop = crossed if step < max_steps else np.ones_like(crossed)
        if np.any(stop):
            for run in runs[crossed]:
                crossed_at[run] = step
            min_margins[runs[stop]] = np.min(margins[stop], axis=-1)
            keep = ~stop
            if not np.any(keep):
                break
            runs, xs, ys, w, a = runs[keep], xs[keep], ys[keep], w[keep], a[keep]
            active, hidden, slopes = active[keep], hidden[keep], slopes[keep]
        grad_w, grad_a = _gradient(xs, a, active, hidden, slopes * ys)
        grad_w *= step_size
        grad_a *= step_size
        w -= grad_w
        a -= grad_a
        step += 1
    return crossed_at, min_margins


@dataclass(frozen=True)
class ConvergenceReport:
    """Directional-convergence diagnostics against the max-margin targets.

    ``cosines`` holds, for each surviving neuron (row norm above 1e-6 of
    the largest), the cosine between its hidden row and the max-margin
    vector of its output sign.  ``mass_pos``/``mass_neg`` are the summed
    squared output weights per sign; their ratio converges to
    norm(v_pos)/norm(v_neg) for direction-converged weights.
    """

    surviving: np.ndarray
    cosines: np.ndarray
    balance_residuals: np.ndarray
    mass_pos: float
    mass_neg: float

    @property
    def mass_ratio(self) -> float:
        return self.mass_pos / self.mass_neg if self.mass_neg > 0 else math.inf

    @property
    def max_balance_residual(self) -> float:
        return float(np.max(self.balance_residuals))

    @property
    def min_cosine(self) -> float:
        return float(np.min(self.cosines)) if self.cosines.size else math.nan


def convergence_report(
    theta: WeightVector,
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    survival_fraction: float = 1e-6,
) -> ConvergenceReport:
    """Per-neuron alignment of trained weights with the margin vectors."""
    norms = np.linalg.norm(theta.weights, axis=1)
    surviving = np.flatnonzero(norms > survival_fraction * float(np.max(norms)))
    cosines = []
    for j in surviving:
        target = v_pos if theta.outputs[j] > 0 else v_neg
        denom = norms[j] * np.linalg.norm(target)
        cosines.append(float(theta.weights[j] @ target) / float(denom))
    mass_pos = float(np.sum(theta.outputs[theta.outputs > 0] ** 2))
    mass_neg = float(np.sum(theta.outputs[theta.outputs < 0] ** 2))
    return ConvergenceReport(
        surviving=surviving,
        cosines=np.array(cosines),
        balance_residuals=np.abs(norms - np.abs(theta.outputs)),
        mass_pos=mass_pos,
        mass_neg=mass_neg,
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
