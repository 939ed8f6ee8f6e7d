"""Two-layer ReLU networks: construction, the forward and backward pass,
serialisation.

A network maps an input x in R^d to sum_j outputs[j] * max(weights[j] . x, 0).
There are no biases in either layer.  One type holds both the random
networks and the weights the trainers return.  Instances are immutable
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import MAX_ENTRIES, SeededRng


@dataclass(frozen=True)
class TwoLayerNet:
    """Width-k ReLU network over input dimension d.

    ``weights`` has shape (k, d); row j is the j-th hidden neuron.
    ``outputs`` has shape (k,) and holds the second-layer weights.
    """

    weights: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        a = np.asarray(self.outputs, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ConfigError("weights must be a nonempty 2-D array")
        if a.shape != (w.shape[0],):
            raise ConfigError("outputs length must equal the network width")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
            raise ConfigError("network weights must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "outputs", a)

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def norm(self) -> float:
        """Euclidean norm of all weights, hidden rows and outputs together."""
        return math.sqrt(
            float(np.sum(self.weights * self.weights) + np.sum(self.outputs * self.outputs))
        )


def random_init(d: int, k: int, rng: SeededRng) -> TwoLayerNet:
    """Network with i.i.d. N(0, 1/d) hidden rows and uniform ±1/sqrt(k) outputs.

    Hidden weights are drawn first (row-major), then the output signs, so a
    given (seed, stream) always yields the same network bit for bit.
    """
    if d < 1:
        raise ConfigError(f"d must be at least 1, got {d}")
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if k * d > MAX_ENTRIES:
        raise ConfigError(f"d must be at most {MAX_ENTRIES // k} for k = {k}, got {d}")
    w = rng.gaussian(k * d).reshape(k, d)
    w *= 1.0 / math.sqrt(d)
    a = rng.signs(k)
    a *= 1.0 / math.sqrt(k)
    return TwoLayerNet(weights=w, outputs=a)


class Kernel:
    """The net's forward and backward pass over fixed data, prepared once
    per training run and then stepped.

    xs (..., n, d), ys (..., n) or a scalar, w (..., k, d), a (..., k).  A
    stack of nets on a leading axis goes through ``np.matmul``, which makes
    the BLAS call ``np.dot`` makes for one net: the same bits either way.
    The constructor reads (w, a) in place; :meth:`for_run` copies them into
    ``theta``, one flat [w.ravel(), a] per net, that :meth:`step` updates.
    """

    def __init__(self, xs, ys, w, a):
        self.xs, self.ys, self.w, self.a = xs, ys, w, a
        self._w_t = w.swapaxes(-1, -2)
        self._a_col = a[..., None]
        self._dot = np.dot if w.ndim == 2 else np.matmul

    @classmethod
    def for_run(cls, xs, ys, w, a) -> "Kernel":
        """A kernel over a copy of (w, a) in ``theta``, which, like its
        gradient buffer, is contiguous per net: every BLAS call sees the
        memory layout that separate arrays give it."""
        kd = w.shape[-2] * w.shape[-1]
        theta = np.concatenate([w.reshape(*w.shape[:-2], kd), a], axis=-1)
        kernel = cls(xs, ys, theta[..., :kd].reshape(w.shape), theta[..., kd:])
        kernel.theta, kernel._grad = theta, np.empty_like(theta)
        kernel._grad_w = kernel._grad[..., :kd].reshape(w.shape)
        kernel._grad_a = kernel._grad[..., kd:].reshape(a.shape + (1,))
        return kernel

    def forward(self):
        """Margins y * N(x), shape (..., n).  The active mask and the hidden
        outputs, both (..., n, k), are kept for the next :meth:`step`."""
        pre = self._dot(self.xs, self._w_t)
        self.active = active = pre > 0.0
        self.hidden = hidden = np.where(active, pre, 0.0)
        return self.ys * self._dot(hidden, self._a_col)[..., 0]

    def step(self, coeff, rate) -> None:
        """Add ``rate`` * sum_i coeff_i * dN(x_i)/dtheta to theta, at the
        last :meth:`forward`; coeff_i = l'(margin_i) * y_i makes the sum the
        gradient of sum_i l(margin_i).  The ReLU's subgradient at an exact
        kink is taken as 0."""
        coeff = coeff[..., None]
        self._dot(self.hidden.swapaxes(-1, -2), coeff, out=self._grad_a)
        self._dot((self.active * coeff).swapaxes(-1, -2), self.xs, out=self._grad_w)
        self._grad_w *= self._a_col
        self._grad *= rate
        self.theta += self._grad


def forward(net: TwoLayerNet, x: np.ndarray) -> float:
    """Network output for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.d,):
        raise ConfigError(f"input has shape {x.shape}, expected ({net.d},)")
    return float(Kernel(x[None, :], 1.0, net.weights, net.outputs).forward()[0])


def forward_batch(net: TwoLayerNet, xs: np.ndarray) -> np.ndarray:
    """Network outputs for a batch of inputs, shape (n, d) -> (n,)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.d:
        raise ConfigError(f"batch has shape {xs.shape}, expected (n, {net.d})")
    return Kernel(xs, 1.0, net.weights, net.outputs).forward()


def network_to_text(net: TwoLayerNet) -> str:
    """Serialise a network to the plain-text record format.

    Line 1 is ``d k``; then k lines of d hidden weights; then one line of
    k output weights.  Values use 17 significant digits, so parsing the
    text reproduces every float exactly.
    """
    lines = [f"{net.d} {net.k}"]
    for row in net.weights:
        lines.append(" ".join(format(v, ".17g") for v in row))
    lines.append(" ".join(format(v, ".17g") for v in net.outputs))
    return "\n".join(lines) + "\n"

