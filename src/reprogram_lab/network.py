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

from .errors import DimensionMismatch
from .numerics import SeededRng


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
            raise ValueError("weights must be a nonempty 2-D array")
        if a.shape != (w.shape[0],):
            raise ValueError("outputs length must equal the network width")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(a))):
            raise ValueError("network weights must be finite")
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
    if d < 1 or k < 1:
        raise ValueError("dimensions must be positive")
    w = rng.gaussian(k * d).reshape(k, d)
    w *= 1.0 / math.sqrt(d)
    a = rng.signs(k)
    a *= 1.0 / math.sqrt(k)
    return TwoLayerNet(weights=w, outputs=a)


# The forward and backward pass of the net, written once for every caller.
# Arrays may carry leading batch axes: xs (..., n, d), ys (..., n) or a
# scalar, w (..., k, d), a (..., k); a 2-D call is the batch-free case.
# Each stacked matmul runs the same BLAS call per batch entry as the 2-D
# call, so a run gives the same bits alone and inside a batch.


def forward_pass(xs, ys, w, a):
    """Active mask (..., n, k), hidden outputs (..., n, k) and margins
    y * N(x), shape (..., n)."""
    pre = xs @ w.swapaxes(-1, -2)
    active = pre > 0.0
    hidden = np.where(active, pre, 0.0)
    margins = ys * (hidden @ a[..., None])[..., 0]
    return active, hidden, margins


def backward_pass(xs, a, active, hidden, coeff):
    """(grad_w, grad_a) of sum_i l(margin_i), given coeff_i = l'(margin_i) * y_i.

    The ReLU's subgradient at an exact kink is taken as 0.
    """
    grad_a = (hidden.swapaxes(-1, -2) @ coeff[..., None])[..., 0]
    grad_w = (active * coeff[..., None]).swapaxes(-1, -2) @ xs
    grad_w *= a[..., None]
    return grad_w, grad_a


def forward(net: TwoLayerNet, x: np.ndarray) -> float:
    """Network output for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.d,):
        raise DimensionMismatch(f"input has shape {x.shape}, expected ({net.d},)")
    return float(forward_pass(x[None, :], 1.0, net.weights, net.outputs)[2][0])


def forward_batch(net: TwoLayerNet, xs: np.ndarray) -> np.ndarray:
    """Network outputs for a batch of inputs, shape (n, d) -> (n,)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.d:
        raise DimensionMismatch(f"batch has shape {xs.shape}, expected (n, {net.d})")
    return forward_pass(xs, 1.0, net.weights, net.outputs)[2]


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

