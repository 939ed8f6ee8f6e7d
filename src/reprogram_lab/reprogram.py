"""Adversarial programs: the analytic construction from network weights,
reprogrammed-accuracy measurement, the two image-combination schemes, and
a gradient-based program optimizer.

An adversarial program is a single offset vector p added to every input
of the adversarial task.  The analytic construction solves W p = b where
b holds one target bias per hidden neuron: zero for neurons whose sign
already helps the task, and a large negative value for the rest, which
silences them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_models import BernoulliModel, bernoulli_points, sample_bernoulli
from .errors import ConfigError, TieEncountered
from .gradient_flow import loss_value_and_derivative
from .network import Kernel, TwoLayerNet, forward_batch
from .numerics import SeededRng, min_norm_solve

TIE_TOL = 1e-14

# Bound on the magnitude of optimised program entries: the squashed
# parameterisation maps onto (-c, c) with c = SOFTSIGN_SCALE * sqrt(d).
SOFTSIGN_SCALE = 1.2


@dataclass(frozen=True)
class ProgramImage:
    """Colour or grayscale image with float pixel values in [-1, 1].

    ``pixels`` has shape (height, width, channels), row-major.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or min(px.shape) < 1:
            raise ConfigError("pixels must be a nonempty (H, W, C) array")
        if not np.all(np.isfinite(px)):
            raise ConfigError("pixel values must be finite")
        if px.min() < -1.0 or px.max() > 1.0:
            raise ConfigError("pixel values must lie in [-1, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def partition_neurons(
    net: TwoLayerNet, direction: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split neuron indices by the sign of outputs[j] * (weights[j] . direction).

    Positive products are helpful for the task along ``direction``; negative
    ones are unhelpful.  A (near) zero product is a probability-zero event
    for the random networks this is meant for, so it raises
    :class:`TieEncountered` rather than silently picking a side.
    """
    phi = np.asarray(direction, dtype=np.float64)
    if phi.shape != (net.d,):
        raise ConfigError(f"direction has shape {phi.shape}, expected ({net.d},)")
    if not abs(np.linalg.norm(phi) - 1.0) <= 1e-9:
        raise ConfigError("direction must have unit norm")
    return partition_scores(net.outputs * (net.weights @ phi))


def partition_scores(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Helpful and unhelpful neuron indices for the alignment scores
    outputs[j] * (weights[j] . direction): the positive and the negative
    ones.  A score below ``TIE_TOL`` in magnitude raises
    :class:`TieEncountered`."""
    ties = np.flatnonzero(np.abs(scores) < TIE_TOL)
    if ties.size:
        raise TieEncountered(
            f"neuron {int(ties[0])} has alignment score {scores[ties[0]]:.3e}"
        )
    return np.flatnonzero(scores > 0.0), np.flatnonzero(scores < 0.0)


def build_target_bias(d: int, k: int, unhelpful: np.ndarray) -> np.ndarray:
    """Per-neuron target bias: 0 on helpful neurons, -sqrt(d/|unhelpful|)
    on unhelpful ones.  Its norm is exactly sqrt(d) when any neuron is
    unhelpful."""
    bias = np.zeros(k)
    if unhelpful.size:
        bias[unhelpful] = -math.sqrt(d / unhelpful.size)
    return bias


def construct_program(net: TwoLayerNet, direction: np.ndarray) -> np.ndarray:
    """Analytic adversarial program p for a network and a task direction.

    Requires width <= dimension with linearly independent hidden rows.
    Solves W p = b for the minimum-norm p, so that adding p to any input
    acts as the per-neuron first-layer bias b.  The norm of p is bracketed
    by norm(b)/s_max(W) and norm(b)/s_min(W).

    Raises
    ------
    ConfigError
        If net.k > net.d, or ``direction`` is not a unit vector of shape (d,).
    TieEncountered
        Propagated from :func:`partition_neurons` on a (near) zero alignment.
    GramNotPositiveDefinite
        Propagated from the solver when hidden rows are dependent.
    """
    if net.k > net.d:
        raise ConfigError(f"width k must not exceed dimension d (k = {net.k}, d = {net.d})")
    _, unhelpful = partition_neurons(net, direction)
    if not unhelpful.size:
        return np.zeros(net.d)
    return min_norm_solve(net.weights, build_target_bias(net.d, net.k, unhelpful))


def _block_rows(d: int) -> int:
    """Rows per block of :func:`reprogrammed_accuracy`: about 2^16 flip
    entries, so 1,024 rows at d = 64, and at least one row."""
    return max(1, (1 << 16) // d)


def reprogrammed_accuracy(
    net: TwoLayerNet,
    offset: np.ndarray,
    model: BernoulliModel,
    m: int,
    trials: int,
    rng: SeededRng,
) -> float:
    """Monte-Carlo accuracy of the reprogrammed network on the data model.

    A trial succeeds when m * y * N(offset + x) is strictly positive; an
    output of exactly zero counts as a failure.  Returns the success
    fraction.

    All labels are drawn first, then the points in blocks of
    max(1, 2^16 // d) rows, in order, so the stream is read exactly as by
    one :func:`sample_bernoulli` call over all trials and ends at the same
    position.  Memory is 8 bytes a trial for the labels plus a fixed
    amount per block (a few 2^16-entry arrays, under 2 MB), not a multiple
    of trials · d.  A row's output may differ in its last bits from a
    one-shot batch, since BLAS picks its kernel by row count.

    Raises
    ------
    ConfigError
        If ``trials`` < 1, ``m`` is not ±1, ``offset`` does not have shape
        (d,) or ``model`` has another d than the network.
    """
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    if m not in (-1, 1):
        raise ConfigError("label mapping m must be +1 or -1")
    offset = np.asarray(offset, dtype=np.float64)
    if offset.shape != (net.d,):
        raise ConfigError(f"offset has shape {offset.shape}, expected ({net.d},)")
    if model.d != net.d:
        raise ConfigError(f"data model has d = {model.d}, network has d = {net.d}")
    labels = rng.signs(trials)
    rows = _block_rows(net.d)
    hits = 0
    for first in range(0, trials, rows):
        ys = labels[first:first + rows]
        xs = bernoulli_points(model, ys, rng)
        xs += offset
        hits += int(np.count_nonzero(m * ys * forward_batch(net, xs) > 0.0))
    return hits / trials


def bilinear_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W, C) pixel data with bilinear interpolation.

    Sample positions use half-integer pixel centres and are edge-clamped,
    so output values are convex combinations of input values.
    """
    px = np.asarray(pixels, dtype=np.float64)
    in_h, in_w = px.shape[0], px.shape[1]
    if out_h < 1 or out_w < 1:
        raise ConfigError("output size must be positive")

    def axis_coords(n_out: int, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(out_h, in_h)
    x0, x1, fx = axis_coords(out_w, in_w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = px[y0][:, x0] * (1.0 - fx) + px[y0][:, x1] * fx
    bottom = px[y1][:, x0] * (1.0 - fx) + px[y1][:, x1] * fx
    return top * (1.0 - fy) + bottom * fy


def _round_half_away(value: float) -> int:
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def scheme1_combine(program: ProgramImage, image: ProgramImage, amount: float) -> ProgramImage:
    """Centre-paste combination: overwrite the middle of the program.

    The input image is resized (bilinear) to a square of side
    round(amount * program.width) and pasted centred, with top-left offset
    floor((width - side) / 2) on both axes.  amount = 0 leaves the program
    untouched; amount = 1 overwrites it entirely.
    """
    if program.height != program.width:
        raise ConfigError("scheme 1 requires a square program image")
    if program.channels != image.channels:
        raise ConfigError(
            f"program has {program.channels} channels, image has {image.channels}"
        )
    if not 0.0 <= amount <= 1.0:
        raise ConfigError("amount must lie in [0, 1]")
    side = _round_half_away(amount * program.width)
    if side == 0:
        return ProgramImage(pixels=program.pixels.copy())
    pasted = bilinear_resize(image.pixels, side, side)
    offset = (program.width - side) // 2
    out = program.pixels.copy()
    out[offset : offset + side, offset : offset + side, :] = pasted
    return ProgramImage(pixels=out)


def scheme2_combine(program: ProgramImage, image: ProgramImage, amount: float) -> ProgramImage:
    """Convex blend: amount * image + (1 - amount) * program, after
    resizing the image to the program's shape."""
    if program.channels != image.channels:
        raise ConfigError(
            f"program has {program.channels} channels, image has {image.channels}"
        )
    if not 0.0 <= amount <= 1.0:
        raise ConfigError("amount must lie in [0, 1]")
    resized = bilinear_resize(image.pixels, program.height, program.width)
    return ProgramImage(pixels=amount * resized + (1.0 - amount) * program.pixels)


def optimize_program(
    net: TwoLayerNet,
    model: BernoulliModel,
    m: int,
    steps: int,
    lr: float,
    batch: int,
    rng: SeededRng,
) -> tuple[np.ndarray, list[float]]:
    """Gradient search for a program offset against a fixed network.

    The offset is parameterised as c * softsign(q) with
    c = SOFTSIGN_SCALE * sqrt(d), which keeps every entry bounded, and q
    is updated by descent on the mean logistic loss of
    m * y * N(p + x) over fresh minibatches from the data model.  The
    subgradient of the ReLU at its kink is taken as zero.  Returns the
    final offset and the per-step mean batch loss.
    """
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    if steps > 0 and (not lr > 0.0 or batch < 1):
        raise ConfigError("lr must be positive and batch at least 1")
    if m not in (-1, 1):
        raise ConfigError("label mapping m must be +1 or -1")
    if model.d != net.d:
        raise ConfigError(f"data model has d = {model.d}, network has d = {net.d}")
    d = net.d
    cap = SOFTSIGN_SCALE * math.sqrt(d)
    start = 2.0 * rng.random_open(d) - 1.0  # uniform in (-1, 1)
    q = start / (1.0 - np.abs(start))
    losses: list[float] = []
    for _ in range(steps):
        xs, ys = sample_bernoulli(model, batch, rng)
        p = cap * q / (1.0 + np.abs(q))
        kernel = Kernel(xs + p, m * ys, net.weights, net.outputs)
        value, slope = loss_value_and_derivative("logistic", kernel.forward())
        losses.append(float(np.mean(value)))
        d_out = slope * (m * ys) / batch
        d_p = net.weights.T @ ((kernel.active * net.outputs[None, :]).T @ d_out)
        d_q = d_p * cap / (1.0 + np.abs(q)) ** 2
        q -= lr * d_q
    return cap * q / (1.0 + np.abs(q)), losses


def image_to_text(image: ProgramImage) -> str:
    """Serialise: header ``H W C``, then row-major pixel values."""
    head = f"{image.height} {image.width} {image.channels}"
    flat = image.pixels.reshape(-1)
    body = "\n".join(
        " ".join(format(v, ".17g") for v in flat[i : i + image.width * image.channels])
        for i in range(0, flat.size, image.width * image.channels)
    )
    return head + "\n" + body + "\n"


def image_from_text(text: str) -> ProgramImage:
    """Parse the format written by :func:`image_to_text`."""
    tokens = text.split()
    if len(tokens) < 3:
        raise ConfigError("image record too short")
    h, w, c = (_header_int("image", name, token) for name, token in zip("HWC", tokens))
    try:
        values = np.array([float(v) for v in tokens[3:]])
    except ValueError as exc:
        raise ConfigError(f"image pixel values must be numbers: {exc}") from None
    if values.size != h * w * c:
        raise ConfigError(f"expected {h * w * c} pixel values, found {values.size}")
    return ProgramImage(pixels=values.reshape(h, w, c))


def image_to_ppm(image: ProgramImage) -> bytes:
    """8-bit binary PPM; [-1, 1] maps linearly onto [0, 255], rounding
    half up."""
    if image.channels != 3:
        raise ConfigError("PPM export requires exactly 3 channels")
    scaled = (image.pixels + 1.0) * (255.0 / 2.0)
    bytes8 = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + bytes8.tobytes()


def ascii_int(text: str) -> int:
    """An integer in ASCII digits with an optional leading minus sign; not
    the other scripts' digits, underscores, plus sign or spaces of ``int``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ConfigError(f"not an integer: {text!r}")
    return int(text)


def _header_int(fmt: str, name: str, token) -> int:
    """A header field that must be an integer of at least 1 (a minus sign
    is read, then rejected as below 1)."""
    try:
        value = ascii_int(token.decode("latin-1") if isinstance(token, bytes) else token)
    except ValueError:
        raise ConfigError(f"{fmt} {name} must be an integer, got {token!r}") from None
    if value < 1:
        raise ConfigError(f"{fmt} {name} must be at least 1, got {value}")
    return value


def image_from_ppm(data: bytes) -> ProgramImage:
    """Parse binary PPM back to float pixels in [-1, 1]."""
    names = ("magic number", "width", "height", "maxval")
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos == len(data):
            raise ConfigError(f"PPM header ends before its {names[len(fields)]}")
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise ConfigError("only binary PPM (P6) is supported")
    w, h, maxval = (_header_int("PPM", n, f) for n, f in zip(names[1:], fields[1:]))
    if maxval != 255:
        raise ConfigError("only maxval 255 is supported")
    size = h * w * 3
    if len(data) - pos < size:
        raise ConfigError(f"PPM raster has {max(len(data) - pos, 0)} bytes, expected {size}")
    raw = np.frombuffer(data, dtype=np.uint8, count=size, offset=pos)
    pixels = raw.astype(np.float64).reshape(h, w, 3) * (2.0 / 255.0) - 1.0
    return ProgramImage(pixels=pixels)
