"""Data models: Bernoulli hypercube distributions and orthogonally
separable datasets, with generators and certifying checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ReprogramLabError
from .numerics import MAX_ENTRIES, SeededRng

# Half-angle of the cones used by generate_orthosep; see its docstring.
_CONE_HALF_ANGLE = math.radians(40.0)


@dataclass(frozen=True)
class BernoulliModel:
    """Two-class distribution over scaled hypercube vertices.

    ``direction`` is a unit hypercube vertex (entries exactly ±1/sqrt(d)),
    ``rho`` scales the vertices, and ``tau`` in (0, 1/2] controls task
    difficulty: each coordinate of a sample keeps its class sign with
    probability 1/2 + tau.
    """

    direction: np.ndarray
    rho: float
    tau: float

    def __post_init__(self):
        phi = np.asarray(self.direction, dtype=np.float64)
        if phi.ndim != 1 or phi.size < 1:
            raise ConfigError("direction must be a nonempty vector")
        step = 1.0 / math.sqrt(phi.size)
        if not np.all(np.abs(phi) == step):
            raise ConfigError("direction entries must be exactly ±1/sqrt(d)")
        if abs(np.linalg.norm(phi) - 1.0) > 1e-12:
            raise ConfigError("direction must have unit norm")
        if not 0.0 < self.rho < math.inf:
            raise ConfigError("rho must be positive and finite")
        if not 0.0 < self.tau <= 0.5:
            raise ConfigError("tau must lie in (0, 1/2]")
        object.__setattr__(self, "direction", phi)

    @property
    def d(self) -> int:
        return self.direction.size


@dataclass(frozen=True)
class LabeledDataset:
    """Finite binary-classification sample: points (n, d) and labels ±1."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.points, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ConfigError("points must be a nonempty (n, d) array")
        if y.shape != (x.shape[0],):
            raise ConfigError("labels length must equal the point count")
        if not np.all(np.isfinite(x)):
            raise ConfigError("points must be finite")
        if np.any(np.linalg.norm(x, axis=1) == 0.0):
            raise ConfigError("points must be nonzero")
        if not np.all(np.abs(y) == 1.0):
            raise ConfigError("labels must be ±1")
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "labels", y)

    @property
    def d(self) -> int:
        return self.points.shape[1]


def random_hypercube_direction(d: int, rng: SeededRng) -> np.ndarray:
    """Uniformly random hypercube vertex: each entry ±1/sqrt(d), unit norm."""
    if d < 1:
        raise ConfigError("d must be at least 1")
    phi = rng.signs(d)
    phi *= 1.0 / math.sqrt(d)
    return phi


def sample_bernoulli(
    model: BernoulliModel, count: int, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    """Draw labelled samples; returns (points (count, d), labels (count,)).

    Per sample: the label y is uniform on ±1, the point starts at
    y * rho * direction, and each coordinate's sign flips independently
    with probability 1/2 - tau.  The stream is read in a fixed order: all
    ``count`` labels first, then the count·d flips row-major (see
    :func:`bernoulli_points`).  A caller that draws the labels and then
    the points block by block, rows in order, reads the same words.
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    labels = rng.signs(count)
    return bernoulli_points(model, labels, rng), labels


def bernoulli_points(model: BernoulliModel, labels: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Points (n, d) for given labels (n,), drawing n·d flips row-major.

    Coordinate j of row i is labels[i] * rho * direction[j], its sign
    flipped when its uniform draw is below 1/2 - tau, so every coordinate
    is exactly ±rho/sqrt(d).
    """
    base = model.rho * model.direction
    flip = rng.random(labels.size * model.d).reshape(labels.size, model.d) < (0.5 - model.tau)
    points = np.where(flip, -base, base)
    points *= labels[:, None]
    return points


def check_orthosep(dataset: LabeledDataset) -> bool:
    """Certify orthogonal separability, exactly as defined.

    Same-class pairs (including i = i') must have strictly positive inner
    products; cross-class pairs must have nonpositive ones.  Comparisons
    are exact: a cross pair at exactly zero is allowed.
    """
    gram = dataset.points @ dataset.points.T
    same = dataset.labels[:, None] == dataset.labels[None, :]
    return bool(np.all(np.where(same, gram > 0.0, gram <= 0.0)))


def _cone_point(axis: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Random point of norm near 1 within the cone around ``axis``."""
    d = axis.size
    g = rng.gaussian(d)
    g -= (g @ axis) * axis
    norm = np.linalg.norm(g)
    angle = float(rng.random(1)[0]) * _CONE_HALF_ANGLE
    radius = 0.75 + 0.5 * float(rng.random(1)[0])
    if norm < 1e-12:
        return radius * axis
    return radius * (math.cos(angle) * axis + math.sin(angle) * (g / norm))


def generate_orthosep(
    d: int, n_pos: int, n_neg: int, rng: SeededRng
) -> LabeledDataset:
    """Random orthogonally separable dataset with the requested class sizes.

    Positives are drawn in a 40-degree cone around a random unit axis and
    negatives around its antipode, with norms in [0.75, 1.25].  Same-class
    pairs are then at most 80 degrees apart and cross-class pairs at least
    100, so same-class inner products are at least 0.75² cos 80° ≈ 0.098
    and cross-class ones at most -0.098: one draw always suffices.  The
    result is certified with :func:`check_orthosep` all the same, and a
    failed check raises :class:`ReprogramLabError`.
    """
    if d < 2:
        raise ConfigError("d must be at least 2")
    if n_pos < 1 or n_neg < 1:
        raise ConfigError("n_pos and n_neg must be at least 1")
    n = n_pos + n_neg
    if n * d > MAX_ENTRIES:
        raise ConfigError(f"d must be at most {MAX_ENTRIES // n} for {n} points, got {d}")
    axis = rng.gaussian(d)
    axis /= np.linalg.norm(axis)
    points = np.empty((n, d))
    for i in range(n_pos):
        points[i] = _cone_point(axis, rng)
    for i in range(n_neg):
        points[n_pos + i] = _cone_point(-axis, rng)
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    dataset = LabeledDataset(points=points, labels=labels)
    if not check_orthosep(dataset):
        raise ReprogramLabError("generated dataset is not orthogonally separable")
    return dataset

