"""Per-class maximum-margin vectors by least-distance programming,
KKT certification, and the closed-form reprogramming failure bound."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import min_norm_solve

KKT_TOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class MarginSolution:
    """Solution of: minimise ||v||^2 / 2 subject to v.x_i >= 1 for all i.

    ``vector`` is the minimiser, ``multipliers`` the nonnegative dual
    variables with vector = sum_i multipliers[i] * x_i up to rounding, and
    ``kkt_residual`` the largest of the three KKT residuals.
    """

    vector: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float


def kkt_residuals(
    sol: MarginSolution, points: np.ndarray
) -> tuple[float, float, float]:
    """The three KKT residuals (feasibility, stationarity, complementarity).

    feasibility     = max(0, max_i (1 - v.x_i))
    stationarity    = || v - sum_i lambda_i x_i || / max(1, sum_i lambda_i ||x_i||)
    complementarity = max_i | lambda_i (v.x_i - 1) | / max(1, sum_i lambda_i)

    The last two are relative to the scale of the terms they sum, so that
    rounding in v.x_i leaves them near machine precision even when the
    multipliers are large (at the optimum sum_i lambda_i = ||v||²).
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lam = sol.multipliers
    margins = x @ sol.vector
    feasibility = float(max(0.0, np.max(1.0 - margins)))
    stationarity = float(np.linalg.norm(sol.vector - x.T @ lam)) / max(
        1.0, float(np.abs(lam) @ np.linalg.norm(x, axis=1))
    )
    complementarity = float(np.max(np.abs(lam * (margins - 1.0)))) / max(
        1.0, float(np.sum(np.abs(lam)))
    )
    return feasibility, stationarity, complementarity


def max_margin_vector(points: np.ndarray) -> MarginSolution:
    """Minimum-norm vector with margin at least 1 on every given point.

    A least-distance program, solved as in Lawson & Hanson, *Solving Least
    Squares Problems* (1974), ch. 23: with X's rows scaled to largest norm
    1, E = [Xᵀ; 1ᵀ] and f = (0, ..., 0, 1), the NNLS solution u >= 0 of
    min ||E u - f|| leaves a residual r with ||r||² = 1 - sum(u), zero
    exactly when no feasible vector exists.  The points with u_i > 0 are
    the active constraints.  The vector is then the minimum-norm solution
    of X_A v = 1 on them and the multipliers its coefficients in them,
    which avoids the cancellation in u / (1 - sum(u)).

    Raises :class:`ConfigError` if a point is not finite, or if ||r||² is
    within rounding of zero: a convex combination of the points is then
    the origin.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if x.shape[0] < 1:
        raise ConfigError("points must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ConfigError("points must be finite")
    n, d = x.shape
    scale = float(np.max(np.linalg.norm(x, axis=1))) or 1.0
    u, resid = _nnls(np.vstack([x.T / scale, np.ones(n)]), np.append(np.zeros(d), 1.0))
    if float(resid @ resid) <= _EPS:
        raise ConfigError("the origin is a convex combination of the points; no margin vector")
    rows = x[u > 0.0]
    v = min_norm_solve(rows, np.ones(len(rows)))
    lam = np.zeros(n)
    lam[u > 0.0] = np.linalg.lstsq(rows.T, v, rcond=None)[0]
    worst = max(kkt_residuals(MarginSolution(v, lam, 0.0), x))
    return MarginSolution(vector=v, multipliers=lam, kkt_residual=worst)


def _nnls(e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lawson–Hanson active-set solution u >= 0 of min ||e u - f||, and its
    residual f - e u.  Each pass frees the column of largest positive
    gradient and solves least squares on the free columns, stepping back to
    the boundary of u >= 0 while a free coefficient would turn nonpositive.
    A pass that does not lower the residual ends the loop; u is a function
    of the free set, so no free set recurs and the loop is finite."""
    n = e.shape[1]
    u, resid, free = np.zeros(n), f.copy(), np.zeros(n, dtype=bool)
    grad_tol = 10.0 * _EPS * max(e.shape) * float(np.max(np.sum(np.abs(e), axis=0)))
    while not np.all(free):
        grad = np.where(free, -np.inf, e.T @ resid)
        j = int(np.argmax(grad))
        if grad[j] <= grad_tol:
            break
        free[j] = True
        trial = u.copy()
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(e[:, free], f, rcond=None)[0]
            bad = free & (z <= 0.0)
            if not np.any(bad):
                break
            # step toward z until the first free coefficient reaches zero
            reach = np.full(n, np.inf)
            reach[bad] = trial[bad] / np.maximum(trial[bad] - z[bad], np.finfo(float).tiny)
            hit = int(np.argmin(reach))
            trial += reach[hit] * (z - trial)
            free &= trial > 0.0
            free[hit] = False
            trial[~free] = 0.0
        new_resid = f - e @ z
        if np.linalg.norm(new_resid) >= np.linalg.norm(resid):
            break
        u, resid = z, new_resid
    return u, resid


def failure_probability_bound(
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    direction: np.ndarray,
    d: int,
    tau: float,
    m: int,
) -> float:
    """Upper bound on reprogrammed accuracy of a direction-converged network.

    For a hypercube data model whose direction lies in the half-space
    against m * (v_pos - v_neg), the probability of correct reprogrammed
    classification is at most

        1/2 + 1/2 * exp(-2 d tau^2 cos^2 angle(v_pos - v_neg, direction)),

    for every program offset.  The hypothesis m * cos(angle) < 0 is
    enforced with a :class:`ConfigError`; outside it the bound is not claimed.
    """
    pos, neg, phi = (np.asarray(v, dtype=np.float64) for v in (v_pos, v_neg, direction))
    if not pos.shape == neg.shape == phi.shape:
        shapes = f"{pos.shape}, {neg.shape} and {phi.shape}"
        raise ConfigError(f"v_pos, v_neg and direction must have one shape, got {shapes}")
    delta = pos - neg
    denom = np.linalg.norm(delta) * np.linalg.norm(phi)
    if not 0.0 < denom < math.inf:
        raise ConfigError("v_pos - v_neg and direction must be nonzero and finite")
    cos = float(delta @ phi) / float(denom)
    if m * cos >= 0.0:
        raise ConfigError(
            f"m * cos(angle) = {m * cos:.6g} must be negative for the bound to apply"
        )
    return 0.5 + 0.5 * math.exp(-2.0 * d * tau * tau * cos * cos)
