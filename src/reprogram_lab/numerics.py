"""Small dense linear algebra on numpy's LAPACK, and seeded randomness.

Every routine is deterministic given its inputs.  Random draws come from
counter-based streams addressed by (master_seed, stream_id), so identical
seeds replay bitwise-identical sequences and distinct stream ids can be
handed to independent workers.

Numerical slack lives in two module constants so it can be audited in
one place:

* ``LINSOLVE_TOL``  residual bound guaranteed by :func:`min_norm_solve`,
* ``PD_PIVOT_TOL``  floor on the pivots of LAPACK's Cholesky factor,
  below which a Gram matrix counts as rank deficient.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GramNotPositiveDefinite

LINSOLVE_TOL = 1e-10
PD_PIVOT_TOL = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SECOND = 0xD1B54A32D192ED03
_TO_UNIT = 2.0 ** -53


def _mix64_int(value: int) -> int:
    """SplitMix64 finalizer on plain Python integers (mod 2^64)."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_UM1 = np.uint64(0xBF58476D1CE4E5B9)
_UM2 = np.uint64(0x94D049BB133111EB)
_UGOLDEN = np.uint64(_GOLDEN)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array."""
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


class SeededRng:
    """Deterministic random stream built on a SplitMix64 counter.

    The draw at position ``c`` of stream ``(master_seed, stream_id)`` is a
    pure function of those three integers, so sequences replay exactly and
    streams with distinct ids are statistically independent.  A stream has
    a single owner: methods advance an internal counter.

    Gaussians use the Box-Muller transform on the uniform stream (both the
    cosine and sine variates are consumed, interleaved).
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        self._key = np.uint64(
            _mix64_int(
                _mix64_int(self.master_seed + _GOLDEN) ^ _mix64_int(self.stream_id + _SECOND)
            )
        )
        self._counter = 0

    def uniform64(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        z = np.arange(1 + self._counter, 1 + self._counter + count, dtype=np.uint64)
        self._counter += count
        z *= _UGOLDEN
        z += self._key
        return _mix64_inplace(z)

    def random(self, count: int) -> np.ndarray:
        """Uniform float64 samples in [0, 1)."""
        bits = self.uniform64(count)
        bits >>= np.uint64(11)
        out = bits.astype(np.float64)
        out *= _TO_UNIT
        return out

    def random_open(self, count: int) -> np.ndarray:
        """Uniform float64 samples in the open interval (0, 1)."""
        bits = self.uniform64(count)
        bits >>= np.uint64(11)
        out = bits.astype(np.float64)
        out += 0.5
        out *= _TO_UNIT
        return out

    def signs(self, count: int) -> np.ndarray:
        """Independent uniform ±1.0 samples."""
        bit = self.uniform64(count) >> np.uint64(63)
        return 1.0 - 2.0 * bit.astype(np.float64)

    def gaussian(self, count: int) -> np.ndarray:
        """Independent standard normal samples via Box-Muller.

        Each uniform pair yields two variates (cosine block first, then
        the sine block); an odd ``count`` discards the final sine variate.
        """
        if count == 0:
            return np.empty(0)
        pairs = (count + 1) // 2
        bits = self.uniform64(2 * pairs)
        bits >>= np.uint64(11)
        flt = bits.astype(np.float64)
        u1 = flt[:pairs]
        u1 += 1.0
        u1 *= _TO_UNIT  # (0, 1]: log never sees zero
        angle = flt[pairs:]
        angle *= _TO_UNIT * (2.0 * math.pi)
        np.log(u1, out=u1)
        u1 *= -2.0
        radius = np.sqrt(u1, out=u1)
        out = np.empty(2 * pairs)
        np.cos(angle, out=out[:pairs])
        np.sin(angle, out=out[pairs:])
        out[:pairs] *= radius
        out[pairs:] *= radius
        return out[:count]


def min_norm_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm solution p of an underdetermined system mat p = rhs.

    ``mat`` is k-by-d with k <= d and linearly independent rows.  Computes
    p = matᵀ (mat matᵀ)⁻¹ rhs via LAPACK's Cholesky factor L of the k-by-k
    Gram matrix; the result satisfies
    ``norm(mat @ p - rhs) <= LINSOLVE_TOL * max(1, norm(rhs))``.

    Raises
    ------
    GramNotPositiveDefinite
        If the Gram matrix is not positive definite or has a Cholesky
        pivot L[j, j]² below ``PD_PIVOT_TOL`` (linearly dependent rows,
        including the case k > d).
    """
    w = np.asarray(mat, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("min_norm_solve expects a 2-D matrix")
    if b.shape != (w.shape[0],):
        raise ValueError("right-hand side length must equal the row count")
    try:
        low = np.linalg.cholesky(w @ w.T)
    except np.linalg.LinAlgError as exc:
        raise GramNotPositiveDefinite(f"Gram matrix is not positive definite: {exc}") from exc
    # LAPACK accepts any positive pivot; the floor also rejects tiny ones.
    pivots = np.diag(low) ** 2
    if np.any(pivots < PD_PIVOT_TOL):
        raise GramNotPositiveDefinite(
            f"smallest Cholesky pivot {pivots.min():.3e} is below {PD_PIVOT_TOL:g}"
        )

    def solve_gram(vec: np.ndarray) -> np.ndarray:
        return np.linalg.solve(low.T, np.linalg.solve(low, vec))

    p = w.T @ solve_gram(b)
    # Iterative refinement keeps the residual at the contract level even
    # for ill-conditioned Gram matrices; corrections live in the row
    # space, so minimality is preserved.
    goal = 0.25 * LINSOLVE_TOL * max(1.0, float(np.linalg.norm(b)))
    for _ in range(4):
        residual = b - w @ p
        if float(np.linalg.norm(residual)) <= goal:
            break
        p += w.T @ solve_gram(residual)
    return p


def singular_extremes(mat: np.ndarray) -> tuple[float, float]:
    """Extreme singular values (s_min, s_max) of a matrix, from LAPACK's
    symmetric eigenvalues of the Gram matrix of its smaller side."""
    w = np.asarray(mat, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("singular_extremes expects a nonempty 2-D matrix")
    gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
    eig = np.linalg.eigvalsh(gram)
    return math.sqrt(max(float(eig[0]), 0.0)), math.sqrt(max(float(eig[-1]), 0.0))
