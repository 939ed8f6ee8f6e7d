"""Small dense linear algebra on numpy's LAPACK, and seeded randomness.

Every routine is deterministic given its inputs.  Random draws come from
counter-based streams addressed by (master_seed, stream_id), so identical
seeds replay bitwise-identical sequences and distinct stream ids can be
handed to independent workers.  Gaussians come from Box-Muller computed
in blocks of reused buffers and handed out a block at a time, so a draw
can be folded into products without ever being held whole.  The angle's
cosine and sine are not libm's: :func:`_cos_sin_turns` reduces the angle
word to a quarter turn exactly in integers and evaluates fdlibm's kernel
polynomials with float adds and multiplies, so the draws depend on no
libm but numpy's ``np.log`` for the radius.

:func:`one_blas_thread` holds numpy's bundled OpenBLAS to one thread.  It
decorates every verification suite, so that threads running trials side
by side do not oversubscribe the cores, LAPACK results do not depend on
the machine's BLAS thread count, and no idle BLAS thread busy-waits on a
core.  The count is process-wide: suites started at once from two Python
threads can end each other's hold early.

Numerical slack lives in one module constant, ``LINSOLVE_TOL``: the
residual bound guaranteed by :func:`min_norm_solve`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, GramNotPositiveDefinite

LINSOLVE_TOL = 1e-10

# Most float64 entries a drawn array may hold: half numpy's cap (the largest intp, in bytes).
MAX_ENTRIES = np.iinfo(np.intp).max // 16

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SECOND = 0xD1B54A32D192ED03
_TO_UNIT = 2.0 ** -53
# Box-Muller pairs per block: a multiple of _GAUSSIAN_BLOCK, so that every
# block but the last is a whole number of SIMD vectors and np.log meets each
# element on the same loop path as in one call over the whole array (any
# multiple of 2^13 keeps that, so the block size moves no draw's bits).
# The kernel makes about 50 numpy calls a block, and trial threads hand the
# interpreter lock to each other between them, so blocks are large: at
# least 2^14 pairs (corollary1's d = 1024 draw of 52,224 pairs takes 4
# passes, not 7) and up to _GAUSSIAN_BLOCK_MAX for large draws.
_GAUSSIAN_BLOCK = 1 << 14
_GAUSSIAN_BLOCK_MAX = 1 << 15


def _mix64_int(value: int) -> int:
    """SplitMix64 finalizer on plain Python integers (mod 2^64)."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


_U11 = np.uint64(11)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U51 = np.uint64(51)
_U62 = np.uint64(62)
_UM1 = np.uint64(0xBF58476D1CE4E5B9)
_UM2 = np.uint64(0x94D049BB133111EB)
_UGOLDEN = np.uint64(_GOLDEN)


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied in place to a uint64 array; ``scratch``
    is a uint64 array of the same shape that is overwritten."""
    for shift, mult in ((_U30, _UM1), (_U27, _UM2)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, _U31, out=scratch)
    z ^= scratch
    return z


# Angle words k are 53-bit turns t = k·2⁻⁵³; a quarter turn is 2⁵¹ words.
_UHALF_QUARTER = np.uint64(1 << 50)
_ANGLE_STEP = 2.0 * math.pi * _TO_UNIT  # radians per angle word
# Horner coefficients of fdlibm's __kernel_cos (row 0: C1..C6) and
# __kernel_sin (row 1: S1..S6), as (2, 1) columns for the stacked rows.
_KERNEL_POLY = np.array([
    [4.16666666666666019037e-02, -1.38888888888741095749e-03,
     2.48015872894767294178e-05, -2.75573143513906633035e-07,
     2.08757232129817482790e-09, -1.13596475577881948265e-11],
    [-1.66666666666666324348e-01, 8.33333333332248946124e-03,
     -1.98412698298579493134e-04, 2.75573137070700676789e-06,
     -2.50507602534068634195e-08, 1.58969099521155010221e-10],
]).T[:, :, None]
# Added to the quarter index q to give [q + 1, q]: bit 1 of each is the
# sign of cos and of sin in quadrant q.
_QUADRANT_SIGN = np.array([[1], [0]], dtype=np.uint64)


def _cos_sin_turns(words: np.ndarray, quarter: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cos and sin of 2π·k·2⁻⁵³ for the 53-bit angle words k in ``words[1]``.

    Writes cos to ``out[0]`` and sin to ``out[1]``, both (n,) float64, and
    returns ``out``.  ``words`` is a (2, n) uint64 array and ``quarter`` an
    (n,) uint64 array; both are overwritten.

    The reduction is exact integer work: the nearest quarter turn is
    q = (k + 2⁵⁰) >> 51 and the remainder r = k - q·2⁵¹, so the reduced
    angle x = r·(2π·2⁻⁵³) has |x| <= π/4 and rounds once.  fdlibm's kernel
    polynomials in z = x² give cos x and sin x; the quadrant swaps them
    where q is odd and sets sign bits.  Only IEEE-exact integer operations
    and float adds and multiplies are used, so the result does not depend
    on the platform's libm, and the absolute error is about 1.6e-16.
    """
    scratch, angle = words
    np.add(angle, _UHALF_QUARTER, out=quarter)
    quarter >>= _U51
    np.left_shift(quarter, _U51, out=scratch)
    angle -= scratch  # r = k - q·2⁵¹ in two's complement
    x = angle.view(np.float64)
    np.multiply(angle.view(np.int64), _ANGLE_STEP, out=x)
    z = scratch.view(np.float64)
    np.multiply(x, x, out=z)
    np.multiply(_KERNEL_POLY[5], z, out=out)
    for coefficient in _KERNEL_POLY[4::-1]:
        out += coefficient
        out *= z
    cos, sin = out
    sin *= x
    sin += x
    cos *= z
    z *= 0.5
    cos -= z
    cos += 1.0
    # Quadrant: swap the rows where q is odd, then flip sign bits.
    bits = out.view(np.uint64)
    odd, swap = words
    np.bitwise_and(quarter, np.uint64(1), out=odd)
    np.negative(odd, out=odd)
    np.bitwise_xor(bits[0], bits[1], out=swap)
    swap &= odd
    bits ^= swap
    np.add(quarter, _QUADRANT_SIGN, out=words)
    words &= np.uint64(2)
    words <<= _U62
    bits ^= words
    return out


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
        # _mix64_int reduces its argument mod 2^64: seed and id are taken mod 2^64
        self._key = _mix64_int(
            _mix64_int(master_seed + _GOLDEN) ^ _mix64_int(stream_id + _SECOND)
        )
        self._counter = 0

    def _offset(self, position: int) -> int:
        """Pre-mix word at stream position ``position + i + 1``, less i·golden."""
        return (self._key + position * _GOLDEN) & _MASK64

    def _words(self, position: int, count: int) -> np.ndarray:
        """Raw words at stream positions position+1 .. position+count."""
        z = np.arange(1, 1 + count, dtype=np.uint64)
        z *= _UGOLDEN
        z += np.uint64(self._offset(position))
        return _mix64_inplace(z, np.empty_like(z))

    def uniform64(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit words as a uint64 array."""
        _check_count(count)
        z = self._words(self._counter, count)
        self._counter += count
        return z

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
        out = (self.uniform64(count) >> np.uint64(63)).astype(np.float64)
        out *= -2.0
        out += 1.0
        return out

    def gaussian(self, count: int) -> np.ndarray:
        """Independent standard normal samples via Box-Muller: the pieces
        of :meth:`gaussian_blocks`, copied into one array."""
        pieces = self.gaussian_blocks(count)
        out = np.empty(count)
        for position, values in pieces:
            out[position:position + values.size] = values
        return out

    def gaussian_blocks(self, count: int):
        """Claim the next ``count`` standard normals and return an iterator
        of ``(position, values)`` pieces: ``values`` are the entries at
        positions ``position`` onwards of ``gaussian(count)`` on the same
        stream, bit for bit, and the pieces hold every entry once.

        Each uniform pair yields two variates (cosine block first, then
        the sine block); an odd ``count`` discards the final sine variate.
        The radius is sqrt(-2 log u) with numpy's log; the angle's cosine
        and sine come from :func:`_cos_sin_turns`, not from libm.  The
        pairs are computed in blocks of ``_GAUSSIAN_BLOCK`` to
        ``_GAUSSIAN_BLOCK_MAX`` pairs (or the whole draw, if it is
        smaller), and each block yields its cosine piece, then its sine
        piece.  The stream's counter moves past the draw at once, the
        blocks are computed as the iterator is advanced, and each piece is
        a view that the next block overwrites, so the draw is never held
        whole; the buffers are seven block-sized rows, 1.8 MB at most.
        """
        _check_count(count)
        pairs = (count + 1) // 2
        start = self._counter
        self._counter += 2 * pairs
        return self._box_muller(start, pairs, count)

    def _box_muller(self, start: int, pairs: int, count: int):
        """The generator behind :meth:`gaussian_blocks`: ``pairs`` pairs of
        words from stream position ``start``, radius words first."""
        # At most a sixteenth of the draw once that is above the floor, so
        # the buffer rows hold under a quarter of the draw's bytes, and
        # corollary1's d = 1024 draw runs in blocks of 2^14 pairs.
        block = min(_GAUSSIAN_BLOCK_MAX, pairs // 16) // _GAUSSIAN_BLOCK * _GAUSSIAN_BLOCK
        block = max(1, min(pairs, max(block, _GAUSSIAN_BLOCK)))
        # Rows: steps, the radius and angle words, their scratch, the
        # pieces.  One allocation, because malloc hands a freed one back
        # whole to the next draw: with a buffer per row, corollary1 over
        # d = 256, 1024 took 134,400 page faults a sweep, and none this way.
        # It starts on a 64-byte line: 16 or 48 bytes past one, a d = 1024 trial took 12% longer.
        flat = np.empty(7 * block + 7, dtype=np.uint64)
        rows = flat[-flat.ctypes.data % 64 // 8:][:7 * block].reshape(7, block)
        steps, words, scratch = rows[0], rows[1:3], rows[3:5]
        trig, kept = scratch.view(np.float64), rows[5:].view(np.float64)
        np.multiply(np.arange(1, 1 + block, dtype=np.uint64), _UGOLDEN, out=steps)
        offsets = np.empty((2, 1), dtype=np.uint64)
        for first in range(0, pairs, block):
            n = min(block, pairs - first)
            offsets[:, 0] = self._offset(start + first), self._offset(start + pairs + first)
            w = words[:, :n]
            np.add(steps[:n], offsets, out=w)
            _mix64_inplace(w, scratch[:, :n])
            w >>= _U11
            w[0] += np.uint64(1)
            radius, sin_part = kept[:, :n]
            np.multiply(w[0], _TO_UNIT, out=radius)  # (0, 1]: log never sees zero
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            # the quarter-turn index is kept in the sine piece
            cos, sin = _cos_sin_turns(w, sin_part.view(np.uint64), trig[:, :n])
            np.multiply(sin, radius, out=sin_part)
            radius *= cos
            yield first, radius
            yield pairs + first, sin_part[:count - pairs - first]


def _check_count(count: int) -> None:
    """A draw's size must lie in [0, MAX_ENTRIES]."""
    if count < 0:
        raise ConfigError("count must be nonnegative")
    if count > MAX_ENTRIES:
        raise ConfigError(f"count must be at most {MAX_ENTRIES}, got {count}")


@functools.cache
def _openblas_thread_functions():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy's wheels ship OpenBLAS in ``numpy.libs`` beside the package;
    loading that file again returns the handle numpy already holds.
    """
    site = Path(np.__file__).resolve().parent.parent
    for path in sorted(glob.glob(str(site / "numpy.libs" / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


@contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS to one thread inside the block.

    Yields True when the count was set (it is restored on exit) and False
    when no OpenBLAS thread setter was found, in which case nothing changes.
    As ``@one_blas_thread()`` it decorates every suite in ``verify``.  The
    count is process-wide, not per Python thread, so two holds that overlap
    on different threads can end each other's hold early or leave the count
    at one.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        yield False
        return
    getter, setter = functions
    previous = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(previous)


def min_norm_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-Euclidean-norm solution p of an underdetermined system mat p = rhs.

    ``mat`` is k-by-d with k <= d and linearly independent rows.  p is
    LAPACK's least-squares solution (``np.linalg.lstsq``), the minimum-norm
    one, and satisfies ``norm(mat @ p - rhs) <= LINSOLVE_TOL * max(1, norm(rhs))``.

    Raises
    ------
    ConfigError
        If an entry of ``mat`` or ``rhs`` is not finite.
    GramNotPositiveDefinite
        If LAPACK's numerical rank is below k (linearly dependent rows,
        including the case k > d), or the residual misses its bound.
    """
    w = np.asarray(mat, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    if w.ndim != 2:
        raise ConfigError("min_norm_solve expects a 2-D matrix")
    if b.shape != (w.shape[0],):
        raise ConfigError("right-hand side length must equal the row count")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise ConfigError("min_norm_solve expects finite entries")
    p, _, rank, _ = np.linalg.lstsq(w, b, rcond=None)
    if rank < w.shape[0]:
        raise GramNotPositiveDefinite(f"rows are dependent: numerical rank {rank} of {w.shape[0]}")
    residual = float(np.linalg.norm(w @ p - b))
    if residual > LINSOLVE_TOL * max(1.0, float(np.linalg.norm(b))):
        raise GramNotPositiveDefinite(f"residual {residual:.3e} is above the LINSOLVE_TOL bound")
    return p


def singular_extremes(mat: np.ndarray) -> tuple[float, float]:
    """Extreme singular values (s_min, s_max) of a matrix, from LAPACK's
    symmetric eigenvalues of the Gram matrix of its smaller side."""
    w = np.asarray(mat, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ConfigError("singular_extremes expects a nonempty 2-D matrix")
    if not np.all(np.isfinite(w)):
        raise ConfigError("singular_extremes expects finite entries")
    gram = w @ w.T if w.shape[0] <= w.shape[1] else w.T @ w
    eig = np.linalg.eigvalsh(gram)
    return math.sqrt(max(float(eig[0]), 0.0)), math.sqrt(max(float(eig[-1]), 0.0))
