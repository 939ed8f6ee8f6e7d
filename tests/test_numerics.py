"""Tests for the linear algebra kernel and the seeded random streams."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reprogram_lab import numerics
from reprogram_lab.errors import ConfigError, GramNotPositiveDefinite
from reprogram_lab.numerics import (
    LINSOLVE_TOL,
    SeededRng,
    min_norm_solve,
    one_blas_thread,
    singular_extremes,
)


# fdlibm's __kernel_cos (C1..C6) and __kernel_sin (S1..S6) coefficients.
FDLIBM_COS = [
    4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
    -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11,
]
FDLIBM_SIN = [
    -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10,
]


def reference_cos_sin(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2π·k·2⁻⁵³ by the sampler's arithmetic, written out
    with temporaries, np.where and negation."""
    q = (k + np.uint64(2**50)) >> np.uint64(51)
    x = (k - (q << np.uint64(51))).view(np.int64) * (2.0 * math.pi * 2.0**-53)
    z = x * x
    h_cos = FDLIBM_COS[5] * z
    h_sin = FDLIBM_SIN[5] * z
    for j in range(4, -1, -1):
        h_cos = (h_cos + FDLIBM_COS[j]) * z
        h_sin = (h_sin + FDLIBM_SIN[j]) * z
    sin = h_sin * x + x
    cos = h_cos * z - 0.5 * z + 1.0
    odd = (q & np.uint64(1)) == 1
    cos, sin = np.where(odd, sin, cos), np.where(odd, cos, sin)
    cos = np.where(((q + np.uint64(1)) & np.uint64(2)) != 0, -cos, cos)
    sin = np.where((q & np.uint64(2)) != 0, -sin, sin)
    return cos, sin


def one_shot_gaussian(rng: SeededRng, count: int) -> np.ndarray:
    """Box-Muller over the whole draw at once: the reference for the blocked one."""
    if count == 0:
        return np.empty(0)
    pairs = (count + 1) // 2
    bits = rng.uniform64(2 * pairs) >> np.uint64(11)
    radius = np.sqrt(-2.0 * np.log((bits[:pairs] + 1.0) * 2.0**-53))
    cos, sin = reference_cos_sin(bits[pairs:])
    return np.concatenate([cos * radius, sin * radius])[:count]


def libm_gaussian(rng: SeededRng, count: int) -> np.ndarray:
    """Box-Muller with np.cos and np.sin of the rounded angle 2π·t, as the
    sampler computed it before its angle kernel."""
    pairs = (count + 1) // 2
    bits = rng.uniform64(2 * pairs) >> np.uint64(11)
    radius = np.sqrt(-2.0 * np.log((bits[:pairs] + 1.0) * 2.0**-53))
    angle = bits[pairs:] * (2.0**-53 * (2.0 * math.pi))
    return np.concatenate([np.cos(angle) * radius, np.sin(angle) * radius])[:count]


_B = numerics._GAUSSIAN_BLOCK


class TestSeededRng:
    def test_identical_streams_replay_bitwise(self):
        a = SeededRng(123, 7)
        b = SeededRng(123, 7)
        assert np.array_equal(a.uniform64(1000), b.uniform64(1000))
        assert np.array_equal(a.gaussian(1001), b.gaussian(1001))
        assert np.array_equal(a.signs(50), b.signs(50))

    def test_distinct_streams_differ(self):
        a = SeededRng(123, 0).uniform64(64)
        b = SeededRng(123, 1).uniform64(64)
        c = SeededRng(124, 0).uniform64(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_counter_advances_across_calls(self):
        r = SeededRng(9, 2)
        first = np.concatenate([r.uniform64(3), r.uniform64(5)])
        again = SeededRng(9, 2).uniform64(8)
        assert np.array_equal(first, again)

    def test_uniform_range_and_mean(self):
        u = SeededRng(5, 0).random(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 3.0 / math.sqrt(12 * 100_000)

    def test_open_uniform_excludes_endpoints(self):
        u = SeededRng(5, 1).random_open(100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_gaussian_moments(self):
        g = SeededRng(5, 2).gaussian(200_000)
        assert abs(g.mean()) < 3.0 / math.sqrt(200_000)
        assert abs(g.var() - 1.0) < 3.0 * math.sqrt(2.0 / 200_000)

    # _B is in pairs: up to _B + 1 normals take one block; 2 * _B + 3
    # normals take a block of _B pairs and a 2-pair rest; 32 * _B + 1 and
    # 48 * _B + 2 normals take 16 and 24 blocks of _B and a 1-pair rest;
    # 4096 * 256 normals take blocks of numerics._GAUSSIAN_BLOCK_MAX, 2 * _B.
    @pytest.mark.parametrize("count", [
        0, 1, 2, 3, _B - 1, _B, _B + 1, 2 * _B + 3,
        41 * 256, 102 * 1024, 32 * _B + 1, 48 * _B + 2, 4096 * 256, 4096 * 256 + 1,
    ])
    def test_blocked_gaussian_matches_one_shot_reference(self, count):
        blocked, reference = SeededRng(97531, 11), SeededRng(97531, 11)
        assert blocked.gaussian(count).tobytes() == one_shot_gaussian(reference, count).tobytes()
        assert blocked._counter == reference._counter
        assert np.array_equal(blocked.signs(5), reference.signs(5))

    @pytest.mark.parametrize("count", [0, 1, 3, 2 * _B + 3, 102 * 1024, 41 * 1001, 4096 * 256 + 1])
    def test_gaussian_blocks_are_the_gaussian_draw(self, count):
        whole, blocked = SeededRng(97531, 11), SeededRng(97531, 11)
        expected = whole.gaussian(count)
        pieces = blocked.gaussian_blocks(count)
        assert blocked._counter == whole._counter  # before any block is computed
        got = np.full(count, np.nan)
        for position, values in pieces:
            assert np.all(np.isnan(got[position:position + values.size]))
            got[position:position + values.size] = values
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count", [41 * 256, 102 * 1024, 4096 * 256])
    def test_block_buffers_start_on_a_cache_line(self, count):
        # these draws' blocks are whole multiples of 8 words, so every
        # buffer row starts on a 64-byte line, wherever malloc put the array
        _, values = next(iter(SeededRng(97531, 11).gaussian_blocks(count)))
        assert values.ctypes.data % 64 == 0

    @pytest.mark.parametrize("method", [
        "uniform64", "random", "random_open", "signs", "gaussian", "gaussian_blocks",
    ])
    def test_draw_above_max_entries_is_a_config_error(self, method):
        # numpy's own errors ("array is too big", "Maximum allowed size
        # exceeded") are ValueErrors that name no argument
        rng = SeededRng(97531, 11)
        with pytest.raises(ConfigError, match=f"^count must be at most {numerics.MAX_ENTRIES}"):
            getattr(rng, method)(numerics.MAX_ENTRIES + 1)
        assert rng._counter == 0

    def test_gaussian_close_to_the_libm_formula(self):
        count = 4096 * 256 + 1
        new, old = SeededRng(97531, 11), SeededRng(97531, 11)
        assert np.max(np.abs(new.gaussian(count) - libm_gaussian(old, count))) <= 4e-15
        assert new._counter == old._counter

    def test_angle_kernel_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        quarter, octant = 2**51, 2**50
        special = [0, 1, 2**53 - 1]
        special += [q * quarter + e for q in (1, 2, 3) for e in (-1, 0, 1)]
        special += [(2 * j + 1) * octant + e for j in range(4) for e in (-1, 0)]
        grid = [(2**53 - 1) * i // 1999 for i in range(2000)]
        k = np.array(special + grid, dtype=np.uint64)
        words = np.zeros((2, k.size), dtype=np.uint64)
        words[1] = k
        cos, sin = numerics._cos_sin_turns(words, np.empty(k.size, np.uint64), np.empty((2, k.size)))
        with mpmath.workdps(40):
            turn = 2 * mpmath.pi / mpmath.mpf(2) ** 53
            cos_err = max(abs(mpmath.cos(int(ki) * turn) - float(c)) for ki, c in zip(k, cos))
            sin_err = max(abs(mpmath.sin(int(ki) * turn) - float(s)) for ki, s in zip(k, sin))
        assert cos_err <= 2.5e-16
        assert sin_err <= 2.5e-16

    def test_package_does_not_import_numpy_random(self):
        # numpy.random adds about 6 MB to a fresh interpreter's peak RSS.
        code = "import sys, reprogram_lab.cli, reprogram_lab.verify; print('numpy.random' in sys.modules)"
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_gaussian_count_rejected_without_drawing(self, count):
        rng = SeededRng(97531, 11)
        with pytest.raises(ValueError, match="nonnegative"):
            rng.gaussian(count)
        assert rng._counter == 0

    def test_signs_support_and_balance(self):
        s = SeededRng(5, 3).signs(100_000)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert abs(s.mean()) < 3.0 / math.sqrt(100_000)

    @pytest.mark.parametrize("seed", [97531, 8191])
    def test_signs_are_the_top_bit_in_16_bytes_a_draw(self, seed):
        count = 10**6 + 1
        bit = SeededRng(seed, 2).uniform64(count) >> np.uint64(63)
        expected = 1.0 - 2.0 * bit.astype(np.float64)
        tracemalloc.start()
        try:
            signs = SeededRng(seed, 2).signs(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert signs.tobytes() == expected.tobytes()
        # the words and their mixing scratch, then the shifted words and the result
        assert peak < 17_000_000


class TestOneBlasThread:
    def test_restores_previous_thread_count(self):
        functions = numerics._openblas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread setter")
        getter, setter = functions
        before = getter()
        try:
            setter(2)
            with one_blas_thread() as pinned:
                assert pinned
                assert getter() == 1
            assert getter() == 2
        finally:
            setter(before)

    def test_without_setter_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas_thread_functions", lambda: None)
        with one_blas_thread() as pinned:
            assert not pinned


class TestMinNormSolve:
    def test_identity_system(self):
        p = min_norm_solve(np.eye(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [3.0, 4.0], atol=1e-14)

    def test_single_row_is_scaled_row(self):
        p = min_norm_solve(np.array([[1.0, 0.0, 0.0]]), np.array([2.0]))
        np.testing.assert_allclose(p, [2.0, 0.0, 0.0], atol=1e-14)

    def test_random_wide_system_residual_and_norm_bracket(self):
        rng = SeededRng(31, 0)
        mat = rng.gaussian(4 * 16).reshape(4, 16)
        rhs = rng.gaussian(4)
        p = min_norm_solve(mat, rhs)
        assert np.linalg.norm(mat @ p - rhs) <= LINSOLVE_TOL * max(1.0, np.linalg.norm(rhs))
        s_min, s_max = singular_extremes(mat)
        norm_b = np.linalg.norm(rhs)
        assert norm_b / s_max <= np.linalg.norm(p) <= norm_b / s_min + 1e-12

    def test_solution_orthogonal_to_null_space(self):
        rng = SeededRng(32, 0)
        mat = rng.gaussian(3 * 10).reshape(3, 10)
        rhs = rng.gaussian(3)
        p = min_norm_solve(mat, rhs)
        # project a random vector onto the null space of mat: subtracting
        # the minimum-norm preimage of its image leaves the null component
        v = rng.gaussian(10)
        v -= min_norm_solve(mat, mat @ v)
        assert np.linalg.norm(mat @ v) < 1e-9
        assert abs(p @ v) <= 1e-9 * np.linalg.norm(p) * np.linalg.norm(v)

    def test_dependent_rows_rejected(self):
        mat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(GramNotPositiveDefinite):
            min_norm_solve(mat, np.array([1.0, 2.0]))

    def test_nearly_dependent_rows_are_solved(self):
        # independent rows whose Gram matrix has a smallest eigenvalue of
        # about 5e-15: least squares still meets the residual bound
        mat = np.array([[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]])
        rhs = np.array([1.0, 2.0])
        p = min_norm_solve(mat, rhs)
        assert np.linalg.norm(mat @ p - rhs) <= LINSOLVE_TOL * max(1.0, np.linalg.norm(rhs))
        np.testing.assert_allclose(p, [1.0, 1e7, 0.0], rtol=1e-9)

    def test_residual_above_the_bound_is_rejected(self, monkeypatch):
        # a full-rank answer that misses W p = b must not be returned
        def off_by_one(mat, rhs, rcond):
            return np.ones(mat.shape[1]), None, mat.shape[0], None

        monkeypatch.setattr(np.linalg, "lstsq", off_by_one)
        with pytest.raises(GramNotPositiveDefinite, match="^residual"):
            min_norm_solve(np.eye(2), np.array([3.0, 4.0]))

    def test_more_rows_than_columns_rejected(self):
        rng = SeededRng(33, 0)
        mat = rng.gaussian(5 * 3).reshape(5, 3)
        with pytest.raises(GramNotPositiveDefinite):
            min_norm_solve(mat, np.ones(5))


class TestSingularExtremes:
    def test_diagonal_matrix(self):
        s_min, s_max = singular_extremes(np.diag([2.0, 3.0]))
        assert (s_min, s_max) == pytest.approx((2.0, 3.0), rel=1e-12)

    def test_identity(self):
        s_min, s_max = singular_extremes(np.eye(3))
        assert (s_min, s_max) == pytest.approx((1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("rows,cols", [(2, 5), (5, 2), (8, 8), (3, 7), (6, 4)])
    def test_agrees_with_svd_on_small_matrices(self, rows, cols):
        rng = SeededRng(35, rows * 16 + cols)
        mat = rng.gaussian(rows * cols).reshape(rows, cols)
        s_min, s_max = singular_extremes(mat)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert s_max == pytest.approx(sv[0], rel=1e-8)
        assert s_min == pytest.approx(sv[-1], rel=1e-8)

    def test_iterative_path_matches_svd(self):
        # min side 100, the shape of the largest Gram matrices the suites use
        rng = SeededRng(36, 0)
        mat = rng.gaussian(100 * 300).reshape(100, 300) / math.sqrt(300)
        s_min, s_max = singular_extremes(mat)
        sv = np.linalg.svd(mat, compute_uv=False)
        assert s_max == pytest.approx(sv[0], rel=1e-8)
        assert s_min == pytest.approx(sv[-1], rel=1e-8)

    def test_concentration_bounds_on_gaussian_ensembles(self):
        # 64x256 entries with variance 1/256: the closed-form bounds at
        # gamma = 0.01 may fail in at most 1 of 100 trials plus 3 sigma.
        gamma = 0.01
        spread = math.sqrt(2.0 * math.log(2.0 / gamma))
        lower = (math.sqrt(256) - math.sqrt(64) - spread) / math.sqrt(256)
        upper = (math.sqrt(256) + math.sqrt(64) + spread) / math.sqrt(256)
        failures = 0
        for trial in range(100):
            mat = SeededRng(37, trial).gaussian(64 * 256).reshape(64, 256) / 16.0
            s_min, s_max = singular_extremes(mat)
            if s_min < lower or s_max > upper:
                failures += 1
        assert failures <= 1 + 3 * math.sqrt(100 * gamma * (1 - gamma))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            singular_extremes(np.empty((0, 3)))
