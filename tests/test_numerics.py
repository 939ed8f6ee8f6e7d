"""Tests for the linear algebra kernel and the seeded random streams."""

import math

import numpy as np
import pytest

from reprogram_lab import numerics
from reprogram_lab.errors import GramNotPositiveDefinite
from reprogram_lab.numerics import (
    LINSOLVE_TOL,
    SeededRng,
    min_norm_solve,
    one_blas_thread,
    singular_extremes,
)


def one_shot_gaussian(rng: SeededRng, count: int) -> np.ndarray:
    """Box-Muller over the whole draw at once: the reference for the blocked one."""
    if count == 0:
        return np.empty(0)
    pairs = (count + 1) // 2
    bits = rng.uniform64(2 * pairs)
    bits >>= np.uint64(11)
    flt = bits.astype(np.float64)
    u1 = flt[:pairs]
    u1 += 1.0
    u1 *= 2.0**-53
    angle = flt[pairs:]
    angle *= 2.0**-53 * (2.0 * math.pi)
    np.log(u1, out=u1)
    u1 *= -2.0
    radius = np.sqrt(u1, out=u1)
    out = np.empty(2 * pairs)
    np.cos(angle, out=out[:pairs])
    np.sin(angle, out=out[pairs:])
    out[:pairs] *= radius
    out[pairs:] *= radius
    return out[:count]


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

    @pytest.mark.parametrize("count", [
        0, 1, 2, 3, 2 * _B - 1, 2 * _B, 2 * _B + 1, 4 * _B + 3,
        41 * 256, 102 * 1024, 4096 * 256, 4096 * 256 + 1,
    ])
    def test_blocked_gaussian_matches_one_shot_reference(self, count):
        blocked, reference = SeededRng(97531, 11), SeededRng(97531, 11)
        assert blocked.gaussian(count).tobytes() == one_shot_gaussian(reference, count).tobytes()
        assert blocked._counter == reference._counter
        assert np.array_equal(blocked.signs(5), reference.signs(5))

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

    def test_tiny_positive_pivot_rejected(self):
        # LAPACK factors this Gram matrix with a last pivot of about 1e-14;
        # the explicit floor must still reject it
        mat = np.array([[1.0, 0.0, 0.0], [1.0, 1e-7, 0.0]])
        with pytest.raises(GramNotPositiveDefinite, match="below"):
            min_norm_solve(mat, np.array([1.0, 2.0]))

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
