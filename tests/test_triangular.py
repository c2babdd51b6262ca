"""Unit tests for triangular splitting and solving."""

import numpy as np
import pytest

from repro.core import wavefront_counts
from repro.errors import StructureError, ValidationError
from repro.sparse.build import csr_from_dense
from repro.sparse.triangular import (
    solve_lower_sequential,
    solve_upper_sequential,
    split_triangular,
)
from strategies import level_loop


@pytest.fixture(scope="module")
def dense_system(rng=None):
    gen = np.random.default_rng(17)
    n = 40
    dense = gen.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
    return dense


class TestSplit:
    def test_split_parts_sum(self, dense_system):
        a = csr_from_dense(dense_system)
        l, d, u = split_triangular(a)
        recon = l.to_dense() + np.diag(d) + u.to_dense()
        np.testing.assert_allclose(recon, dense_system)

    def test_split_strictness(self, dense_system):
        a = csr_from_dense(dense_system)
        l, _, u = split_triangular(a)
        assert l.is_lower_triangular(strict=True)
        assert u.is_upper_triangular(strict=True)

    def test_split_rejects_rectangular(self):
        a = csr_from_dense(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            split_triangular(a)


class TestSequentialSolves:
    def test_lower_matches_numpy(self, dense_system):
        lower = np.tril(dense_system)
        a = csr_from_dense(lower)
        b = np.arange(1.0, a.nrows + 1)
        x = solve_lower_sequential(a, b)
        np.testing.assert_allclose(lower @ x, b, rtol=1e-9, atol=1e-9)

    def test_upper_matches_numpy(self, dense_system):
        upper = np.triu(dense_system)
        a = csr_from_dense(upper)
        b = np.arange(1.0, a.nrows + 1)
        x = solve_upper_sequential(a, b)
        np.testing.assert_allclose(upper @ x, b, rtol=1e-9, atol=1e-9)

    def test_separate_diag(self, dense_system):
        lower = np.tril(dense_system)
        a_full = csr_from_dense(lower)
        l, d, _ = split_triangular(a_full)
        b = np.ones(a_full.nrows)
        x1 = solve_lower_sequential(a_full, b)
        x2 = solve_lower_sequential(l, b, diag=d)
        np.testing.assert_allclose(x1, x2)

    def test_unit_diagonal(self):
        lower = np.array([[1.0, 0.0], [2.0, 1.0]])
        strict = csr_from_dense(np.tril(lower, k=-1))
        x = solve_lower_sequential(strict, np.array([1.0, 0.0]), unit_diagonal=True)
        np.testing.assert_allclose(x, [1.0, -2.0])

    def test_zero_diagonal_rejected(self):
        a = csr_from_dense(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(StructureError):
            solve_lower_sequential(a, np.ones(2))

    def test_non_triangular_rejected(self):
        a = csr_from_dense(np.ones((3, 3)))
        with pytest.raises(StructureError):
            solve_lower_sequential(a, np.ones(3))
        with pytest.raises(StructureError):
            solve_upper_sequential(a, np.ones(3))


class TestLevelScheduledSolver:
    """A loop compiled from ``LoopProgram.from_csr`` against the
    sequential substitution loops."""

    def test_matches_sequential_lower(self, small_lower):
        b = np.sin(np.arange(small_lower.nrows, dtype=float))
        np.testing.assert_array_equal(level_loop(small_lower, b)().x,
                                      solve_lower_sequential(small_lower, b))

    def test_matches_sequential_upper(self, small_lower):
        upper = small_lower.transpose()
        b = np.cos(np.arange(upper.nrows, dtype=float))
        np.testing.assert_array_equal(level_loop(upper, b, lower=False)().x,
                                      solve_upper_sequential(upper, b))

    def test_reusable_across_rhs(self, small_lower):
        loop = level_loop(small_lower)
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(small_lower.nrows)
            np.testing.assert_array_equal(
                loop.rebind(b=b)().x, solve_lower_sequential(small_lower, b))
        assert loop.rebinds == 3 and loop.compile_count == 1

    def test_level_sizes_sum_to_n(self, small_lower):
        wf = level_loop(small_lower).inspection.wavefronts
        assert wavefront_counts(wf).sum() == small_lower.nrows

    def test_wavefront_invariant(self, small_lower):
        """wf[i] == 1 + max(wf[j]) over stored strict deps."""
        wf = level_loop(small_lower).inspection.wavefronts
        for i in range(small_lower.nrows):
            cols, _ = small_lower.row(i)
            deps = cols[cols < i]
            expected = wf[deps].max() + 1 if deps.size else 0
            assert wf[i] == expected

    def test_diag_of_mesh_problem(self, mesh_lower):
        l, d = mesh_lower
        b = np.linspace(0.0, 1.0, l.nrows)
        np.testing.assert_array_equal(level_loop(l, b, diag=d)().x,
                                      solve_lower_sequential(l, b, diag=d))

    def test_unit_diagonal_identity(self):
        strict = csr_from_dense(np.zeros((4, 4)))
        b = np.arange(4.0)
        loop = level_loop(strict, b, unit_diagonal=True)
        np.testing.assert_array_equal(loop().x, b)
        assert loop.inspection.num_wavefronts == 1

    def test_dense_chain_levels(self):
        """A fully sequential chain yields n levels."""
        n = 10
        dense = np.tril(np.ones((n, n)))
        loop = level_loop(csr_from_dense(dense))
        assert loop.inspection.num_wavefronts == n

    def test_rejects_wrong_direction(self, small_lower):
        with pytest.raises(ValidationError):
            level_loop(small_lower, lower=False)
