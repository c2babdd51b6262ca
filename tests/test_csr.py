"""Unit tests for the CSR matrix container."""

import numpy as np
import pytest
from hypothesis import given

from repro.errors import StructureError, ValidationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.build import csr_from_dense, identity
from strategies import csr_matrices


def make_simple():
    # [[1, 0, 2],
    #  [0, 3, 0],
    #  [4, 5, 6]]
    return CSRMatrix(
        indptr=[0, 2, 3, 6],
        indices=[0, 2, 1, 0, 1, 2],
        data=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        shape=(3, 3),
    )


def entries(m):
    """Each row of ``m`` as its ``(column, value)`` pairs in stored
    order, read entry by entry off the three arrays."""
    return [[(int(m.indices[k]), float(m.data[k]))
             for k in range(m.indptr[i], m.indptr[i + 1])]
            for i in range(m.nrows)]


def densify(m):
    dense = np.zeros(m.shape)
    for i, row in enumerate(entries(m)):
        for c, v in row:
            dense[i, c] += v
    return dense


class TestConstruction:
    def test_basic_properties(self):
        a = make_simple()
        assert a.shape == (3, 3)
        assert a.nnz == 6
        assert a.nrows == 3
        assert a.ncols == 3

    def test_row_access(self):
        a = make_simple()
        cols, vals = a.row(0)
        assert list(cols) == [0, 2]
        assert list(vals) == [1.0, 2.0]

    def test_row_nnz(self):
        a = make_simple()
        assert list(a.row_nnz()) == [2, 1, 3]

    def test_row_of_nnz(self):
        a = make_simple()
        assert list(a.row_of_nnz()) == [0, 0, 1, 2, 2, 2]

    def test_iter_rows(self):
        a = make_simple()
        rows = list(a.iter_rows())
        assert len(rows) == 3
        assert rows[1][0] == 1
        assert list(rows[1][1]) == [1]

    def test_empty_rows_allowed(self):
        a = CSRMatrix([0, 0, 1, 1], [2], [9.0], (3, 3))
        assert a.nnz == 1
        assert a.row(0)[0].size == 0

    def test_rectangular(self):
        a = CSRMatrix([0, 1, 2], [0, 3], [1.0, 2.0], (2, 4))
        assert a.shape == (2, 4)

    def test_float_indices_rejected_when_fractional(self):
        with pytest.raises(ValidationError):
            CSRMatrix([0, 1.5, 2], [0, 1], [1.0, 2.0], (2, 2))


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(StructureError):
            CSRMatrix([0, 1], [0], [1.0], (3, 3))

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(StructureError):
            CSRMatrix([1, 2, 3, 4], [0, 1, 2], [1.0, 2.0, 3.0], (3, 3))

    def test_indptr_monotone(self):
        with pytest.raises(StructureError):
            CSRMatrix([0, 2, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0], (3, 3))

    def test_column_out_of_range(self):
        with pytest.raises(StructureError):
            CSRMatrix([0, 1], [5], [1.0], (1, 3))

    def test_negative_column(self):
        with pytest.raises(StructureError):
            CSRMatrix([0, 1], [-1], [1.0], (1, 3))

    def test_data_length_mismatch(self):
        with pytest.raises(StructureError):
            CSRMatrix([0, 2], [0, 1], [1.0], (1, 3))

    @given(case=csr_matrices())
    def test_duplicate_detection(self, case):
        a = CSRMatrix([0, 2], [1, 1], [1.0, 2.0], (1, 3))
        with pytest.raises(StructureError):
            a.check_no_duplicates()
        m, _ = case
        repeated = [i for i, row in enumerate(entries(m))
                    if len({c for c, _ in row}) < len(row)]
        if repeated:
            # The first offending row is the one named.
            with pytest.raises(StructureError, match=rf"row {repeated[0]} "):
                m.check_no_duplicates()
        else:
            m.check_no_duplicates()

    def test_no_duplicates_passes(self):
        make_simple().check_no_duplicates()


class TestSorting:
    @given(case=csr_matrices())
    def test_sort_indices(self, case):
        a = CSRMatrix([0, 3], [2, 0, 1], [1.0, 2.0, 3.0], (1, 3), sort=True)
        cols, vals = a.row(0)
        assert list(cols) == [0, 1, 2]
        assert list(vals) == [2.0, 3.0, 1.0]
        m, dense = case
        before = entries(m)
        assert m.sort_indices() is m
        # Stable, like ``sorted``: a repeated column keeps its order.
        assert entries(m) == [sorted(row, key=lambda e: e[0])
                              for row in before]
        np.testing.assert_array_equal(densify(m), dense)

    @given(case=csr_matrices())
    def test_has_sorted_indices(self, case):
        assert make_simple().has_sorted_indices()
        a = CSRMatrix([0, 2], [1, 0], [1.0, 2.0], (1, 2))
        assert not a.has_sorted_indices()
        m, _ = case
        assert m.has_sorted_indices() == all(
            c0 < c1 for row in entries(m)
            for (c0, _), (c1, _) in zip(row, row[1:]))

    def test_sort_leaves_a_sibling_alone(self):
        # with_data siblings share ``indices`` and the structure cache.
        a = CSRMatrix([0, 2, 4], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0], (2, 2))
        b = a.with_data([2.0, 1.0, 4.0, 3.0])
        assert list(b.diagonal()) == [1.0, 4.0]
        a.sort_indices()
        np.testing.assert_array_equal(densify(a), [[2.0, 1.0], [4.0, 3.0]])
        np.testing.assert_array_equal(densify(b), [[1.0, 2.0], [3.0, 4.0]])
        assert list(a.diagonal()) == [2.0, 3.0]
        assert list(b.diagonal()) == [1.0, 4.0]
        assert list(b.diagonal_positions()) == [1, 2]

    def test_sort_leaves_the_callers_arrays_alone(self):
        indices = np.array([2, 0, 1], dtype=np.int64)
        data = np.array([1.0, 2.0, 3.0])
        a = CSRMatrix([0, 3], indices, data, (1, 3), sort=True)
        assert list(indices) == [2, 0, 1] and list(data) == [1.0, 2.0, 3.0]
        assert list(a.indices) == [0, 1, 2] and list(a.data) == [2.0, 3.0, 1.0]


class TestMatvec:
    def test_matches_dense(self, rng):
        dense = rng.standard_normal((20, 30))
        dense[np.abs(dense) < 0.8] = 0.0
        a = csr_from_dense(dense)
        x = rng.standard_normal(30)
        np.testing.assert_allclose(a.matvec(x), dense @ x, rtol=1e-12)

    def test_matmul_operator(self, rng):
        dense = np.array([[1.0, 2.0], [0.0, 3.0]])
        a = csr_from_dense(dense)
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(a @ x, [3.0, 3.0])

    def test_empty_rows(self):
        a = CSRMatrix([0, 0, 1], [0], [2.0], (2, 2))
        np.testing.assert_allclose(a.matvec([3.0, 0.0]), [0.0, 6.0])

    def test_out_parameter(self):
        a = make_simple()
        out = np.zeros(3)
        res = a.matvec(np.ones(3), out=out)
        assert res is out
        np.testing.assert_allclose(out, [3.0, 3.0, 15.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            make_simple().matvec(np.ones(4))

    def test_identity(self):
        i5 = identity(5)
        x = np.arange(5.0)
        np.testing.assert_allclose(i5.matvec(x), x)


class TestLinearAlgebra:
    def test_diagonal(self):
        a = make_simple()
        np.testing.assert_allclose(a.diagonal(), [1.0, 3.0, 6.0])

    def test_diagonal_with_missing_entries(self):
        a = CSRMatrix([0, 1, 1], [1], [5.0], (2, 2))
        np.testing.assert_allclose(a.diagonal(), [0.0, 0.0])

    def test_transpose_matches_dense(self, rng):
        dense = rng.standard_normal((7, 11))
        dense[np.abs(dense) < 0.7] = 0.0
        a = csr_from_dense(dense)
        np.testing.assert_allclose(a.transpose().to_dense(), dense.T)

        # Inside, so the session ``rng`` above is drawn from once.
        @given(case=csr_matrices())
        def drawn(case):
            m, dense = case
            t = m.transpose()
            assert t.shape == dense.T.shape
            np.testing.assert_array_equal(densify(t), dense.T)
            # Column by column, each in the order its rows come.
            assert [[r for r, _ in col] for col in entries(t)] == [
                [i for i, row in enumerate(entries(m))
                 for c, _ in row if c == j] for j in range(m.ncols)]

        drawn()

    def test_transpose_twice_identity(self, rng):
        dense = rng.standard_normal((6, 6))
        dense[np.abs(dense) < 0.5] = 0.0
        a = csr_from_dense(dense)
        np.testing.assert_allclose(a.transpose().transpose().to_dense(), dense)


class TestStructureQueries:
    def test_lower_triangular(self):
        a = csr_from_dense(np.tril(np.ones((4, 4))))
        assert a.is_lower_triangular()
        assert not a.is_lower_triangular(strict=True)
        assert not a.is_upper_triangular()

    def test_strict_lower(self):
        a = csr_from_dense(np.tril(np.ones((4, 4)), k=-1))
        assert a.is_lower_triangular(strict=True)

    def test_upper_triangular(self):
        a = csr_from_dense(np.triu(np.ones((4, 4))))
        assert a.is_upper_triangular()
        assert not a.is_upper_triangular(strict=True)

    @given(case=csr_matrices())
    def test_full_diagonal(self, case):
        assert make_simple().has_full_diagonal()
        a = CSRMatrix([0, 1, 1], [1], [5.0], (2, 2))
        assert not a.has_full_diagonal()
        m, _ = case
        rows = entries(m)
        assert m.has_full_diagonal() == all(
            any(c == i for c, _ in rows[i]) for i in range(min(m.shape)))


class TestConversions:
    def test_to_dense_roundtrip(self, rng):
        dense = rng.standard_normal((5, 8))
        dense[np.abs(dense) < 0.6] = 0.0
        np.testing.assert_allclose(csr_from_dense(dense).to_dense(), dense)

    def test_copy_is_deep(self):
        a = make_simple()
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_with_data(self):
        a = make_simple()
        b = a.with_data(np.zeros(a.nnz))
        assert b.nnz == a.nnz
        assert np.all(b.data == 0.0)
        with pytest.raises(ValidationError):
            a.with_data(np.zeros(2))

    def test_allclose(self):
        a = make_simple()
        assert a.allclose(a.copy())
        b = a.with_data(a.data + 1.0)
        assert not a.allclose(b)
