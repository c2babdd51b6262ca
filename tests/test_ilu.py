"""Unit tests for incomplete LU factorization and preconditioners."""

import numpy as np
import pytest

from repro.errors import StructureError, ValidationError
from repro.krylov.ilu import (
    ILUFactorization,
    ILUPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    make_preconditioner,
    numeric_ilu,
    symbolic_ilu,
)
from repro.sparse.build import csr_from_dense
from repro.mesh.fd2d import five_point_laplacian
from repro.mesh.grid import Grid2D


def banded_spd(n=20, bw=1):
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = 4.0
        for k in range(1, bw + 1):
            if i - k >= 0:
                dense[i, i - k] = -1.0
            if i + k < n:
                dense[i, i + k] = -1.0
    return dense


class TestSymbolic:
    def test_ilu0_is_original_pattern_plus_diag(self):
        dense = banded_spd()
        pat = symbolic_ilu(csr_from_dense(dense), 0)
        np.testing.assert_array_equal(
            (pat.to_dense() >= 0) & (np.abs(dense) > 0),
            np.abs(dense) > 0,
        )
        assert pat.has_full_diagonal()

    def test_ilu0_enforces_missing_diag(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        pat = symbolic_ilu(csr_from_dense(dense), 0)
        assert pat.has_full_diagonal()

    def test_level1_superset_of_level0(self):
        a = five_point_laplacian(Grid2D(6, 6))
        p0 = symbolic_ilu(a, 0)
        p1 = symbolic_ilu(a, 1)
        assert p1.nnz >= p0.nnz
        d0 = p0.to_dense() * 0 + (np.abs(p0.to_dense()) >= 0)
        # every level-0 position also present in level-1
        mask0 = np.zeros(p0.shape, dtype=bool)
        rows0 = p0.row_of_nnz()
        mask0[rows0, p0.indices] = True
        mask1 = np.zeros(p1.shape, dtype=bool)
        rows1 = p1.row_of_nnz()
        mask1[rows1, p1.indices] = True
        assert np.all(mask1[mask0])

    def test_levels_recorded(self):
        a = five_point_laplacian(Grid2D(5, 5))
        p1 = symbolic_ilu(a, 1)
        assert p1.data.max() <= 1.0
        assert p1.data.min() == 0.0

    def test_tridiagonal_level_any_no_fill(self):
        """A tridiagonal matrix factors with no fill at any level."""
        a = csr_from_dense(banded_spd(10, 1))
        assert symbolic_ilu(a, 3).nnz == a.nnz

    def test_rejects_negative_level(self):
        with pytest.raises(ValidationError):
            symbolic_ilu(csr_from_dense(banded_spd()), -1)

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            symbolic_ilu(csr_from_dense(np.ones((2, 3))), 0)


class TestNumeric:
    def test_tridiagonal_exact(self):
        """ILU(0) of a tridiagonal matrix is the exact LU factorization."""
        dense = banded_spd(12, 1)
        lu = numeric_ilu(csr_from_dense(dense))
        f = ILUFactorization.from_lu(lu)
        l_dense = f.l_strict.to_dense() + np.eye(12)
        u_dense = f.u.to_dense()
        np.testing.assert_allclose(l_dense @ u_dense, dense, rtol=1e-12)

    def test_product_matches_on_pattern(self):
        """For ILU(0), (LU - A) vanishes on A's pattern."""
        a = five_point_laplacian(Grid2D(6, 6))
        lu = numeric_ilu(a)
        f = ILUFactorization.from_lu(lu)
        n = a.nrows
        prod = (f.l_strict.to_dense() + np.eye(n)) @ f.u.to_dense()
        diff = prod - a.to_dense()
        mask = np.zeros((n, n), dtype=bool)
        mask[a.row_of_nnz(), a.indices] = True
        np.testing.assert_allclose(diff[mask], 0.0, atol=1e-10)

    def test_higher_level_closer_to_exact(self):
        a = five_point_laplacian(Grid2D(6, 6))
        n = a.nrows

        def residual(level):
            pat = symbolic_ilu(a, level)
            f = ILUFactorization.from_lu(numeric_ilu(a, pat))
            prod = (f.l_strict.to_dense() + np.eye(n)) @ f.u.to_dense()
            return np.abs(prod - a.to_dense()).max()

        assert residual(2) < residual(0)

    def test_zero_pivot_detected(self):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(StructureError):
            numeric_ilu(csr_from_dense(dense))

    def test_pattern_missing_an_entry_names_the_row(self):
        a = csr_from_dense(banded_spd(6))
        keep = np.ones((6, 6))
        keep[3, 2] = keep[5, 4] = 0.0  # the first offender is reported
        with pytest.raises(StructureError, match="entries of A in row 3;"):
            numeric_ilu(a, csr_from_dense(keep))

    def test_pattern_missing_a_diagonal_names_the_row(self):
        a = csr_from_dense(np.tril(banded_spd(6)) - 4.0 * np.eye(6))
        keep = np.tril(np.ones((6, 6)))
        keep[2, 2] = keep[4, 4] = 0.0
        with pytest.raises(StructureError,
                           match="row 2 lacks a diagonal entry"):
            numeric_ilu(a, csr_from_dense(keep))

    def test_pattern_shape_mismatch(self):
        a = csr_from_dense(banded_spd(5))
        pat = symbolic_ilu(csr_from_dense(banded_spd(6)), 0)
        with pytest.raises(ValidationError):
            numeric_ilu(a, pat)


class TestPreconditioners:
    def test_ilu_apply_solves_lu(self):
        dense = banded_spd(15, 1)
        a = csr_from_dense(dense)
        pre = ILUPreconditioner(a, 0)
        r = np.sin(np.arange(15.0))
        z = pre.apply(r)
        # Tridiagonal ILU(0) is exact: z = A^{-1} r.
        np.testing.assert_allclose(dense @ z, r, rtol=1e-10)

    def test_ilu_logging(self):
        from repro.krylov.oplog import OperationLog
        a = csr_from_dense(banded_spd(10))
        pre = ILUPreconditioner(a, 0)
        log = OperationLog()
        pre.apply(np.ones(10), log)
        assert log.counts["lower_solve"] == 1
        assert log.counts["upper_solve"] == 1

    def test_jacobi(self):
        a = csr_from_dense(np.diag([2.0, 4.0]))
        pre = JacobiPreconditioner(a)
        np.testing.assert_allclose(pre.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_jacobi_rejects_zero_diag(self):
        a = csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StructureError):
            JacobiPreconditioner(a)

    def test_identity(self):
        a = csr_from_dense(np.eye(3))
        r = np.arange(3.0)
        np.testing.assert_array_equal(IdentityPreconditioner(a).apply(r), r)

    def test_factory(self):
        a = csr_from_dense(banded_spd(8))
        assert make_preconditioner(a, None).name == "none"
        assert make_preconditioner(a, "none").name == "none"
        assert make_preconditioner(a, "jacobi").name == "jacobi"
        assert make_preconditioner(a, "ilu0").level == 0
        assert make_preconditioner(a, "ilu1").level == 1
        with pytest.raises(ValidationError):
            make_preconditioner(a, "cholesky")

    @pytest.mark.parametrize("build", [
        lambda a: make_preconditioner(a, "ilu-1"),
        lambda a: make_preconditioner(a, "ilux"),
        lambda a: make_preconditioner(a, "ilu1.5"),
        lambda a: ILUPreconditioner(a, -3),
        lambda a: ILUPreconditioner(a, 1.0),
        lambda a: ILUPreconditioner(a, True),
    ], ids=["ilu-1", "ilux", "ilu1.5", "-3", "1.0", "True"])
    def test_level_must_be_a_non_negative_integer(self, build):
        """No spelling silently builds ILU(0) or leaks an ``int()`` error."""
        with pytest.raises(ValidationError, match="non-negative integer"):
            build(csr_from_dense(banded_spd(8)))
