"""Unit tests for PCG, GMRES and the solver driver."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.krylov import ilu
from repro.krylov.gmres import gmres
from repro.krylov.ilu import ILUPreconditioner
from repro.krylov.oplog import OperationLog
from repro.krylov.pcg import pcg
from repro.krylov.solver import solve
from repro.mesh.fd2d import five_point_laplacian, five_point_problem6
from repro.mesh.grid import Grid2D


@pytest.fixture(scope="module")
def spd_system():
    a = five_point_laplacian(Grid2D(12, 12))
    rng = np.random.default_rng(71)
    x_true = rng.standard_normal(a.nrows)
    return a, a.matvec(x_true), x_true


@pytest.fixture(scope="module")
def nonsym_system():
    a, b, u = five_point_problem6(12)
    return a, b, u


class TestPCG:
    def test_converges_unpreconditioned(self, spd_system):
        a, b, x_true = spd_system
        x, iters, hist, ok = pcg(a, b, tol=1e-10, maxiter=500)
        assert ok
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)

    def test_ilu_reduces_iterations(self, spd_system):
        a, b, _ = spd_system
        _, it_plain, _, ok1 = pcg(a, b, tol=1e-10, maxiter=500)
        pre = ILUPreconditioner(a, 0)
        _, it_pre, _, ok2 = pcg(a, b, pre, tol=1e-10, maxiter=500)
        assert ok1 and ok2
        assert it_pre < it_plain

    def test_residual_history_decreases_overall(self, spd_system):
        a, b, _ = spd_system
        _, _, hist, _ = pcg(a, b, tol=1e-10, maxiter=500)
        assert hist[-1] < hist[0]
        assert hist[-1] <= 1e-10

    def test_zero_rhs(self, spd_system):
        a, _, _ = spd_system
        x, iters, hist, ok = pcg(a, np.zeros(a.nrows))
        assert ok and iters == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_x0_respected(self, spd_system):
        a, b, x_true = spd_system
        x, iters, _, ok = pcg(a, b, x0=x_true, tol=1e-8)
        assert ok and iters == 0

    def test_maxiter_zero(self, spd_system):
        a, b, _ = spd_system
        _, iters, _, ok = pcg(a, b, maxiter=0)
        assert not ok and iters == 0

    def test_op_log(self, spd_system):
        a, b, _ = spd_system
        log = OperationLog()
        _, iters, _, _ = pcg(a, b, tol=1e-10, maxiter=500, log=log)
        # one initial matvec + one per iteration
        assert log.counts["matvec"] == iters + 1

    def test_callback(self, spd_system):
        a, b, _ = spd_system
        seen = []
        pcg(a, b, tol=1e-10, maxiter=50, callback=lambda k, x, r: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))


class TestGMRES:
    def test_converges_nonsymmetric(self, nonsym_system):
        a, b, u = nonsym_system
        pre = ILUPreconditioner(a, 0)
        x, iters, hist, ok = gmres(a, b, pre, tol=1e-10, maxiter=500)
        assert ok
        np.testing.assert_allclose(x, u, rtol=1e-5, atol=1e-7)

    def test_unpreconditioned_converges(self, nonsym_system):
        a, b, u = nonsym_system
        x, _, _, ok = gmres(a, b, tol=1e-8, maxiter=1000, restart=50)
        assert ok
        np.testing.assert_allclose(x, u, rtol=1e-4, atol=1e-6)

    def test_restart_smaller_is_slower(self, nonsym_system):
        a, b, _ = nonsym_system
        _, it_small, _, ok1 = gmres(a, b, tol=1e-8, maxiter=2000, restart=5)
        _, it_large, _, ok2 = gmres(a, b, tol=1e-8, maxiter=2000, restart=60)
        assert ok1 and ok2
        assert it_large <= it_small

    def test_zero_rhs(self, nonsym_system):
        a, _, _ = nonsym_system
        x, iters, _, ok = gmres(a, np.zeros(a.nrows))
        assert ok and iters == 0

    def test_bad_restart(self, nonsym_system):
        a, b, _ = nonsym_system
        with pytest.raises(ValidationError):
            gmres(a, b, restart=0)

    def test_negative_maxiter_refused_like_pcg(self, nonsym_system):
        a, b, _ = nonsym_system
        for method in (pcg, gmres):
            with pytest.raises(ValidationError,
                               match="maxiter must be non-negative"):
                method(a, b, maxiter=-1)

    def test_identity_converges_one_iteration(self):
        from repro.sparse.build import identity
        a = identity(10)
        b = np.arange(10.0)
        x, iters, _, ok = gmres(a, b, tol=1e-12)
        assert ok and iters <= 2
        np.testing.assert_allclose(x, b, atol=1e-10)


class TestSolverDriver:
    def test_pcg_path(self, spd_system):
        a, b, x_true = spd_system
        res = solve(a, b, method="pcg", precond="ilu0", tol=1e-10)
        assert res.converged
        assert res.method == "pcg"
        assert res.precond_kind == "ilu"
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6, atol=1e-8)

    def test_gmres_path(self, nonsym_system):
        a, b, u = nonsym_system
        res = solve(a, b, method="gmres", precond="ilu0", tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, u, rtol=1e-5, atol=1e-7)

    def test_unknown_method(self, spd_system, monkeypatch):
        """Refused before the matrix is factored, not after."""
        a, b, _ = spd_system
        monkeypatch.setattr(ilu, "numeric_ilu", None)
        with pytest.raises(ValidationError, match="'pcg' or 'gmres'"):
            solve(a, b, method="sor")

    def test_prebuilt_preconditioner_is_used_as_is(self, spd_system,
                                                   monkeypatch):
        a, b, _ = spd_system
        by_name = solve(a, b, method="pcg", precond="ilu0", tol=1e-10)
        pre = ILUPreconditioner(a, 0)
        monkeypatch.setattr(ilu, "numeric_ilu", None)  # nothing re-factors
        res = solve(a, b, method="pcg", precond=pre, tol=1e-10)
        assert res.precond_kind == "ilu"
        assert res.residuals == by_name.residuals
        assert np.array_equal(res.x, by_name.x)
        assert pre.lower_loop.executions == res.log["lower_solve"]

    def test_raise_on_fail(self, nonsym_system):
        a, b, _ = nonsym_system
        with pytest.raises(ConvergenceError) as exc:
            solve(a, b, method="gmres", precond=None, maxiter=2,
                  raise_on_fail=True)
        assert exc.value.iterations == 2

    def test_log_populated(self, spd_system):
        a, b, _ = spd_system
        res = solve(a, b, method="pcg", precond="ilu0", tol=1e-10)
        assert res.log.counts["matvec"] >= res.iterations
        assert res.log.counts["lower_solve"] >= res.iterations

    def test_timings_recorded(self, spd_system):
        a, b, _ = spd_system
        res = solve(a, b, method="pcg", precond="ilu0")
        assert res.setup_seconds >= 0.0
        assert res.solve_seconds >= 0.0

    def test_final_residual(self, spd_system):
        a, b, _ = spd_system
        res = solve(a, b, method="pcg", precond="ilu0", tol=1e-9)
        assert res.final_residual <= 1e-9


class TestOperationLog:
    def test_record_and_volume(self):
        log = OperationLog()
        log.matvec(100)
        log.matvec(100)
        log.dot(10)
        assert log["matvec"] == 2
        assert log.volume["matvec"] == 200

    def test_merge(self):
        a, b = OperationLog(), OperationLog()
        a.saxpy(5)
        b.saxpy(5)
        a.merge(b)
        assert a["saxpy"] == 2

    def test_summary(self):
        log = OperationLog()
        log.dot(4)
        assert log.summary() == {"dot": {"calls": 1, "volume": 4}}
