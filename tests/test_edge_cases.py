"""Edge cases and small behaviours across modules."""

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.wavefront import compute_wavefronts
from repro.errors import ConvergenceError, ValidationError
from repro.experiments.runner import ExperimentContext
from repro.krylov import gmres, pcg, solve
from repro.machine.costs import MachineCosts
from repro.mesh.fd2d import nine_point_problem7
from repro.mesh.problems import get_problem
from repro.sparse.build import coo_to_csr, identity, random_lower_triangular
from repro.machine.simulator import SimResult, simulate
from repro.util.tables import TextTable
from repro.util.timing import Stopwatch
from repro.util.rng import default_rng, spawn_rng
from repro.util.validation import as_int_array, check_positive


class TestUtilEdges:
    def test_table_row_length_mismatch(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_table_formats_mismatch(self):
        with pytest.raises(ValueError):
            TextTable(["a"], formats=[None, None])

    def test_table_none_renders_dash(self):
        t = TextTable(["a"], formats=[".2f"])
        t.add_row(None)
        assert "-" in t.render()

    def test_table_extend(self):
        t = TextTable(["a", "b"])
        t.extend([(1, 2), (3, 4)])
        assert len(t.rows) == 2

    def test_stopwatch_stop_before_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_stopwatch_reset(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0

    def test_default_rng_passthrough(self):
        g = np.random.default_rng(5)
        assert default_rng(g) is g

    def test_spawn_rng_independent(self):
        g = default_rng(1)
        a = spawn_rng(g, 0).integers(0, 1000, 10)
        b = spawn_rng(g, 1).integers(0, 1000, 10)
        assert not np.array_equal(a, b)

    def test_as_int_array_accepts_integral_floats(self):
        np.testing.assert_array_equal(as_int_array([1.0, 2.0]), [1, 2])

    def test_check_positive_rejects_fraction(self):
        with pytest.raises(ValidationError):
            check_positive(1.5)


class TestDegenerateStructures:
    def test_single_index_loop(self):
        dep = DependenceGraph.from_indirection(np.array([0]))
        wf = compute_wavefronts(dep)
        assert list(wf) == [0]
        sched = global_schedule(wf, 4)
        sim = simulate(sched, dep, mode="self")
        assert sim.total_time > 0

    def test_no_dependences_is_doall(self):
        """A dependence-free loop degenerates to a doall: one wavefront,
        one phase, perfect symbolic load balance."""
        dep = DependenceGraph.from_edges([], 64)
        wf = compute_wavefronts(dep)
        assert wf.max() == 0
        sched = global_schedule(wf, 8)
        zero = MachineCosts().with_overheads_zeroed()
        pre = simulate(sched, dep, zero, mode="preschedule")
        assert pre.num_phases == 1
        assert pre.efficiency == pytest.approx(1.0)

    def test_chain_is_fully_sequential(self):
        n = 32
        edges = [(i, i - 1) for i in range(1, n)]
        dep = DependenceGraph.from_edges(edges, n)
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 4)
        zero = MachineCosts().with_overheads_zeroed()
        sim = simulate(sched, dep, zero, mode="self")
        # Sequential chain: efficiency exactly 1/p.
        assert sim.efficiency == pytest.approx(1.0 / 4.0)

    def test_schedule_with_empty_processors(self):
        dep = DependenceGraph.from_edges([], 3)
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 8)  # more procs than indices
        sim = simulate(sched, dep, mode="preschedule")
        assert sim.total_time > 0

    def test_more_procs_than_wavefront_width(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 1)], 3)
        wf = compute_wavefronts(dep)
        sched = identity_schedule(wf, 5)
        sim = simulate(sched, dep, mode="doacross")
        assert 0 < sim.efficiency <= 1.0


class TestSimResultProperties:
    def test_zero_time_edge(self):
        r = SimResult(mode="self", nproc=2, total_time=0.0, seq_time=0.0,
                      busy=np.zeros(2), idle=np.zeros(2))
        assert r.efficiency == 1.0
        assert r.speedup == 2.0

    def test_aggregates(self):
        r = SimResult(mode="self", nproc=2, total_time=10.0, seq_time=12.0,
                      busy=np.array([6.0, 4.0]), idle=np.array([4.0, 6.0]))
        assert r.total_busy == 10.0
        assert r.total_idle == 10.0
        assert r.efficiency == pytest.approx(0.6)


class TestPollQuantum:
    def test_poll_increases_waits_only(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 0), (3, 1), (3, 2)], 4)
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 2)
        base = MachineCosts(t_poll=0.0)
        polled = MachineCosts(t_poll=50.0)
        t0 = simulate(sched, dep, base, mode="self").total_time
        t1 = simulate(sched, dep, polled, mode="self").total_time
        assert t1 >= t0


class TestErrors:
    def test_convergence_error_fields(self):
        e = ConvergenceError("no", iterations=7, residual=0.5)
        assert e.iterations == 7
        assert e.residual == 0.5

    def test_hierarchy(self):
        from repro.errors import (
            DeadlockError, ReproError, ScheduleError, StructureError,
            ValidationError,
        )
        for cls in (ValidationError, StructureError, ScheduleError,
                    DeadlockError, ConvergenceError):
            assert issubclass(cls, ReproError)
        assert issubclass(DeadlockError, ScheduleError)


class TestSubstrateRefusals:
    """Inputs the matrix, mesh and solver layers used to accept, or to
    refuse late with whatever numpy or ``int()`` happened to raise."""

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: get_problem("5-PT", scale=-1.0), id="scale-negative"),
        pytest.param(lambda: get_problem("5-PT", scale=0), id="scale-zero"),
        pytest.param(lambda: get_problem("5-PT", scale=float("nan")),
                     id="scale-nan"),
        pytest.param(lambda: get_problem("SPE1", scale=float("inf")),
                     id="scale-inf"),
        pytest.param(lambda: ExperimentContext(scale=-1.0), id="context-scale-negative"),
        pytest.param(lambda: solve(identity(3), np.ones(3), tol=-1.0),
                     id="solve-tol-negative"),
        pytest.param(lambda: solve(identity(3), np.ones(3), method="gmres",
                                   tol=float("nan")), id="solve-tol-nan"),
        pytest.param(lambda: pcg(identity(3), np.ones(3), tol=float("nan")),
                     id="pcg-tol-nan"),
        pytest.param(lambda: gmres(identity(3), np.ones(3), tol=0.0),
                     id="gmres-tol-zero"),
        pytest.param(lambda: nine_point_problem7(8, 9), id="box-ny"),
        pytest.param(lambda: random_lower_triangular(5, avg_off_diag=-1),
                     id="poisson-mean-negative"),
        pytest.param(lambda: coo_to_csr([0], [0], [1.0], shape=(1,)),
                     id="shape-1d"),
    ])
    def test_validation_error(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_tol_is_refused_before_anything_is_factored(self, monkeypatch):
        import repro.krylov.solver as solver
        monkeypatch.setattr(solver, "make_preconditioner",
                            lambda *a: pytest.fail("factored first"))
        with pytest.raises(ValidationError, match="tol"):
            solve(identity(3), np.ones(3), tol=float("nan"))


class TestWorkloadEdges:
    def test_max_distance_truncation(self):
        from repro.workload.generator import generate_workload
        wl = generate_workload(10, 2.0, 50.0, seed=1, max_distance=3)
        m = wl.matrix
        rows = m.row_of_nnz()
        strict = m.indices < rows
        r, c = rows[strict], m.indices[strict]
        dist = np.abs(r % 10 - c % 10) + np.abs(r // 10 - c // 10)
        assert dist.max() <= 3 if dist.size else True

    def test_zero_degree(self):
        from repro.workload.generator import generate_workload
        wl = generate_workload(5, 0.0, 1.0, seed=2)
        assert wl.dependence_counts().sum() == 0


class TestILUDirections:
    def test_upper_solver_in_preconditioner(self):
        """The U-solve goes backwards; verify the full M^{-1} apply is
        really (LU)^{-1} on a nontrivial matrix."""
        from repro.krylov.ilu import ILUPreconditioner
        from repro.sparse.build import csr_from_dense

        rng = np.random.default_rng(3)
        n = 25
        dense = rng.standard_normal((n, n))
        dense[np.abs(dense) < 1.1] = 0.0
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
        a = csr_from_dense(dense)
        pre = ILUPreconditioner(a, 0)
        f = pre.factorization
        lmat = f.l_strict.to_dense() + np.eye(n)
        umat = f.u.to_dense()
        r = rng.standard_normal(n)
        np.testing.assert_allclose(lmat @ umat @ pre.apply(r), r, rtol=1e-8)

    def test_ilu2_tighter_than_ilu1(self):
        from repro.krylov.ilu import symbolic_ilu
        from repro.mesh.fd2d import five_point_laplacian
        from repro.mesh.grid import Grid2D

        a = five_point_laplacian(Grid2D(7, 7))
        assert symbolic_ilu(a, 2).nnz >= symbolic_ilu(a, 1).nnz
