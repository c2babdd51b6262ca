"""Unit tests for the parallel solver pricing (Tables 1-3 machinery)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.krylov import ilu
from repro.krylov.parallel import ParallelSolver
from repro.mesh.problems import get_problem
from repro.runtime import Runtime


@pytest.fixture(scope="module")
def problem():
    return get_problem("5-PT", scale=0.35)  # 22x22 grid


@pytest.fixture(scope="module")
def solvers(problem):
    return {
        exe: ParallelSolver(problem.a, 8, executor=exe, scheduler="global")
        for exe in ("self", "preschedule")
    }


class TestConstruction:
    def test_bad_executor(self, problem):
        with pytest.raises(ValidationError):
            ParallelSolver(problem.a, 4, executor="nope")

    def test_bad_scheduler(self, problem):
        with pytest.raises(ValidationError):
            ParallelSolver(problem.a, 4, scheduler="nope")

    def test_schedules_valid(self, solvers):
        for s in solvers.values():
            s.schedule_lower.validate()
            s.schedule_upper.validate()


class TestOneFactorOneSolvePath:
    """The PCGPAK pattern, asserted of the flagship: the loops the
    solver compiled and priced are the loops its iterations ran."""

    def test_every_logged_solve_ran_the_compiled_loops(self, problem,
                                                       monkeypatch):
        factored = []
        numeric_ilu = ilu.numeric_ilu
        monkeypatch.setattr(
            ilu, "numeric_ilu",
            lambda *a, **k: factored.append(1) or numeric_ilu(*a, **k))
        solver = ParallelSolver(problem.a, 8)
        lower_plan = solver.lower_loop.plan
        log = solver.solve(problem.b, method="gmres").solve_result.log
        assert log["lower_solve"] == log["upper_solve"] > 0
        assert solver.lower_loop.executions == log["lower_solve"]
        assert solver.upper_loop.executions == log["upper_solve"]
        # One compile of the shared structure (the upper loop's is its
        # hit) and none per solve: the lower plan is still the first.
        stats = solver.lower_loop.runtime.cache_stats
        assert (stats.misses, stats.hits) == (1, 1)
        assert solver.lower_loop.plan is lower_plan
        assert len(factored) == 1

    def test_a_handed_factorization_is_not_recomputed(self, problem,
                                                      monkeypatch):
        f = problem.factorization
        monkeypatch.setattr(ilu, "numeric_ilu", None)
        solver = ParallelSolver(problem.a, 8, factorization=f)
        assert solver.precond.factorization is f and solver.pattern is f.lu
        assert problem.loop_program(factored=True).data["a"] is f.l_strict.data

    def test_executors_on_one_session_share_the_inspection(self, problem):
        rt = Runtime(nproc=8)
        f = problem.factorization
        ParallelSolver(problem.a, 8, executor="self", runtime=rt,
                       factorization=f)
        inspected = rt.cache_stats.misses
        ParallelSolver(problem.a, 8, executor="preschedule", runtime=rt,
                       factorization=f)
        assert rt.cache_stats.misses == inspected


class TestSolveReport:
    def test_reports(self, problem, solvers):
        rep = solvers["self"].solve(problem.b, method="gmres", tol=1e-8)
        assert rep.converged
        assert rep.parallel_time > 0
        assert 0 < rep.efficiency <= 1.0
        assert rep.sort_time > 0
        assert rep.factorization_time > 0
        assert rep.iterations > 0
        # Numeric answer still correct.
        np.testing.assert_allclose(
            rep.solve_result.x, problem.x_exact, rtol=1e-4, atol=1e-6,
        )

    def test_self_beats_preschedule_on_5pt(self, problem, solvers):
        """The paper's headline on the 5-point problems."""
        r_self = solvers["self"].solve(problem.b, method="gmres", tol=1e-8)
        r_pre = solvers["preschedule"].solve(problem.b, method="gmres", tol=1e-8)
        assert r_self.parallel_time < r_pre.parallel_time
        assert r_self.efficiency > r_pre.efficiency

    def test_speedup_bounded_by_nproc(self, problem, solvers):
        rep = solvers["self"].solve(problem.b, method="gmres", tol=1e-8)
        assert rep.speedup <= rep.nproc

    def test_breakdown_sums(self, problem, solvers):
        rep = solvers["self"].solve(problem.b, method="gmres", tol=1e-8)
        par_sum = sum(rep.breakdown["parallel"].values())
        assert par_sum == pytest.approx(rep.parallel_time - rep.factorization_time)


class TestTriangularAnalysis:
    def test_estimation_chain_ordering(self, solvers):
        """1 PE seq <= 1 PE par <= rotating <= rotating+barrier."""
        for exe, s in solvers.items():
            a = s.analyze_lower_solve()
            assert a.one_pe_sequential <= a.one_pe_parallel + 1e-12
            assert a.one_pe_parallel <= a.rotating_estimate + 1e-12
            assert a.rotating_estimate <= a.rotating_estimate_plus_barrier + 1e-12

    def test_rotating_estimate_close_to_parallel(self, solvers):
        """Paper: the rotating estimate (+barrier for presched) predicts
        the observed multiprocessor time closely."""
        for exe, s in solvers.items():
            a = s.analyze_lower_solve()
            rel = abs(a.rotating_estimate_plus_barrier - a.parallel_time)
            rel /= a.parallel_time
            assert rel < 0.35

    def test_self_symbolic_efficiency_higher(self, solvers):
        a_self = solvers["self"].analyze_lower_solve()
        a_pre = solvers["preschedule"].analyze_lower_solve()
        assert a_self.symbolic_efficiency > a_pre.symbolic_efficiency

    def test_doacross_slower_than_self(self, solvers):
        """The doacross baseline loses to the reordered self-executing
        loop (the paper's §5.1.2 comparison; the pre-scheduled ordering
        also holds at paper-scale sizes — see the Table 2 benchmark —
        but at this test's reduced size barrier cost dominates the
        pre-scheduled time, so we assert against self-execution)."""
        a_pre = solvers["preschedule"].analyze_lower_solve(include_doacross=True)
        a_self = solvers["self"].analyze_lower_solve()
        assert a_pre.doacross_time is not None
        assert a_pre.doacross_time > a_self.parallel_time

    def test_phases_match_wavefronts(self, solvers, problem):
        a = solvers["self"].analyze_lower_solve()
        # 5-pt ILU(0) factor on a k x k grid has 2k - 1 wavefronts.
        k = problem.grid_shape[0]
        assert a.phases == 2 * k - 1


class TestSortCosts:
    def test_local_scheduler_cheaper_sort(self, problem):
        s_global = ParallelSolver(problem.a, 8, executor="self", scheduler="global")
        s_local = ParallelSolver(problem.a, 8, executor="self", scheduler="local")
        assert s_local.sort_time() < s_global.sort_time()
