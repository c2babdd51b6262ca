"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import Runtime
from repro.core.executor import TriangularSolveKernel
from repro.core.dependence import DependenceGraph
from repro.krylov.parallel import ParallelSolver
from repro.krylov.solver import solve
from repro.mesh.problems import get_problem
from repro.sparse.triangular import solve_lower_sequential, split_triangular


class TestFullSolvePipeline:
    """PDE problem -> ILU-preconditioned Krylov -> manufactured truth."""

    @pytest.mark.parametrize("name", ["5-PT", "9-PT"])
    def test_2d_problems(self, name):
        p = get_problem(name, scale=0.25)
        res = solve(p.a, p.b, method="gmres", precond="ilu0", tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, p.x_exact, rtol=1e-5, atol=1e-7)

    def test_3d_problem(self):
        p = get_problem("7-PT", scale=0.4)
        res = solve(p.a, p.b, method="gmres", precond="ilu0", tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, p.x_exact, rtol=1e-5, atol=1e-7)

    def test_spe_problem(self):
        p = get_problem("SPE4", scale=0.6)
        res = solve(p.a, p.b, method="gmres", precond="ilu0", tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, p.x_exact, rtol=1e-5, atol=1e-7)


class TestParallelPipelineConsistency:
    """The priced parallel solver must not change the numerics."""

    def test_same_answer_any_executor(self):
        p = get_problem("SPE4", scale=0.5)
        answers = []
        for executor in ("self", "preschedule"):
            ps = ParallelSolver(p.a, 4, executor=executor)
            rep = ps.solve(p.b, method="gmres", tol=1e-9)
            answers.append(rep.solve_result.x)
        np.testing.assert_array_equal(answers[0], answers[1])


class TestCompileOnRealFactor:
    """Runtime.compile on the actual ILU factor of a mesh problem."""

    def test_triangular_solve_matches(self):
        p = get_problem("5-PT", scale=0.25)
        l = p.factorization.l_strict
        b = np.linspace(0.0, 1.0, l.nrows)
        expected = solve_lower_sequential(l, b, unit_diagonal=True)
        loop = Runtime(nproc=8).compile(l, executor="self",
                                        scheduler="global")
        out = loop(TriangularSolveKernel(l, b, unit_diagonal=True))
        np.testing.assert_array_equal(out.x, expected)
        assert out.sim.efficiency > 0.2


class TestAmortisation:
    """Inspector runs once, executor runs many times (the PCGPAK use)."""

    def test_repeated_solves_reuse_schedule(self):
        p = get_problem("SPE4", scale=0.5)
        l, d, _ = split_triangular(p.a)
        dep = DependenceGraph.from_lower_csr(l)
        rt = Runtime(nproc=8)
        loop = rt.compile(dep, executor="self", scheduler="global")
        rng = np.random.default_rng(0)
        for run in range(1, 4):
            b = rng.standard_normal(l.nrows)
            res = loop(TriangularSolveKernel(l, b, diag=d))
            expected = solve_lower_sequential(l, b, diag=d)
            np.testing.assert_array_equal(res.x, expected)
            assert res.executions == run
        assert rt.cache_stats.misses == 1   # one inspection served all


class TestHeadlineFinding:
    """The abstract's claim, end to end, at reduced scale."""

    def test_self_execution_beats_prescheduling_mostly(self):
        wins = 0
        total = 0
        for name in ("SPE4", "5-PT", "9-PT"):
            p = get_problem(name, scale=0.3)
            times = {}
            for executor in ("self", "preschedule"):
                ps = ParallelSolver(p.a, 8, executor=executor)
                an = ps.analyze_lower_solve()
                times[executor] = an.parallel_time
            total += 1
            if times["self"] <= times["preschedule"]:
                wins += 1
        assert wins >= total - 1  # "almost always"
