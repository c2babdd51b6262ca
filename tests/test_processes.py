"""Tests for the multiprocessing (true-parallelism) backend: the loop's
own kernel, forked over a shared ``x``, bit for bit the serial oracles."""

import multiprocessing as mp
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.executor import TriangularSolveKernel
from repro.core.inspector import Inspector
from repro.errors import DeadlockError
from repro.krylov.ilu import ILUPreconditioner
from repro.machine import processes
from repro.machine.processes import ProcessMachine
from repro.mesh.grid import Grid2D
from repro.mesh.fd2d import five_point_laplacian
from repro.sparse.build import random_lower_triangular
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import (solve_lower_sequential,
                                     solve_upper_sequential)

from strategies import lower_systems

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process backend requires POSIX fork",
)

#: ``Runtime.compile`` keywords of each plan kind the backend runs.
PLANS = {
    "self": {"executor": "self", "scheduler": "global"},
    "preschedule": {"executor": "preschedule", "scheduler": "global"},
    "doacross": {"executor": "doacross"},
    "speculative": {"strategy": "speculative"},
}


@pytest.fixture(scope="module")
def system():
    l = random_lower_triangular(150, avg_off_diag=2.0, max_band=30, seed=11)
    b = np.random.default_rng(12).standard_normal(150)
    expected = solve_lower_sequential(l, b)
    dep = DependenceGraph.from_lower_csr(l)
    return l, b, expected, dep


def on_processes(l, b, nproc=2, **compile_kw):
    """``l``'s forward solve compiled from raw dependences, run on
    ``processes``; returns the loop and its ``x``."""
    loop = Runtime(nproc=nproc).compile(DependenceGraph.from_lower_csr(l),
                                        **compile_kw)
    return loop, loop(TriangularSolveKernel(l, b), backend="processes").x


class TestPrescheduledProcesses:
    def test_matches_oracle(self, system):
        l, b, expected, _ = system
        _, x = on_processes(l, b, executor="preschedule", scheduler="global")
        np.testing.assert_array_equal(x, expected)

    def test_local_schedule(self, system):
        l, b, expected, _ = system
        _, x = on_processes(l, b, executor="preschedule", scheduler="local")
        np.testing.assert_array_equal(x, expected)

    def test_repeated_solves(self, system):
        l, b, expected, _ = system
        loop = Runtime(nproc=2).compile(LoopProgram.from_csr(l, b),
                                        executor="preschedule",
                                        scheduler="global")
        for _ in range(2):
            np.testing.assert_array_equal(loop(backend="processes").x,
                                          expected)

    def test_rejects_non_lower(self, system):
        # The backend no longer re-validates the matrix: a forward
        # kernel over an upper matrix runs its strictly-lower operands
        # (none) on processes exactly as it does serially.
        l, b, _, dep = system
        loop = Runtime(nproc=2).compile(dep, executor="preschedule",
                                        scheduler="global")
        kernel = TriangularSolveKernel(l.transpose(), b)
        want = loop(kernel, backend="serial").x.copy()
        np.testing.assert_array_equal(
            loop(kernel, backend="processes").x, want)


class TestSelfExecutingProcesses:
    def test_matches_oracle(self, system):
        l, b, expected, _ = system
        _, x = on_processes(l, b, executor="self", scheduler="global")
        np.testing.assert_array_equal(x, expected)

    def test_identity_schedule(self, system):
        """Doacross-style: original order, busy waits across processes."""
        l, b, expected, _ = system
        _, x = on_processes(l, b, executor="doacross")
        np.testing.assert_array_equal(x, expected)

    def test_requires_dep_graph(self, system):
        # A raw-dependence compile hands the graph to the busy-waits.
        l, b, expected, _ = system
        loop, x = on_processes(l, b, executor="self", scheduler="global")
        assert loop.executor.phases() is None  # busy-waits, no barriers
        np.testing.assert_array_equal(x, expected)

    def test_illegal_schedule_rejected_up_front(self, system, monkeypatch):
        l, b, _, dep = system
        res = Inspector().inspect(dep, 1, strategy="identity")
        schedule = replace(res.schedule,
                           local_order=[np.roll(np.arange(dep.n), 1)])
        monkeypatch.setattr(ProcessMachine, "_pool", None)  # forks nothing
        kernel = TriangularSolveKernel(l, b)
        kernel.start()
        with pytest.raises(DeadlockError):
            ProcessMachine(1).run_self_executing(kernel, schedule, dep)


@settings(max_examples=20, deadline=None)
@given(system=lower_systems(), upper=st.booleans(),
       plan=st.sampled_from(sorted(PLANS)), nproc=st.integers(1, 3))
def test_processes_equal_the_oracles(system, upper, plan, nproc):
    l, b = system
    t, oracle = ((l.transpose(), solve_upper_sequential) if upper
                 else (l, solve_lower_sequential))
    loop = Runtime(nproc=nproc).compile(
        LoopProgram.from_csr(t, b, lower=not upper), **PLANS[plan])
    assert np.array_equal(loop(backend="processes").x, oracle(t, b))


@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_an_empty_solve_runs_on_every_backend(backend, plan):
    empty = CSRMatrix(np.zeros(1, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros(0), (0, 0))
    loop = Runtime(nproc=2).compile(LoopProgram.from_csr(empty, np.zeros(0)),
                                    **PLANS[plan])
    assert loop(backend=backend).x.shape == (0,)


def test_both_ilu_halves_run_on_processes():
    a = five_point_laplacian(Grid2D(12, 12))
    pre = ILUPreconditioner(a, 0, executor="preschedule", scheduler="global")
    f, b = pre.factorization, np.cos(np.arange(a.nrows, dtype=np.float64))
    assert np.array_equal(
        pre.triangular_solve(b, backend="processes"),
        solve_lower_sequential(f.l_strict, b, unit_diagonal=True))
    assert np.array_equal(
        pre.triangular_solve(b, upper=True, backend="processes"),
        solve_upper_sequential(f.u, b, diag=f.u_diag))


class TestNoViewOutlivesTheSegment:
    def test_after_a_run(self, system):
        l, b, expected, _ = system
        loop = Runtime(nproc=2).compile(LoopProgram.from_csr(l, b))
        x = loop(backend="processes").x
        assert x is loop.bound_kernel.x and x.flags.owndata
        np.testing.assert_array_equal(x, expected)

    def test_after_a_worker_error(self, system):
        l, _, _, _ = system
        b = np.full(l.nrows, np.inf)
        with np.errstate(all="ignore"):
            want = solve_lower_sequential(l, b)
        loop = Runtime(nproc=2).compile(LoopProgram.from_csr(l, b),
                                        executor="preschedule",
                                        scheduler="global")
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            loop(backend="processes")  # the workers keep the errstate
        assert loop.bound_kernel.x.flags.owndata
        assert processes._WORKER == {}  # set in the workers only
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(loop(backend="serial").x, want)
