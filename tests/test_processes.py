"""Tests for the multiprocessing (true-parallelism) backend."""

import multiprocessing as mp
from dataclasses import replace

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.core.inspector import Inspector
from repro.errors import DeadlockError, ValidationError
from repro.machine.processes import (
    ProcessPrescheduledSolver,
    ProcessSelfExecutingSolver,
)
from repro.sparse.build import random_lower_triangular
from repro.sparse.triangular import solve_lower_sequential

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process backend requires POSIX fork",
)


@pytest.fixture(scope="module")
def system():
    l = random_lower_triangular(150, avg_off_diag=2.0, max_band=30, seed=11)
    b = np.random.default_rng(12).standard_normal(150)
    expected = solve_lower_sequential(l, b)
    dep = DependenceGraph.from_lower_csr(l)
    return l, b, expected, dep


class TestPrescheduledProcesses:
    def test_matches_oracle(self, system):
        l, b, expected, dep = system
        res = Inspector().inspect(dep, 2, strategy="global")
        solver = ProcessPrescheduledSolver(l, res.schedule, dep)
        np.testing.assert_array_equal(solver.solve(b), expected)

    def test_local_schedule(self, system):
        l, b, expected, dep = system
        res = Inspector().inspect(dep, 2, strategy="local")
        solver = ProcessPrescheduledSolver(l, res.schedule, dep)
        np.testing.assert_array_equal(solver.solve(b), expected)

    def test_repeated_solves(self, system):
        l, b, expected, dep = system
        res = Inspector().inspect(dep, 2, strategy="global")
        solver = ProcessPrescheduledSolver(l, res.schedule, dep)
        for _ in range(2):
            np.testing.assert_array_equal(solver.solve(b), expected)

    def test_rejects_non_lower(self, system):
        l, _, _, dep = system
        res = Inspector().inspect(dep, 2, strategy="global")
        with pytest.raises(ValidationError):
            ProcessPrescheduledSolver(l.transpose(), res.schedule, dep)


class TestSelfExecutingProcesses:
    def test_matches_oracle(self, system):
        l, b, expected, dep = system
        res = Inspector().inspect(dep, 2, strategy="global")
        solver = ProcessSelfExecutingSolver(l, res.schedule, dep)
        np.testing.assert_array_equal(solver.solve(b), expected)

    def test_identity_schedule(self, system):
        """Doacross-style: original order, busy waits across processes."""
        l, b, expected, dep = system
        res = Inspector().inspect(dep, 2, strategy="identity")
        solver = ProcessSelfExecutingSolver(l, res.schedule, dep)
        np.testing.assert_array_equal(solver.solve(b), expected)

    def test_requires_dep_graph(self, system):
        l, _, _, dep = system
        res = Inspector().inspect(dep, 2, strategy="global")
        with pytest.raises(ValidationError):
            ProcessSelfExecutingSolver(l, res.schedule, None)

    def test_illegal_schedule_rejected_up_front(self, system):
        l, _, _, dep = system
        res = Inspector().inspect(dep, 1, strategy="identity")
        schedule = replace(res.schedule,
                           local_order=[np.roll(np.arange(dep.n), 1)])
        with pytest.raises(DeadlockError):
            ProcessSelfExecutingSolver(l, schedule, dep)
