"""The shared serial run path: level plans, gather plans, serial order.

Contract under test: every classic executor runs every kernel through
one :class:`~repro.core.executor.LevelPlan`; batched arithmetic keeps
the serial operation order, so results are ``np.array_equal`` to
:class:`~repro.core.executor.SerialExecutor` — not merely close; plans
depend on structure alone, so data-only rebinds build none.  Nothing
here asserts a timing.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faults import FaultPlan
from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.doacross import DoacrossExecutor
from repro.core.executor import (
    FLAT_LEVEL,
    GenericLoopKernel,
    LevelPlan,
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
    UpperTriangularSolveKernel,
)
from repro.core.prescheduled import PreScheduledExecutor
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.self_executing import SelfExecutingExecutor
from repro.core.wavefront import (
    compute_wavefronts,
    compute_wavefronts_general,
    wavefront_members,
)
from repro.errors import DeadlockError
from repro.machine.simulator import simulate_self_executing
from repro.program.transform import IterationMap, MappedKernel
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import (
    solve_lower_sequential,
    solve_upper_sequential,
)
from strategies import (
    EXECUTORS,
    level_loop,
    program_of,
    recorded_program,
    triangular,
)
from test_contract import serial

# Bitwise agreement over every program kind, strategy and tier is
# tests/test_contract.py's property; the cases here pin what the level
# path adds: the batched kernel path and the sequential substitution
# loops.
cases = st.tuples(
    st.sampled_from(("simple", "lower", "upper", "recorded")),
    st.integers(min_value=1, max_value=48),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(EXECUTORS),
    st.sampled_from(("local", "global")),
)


# ----------------------------------------------------------------------
# Bitwise agreement with the serial oracle
# ----------------------------------------------------------------------

class TestSerialOrder:
    @given(cases)
    @settings(max_examples=30, deadline=None)
    def test_every_executor_equals_serial(self, case):
        kind, n, seed, nproc, executor, scheduler = case
        program = program_of(kind, n, seed)
        loop = Runtime(nproc=nproc).compile(program, executor=executor,
                                            scheduler=scheduler)
        assert np.array_equal(loop().x, serial(program))
        assert loop.executor.kernel_path == "vectorized"

    @given(st.integers(min_value=1, max_value=48),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_index_on_triangular(self, n, seed, lower, inline):
        t = triangular(n, seed, lower=lower, inline_diag=inline)
        b = np.random.default_rng(seed).standard_normal(n)
        cls = TriangularSolveKernel if lower else UpperTriangularSolveKernel
        kernels = [cls(t, b, unit_diagonal=not inline) for _ in range(2)]
        wf = compute_wavefronts(kernels[0].dependence_graph())
        for k in kernels:
            k.start()
        for members in wavefront_members(wf):
            kernels[0].execute_batch(members)
            for i in members.tolist():
                kernels[1].execute_index(i)
        assert np.array_equal(kernels[0].result(), kernels[1].result())

    @given(st.integers(min_value=1, max_value=48),
           st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_level_solver_equals_the_sequential_loops(self, n, seed, lower):
        t = triangular(n, seed, lower=lower)
        b = np.random.default_rng(seed).standard_normal(n)
        sequential = solve_lower_sequential if lower else solve_upper_sequential
        assert np.array_equal(level_loop(t, b, lower=lower)(with_sim=False).x,
                              sequential(t, b))

    @given(st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_general_dags_run_in_a_legal_order(self, n, seed, nproc):
        # A backward DAG under a random renumbering: dependences point
        # both ways, so only a topological order is legal.
        rng = np.random.default_rng(seed)
        relabel = rng.permutation(n)
        edges = [(int(relabel[i]), int(relabel[j]))
                 for i in range(1, n)
                 for j in rng.choice(i, size=min(i, 2), replace=False)]
        dep = DependenceGraph.from_edges(edges, n)
        wf = compute_wavefronts_general(dep)
        schedule = global_schedule(wf, nproc)
        for ex in (SelfExecutingExecutor(schedule, dep),
                   PreScheduledExecutor(schedule, dep),
                   DoacrossExecutor(dep, nproc, wavefronts=wf)):
            seen: list = []
            try:
                ex.run(GenericLoopKernel(n, seen.append, setup=seen.clear))
            except DeadlockError:
                # Only the unreordered loop can wait on itself.
                assert isinstance(ex, DoacrossExecutor)
                continue
            at = np.empty(n, dtype=np.int64)
            at[seen] = np.arange(n)
            assert sorted(seen) == list(range(n))
            assert all(at[j] < at[i] for i, j in edges)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

def executors_for(dep, nproc=2):
    wf = compute_wavefronts(dep)
    schedule = global_schedule(wf, nproc)
    return (SelfExecutingExecutor(schedule, dep),
            PreScheduledExecutor(schedule, dep),
            DoacrossExecutor(dep, nproc, wavefronts=wf))


class TestEdgeCases:
    def test_empty_loop(self):
        none = np.empty(0, dtype=np.int64)
        dep = DependenceGraph(np.zeros(1, dtype=np.int64), none, 0)
        empty = CSRMatrix(np.zeros(1, dtype=np.int64), none, np.empty(0),
                          (0, 0))
        for ex in executors_for(dep):
            assert ex.level_plan().num_levels == 0
            assert ex.run(SimpleLoopKernel(np.empty(0), np.empty(0),
                                           none)).shape == (0,)
            assert ex.run(TriangularSolveKernel(empty, np.empty(0),
                                                unit_diagonal=True)
                          ).shape == (0,)

    def test_levels_without_operands(self):
        # Rows 0..5 have no operands (one wide level, zero entries);
        # rows 6..11 read two of them each.
        n = 12
        indptr = [0] * 7 + [2 * k for k in range(1, 7)]
        indices = [c for i in range(6) for c in (i, (i + 1) % 6)]
        l = CSRMatrix(indptr, indices, np.linspace(0.5, 1.5, 12), (n, n))
        b = np.linspace(-1.0, 1.0, n)
        want = SerialExecutor().run(
            TriangularSolveKernel(l, b, unit_diagonal=True)).copy()
        for ex in executors_for(DependenceGraph.from_lower_csr(l)):
            plan = ex.level_plan()
            assert np.diff(plan.bounds).tolist() == [6, 6]
            got = ex.run(TriangularSolveKernel(l, b, unit_diagonal=True))
            assert np.array_equal(got, want)
            assert ex.batches == 2

    @pytest.mark.parametrize("kind", ["simple", "lower"])
    def test_all_chain_takes_the_per_index_walk(self, kind):
        # One index per level: every level is a tiny one, so the whole
        # plan is a single flat span and no batch is issued.
        n = 40
        rng = np.random.default_rng(3)
        if kind == "simple":
            ia = np.maximum(np.arange(n) - 1, 0)
            program = LoopProgram.from_indirection(
                ia, x=rng.standard_normal(n), b=rng.standard_normal(n))
        else:
            indptr = np.concatenate(([0], np.arange(n)))
            l = CSRMatrix(indptr, np.arange(n - 1), rng.uniform(0.5, 1.5, n - 1),
                          (n, n))
            program = LoopProgram.from_csr(l, rng.standard_normal(n),
                                           unit_diagonal=True)
        for executor in EXECUTORS:
            loop = Runtime(nproc=3).compile(program, executor=executor)
            assert np.array_equal(loop().x, serial(program))
            plan = loop.executor.level_plan()
            assert plan.num_levels == n
            assert plan.spans == [(0, n, True)]
            assert loop.executor.batches == 0

    def test_cyclic_unsorted_schedule_still_deadlocks(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 0), (3, 1), (3, 2)], 4)
        schedule = replace(identity_schedule(compute_wavefronts(dep), 1),
                           local_order=[np.array([3, 0, 1, 2])])
        ex = SelfExecutingExecutor(schedule, dep)
        kernel = GenericLoopKernel(4, lambda i: None)
        for call in (ex.execution_order, ex.simulate,
                     lambda: ex.run(kernel)):
            with pytest.raises(DeadlockError):
                call()

    def test_unsorted_but_legal_schedule_uses_the_sweep_levels(self):
        dep = DependenceGraph.from_edges(
            [(2, 0), (4, 2), (3, 1), (5, 3)], 6)
        schedule = identity_schedule(compute_wavefronts(dep), 2)
        ex = SelfExecutingExecutor(schedule, dep)
        order = ex.execution_order()
        at = np.empty(6, dtype=np.int64)
        at[order] = np.arange(6)
        for lst in schedule.local_order:  # program order kept
            assert np.all(np.diff(at[lst]) > 0)
        assert np.diff(ex.level_plan().bounds).max() <= schedule.nproc

    def test_spans_group_runs_of_tiny_levels(self):
        widths = [9, 1, FLAT_LEVEL, 7, 8, 1]
        bounds = np.concatenate(([0], np.cumsum(widths)))
        plan = LevelPlan(np.arange(bounds[-1]), bounds)
        assert plan.spans == [(0, 1, False), (1, 3, True), (3, 5, False),
                              (5, 6, True)]
        assert plan.num_batched == 3
        assert list(plan.spans_between(2, 4)) == [(2, 3, True), (3, 4, False)]
        assert plan.level_of(9) == 1 and plan.level_of(int(bounds[-1]) - 1) == 5


# ----------------------------------------------------------------------
# Plans are structure: built once, kept across data rebinds
# ----------------------------------------------------------------------

def wide_lower(levels: int = 4, width: int = 6, seed: int = 11) -> CSRMatrix:
    """``levels`` wavefronts of ``width`` rows; every row past the
    first wavefront reads two rows of the one before."""
    assert width > FLAT_LEVEL
    rng = np.random.default_rng(seed)
    n = levels * width
    indptr, indices = [0], []
    for i in range(n):
        if i >= width:
            base = (i // width - 1) * width
            indices.extend(sorted(
                (base + rng.choice(width, size=2, replace=False)).tolist()))
        indptr.append(len(indices))
    return CSRMatrix(indptr, indices, rng.uniform(0.5, 1.5, len(indices)),
                     (n, n))


class TestPlansAreStructure:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_data_rebinds_build_no_plans(self, executor, monkeypatch):
        l = wide_lower()
        n = l.nrows
        rng = np.random.default_rng(0)
        rt = Runtime(nproc=3, observe=True)
        loop = rt.compile(LoopProgram.from_csr(l, rng.standard_normal(n),
                                               unit_diagonal=True),
                          executor=executor)
        metric = lambda name: rt.observer.metrics.as_dict()[  # noqa: E731
            f"executor.{name}"]["value"]
        loop(with_sim=False)
        assert metric("plan_builds") == 2  # one level plan, one gather plan
        assert metric("plan_reuses") == 0
        executor_object = loop.executor

        walked = []
        monkeypatch.setattr(
            TriangularSolveKernel, "execute_index",
            lambda self, i: walked.append(i))
        for k in range(1, 6):
            b = rng.standard_normal(n)
            assert loop.rebind(b=b) is loop
            x = loop(with_sim=False).x
            assert np.array_equal(x, solve_lower_sequential(
                l, b, unit_diagonal=True))
            assert loop.executor is executor_object
            assert metric("plan_builds") == 2
            assert metric("plan_reuses") == 2 * k
            assert metric("batches") == 4 * (k + 1)
        assert walked == []

    def test_value_rebinds_reuse_the_gather_plan(self):
        l = wide_lower()
        n = l.nrows
        b = np.linspace(-1.0, 1.0, n)
        loop = Runtime(nproc=2).compile(
            LoopProgram.from_csr(l, b, unit_diagonal=True),
            executor="preschedule", scheduler="global")
        loop()
        builds = loop.executor.plan_builds
        a2 = l.data * 1.75
        loop = loop.rebind(a=a2)
        assert np.array_equal(
            loop().x, solve_lower_sequential(l.with_data(a2), b,
                                             unit_diagonal=True))
        assert loop.executor.plan_builds == builds

    def test_a_new_structure_gets_a_new_gather_plan(self):
        l = wide_lower()
        dep = DependenceGraph.from_lower_csr(l)
        ex = executors_for(dep)[1]
        b = np.ones(l.nrows)
        ex.run(TriangularSolveKernel(l, b, unit_diagonal=True))
        ex.run(TriangularSolveKernel(l.with_data(l.data * 2.0), b,
                                     unit_diagonal=True))
        assert ex.level_counts()[:2] == (2, 2)
        ex.run(TriangularSolveKernel(l.copy(), b, unit_diagonal=True))
        assert ex.plan_builds == 3

    def test_a_data_rebind_does_no_structure_work(self):
        l = triangular(30, 4, lower=True)
        prog = LoopProgram.from_csr(l, np.ones(30))
        first, second = prog.make_kernel(), prog.with_data(
            b=np.zeros(30)).make_kernel()
        assert first.l.indptr is second.l.indptr is l.indptr
        assert first.l.row_of_nnz() is second.l.row_of_nnz()
        assert first.l.diagonal_positions() is second.l.diagonal_positions()
        assert np.array_equal(first.diag, l.diagonal())
        assert not hasattr(first, "_strict")

    def test_simulate_walks_the_executors_own_order(self):
        l = triangular(40, 9, lower=True)
        dep = DependenceGraph.from_lower_csr(l)
        ex = executors_for(dep, nproc=3)[0]
        want = simulate_self_executing(ex.schedule, dep, ex.costs,
                                       keep_finish_times=True)
        cold = ex.simulate(keep_finish_times=True)
        assert ex.plan_builds == 0  # timing alone builds no plan
        ex.run(TriangularSolveKernel(l, np.ones(40)))
        for got in (cold, ex.simulate(keep_finish_times=True)):
            assert got.total_time == want.total_time
            assert np.array_equal(got.finish, want.finish)
            assert np.array_equal(got.idle, want.idle)
        assert ex.level_counts()[:2] == (2, 0)


# ----------------------------------------------------------------------
# Wrappers report the inner kernel's capability; reports say what ran
# ----------------------------------------------------------------------

class TestWrappersAndReports:
    def test_wrappers_report_the_inner_capability(self):
        n = 12
        imap = IterationMap(np.arange(n)[::-1].copy())
        flat = GenericLoopKernel(n, lambda i: None)
        batched = SimpleLoopKernel(np.ones(n), np.ones(n),
                                   np.zeros(n, dtype=np.int64))
        taped = recorded_program(n, 1).make_kernel()
        assert not flat.vectorized and batched.vectorized and taped.vectorized
        assert not MappedKernel(flat, imap).vectorized
        assert MappedKernel(batched, imap).vectorized
        assert MappedKernel(taped, imap).vectorized
        for inner in (flat, batched, taped):
            wrapped = FaultPlan("kernel", iteration=3).wrap_kernel(inner)
            assert wrapped is not inner
            assert wrapped.vectorized == inner.vectorized

    def test_mapped_vectorized_kernel_equals_serial(self):
        # Reversed numbering of a loop whose references all point
        # forward in the original (so backward in the mapped) order.
        n = 30
        rng = np.random.default_rng(8)
        ia = np.minimum(np.arange(n) + rng.integers(1, 4, size=n), n - 1)
        x, b = rng.standard_normal(n), rng.standard_normal(n)
        forward = np.arange(n)[::-1].copy()
        kernel = MappedKernel(SimpleLoopKernel(x, b, ia),
                              IterationMap(forward))
        # Iteration k of the mapped loop is iteration n-1-k of the
        # inner one; the inner loop carries no dependence (every
        # reference is a forward one, read from the original values).
        dep = DependenceGraph.from_indirection(np.arange(n), n)
        for ex in executors_for(dep):
            got = ex.run(kernel).copy()
            assert np.array_equal(
                got, SerialExecutor().run(SimpleLoopKernel(x, b, ia)))
            assert ex.kernel_path == "vectorized"
            ex.run(kernel)
            assert ex.plan_builds == 2 and ex.plan_reuses == 2

    def test_report_states_batches_and_path(self):
        program = program_of("lower", 24, 5)
        loop = Runtime(nproc=2).compile(program, executor="preschedule",
                                        scheduler="global")
        before = loop.report()
        assert before["kernel_path"] is before["numeric_batches"] is None
        loop()
        after = loop.report()
        assert after["kernel_path"] == "vectorized"
        assert after["numeric_batches"] == loop.inspection.num_wavefronts
        taped = Runtime(nproc=2).compile(recorded_program(24, 5))
        taped()
        assert taped.report()["kernel_path"] == "vectorized"
