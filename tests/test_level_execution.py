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

from faults import FaultPlan, level_of, levels_between
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
from repro.sparse.build import csr_from_dense
from repro.sparse.csr import CSRMatrix
from repro.sparse.triangular import (
    LevelGather,
    solve_lower_sequential,
    solve_upper_sequential,
)
from repro.util.validation import read_only
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
            level = LevelPlan(members, np.array([0, members.size]))
            kernels[0].execute_levels(level, kernels[0].compile_levels(level))
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
        assert levels_between(plan, 2, 4).spans == [(0, 1, True),
                                                    (1, 2, False)]
        assert level_of(plan, 9) == 1
        assert level_of(plan, int(bounds[-1]) - 1) == 5

    def test_a_run_stores_its_kept_lanes_alone(self):
        """The Figure 3 kernel runs a level given as a run as one slice
        read from ``xold`` and stores only its kept lanes: a hole keeps
        whatever its own level writes.  The plan's order, built on
        read, is the runs' kept iterations, then the rest's order."""
        ia = np.array([3, 0, 2, 8, 4, 1, 9, 7, 11, 10, 10, 11])
        n = ia.shape[0]
        rng = np.random.default_rng(8)
        x0, b = rng.standard_normal(n), rng.standard_normal(n)
        keep = read_only(np.arange(6) % 4 != 1)  # holes at 1 and 5
        runs = ((0, 6, keep), (6, 12, None))
        tail = read_only(np.array([1, 5]))
        plan = LevelPlan(tail, np.array([0, 4, 10, 11, 12]), runs)
        assert plan.rest.order is tail
        assert np.array_equal(plan.rest.bounds, [0, 1, 2])
        kernel = SimpleLoopKernel(x0, b, ia)
        want = SerialExecutor().run(kernel).copy()
        kernel.start()
        kernel.execute_levels(plan)
        assert same_bits(kernel.result(), want)
        assert np.array_equal(plan.order, [0, 2, 3, 4, *range(6, 12), 1, 5])
        kernel.start()
        kernel.execute_levels(LevelPlan(tail[:0], np.array([0, 4]),
                                        runs[:1]))
        assert same_bits(kernel.x[keep.nonzero()], want[keep.nonzero()])
        assert same_bits(kernel.x[6:], x0[6:])
        assert same_bits(kernel.x[[1, 5]], x0[[1, 5]])


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
# The level-ordered sweep: every bit pattern, flat heads, outside operands
# ----------------------------------------------------------------------

#: A signalling NaN: quiet bit clear, a payload its quieting keeps.
SNAN_BITS = (0x7FF0 << 48) | 0x123


def same_bits(a, b) -> bool:
    """Equal bit patterns: NaN payloads, quiet bits and zero signs too."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def special_rhs(n: int, at) -> np.ndarray:
    """A right-hand side with a signalling NaN, −0.0, +inf and −inf at
    rows ``at`` and another signalling NaN in its last row."""
    b = np.random.default_rng(3).standard_normal(n)
    b[list(at[1:])] = -0.0, np.inf, -np.inf
    b.view(np.uint64)[[at[0], n - 1]] = SNAN_BITS
    return b


def headed_lower(head: int = 2, levels: int = 3, width: int = 6,
                 seed: int = 5) -> CSRMatrix:
    """A chain of ``head`` one-row levels, then ``levels`` wavefronts of
    ``width`` rows: each row reads one row of the level before it, and
    every third row the chain's first row too."""
    rng = np.random.default_rng(seed)
    n = head + levels * width
    indptr, indices = [0, 0], []   # row 0 reads nothing
    for i in range(1, n):
        if i < head:
            cols = {i - 1}
        else:
            start = head + ((i - head) // width - 1) * width  # level before
            cols = {head - 1 if start < head
                    else int(rng.integers(start, start + width))}
            if i % 3 == 0:
                cols.add(0)
        indices.extend(sorted(cols))
        indptr.append(len(indices))
    signs = rng.choice((-1.0, 1.0), len(indices))
    return CSRMatrix(indptr, indices,
                     signs * rng.uniform(0.5, 1.5, len(indices)), (n, n))


def system(l: CSRMatrix, b: np.ndarray, *, lower: bool, unit: bool):
    """``(kernel, oracle)`` of ``l``'s forward solve, or of the backward
    solve of its flipped twin (row ``i`` as row ``n-1-i``), with a unit
    or an explicit diagonal."""
    n = l.nrows
    d = np.random.default_rng(4).uniform(0.5, 2.0, n) * (-1.0) ** np.arange(n)
    kw = {"unit_diagonal": True} if unit else {"diag": d}
    if lower:
        return (TriangularSolveKernel(l, b, **kw),
                solve_lower_sequential(l, b, **kw))
    u, b = csr_from_dense(l.to_dense()[::-1, ::-1]), b[::-1].copy()
    return (UpperTriangularSolveKernel(u, b, **kw),
            solve_upper_sequential(u, b, diag=np.ones(n) if unit else d))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("unit", (True, False), ids=("unit", "diag"))
@pytest.mark.parametrize("lower", (True, False), ids=("lower", "upper"))
class TestLevelOrderedSweep:
    """A span's levels solve into a level-ordered vector that reaches
    ``x`` once; a unit diagonal divides the span by ``1.0`` once.  Bit
    for bit the sequential loops, on every pattern a right-hand side
    can hold."""

    def test_special_values_keep_the_loops_bits(self, lower, unit):
        l = wide_lower()
        kernel, want = system(l, special_rhs(l.nrows, (1, 2, 7, 9)),
                              lower=lower, unit=unit)
        executors = executors_for(kernel.dependence_graph())
        for ex in executors:
            assert same_bits(ex.run(kernel), want)
        assert executors[1].level_plan().spans == [(0, 4, False)]

    def test_a_sweep_after_flat_levels_reads_them_from_x(self, lower, unit):
        l = headed_lower()
        kernel, want = system(l, special_rhs(l.nrows, (0, 1, 4, 9)),
                              lower=lower, unit=unit)
        ex = executors_for(kernel.dependence_graph())[1]
        assert same_bits(ex.run(kernel), want)
        plan = ex.level_plan()
        assert plan.spans == [(0, 2, True), (2, 5, False)]
        gather = kernel.compile_levels(plan)
        assert gather.views[:2] == [None, None]   # walked flat
        # Levels past the first wide one read the chain's first row.
        assert gather.reach[3:].min() == 0

    def test_a_one_batch_plan_reads_its_operands_from_x(self, lower, unit):
        l = wide_lower()
        n = l.nrows
        kernel, want = system(l, special_rhs(n, (1, 2, 7, 9)),
                              lower=lower, unit=unit)
        last = wavefront_members(
            compute_wavefronts(kernel.dependence_graph()))[-1]
        level = LevelPlan(last, np.array([0, last.size]))
        gather = kernel.compile_levels(level)
        (*_, src, _), = gather.views
        assert gather.outside.size and src.min() >= last.size
        kernel.start()
        kernel.x[:] = want
        kernel.x[last if lower else n - 1 - last] = 0.0
        kernel.execute_levels(level, gather)
        assert same_bits(kernel.result(), want)

    def test_a_mapped_kernel_sweeps_in_its_own_level_order(self, lower,
                                                           unit):
        l = wide_lower()
        n = l.nrows
        kernel, want = system(l, special_rhs(n, (1, 2, 7, 9)),
                              lower=lower, unit=unit)
        # Each level's iterations in reverse.  Both kernels' iteration
        # graphs are ``l``'s, so the mapped one is ``l`` with rows and
        # columns permuted alike.
        wf = compute_wavefronts(kernel.dependence_graph())
        forward = np.lexsort((-np.arange(n), wf))
        dep = DependenceGraph.from_lower_csr(
            csr_from_dense(l.to_dense()[np.ix_(forward, forward)]))
        mapped = MappedKernel(kernel, IterationMap(forward))
        for ex in executors_for(dep):
            assert same_bits(ex.run(mapped), want)
            assert ex.kernel_path == "vectorized"


# ----------------------------------------------------------------------
# Matrix values are values: bound read-only, gathered once per binding
# ----------------------------------------------------------------------

def oracle(t, program, *, lower: bool, unit: bool) -> np.ndarray:
    """The sequential loop over what ``program`` (``from_csr`` of ``t``'s
    structure) has bound now."""
    data = program.data
    m, b = t.with_data(data["a"]), data["b"]
    if lower:
        return solve_lower_sequential(m, b, **(
            {"unit_diagonal": True} if unit else {"diag": data["diag"]}))
    return solve_upper_sequential(
        m, b, diag=np.ones(t.nrows) if unit else data["diag"])


def flipped(l: CSRMatrix) -> CSRMatrix:
    """``l`` with row and column ``i`` renumbered ``n-1-i``: upper."""
    return csr_from_dense(l.to_dense()[::-1, ::-1])


def count_holds(monkeypatch) -> list:
    """Spy on the gather plans' one values slot: the slot (0 values, 1
    divisor) of each whole-plan gather, in order."""
    held, values = [], LevelGather.values

    def spy(self, a, lo, hi, *, rows=False):
        before = self.held[rows]
        out = values(self, a, lo, hi, rows=rows)
        if self.held[rows] is not before:
            held.append(int(rows))
        return out

    monkeypatch.setattr(LevelGather, "values", spy)
    return held


class TestValuesAreHeld:
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.booleans(), st.booleans(), st.sampled_from(EXECUTORS))
    @settings(max_examples=40, deadline=None)
    def test_every_rebind_keeps_the_loops_bits(self, n, seed, lower, unit,
                                               executor):
        rng = np.random.default_rng(seed)
        t = triangular(n, seed, lower=lower, inline_diag=False)
        diag = {"unit_diagonal": True} if unit else {
            "diag": rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)}
        loop = Runtime(nproc=3).compile(
            LoopProgram.from_csr(t, rng.standard_normal(n), lower=lower,
                                 **diag), executor=executor)
        rebinds = [{"b": rng.standard_normal(n)},
                   {"a": rng.uniform(-1.5, 1.5, t.nnz)},
                   {"b": rng.standard_normal(n)}]
        if not unit:
            rebinds += [{"diag": rng.uniform(0.5, 2.0, n)},
                        {"b": rng.standard_normal(n)}]
        assert same_bits(loop(with_sim=False).x,
                         oracle(t, loop.program, lower=lower, unit=unit))
        for entries in rebinds:
            loop = loop.rebind(**entries)
            assert same_bits(loop(with_sim=False).x,
                             oracle(t, loop.program, lower=lower, unit=unit))

    @pytest.mark.parametrize("unit", (True, False), ids=("unit", "diag"))
    def test_values_are_gathered_once_per_binding(self, unit, monkeypatch):
        l = wide_lower()
        n = l.nrows
        rng = np.random.default_rng(2)
        diag = {"unit_diagonal": True} if unit else {
            "diag": rng.uniform(0.5, 2.0, n)}
        held = count_holds(monkeypatch)
        loop = Runtime(nproc=2).compile(
            LoopProgram.from_csr(l, rng.standard_normal(n), **diag),
            executor="preschedule", scheduler="global")
        divisor = [] if unit else [1]
        for _ in range(10):
            loop = loop.rebind(b=rng.standard_normal(n))
            assert same_bits(loop(with_sim=False).x,
                             oracle(l, loop.program, lower=True, unit=unit))
        assert held == [0, *divisor]
        loop = loop.rebind(a=l.data * 1.5)
        for _ in range(3):
            assert same_bits(loop(with_sim=False).x,
                             oracle(l, loop.program, lower=True, unit=unit))
        assert held == [0, *divisor, 0]
        if not unit:
            loop.rebind(diag=rng.uniform(0.5, 2.0, n))(with_sim=False)
            assert held == [0, 1, 0, 1]

    @pytest.mark.parametrize("lower", (True, False), ids=("lower", "upper"))
    def test_an_inline_diagonal_is_gathered_once_per_binding(
            self, lower, monkeypatch):
        """A matrix that stores its diagonal divides by one read-only
        copy per bound ``"a"``: it was a fresh writable one per kernel
        build, gathered again on every solve."""
        l = wide_lower()
        n = l.nrows
        rng = np.random.default_rng(4)
        dense = l.to_dense() + np.diag(rng.uniform(0.5, 2.0, n))
        t = csr_from_dense(dense if lower else dense[::-1, ::-1])
        solve = solve_lower_sequential if lower else solve_upper_sequential
        held = count_holds(monkeypatch)
        loop = Runtime(nproc=2).compile(
            LoopProgram.from_csr(t, np.zeros(n), lower=lower),
            executor="preschedule", scheduler="global")
        for _ in range(3):
            loop = loop.rebind(b=rng.standard_normal(n))
            assert same_bits(loop(with_sim=False).x,
                             solve(t, loop.program.data["b"]))
        assert held == [0, 1]
        loop = loop.rebind(a=t.data * 1.5)
        assert same_bits(loop(with_sim=False).x,
                         solve(t.with_data(t.data * 1.5),
                               loop.program.data["b"]))
        assert held == [0, 1, 0, 1]

    @pytest.mark.parametrize("lower", (True, False), ids=("lower", "upper"))
    def test_the_callers_buffers_never_reach_the_loop(self, lower):
        t = wide_lower() if lower else flipped(wide_lower())
        n = t.nrows
        rng = np.random.default_rng(3)
        a, d = t.data.copy(), rng.uniform(0.5, 2.0, n)
        loop = Runtime(nproc=2).compile(
            LoopProgram.from_csr(t.with_data(a), rng.standard_normal(n),
                                 lower=lower, diag=d),
            executor="preschedule", scheduler="global")
        want = loop(with_sim=False).x
        a[:], d[:] = 7.0, -3.0
        assert same_bits(loop(with_sim=False).x, want)
        buffer = t.data * 1.5
        loop = loop.rebind(a=buffer)
        want = oracle(t, loop.program, lower=lower, unit=False)
        assert not np.shares_memory(loop.program.data["a"], buffer)
        buffer[:] = 0.25
        assert same_bits(loop(with_sim=False).x, want)
        assert not any(loop.program.data[name].flags.writeable
                       for name in ("a", "diag"))

    def test_a_hand_built_kernel_sees_a_write_to_its_matrix(self):
        l = wide_lower()
        n = l.nrows
        b, d = np.linspace(-1.0, 1.0, n), np.linspace(0.5, 2.0, n)
        for ex in executors_for(DependenceGraph.from_lower_csr(l)):
            m, diag = l.copy(), d.copy()
            kernel = TriangularSolveKernel(m, b, diag=diag)
            assert same_bits(ex.run(kernel),
                             solve_lower_sequential(m, b, diag=diag))
            m.data *= -2.0
            diag[::2] = 4.0
            assert same_bits(ex.run(kernel),
                             solve_lower_sequential(m, b, diag=diag))
            assert ex._gather[1].held == [None, None]


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
