"""Tests for ``repro.program`` — the declarative loop-program front end.

The load-bearing properties:

* extraction fidelity — declared access patterns produce *exactly* the
  graphs the hand-rolled constructors build (Figure 3, Figure 6,
  Figure 8, both directions);
* recording soundness — trace-recorded programs reproduce the serial
  result bitwise under any executor, and value-dependent access
  patterns are rejected with a clear error;
* rebinding economics — ``loop.rebind`` with unchanged structure
  performs *zero* inspector work (asserted via the session cache and
  compile counters), while changed structure forces a recompile;
* call-path equivalence — program-compiled loops are bit-identical to
  the raw-deps path, including on the migrated krylov triangular-solve
  path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dependence import DependenceGraph
from repro.core.executor import SimpleLoopKernel, TriangularSolveKernel
from repro.errors import ValidationError
from repro.krylov.parallel import ParallelSolver
from repro.machine.costs import MachineCosts
from repro.mesh.problems import get_problem
from repro.program import (
    At,
    LoopProgram,
    Statement,
    extract_statement_dependences,
    extraction,
)
from repro.program.descriptors import serial_events
from repro.program.transform import _permute_access
from repro.runtime import CompiledLoop, Runtime
from repro.sparse.build import random_lower_triangular
from repro.sparse.triangular import solve_lower_sequential, solve_upper_sequential
from repro.util.frontier import counts_to_indptr, rows_from_indptr

from strategies import (indirection_arrays, loop_programs,
                        nested_indirections, seeds)

#: A program of every kind, or Figure 6's nested references (a 2-D
#: index: ``m`` elements per iteration).
any_program = st.one_of(loop_programs(), nested_indirections().map(
    lambda g: LoopProgram(g.shape[0], reads=[At("x", g), At("x")],
                          writes=[At("x")])))


@pytest.fixture()
def fig3():
    rng = np.random.default_rng(7)
    n = 300
    ia = rng.integers(0, n, size=n)
    x0 = rng.standard_normal(n)
    b = 0.5 * rng.standard_normal(n)
    return n, ia, x0, b


def row_pointer(acc, n: int) -> np.ndarray:
    """The row pointer of a resolved access: its own if ragged, the one
    a fixed width used to build (``arange(n + 1) * width``) if not."""
    if acc.width is None:
        return acc.indptr
    return np.arange(n + 1) * acc.width


def graphs_equal(a: DependenceGraph, b: DependenceGraph) -> bool:
    return (a.n == b.n and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


# ----------------------------------------------------------------------
# Descriptors: declaration-time validation
# ----------------------------------------------------------------------

class TestDescriptors:
    def test_mismatched_length_fails_at_declaration(self):
        with pytest.raises(ValidationError, match="expected one per iteration"):
            LoopProgram(5, reads=[At("x", np.zeros(4, dtype=np.int64))],
                        writes=[At("x")])

    def test_mismatched_2d_rows_fail(self):
        with pytest.raises(ValidationError, match="index rows"):
            LoopProgram(5, reads=[At("x", np.zeros((3, 2), dtype=np.int64))],
                        writes=[At("x")])

    def test_ragged_indptr_length_checked(self):
        with pytest.raises(ValidationError, match="indptr"):
            LoopProgram(5, reads=[At("x", (np.zeros(3, dtype=np.int64),
                                           np.zeros(0, dtype=np.int64)))],
                        writes=[At("x")])

    def test_negative_indices_rejected(self):
        idx = np.array([0, -1, 2], dtype=np.int64)
        with pytest.raises(ValidationError, match="negative"):
            LoopProgram(3, reads=[At("x", idx)], writes=[At("x")])

    def test_dangling_index_name_fails_eagerly(self):
        with pytest.raises(ValidationError, match="not bound"):
            LoopProgram(3, reads=[At("x", "ia")], writes=[At("x")], data={})

    def test_non_descriptor_rejected(self):
        with pytest.raises(ValidationError, match="At"):
            LoopProgram(3, reads=["x"], writes=[At("x")])

    @staticmethod
    def accesses(prog):
        return [(s, acc) for s, (rr, ww) in enumerate(prog._stmt_resolved)
                for acc in rr + ww]

    @settings(max_examples=80, deadline=None)
    @given(any_program)
    def test_pairs_are_the_row_pointer_expansion(self, prog):
        # A fixed-width access keeps no row pointer: its pairs are each
        # iteration repeated width times beside its row of the index; a
        # ragged one expands its row pointer.  A given arange(n) is the
        # iteration index itself.
        n = prog.n
        every = np.arange(n, dtype=np.int64)
        for _, acc in self.accesses(prog):
            it, el = acc.pairs(n)
            if acc.width is None:
                want = (rows_from_indptr(acc.indptr), acc.indices)
            else:
                assert acc.indptr is None
                want = (np.repeat(np.arange(n), acc.width),
                        np.arange(n) if acc.identity else acc.indices)
            assert it.dtype == el.dtype == np.int64
            assert np.array_equal(it, want[0])
            assert np.array_equal(el, want[1])
            if acc.width == 1:
                assert acc.pairs(n, every)[0] is every
            if acc.identity:
                assert acc.pairs(n, every)[1] is every

    @settings(max_examples=80, deadline=None)
    @given(any_program, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_unit_work_prices_a_width_as_its_row_pointer(self, prog, base,
                                                           per_dep):
        # t_work_per_dep * width is the product the row pointer's
        # np.diff gave, element for element.
        costs = MachineCosts(t_work_base=base, t_work_per_dep=per_dep)
        want = np.zeros(prog.n)
        for rr, _ in prog._stmt_resolved:
            want += costs.t_work_base
            for acc in rr:
                if acc.identity:
                    want += costs.t_work_per_dep
                else:
                    counts = np.diff(row_pointer(acc, prog.n))
                    want += costs.t_work_per_dep * counts
        assert prog.unit_work(costs).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(any_program, seeds)
    def test_a_permuted_width_is_the_permuted_row_pointer(self, prog, seed):
        # A skewed fixed-width access is the ragged descriptor the row
        # pointer gave, so a skewed program keeps its structure hash.
        forward = np.random.default_rng(seed).permutation(prog.n)
        for _, acc in self.accesses(prog):
            if acc.identity:
                continue
            indptr = row_pointer(acc, prog.n)
            counts = np.diff(indptr)[forward]
            want_ptr = counts_to_indptr(counts)
            take = (np.repeat(indptr[:-1][forward], counts)
                    + np.arange(int(want_ptr[-1]), dtype=np.int64)
                    - np.repeat(want_ptr[:-1], counts))
            got = _permute_access(acc, forward).index
            assert np.array_equal(got[0], want_ptr)
            assert np.array_equal(got[1], acc.indices[take])
            assert not (got[0].flags.writeable or got[1].flags.writeable)

    @settings(max_examples=80, deadline=None)
    @given(any_program)
    def test_serial_events_concatenate_only_several_parts(self, prog):
        n, tagged = prog.n, self.accesses(prog)
        S = prog.num_statements
        for s, acc in tagged:                  # one part: as it is
            pos, el = serial_events(n, [(s, acc)])
            it, want_el = acc.pairs(n)
            assert np.array_equal(pos, it) and np.array_equal(el, want_el)
            if not acc.identity and acc.indices.dtype == np.int64:
                assert el is acc.indices
        pos, el = serial_events(n, tagged, S)  # several: in order
        none = np.empty(0, dtype=np.int64)
        parts = [acc.pairs(n) for _, acc in tagged]
        assert np.array_equal(pos, np.concatenate(
            [none] + [it * S + s for (s, _), (it, _) in zip(tagged, parts)]))
        assert np.array_equal(el, np.concatenate([none] + [e for _, e in parts]))


# ----------------------------------------------------------------------
# Extraction fidelity against the hand-rolled constructors
# ----------------------------------------------------------------------

def general_collapse(prog) -> DependenceGraph:
    """``prog``'s graph by the general collapse, the Figure 3 factory
    shortcut switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extraction, "_indirection_index", lambda _: None)
        return extract_statement_dependences(prog.n, prog._stmt_resolved)[0]


def takes_factory(prog) -> bool:
    return extraction._indirection_index(prog._stmt_resolved) is not None


def follows_index_rule(dep: DependenceGraph, ia) -> bool:
    """Iteration ``i`` depends on ``ia[i]`` iff ``ia[i] < i``."""
    backward = ia < np.arange(ia.shape[0])
    return (np.array_equal(dep.dep_counts(), backward)
            and np.array_equal(dep.indices, ia[backward]))


class TestExtraction:
    def test_figure3_matches_from_indirection(self, fig3):
        # The extractor hands Figure 3 to the factory itself, so the
        # factory is held to the general collapse.
        n, ia, _, _ = fig3
        prog = LoopProgram.from_indirection(ia)
        assert takes_factory(prog)
        assert graphs_equal(general_collapse(prog),
                            DependenceGraph.from_indirection(ia))

    @settings(max_examples=80, deadline=None)
    @given(indirection_arrays())
    def test_figure3_factory_is_the_general_collapse(self, case):
        """Metamorphic: reading the index twice forces the general
        collapse and dedupe; the graph is the factory's, byte for byte,
        and both follow the per-index rule."""
        _, _, ia = case
        n = ia.shape[0]
        once = LoopProgram(n, reads=[At("x", ia), At("b")], writes=[At("x")])
        twice = LoopProgram(n, reads=[At("x", ia), At("x", ia), At("b")],
                            writes=[At("x")])
        assert takes_factory(once) and not takes_factory(twice)
        a, b = once.dependence_graph(), twice.dependence_graph()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert a.digest == b.digest
        assert follows_index_rule(a, ia) and follows_index_rule(b, ia)

    @pytest.mark.parametrize("case", [
        "n=1", "self", "all-forward", "backward-chain", "one-column",
        "rebound", "identity-read"])
    def test_figure3_factory_pinned_cases(self, case):
        ia = {"n=1": np.array([0]), "self": np.arange(6),
              "all-forward": np.full(6, 5),
              "backward-chain": np.maximum(np.arange(6) - 1, 0)}.get(
                  case, np.array([0, 0, 1, 5, 2, 3]))
        n = ia.shape[0]
        if case == "one-column":
            prog = LoopProgram(n, reads=[At("x", ia[:, None])],
                               writes=[At("x")])
        elif case == "rebound":
            prog = LoopProgram.from_indirection(np.full(n, n - 1))
            prog.dependence_graph()
            prog = prog.with_data(ia=ia)
        elif case == "identity-read":
            prog = LoopProgram(n, reads=[At("x"), At("x", ia), At("b")],
                               writes=[At("x")])
        else:
            prog = LoopProgram.from_indirection(ia)
        assert takes_factory(prog)
        dep = prog.dependence_graph()
        assert graphs_equal(dep, general_collapse(prog))
        assert follows_index_rule(dep, ia)

    def test_a_second_written_array_or_statement_takes_the_collapse(self):
        ia = np.array([0, 0, 1, 5, 2, 3])
        n = ia.shape[0]
        two_arrays = LoopProgram(n, reads=[At("x", ia), At("y", ia)],
                                 writes=[At("x"), At("y")])
        two_stmts = LoopProgram(n, statements=[
            Statement([At("x", ia)], [At("x")]),
            Statement([At("y")], [At("y")])])
        for prog in (two_arrays, two_stmts):
            assert not takes_factory(prog)
            assert follows_index_rule(prog.dependence_graph(), ia)

    def test_nested_matches_from_indirection_nested(self):
        rng = np.random.default_rng(3)
        g = rng.integers(0, 50, size=(50, 3))
        prog = LoopProgram(50, reads=[At("y", g)], writes=[At("y")])
        assert graphs_equal(prog.dependence_graph(),
                            DependenceGraph.from_indirection_nested(g))

    def test_figure8_matches_from_lower_csr(self):
        l = random_lower_triangular(120, avg_off_diag=4.0, seed=11)
        prog = LoopProgram.from_csr(l)
        assert graphs_equal(prog.dependence_graph(),
                            DependenceGraph.from_lower_csr(l))

    def test_upper_matches_from_upper_csr_structure(self):
        prob = get_problem("5-PT", scale=0.2)
        solver = ParallelSolver(prob.a, 4)
        u = solver.precond.factorization.u
        got = LoopProgram.from_csr(u, lower=False).dependence_graph()
        ref = DependenceGraph.from_upper_csr(u)
        assert np.array_equal(got.indptr, ref.indptr)
        for i in range(got.n):
            assert np.array_equal(np.sort(got.deps(i)), np.sort(ref.deps(i)))

    def test_read_only_arrays_carry_no_dependences(self):
        idx = np.array([2, 2, 2, 2], dtype=np.int64)
        prog = LoopProgram(4, reads=[At("b", idx)], writes=[At("x")])
        assert prog.dependence_graph().num_edges == 0

    def test_multi_writer_output_and_anti_edges(self):
        # Iterations 0 and 2 write element 0; iteration 1 reads it.
        # Flow 0→1, anti 1→2 (the live read must precede the next
        # write), output 0→2.
        reads = [At("x", (np.array([0, 0, 1, 1]), np.array([0])))]
        writes = [At("x", (np.array([0, 1, 1, 2]), np.array([0, 0])))]
        prog = LoopProgram(3, reads=reads, writes=writes)
        dep = prog.dependence_graph()
        assert list(dep.deps(1)) == [0]
        assert sorted(dep.deps(2).tolist()) == [0, 1]

    @settings(max_examples=80, deadline=None)
    @given(loop_programs())
    def test_dedupe_is_np_unique_on_every_program_kind(self, prog):
        """Duplicate pairs collapse by a sort and an adjacent-difference
        mask: the graph ``np.unique`` gave, byte for byte."""
        got, _ = extract_statement_dependences(prog.n, prog._stmt_resolved)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extraction, "_distinct", np.unique)
            want, _ = extract_statement_dependences(prog.n,
                                                    prog._stmt_resolved)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_renamed_forward_read_carries_no_edge(self):
        # Iteration 0 reads element 1, written only by iteration 1 —
        # the xold renaming, no dependence either way.
        reads = [At("x", (np.array([0, 1, 1]), np.array([1])))]
        writes = [At("x", (np.array([0, 0, 1]), np.array([1])))]
        dep = LoopProgram(2, reads=reads, writes=writes).dependence_graph()
        assert dep.num_edges == 0


class TestOneExtractor:
    """A flat declaration is the one-statement case of the one
    extractor, and the Figure 3 / Figure 8 shapes it fast-paths equal
    the hand-rolled graph constructors."""

    @staticmethod
    def same_three_ways(n, reads, writes, canonical=None):
        flat = LoopProgram(n, reads=reads, writes=writes)
        stmt = LoopProgram(n, statements=[Statement(reads, writes)])
        direct, adj = extract_statement_dependences(
            n, [flat.resolved_accesses()])
        assert not adj.any() and adj.shape == (1, 1)
        assert flat.structure_hash() == stmt.structure_hash()
        graphs = [flat.dependence_graph(), stmt.dependence_graph(), direct]
        if canonical is not None:
            graphs.append(canonical)
        for g in graphs[1:]:
            assert graphs_equal(graphs[0], g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_figure3_and_figure8_shapes(self, data):
        n = data.draw(st.integers(0, 40))
        ia = np.asarray(data.draw(st.lists(
            st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)),
            dtype=np.int64)
        self.same_three_ways(n, [At("x", ia), At("b")], [At("x")],
                             DependenceGraph.from_indirection(ia, n))
        l = random_lower_triangular(
            n + 1, avg_off_diag=data.draw(st.floats(0.0, 4.0)),
            seed=data.draw(st.integers(0, 99)))
        fig8 = LoopProgram.from_csr(l)
        self.same_three_ways(l.nrows, fig8.reads, fig8.writes,
                             DependenceGraph.from_lower_csr(l))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_general_declarations(self, data):
        # Duplicate writers, ragged reads, several arrays: the general
        # branch, where flow, anti and output edges all arise.
        n = data.draw(st.integers(1, 25))
        elements = st.integers(0, n + 2)

        def access(name):
            if data.draw(st.booleans()):
                return At(name)
            counts = data.draw(st.lists(st.integers(0, 3), min_size=n,
                                        max_size=n))
            return At.from_counts(name, counts, data.draw(st.lists(
                elements, min_size=sum(counts), max_size=sum(counts))))

        names = st.sampled_from(["x", "y"])
        reads = [access(data.draw(names))
                 for _ in range(data.draw(st.integers(0, 3)))]
        writes = [access(data.draw(names))
                  for _ in range(data.draw(st.integers(1, 3)))]
        self.same_three_ways(n, reads, writes)


# ----------------------------------------------------------------------
# Trace recording
# ----------------------------------------------------------------------

class TestRecording:
    def test_recorded_figure3_graph_and_result_bitwise(self, fig3):
        n, ia, x0, b = fig3

        def body(i, a):
            a.x[i] = a.x[i] + a.b[i] * a.x[int(ia[i])]

        prog = LoopProgram.record(n, body, x=x0, b=b)
        assert graphs_equal(prog.dependence_graph(),
                            DependenceGraph.from_indirection(ia))
        rt = Runtime(nproc=4)
        got = rt.compile(prog, executor="self", scheduler="global")()
        ref = rt.compile(ia, executor="self", scheduler="global")(
            SimpleLoopKernel(x0, b, ia))
        assert np.array_equal(got.x, ref.x)

    def test_multi_writer_recording_matches_sequential(self):
        # An accumulator rewritten by several iterations: needs the
        # anti/output edges, and replay must still equal the serial
        # sweep bit for bit under a reordering executor.
        rng = np.random.default_rng(5)
        n = 60
        target = rng.integers(0, 8, size=n)
        vals = rng.standard_normal(n)

        def body(i, a):
            a.acc[int(target[i])] = a.acc[int(target[i])] + a.vals[i]

        acc0 = np.zeros(8)
        prog = LoopProgram.record(n, body, acc=acc0, vals=vals)
        rt = Runtime(nproc=3)
        got = rt.compile(prog, executor="self", scheduler="global")()

        ref = acc0.copy()
        for i in range(n):
            ref[target[i]] += vals[i]
        assert np.array_equal(got.x, ref)

    def test_data_dependent_branch_raises(self):
        def body(i, a):
            if a.x[i] > 0:
                a.x[i] = 1.0

        with pytest.raises(ValidationError,
                           match="data-dependent control flow"):
            LoopProgram.record(4, body, x=np.ones(4))

    def test_data_dependent_subscript_raises(self):
        def body(i, a):
            a.x[i] = a.b[int(a.x[i])]

        with pytest.raises(ValidationError,
                           match="data-dependent control flow"):
            LoopProgram.record(4, body, x=np.ones(4), b=np.ones(4))

    def test_bound_index_array_gets_the_close_over_hint(self, fig3):
        # The commonest recording mistake: the index array passed as
        # data, so its entries are traced values, not subscripts.
        n, ia, x0, b = fig3

        def body(i, a):
            a.x[i] = a.x[i] + a.b[i] * a.x[a.ia[i]]

        with pytest.raises(ValidationError,
                           match=r"close over it \(a\.x\[ia\[i\]\]\)"):
            LoopProgram.record(n, body, x=x0, b=b, ia=ia)

    def test_undeclared_array_raises(self):
        def body(i, a):
            a.y[i] = 0.0

        with pytest.raises(ValidationError, match="undeclared array"):
            LoopProgram.record(2, body, x=np.ones(2))

    def test_slice_access_rejected(self):
        def body(i, a):
            a.x[:] = 0.0

        with pytest.raises(ValidationError, match="scalar integer"):
            LoopProgram.record(2, body, x=np.ones(2))

    def test_threads_backend_rejects_recorded_kernel(self, fig3):
        # Replay proxies keep per-iteration state; racing them would
        # silently corrupt numerics, so the threads backend refuses.
        n, ia, x0, b = fig3

        def body(i, a):
            a.x[i] = a.x[i] + a.b[i] * a.x[int(ia[i])]

        rt = Runtime(nproc=2)
        loop = rt.compile(LoopProgram.record(n, body, x=x0, b=b))
        with pytest.raises(ValidationError, match="not.*thread-safe"):
            loop(backend="threads")
        assert loop(backend="serial").x is not None


# ----------------------------------------------------------------------
# Program-compiled loops: binding, calling, rebinding
# ----------------------------------------------------------------------

class TestBoundLoop:
    def test_compile_returns_bound_loop_and_runs_kernel_free(self, fig3):
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        prog = LoopProgram.from_indirection(ia, x=x0, b=b)
        loop = rt.compile(prog)
        assert type(loop) is CompiledLoop
        assert loop.program is prog and loop.bound_kernel is not None
        assert loop.plan.kind == "scheduled"
        got = loop()
        ref = rt.compile(ia)(SimpleLoopKernel(x0, b, ia))
        assert np.array_equal(got.x, ref.x)
        # Identical structure: the raw-deps compile hits the entry the
        # program compile populated — one shared cache key.
        assert ref.cache_hit

    def test_explicit_kernel_overrides_bound(self, fig3):
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b))
        other = SimpleLoopKernel(np.zeros(n), b, ia)
        got = loop(other)
        assert np.array_equal(got.x, rt.compile(ia)(other).x)

    def test_unbound_program_requires_kernel_per_call(self, fig3):
        _, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia))  # deps only
        with pytest.raises(ValidationError, match="pass one"):
            loop()
        assert loop(SimpleLoopKernel(x0, b, ia)).x is not None

    def test_rebind_unchanged_structure_zero_inspector_work(self, fig3):
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b))
        stats = rt.cache_stats.snapshot()
        plan = loop.plan

        x1 = np.linspace(-1.0, 1.0, n)
        same = loop.rebind(x=x1)
        assert same is loop
        assert loop.rebinds == 1
        # Zero inspector work: no cache lookups, no compiles happened.
        after = rt.cache_stats
        assert after.lookups == stats.lookups
        assert after.misses == stats.misses
        assert loop.plan is plan

        got = loop()
        ref = rt.compile(ia)(SimpleLoopKernel(x1, b, ia))
        assert np.array_equal(got.x, ref.x)

    def test_rebind_changed_structure_recompiles(self, fig3):
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b))
        misses = rt.cache_stats.misses

        ia2 = np.roll(ia, 1)
        fresh = loop.rebind(ia=ia2)
        assert fresh is not loop  # must recompile, not silently reuse
        assert rt.cache_stats.misses == misses + 1  # new structure inspected
        assert fresh.executor_name == loop.executor_name
        assert fresh.scheduler_name == loop.scheduler_name
        got = fresh()
        ref = rt.compile(ia2)(SimpleLoopKernel(x0, b, ia2))
        assert np.array_equal(got.x, ref.x)

    def test_rebind_equal_indices_reuses(self, fig3):
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b))
        lookups = rt.cache_stats.lookups
        same = loop.rebind(ia=ia.copy())  # same values: structure hash equal
        assert same is loop
        assert rt.cache_stats.lookups == lookups

    def test_rebind_rejects_instance_kernel(self, fig3):
        # A ready-made kernel instance captured its arrays at
        # construction; rebinding could never reach them, so it must
        # fail loudly instead of silently executing stale data.
        n, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        prog = LoopProgram(n, reads=(At("x", "ia"), At("b")),
                           writes=(At("x"),),
                           kernel=SimpleLoopKernel(x0, b, ia),
                           data={"ia": ia, "x": x0, "b": b})
        assert not prog.rebindable
        loop = rt.compile(prog)
        assert np.array_equal(loop().x, rt.compile(ia)(
            SimpleLoopKernel(x0, b, ia)).x)
        with pytest.raises(ValidationError, match="kernel instance"):
            loop.rebind(x=np.zeros(n))
        with pytest.raises(ValidationError, match="kernel instance"):
            loop.rebind(ia=np.roll(ia, 1))

    def test_rebind_unknown_name_fails(self, fig3):
        _, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b))
        with pytest.raises(ValidationError, match="unknown data entries"):
            loop.rebind(nope=np.zeros(3))

    def test_auto_strategy_attaches_verdict_to_program(self, fig3):
        _, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b),
                          strategy="auto")
        assert type(loop) is CompiledLoop and loop.program is not None
        assert loop.verdict is not None
        assert loop.verdict.spec.label()
        assert loop().x is not None

    def test_run_accepts_program_directly(self, fig3):
        _, ia, x0, b = fig3
        rt = Runtime(nproc=4)
        rep = rt.run(LoopProgram.from_indirection(ia, x=x0, b=b))
        ref = rt.compile(ia)(SimpleLoopKernel(x0, b, ia))
        assert np.array_equal(rep.x, ref.x)


# ----------------------------------------------------------------------
# The migrated workloads
# ----------------------------------------------------------------------

class TestMigratedPaths:
    def test_krylov_rebound_solve_bitwise_identical_to_raw_path(self):
        """Acceptance: rebound executions on the krylov triangular-solve
        path reproduce the pre-redesign call path bit for bit."""
        prob = get_problem("5-PT", scale=0.25)
        solver = ParallelSolver(prob.a, 4, executor="self",
                                scheduler="global")
        lu = solver.pattern
        lower_plan = solver.lower_loop.plan
        stats = solver.lower_loop.runtime.cache_stats.snapshot()
        raw_rt = Runtime(nproc=4)
        raw_dep = DependenceGraph.from_lower_csr(lu)
        rng = np.random.default_rng(17)
        for _ in range(3):
            rhs = rng.standard_normal(prob.n)
            got = solver.triangular_solve(rhs)
            ref = raw_rt.compile(raw_dep, executor="self",
                                 scheduler="global")(
                TriangularSolveKernel(lu, rhs, unit_diagonal=True),
                with_sim=False)
            assert np.array_equal(got, ref.x)
        assert solver.lower_loop.rebinds == 3
        # The rebinds paid zero inspections: no compile after the first.
        assert solver.lower_loop.runtime.cache_stats == stats
        assert solver.lower_loop.plan is lower_plan

    def test_krylov_upper_solve_matches_sequential(self):
        prob = get_problem("5-PT", scale=0.25)
        solver = ParallelSolver(prob.a, 4)
        f = solver.precond.factorization
        rhs = np.linspace(0.5, 1.5, prob.n)
        got = solver.triangular_solve(rhs, upper=True)
        assert np.allclose(got, solve_upper_sequential(f.u, rhs))

    def test_mesh_problem_program_solves(self):
        prob = get_problem("9-PT", scale=0.2)
        prog = prob.loop_program()
        rt = Runtime(nproc=4)
        loop = rt.compile(prog, executor="preschedule", scheduler="global")
        got = loop(with_sim=False)
        from repro.sparse.triangular import split_triangular

        l_strict, _, _ = split_triangular(prob.a)
        ref = solve_lower_sequential(l_strict, prob.b, unit_diagonal=True)
        assert np.allclose(got.x, ref)

    def test_mesh_problem_factored_program(self):
        prob = get_problem("5-PT", scale=0.2)
        prog = prob.loop_program(factored=True)
        rt = Runtime(nproc=4)
        rep = rt.run(prog)
        assert rep.x.shape == (prob.n,)
        assert np.all(np.isfinite(rep.x))


# ----------------------------------------------------------------------
# Satellite: enumerate_space reads balance options from metadata
# ----------------------------------------------------------------------

class TestBalanceMetadataSpace:
    def test_new_balance_consuming_scheduler_enumerated(self):
        from repro.core.schedule import local_schedule
        from repro.runtime.registry import (
            register_scheduler,
            scheduler_registry,
        )
        from repro.tuning import enumerate_space

        @register_scheduler("test-balanced", consumes_balance=True,
                            balance_options=("wrapped", "greedy"))
        def balanced(wf, owner, nproc, *, balance="wrapped", weights=None):
            return local_schedule(wf, owner, nproc)

        try:
            specs = enumerate_space(1000, 4)
            mine = {(s.assignment, s.balance) for s in specs
                    if s.scheduler == "test-balanced"}
            balances = {bal for _, bal in mine}
            # Both declared options crossed, automatically.
            assert balances == {"wrapped", "greedy"}
            # Assignment-preserving: crossed with partitioners too.
            assert len({a for a, _ in mine}) > 1
        finally:
            scheduler_registry.unregister("test-balanced")

    def test_repartitioning_metadata_pins_assignment(self):
        from repro.tuning import enumerate_space

        for s in enumerate_space(1000, 4):
            if s.scheduler.startswith("global"):
                assert s.assignment == "wrapped"
            if s.scheduler.startswith(("local", "identity")):
                assert s.balance == "wrapped"
