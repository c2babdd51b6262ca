"""Tape-compiled replay: taped steps against the proxy walk.

Contract under test: a statement body whose arithmetic the tape can
express runs through steps compiled once per structure — whole levels
as gather → ufunc → scatter, runs of narrow levels as a generated
scalar loop — and the result is bit for bit what the per-iteration
proxy walk computes (``SerialExecutor`` drives ``execute_index``, which
is always that walk).  Bodies the tape cannot express, and bindings
that are not ``float64``, keep the proxy walk, results and exceptions
unchanged.  Everything structural is built once: counts, never
timings, pin that.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultPlan, LoopProgram, Runtime
from repro.core.executor import FLAT_LEVEL, LevelPlan, SerialExecutor
from repro.errors import InjectedFault, ValidationError
from repro.program import (
    At,
    MappedKernel,
    StagedPlan,
    Statement,
    enumerate_variants,
)
from repro.program.tape import LIST_SPAN
from repro.runtime import CompiledLoop
from repro.sparse.build import random_lower_triangular
from repro.workload import stencil_program, sweep_program
from strategies import EXECUTORS, generated_program, programs



def bitwise(a, b) -> bool:
    """Equal bit patterns (any NaN counts as any NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64),
                                   b[~nan].view(np.int64)))


def outputs(program, x) -> dict:
    if isinstance(x, dict):
        return x
    names = list(dict.fromkeys(
        acc.array for acc in program.resolved_accesses()[1]))
    return {names[0]: x}


def proxy_walk(program) -> dict:
    """The program run one iteration at a time over the proxies."""
    with np.errstate(all="ignore"):
        out = SerialExecutor().run(program.make_kernel())
    return {k: v.copy() for k, v in outputs(program, out).items()}


def assert_same(program, x, want) -> None:
    got = outputs(program, x)
    assert set(got) == set(want)
    for name in want:
        assert bitwise(got[name], want[name]), name


# ----------------------------------------------------------------------
# Generated straight-line bodies
# ----------------------------------------------------------------------

class TestGeneratedBodies:
    @given(programs)
    @settings(max_examples=150, deadline=None)
    def test_every_variant_and_executor_equals_the_proxy_walk(self, case):
        rows, cols, shaped, specs, seed, executor = case
        program = generated_program(rows, cols, shaped, specs, seed)
        want = proxy_walk(program)
        rt = Runtime(nproc=3)
        for variant in enumerate_variants(program):
            loops = [rt.compile(stage.program, executor=executor)
                     for stage in variant.stages]
            staged = CompiledLoop(rt, StagedPlan(variant, loops),
                                  program=program)
            with np.errstate(all="ignore"):
                assert_same(program, staged().x, want)
            for loop in loops:
                assert loop.executor.kernel_path == "vectorized"

    @given(st.integers(1, 40), st.integers(0, 2**31 - 1),
           st.sampled_from(EXECUTORS), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_level_widths_on_both_sides_of_flat_level(self, n, seed,
                                                      executor, reach):
        # reach 0: one wide level; 1: a chain of one-wide levels;
        # 2, 3: levels FLAT_LEVEL wide and one wider.
        rng = np.random.default_rng(seed)

        def body(i, a):
            if reach and i >= reach:
                a.x[i] = a.x[i - reach] * 0.75 + a.b[i]
            else:
                a.x[i] = a.b[i] - a.x[i]

        program = LoopProgram.record(n, body, x=rng.standard_normal(n),
                                     b=rng.standard_normal(n))
        loop = Runtime(nproc=2).compile(program, executor=executor)
        assert_same(program, loop().x, proxy_walk(program))
        widths = np.diff(loop.executor.level_plan().bounds)
        if reach and n > 2 * reach:
            assert widths.max() <= reach
        assert loop.executor.kernel_path == "vectorized"
        assert FLAT_LEVEL == 2  # the widths above straddle it


# ----------------------------------------------------------------------
# The paper's loop shapes, recorded from the loop bodies as written
# ----------------------------------------------------------------------

def paper_loops() -> dict:
    """``name -> (n, body, arrays)``: Figures 3, 6 and 8 and their
    variations, index arrays closed over, values bound as data."""
    rng = np.random.default_rng(41)
    n, m = 60, 3
    ia, ib = rng.integers(0, n, size=n), rng.integers(0, n, size=n)
    g = rng.integers(0, n, size=(n, m))
    # Figure 8's ija format: row pointers in ija[:n + 1], the strictly
    # lower column indices (and, in a, their values) behind them.
    lower = random_lower_triangular(n, avg_off_diag=2, seed=3)
    rows = lower.row_of_nnz()
    strict = lower.indices < rows
    ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[strict],
                                                     minlength=n))])
    ija = np.concatenate([ptr + n + 1, lower.indices[strict]])
    coeff = np.concatenate([np.zeros(n + 1), lower.data[strict]])

    def figure3(i, a):
        a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]]

    def augmented(i, a):
        a.x[i] += a.b[i] * a.x[ia[i]]

    def doall(i, a):
        a.x[i] = a.x[i] * a.b[i]

    def two_reads(i, a):
        a.x[i] = a.x[i] + a.x[ia[i]] * a.x[ib[i]]

    def figure6(i, a):
        temp = a.f[i]
        for j in range(m):
            a.y[i] = a.y[i] + temp * a.y[g[i, j]]

    def figure8(i, a):
        # Reads back, within the iteration, what it just wrote.
        a.y[i] = a.rhs[i]
        for k in range(ija[i], ija[i + 1]):
            a.y[i] = a.y[i] - a.a[k] * a.y[ija[k]]

    def figure8_accumulated(i, a):
        acc = a.rhs[i]
        for k in range(ija[i], ija[i + 1]):
            acc = acc - a.a[k] * a.y[ija[k]]
        a.y[i] = acc

    x, b = rng.standard_normal(n), rng.standard_normal(n)
    solve = dict(y=np.zeros(n), rhs=rng.standard_normal(n), a=coeff)
    return {
        "figure3": (n, figure3, dict(x=x, b=b)),
        "augmented": (n, augmented, dict(x=x, b=b)),
        "doall": (n, doall, dict(x=x, b=b)),
        "two_reads": (n, two_reads, dict(x=x)),
        "figure6": (n, figure6, dict(y=x, f=0.2 * b)),
        "figure8": (n, figure8, solve),
        "figure8_accumulated": (n, figure8_accumulated, solve),
    }


PAPER_LOOPS = paper_loops()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", PAPER_LOOPS)
def test_paper_loops_equal_the_plain_loop(name, executor):
    n, body, arrays = PAPER_LOOPS[name]
    before = {k: v.copy() for k, v in arrays.items()}
    plain = SimpleNamespace(**{k: v.copy() for k, v in arrays.items()})
    for i in range(n):
        body(i, plain)
    program = LoopProgram.record(n, body, **arrays)
    if name == "doall":
        assert program.dependence_graph().num_edges == 0
    loop = Runtime(nproc=3).compile(program, executor=executor)
    x = loop().x
    (written,) = outputs(program, x)
    assert np.array_equal(x, getattr(plain, written))
    assert loop.executor.kernel_path == "vectorized"
    # The caller's arrays are never written through.
    assert all(np.array_equal(arrays[k], before[k]) for k in arrays)


# ----------------------------------------------------------------------
# Named edge cases
# ----------------------------------------------------------------------

def scheduled(program, executor="self", **runtime):
    return Runtime(nproc=3, **runtime).compile(program, executor=executor)


def chain_program(n, x, d, divide=True):
    def body(i, a):
        if i:
            a.x[i] = (a.x[i - 1] / a.d[i] if divide
                      else a.x[i - 1] * a.d[i]) + 1.0
        else:
            a.x[i] = 1.0
    return LoopProgram.record(n, body, x=x, d=d)


class TestEdgeCases:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_empty_loop(self, executor):
        program = LoopProgram(
            0, statements=[Statement(
                reads=(At("x"),), writes=(At("x"),),
                body=lambda i, a: a.x.__setitem__(i, a.x[i] + 1.0))],
            data={"x": np.empty(0)})
        loop = scheduled(program, executor)
        assert loop().x.shape == (0,)
        assert loop.executor.kernel_path == "vectorized"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_statements_that_read_nothing(self, executor):
        scale = np.linspace(1.0, 2.0, 12)

        def fill(i, a):
            a.x[i] = scale[i]      # a per-iteration constant

        def mark(i, a):
            a.y[i] = -3            # a literal, an int

        program = LoopProgram.record(12, [fill, mark], x=np.zeros(12),
                                     y=np.ones(12))
        loop = scheduled(program, executor)
        assert_same(program, loop().x, {"x": scale, "y": np.full(12, -3.0)})
        assert loop.executor.kernel_path == "vectorized"

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("shape", ["chain", "wide"])
    def test_division_by_zero_yields_inf_and_nan_like_the_walk(
            self, executor, shape):
        # Python floats would raise ZeroDivisionError where numpy
        # scalars and arrays give inf / nan: a tape holding "/" must
        # never run over list copies.
        n = 8 * LIST_SPAN
        d = np.linspace(-1.0, 1.0, n)
        d[::5] = 0.0
        if shape == "chain":
            program = chain_program(n, np.zeros(n), d)
        else:
            program = LoopProgram.record(
                n, lambda i, a: a.x.__setitem__(i, (a.x[i] - a.x[i]) / a.d[i]),
                x=np.linspace(1.0, 2.0, n), d=d)
        want = proxy_walk(program)
        assert not np.isfinite(want["x"]).all()
        loop = scheduled(program, executor)
        with np.errstate(all="ignore"):
            assert_same(program, loop().x, want)
        assert loop.executor.kernel_path == "vectorized"

    def test_long_narrow_spans_walk_list_copies_in_place(self):
        # The chain without "/" is long enough for the list walk; the
        # result array must stay the object start() handed out.
        n = 8 * LIST_SPAN
        program = chain_program(n, np.zeros(n), np.linspace(0.5, 1.5, n),
                                divide=False)
        kernel = program.make_kernel()
        levels = LevelPlan(np.arange(n), np.arange(n + 1))
        steps = kernel.compile_levels(levels)
        assert [s.flat for s in steps.spans] == [True]
        assert steps.spans[0].listable == n
        kernel.start()
        x = kernel.result()
        kernel.execute_levels(levels, steps)
        assert kernel.result() is x
        assert_same(program, x, proxy_walk(program))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_keep_the_proxy_walk(self, dtype):
        def body(i, a):
            a.x[i] = a.x[i] * 3 + a.b[i]

        n = 16
        b = np.arange(n, dtype=np.float64)
        for x in (np.arange(n).astype(dtype), np.arange(n, dtype=np.float64)):
            program = LoopProgram.record(n, body, x=x, b=b)
            loop = scheduled(program)
            got = loop().x
            assert got.dtype == x.dtype
            assert np.array_equal(got, (x * 3 + b).astype(x.dtype))
            assert loop.executor.kernel_path == (
                "vectorized" if x.dtype == np.float64 else "flat")

    def test_a_rebind_to_another_dtype_changes_the_path_not_the_tape(self):
        n = 16
        program = LoopProgram.record(
            n, lambda i, a: a.x.__setitem__(i, a.x[i] + 1.0), x=np.zeros(n))
        loop = scheduled(program)
        loop()
        loop = loop.rebind(x=np.zeros(n, dtype=np.float32))
        assert loop().x.dtype == np.float32
        assert loop.executor.kernel_path == "flat"
        loop = loop.rebind(x=np.ones(n))
        assert np.array_equal(loop().x, np.full(n, 2.0))
        assert loop.executor.kernel_path == "vectorized"
        assert program._replay.tape_builds == 1

    def test_value_branches_and_math_calls_keep_the_proxy_walk(self):
        n = 20
        x = np.linspace(-1.0, 1.0, n)

        def branchy(i, a):
            v = a.x[i]
            a.x[i] = v * 2.0 if v > 0 else -v

        def rooty(i, a):
            a.x[i] = math.sqrt(a.x[i])

        def powered(i, a):
            a.x[i] = a.x[i] ** 2 + a.x[i] % 2.0

        def declared(body, data):
            return LoopProgram(n, statements=[Statement(
                reads=(At("x"),), writes=(At("x"),), body=body)],
                data={"x": data})

        for program, want in (
                (declared(branchy, x), np.where(x > 0, x * 2.0, -x)),
                (declared(rooty, np.abs(x)), np.sqrt(np.abs(x))),
                (declared(powered, x), x ** 2 + x % 2.0)):
            for executor in EXECUTORS:
                loop = scheduled(program, executor)
                assert np.array_equal(loop().x, want)
                assert loop.executor.kernel_path == "flat"
            assert program._replay.tape_builds == 1  # tried once, shared
        # ... and the body's own exceptions still surface from the walk.
        with pytest.raises(ValueError, match="math domain"):
            scheduled(declared(rooty, x))()

    def test_values_carried_between_iterations_keep_the_proxy_walk(self):
        n = 10
        carried = []

        def body(i, a):
            a.y[i] = a.x[i] + (carried[-1] if carried else 0.0)
            carried.append(a.x[i])

        program = LoopProgram(
            n, statements=[Statement(reads=(At("x"),), writes=(At("y"),),
                                     body=body)],
            data={"x": np.ones(n), "y": np.zeros(n)})
        kernel = program.make_kernel()
        assert not kernel.vectorized
        carried.clear()
        assert np.array_equal(SerialExecutor().run(kernel),
                              np.minimum(np.arange(n) + 1.0, 2.0))

    def test_out_of_range_elements_raise_from_the_walk(self):
        def body(i, a):
            a.x[i] = a.b[i + 1]

        program = LoopProgram(
            4, statements=[Statement(reads=(At("b"),), writes=(At("x"),),
                                     body=body)],
            data={"x": np.zeros(4), "b": np.ones(4)})
        loop = scheduled(program)
        assert not loop.bound_kernel.vectorized
        with pytest.raises(IndexError):
            loop()

    def test_a_level_storing_one_element_twice_runs_in_order(self):
        # No legal level does that, but execute_batch takes any idx
        # (the speculative tier's chunks): the scatter would keep an
        # arbitrary writer, so the step must fall back to the walk.
        n = 24
        rng = np.random.default_rng(2)
        target = rng.integers(0, 4, size=n).tolist()

        def body(i, a):
            a.acc[target[i]] = a.acc[target[i]] * 0.5 + a.v[i]

        program = LoopProgram.record(n, body, acc=np.zeros(4),
                                     v=rng.standard_normal(n))
        kernel = program.make_kernel()
        steps = kernel.tape().compile(
            LevelPlan(np.arange(n), np.array([0, n])))
        assert [s.flat for s in steps.spans] == [True]
        kernel.start()
        kernel.execute_batch(np.arange(n))
        assert_same(program, kernel.result(), proxy_walk(program))

    def test_execute_index_works_between_batches(self):
        n = 30
        rng = np.random.default_rng(4)
        program = LoopProgram.record(
            n, lambda i, a: a.x.__setitem__(i, a.x[i] * a.b[i] - 1.0),
            x=rng.standard_normal(n), b=rng.standard_normal(n))
        kernel = program.make_kernel()
        kernel.start()
        x = kernel.result()
        kernel.execute_batch(np.arange(0, 10))
        for i in range(10, 20):
            kernel.execute_index(i)
        kernel.execute_batch(np.arange(20, n))
        assert kernel.result() is x
        assert_same(program, x, proxy_walk(program))


# ----------------------------------------------------------------------
# The other tiers on top of the taped kernel
# ----------------------------------------------------------------------

class TestTiers:
    @pytest.mark.parametrize("kind", ["stale-reads", "two-writers"])
    def test_speculation_with_conflicts_stays_bitwise_serial(self, kind):
        n = 400
        rng = np.random.default_rng(9)
        if kind == "stale-reads":
            ia = np.arange(n)
            late = rng.choice(np.arange(1, n), size=12, replace=False)
            ia[late] = rng.integers(0, late)

            def body(i, a):
                a.x[i] = a.x[i] + a.b[i] * a.x[int(ia[i])]
        else:
            def body(i, a):
                e = i if i % 50 else max(i - 7, 0)
                a.x[e] = a.x[e] * 0.5 + a.b[i]

        program = LoopProgram.record(n, body, x=rng.standard_normal(n),
                                     b=rng.standard_normal(n))
        loop = Runtime(nproc=4).compile(program, strategy="speculative")
        assert loop.plan.kind == "speculative"
        assert loop.bound_kernel.vectorized   # chunks run batched
        report = loop()
        assert report.speculation.re_executed > 0   # repairs per index
        assert_same(program, report.x, proxy_walk(program))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_fault_fires_before_the_level_holding_its_target(
            self, executor):
        n = 60
        rng = np.random.default_rng(6)
        ia = np.array([rng.integers(0, i) if i else 0 for i in range(n)])
        x0, b = rng.standard_normal(n), rng.standard_normal(n)
        program = LoopProgram(
            n, statements=[Statement(
                reads=(At("x", ia), At("b")), writes=(At("x"),),
                body=lambda i, a: a.x.__setitem__(
                    i, a.x[int(ia[i])] * 0.5 + a.b[i]))],
            data={"x": x0, "b": b})
        want = proxy_walk(program)["x"]
        target = 41
        loop = Runtime(nproc=3, faults=FaultPlan.kernel_exception(
            iteration=target)).compile(program, executor=executor)
        with pytest.raises(InjectedFault):
            loop()
        assert loop.executor.kernel_path is None   # run() never returned
        plan = loop.executor.level_plan()
        cut = plan.cuts[plan.level_of(target)]
        done, pending = plan.order[:cut], plan.order[cut:]
        assert target in pending and done.size
        live = loop.bound_kernel.result()
        assert bitwise(live[done], want[done])
        assert bitwise(live[pending], x0[pending])
        # With recovery the retry runs clean and taped.
        rt = Runtime(nproc=3, recovery=True,
                     faults=FaultPlan.kernel_exception(iteration=target))
        loop = rt.compile(program, executor=executor)
        report = loop()
        assert report.recovery.recovered and bitwise(report.x, want)
        assert loop.executor.kernel_path == "vectorized"

    def test_a_skewed_stage_runs_taped_through_the_map(self):
        h = np.random.default_rng(1).standard_normal(42)
        program = stencil_program(h, (6, 7))
        rt = Runtime(nproc=4)
        skewed = next(v for v in enumerate_variants(program)
                      if v.name == "skew")
        loop = rt.compile(skewed.stages[0].program, executor="doacross")
        assert isinstance(loop.bound_kernel, MappedKernel)
        assert_same(program, loop().x, proxy_walk(program))
        assert loop.report()["kernel_path"] == "vectorized"
        # Anti-diagonals of a 6 × 7 grid: narrow at both ends.
        assert [s.flat for s in loop.executor._gather[1][1].spans] == [
            True, False, True]

    def test_a_fused_program_walks_one_function_per_iteration(self):
        n = 64
        rng = np.random.default_rng(3)
        program = sweep_program(rng.standard_normal(n), rng.standard_normal(n))
        kernel = program.make_kernel()
        loop = Runtime(nproc=2).compile(program, executor="self")
        assert_same(program, loop().x, proxy_walk(program))
        (span,) = loop.executor._gather[1].spans
        # Iteration 0 and iterations 1 .. n-1: two calls, both
        # statements inside each.
        assert span.flat and len(span.ops) == 2
        assert kernel.tape_builds == 1


# ----------------------------------------------------------------------
# Structure is built once
# ----------------------------------------------------------------------

class TestBuiltOnce:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_data_rebinds_build_nothing(self, executor):
        n = 48
        rng = np.random.default_rng(0)
        ia = np.array([rng.integers(0, i) if i else 0 for i in range(n)])

        def body(i, a):
            a.x[i] = a.x[i] + a.b[i] * a.x[int(ia[i])]

        b = rng.standard_normal(n)
        program = LoopProgram.record(n, body, x=rng.standard_normal(n), b=b)
        rt = Runtime(nproc=3, observe=True)
        loop = rt.compile(program, executor=executor)
        metric = lambda name: rt.observer.metrics.as_dict()[  # noqa: E731
            f"executor.{name}"]["value"]
        holder = program._replay
        assert (holder.tape_builds, holder.writer_builds) == (0, 0)
        loop(with_sim=False)
        assert (holder.tape_builds, holder.writer_builds) == (1, 1)
        assert metric("tape_builds") == 1
        assert metric("plan_builds") == 2   # level plan + step list
        steps = loop.executor._gather[1]
        for k in range(1, 5):
            x = rng.standard_normal(n)
            assert loop.rebind(x=x) is loop
            assert loop.program._replay is holder
            got = loop(with_sim=False).x
            want = x.copy()
            for i in range(n):
                want[i] = want[i] + b[i] * want[ia[i]]
            assert bitwise(got, want)
            assert (holder.tape_builds, holder.writer_builds) == (1, 1)
            assert metric("tape_builds") == 1
            assert metric("plan_builds") == 2
            assert metric("plan_reuses") == 2 * k
            assert loop.executor._gather[1] is steps

    def test_the_tuner_tapes_nothing_and_stages_share_by_rebind(self):
        n = 96
        rng = np.random.default_rng(5)
        c = rng.standard_normal(n)
        program = sweep_program(rng.standard_normal(n), c)
        rt = Runtime(nproc=8)
        loop = rt.compile(program, strategy="auto")
        assert loop.variant.name == "fission"
        every = [program._replay] + [
            stage.program._replay
            for variant in enumerate_variants(program)
            for stage in variant.stages]
        holders = [sl.program._replay for sl in loop.stage_loops]
        assert all(h.tape_builds == 0 == h.writer_builds
                   for h in every + holders)
        for _ in range(3):   # the chain stage's guard trips meanwhile
            loop()
        executors = [sl.executor for sl in loop.stage_loops]
        counts = [ex.plan_builds for ex in executors]
        for _ in range(4):
            x = rng.standard_normal(n)
            loop = loop.rebind(x=x)
            got = loop().x
            s = np.cumsum(x)
            # cumsum adds in the chain's own order
            assert bitwise(got["s"], s) and bitwise(got["y"], s * c)
            assert [sl.program._replay for sl in loop.stage_loops] == holders
            assert [sl.executor for sl in loop.stage_loops] == executors
            assert [ex.plan_builds for ex in executors] == counts
            assert all(h.tape_builds == 1 == h.writer_builds
                       for h in holders)
        assert program._replay.tape_builds == 0   # only stages ran


# ----------------------------------------------------------------------
# Declared accesses are checked against the tape
# ----------------------------------------------------------------------

class TestDeclaredAccesses:
    def stencil(self, declare_north: bool) -> LoopProgram:
        rows, cols = 4, 5
        n = rows * cols
        idx = np.arange(n)
        west = idx[idx % cols != 0] - 1

        def relax(i, a):
            acc = a.h[i]
            if i >= cols:
                acc = acc + a.g[i - cols]
            if i % cols:
                acc = acc + a.g[i - 1]
            a.g[i] = acc

        reads = [At.from_counts("g", (idx % cols != 0).astype(int), west),
                 At("h")]
        if declare_north:
            reads.append(At.from_counts("g", (idx >= cols).astype(int),
                                        idx[idx >= cols] - cols))
        return LoopProgram(
            n, statements=[Statement(reads=reads, writes=(At("g"),),
                                     body=relax, name="relax")],
            data={"g": np.zeros(n), "h": np.linspace(0.0, 1.0, n)})

    def test_an_undeclared_read_of_a_written_array_is_an_error(self):
        loop = scheduled(self.stencil(declare_north=False))
        with pytest.raises(ValidationError) as info:
            loop()
        message = str(info.value)
        # statement, array[element], iteration
        assert "'relax'" in message and "g[0]" in message
        assert "iteration 5" in message and "read" in message
        complete = self.stencil(declare_north=True)
        assert_same(complete, scheduled(complete)().x, proxy_walk(complete))

    def test_an_undeclared_store_is_an_error(self):
        def body(i, a):
            a.y[i] = a.x[i]
            a.x[0] = 1.0

        program = LoopProgram(
            6, statements=[Statement(reads=(At("x"),), writes=(At("y"),),
                                     body=body, name="copy")],
            data={"x": np.zeros(6), "y": np.zeros(6)})
        with pytest.raises(ValidationError, match=r"'copy' writes x\[0\]"):
            scheduled(program)()

    def test_bodies_the_tape_rejects_are_not_checked(self):
        def body(i, a):
            a.y[i] = a.x[i] + (a.y[i - 1] if i and a.x[i] > 2 else 0.0)

        program = LoopProgram(
            6, statements=[Statement(reads=(At("x"),), writes=(At("y"),),
                                     body=body)],
            data={"x": np.ones(6), "y": np.zeros(6)})
        loop = scheduled(program)
        assert np.array_equal(loop().x, np.ones(6))
        assert loop.executor.kernel_path == "flat"


# ----------------------------------------------------------------------
# stencil_program's neighbour lists, built with array operations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 7), (6, 1), (5, 4)])
def test_stencil_descriptors_match_the_per_iteration_construction(shape):
    rows, cols = shape
    n = rows * cols
    pairs, counts = [], []
    for i in range(n):
        here = len(pairs)
        if i % cols:
            pairs.append(i - 1)
        if i >= cols:
            pairs.append(i - cols)
        counts.append(len(pairs) - here)
    program = stencil_program(np.zeros(n), shape)
    (reads, _), = program._stmt_resolved
    g = next(acc for acc in reads if acc.array == "g")
    assert np.array_equal(np.diff(g.indptr), counts)
    assert np.array_equal(g.indices, np.asarray(pairs, dtype=np.int64))
    assert g.indices.dtype == np.int64 and g.indptr.dtype == np.int64
