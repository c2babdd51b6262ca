"""One loop type, three plans — the whole ``CompiledLoop`` surface, once.

``Runtime.compile`` returns a :class:`~repro.runtime.CompiledLoop` for
every route; what differs is ``loop.plan`` (scheduled, speculative,
staged).  :class:`TestSurfaceContract` asserts the loop surface over
every plan kind × dependence source instead of once per (former) loop
class; the remaining classes pin the four defects the parallel class
hierarchy carried (staged loops rejecting ``unit_work=``, skipping the
session's instrumentation and dropping recovery records; speculative
loops describing a plan they no longer run after a swap).
:class:`TestALoopRunsThePlanItsCompileChose` pins the one arbiter: an
``auto`` stage the tuner scored speculative keeps speculating.
"""

from __future__ import annotations

import inspect
import multiprocessing as mp

import numpy as np
import pytest

from repro.core.executor import (
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
)
from faults import FaultPlan, FaultSpec, InjectedFault, armed
from repro.errors import ValidationError
from repro.machine.simulator import SimResult
from repro.program import (
    At,
    LoopProgram,
    StagedPlan,
    Statement,
    fission,
)
from repro.resilience import RetryPolicy
from repro.runtime import CompiledLoop, Runtime
from repro.sparse.build import random_lower_triangular
from repro.workload import sweep_program
from strategies import program_of
from test_contract import same

NPROC = 4
N = 48
GRID = (6, 8)

#: ``loop.report()`` keys every plan kind provides.
REPORT_KEYS = {
    "executor", "scheduler", "assignment", "n", "nproc", "num_wavefronts",
    "cache_hit", "tuned", "executions", "inspect_cost",
    "parallel_time", "seq_time", "efficiency", "break_even_executions",
}


# ----------------------------------------------------------------------
# Programs with a *named* index, so structural rebinds are possible
# ----------------------------------------------------------------------

def chain_then_gather(x, c, ia) -> LoopProgram:
    """``s[i] = s[i-1] + x[i]; y[i] = s[ia[i]] * c[i]`` (``ia[i] <= i``):
    a recurrence plus a DOALL gather — fission splits them."""
    n = len(x)

    def smoother(i, a):
        a.s[i] = a.s[i - 1] + a.x[i] if i else a.x[i]

    def gather(i, a):
        a.y[i] = a.s[a.ia[i]] * a.c[i]

    idx = np.arange(n, dtype=np.int64)
    return LoopProgram(n, statements=[
        Statement(reads=(At.from_counts("s", np.minimum(idx, 1), idx[:-1]),
                         At("x")),
                  writes=(At("s"),), body=smoother, name="smooth"),
        Statement(reads=(At("s", "ia"), At("c")), writes=(At("y"),),
                  body=gather, name="gather"),
    ], data={"s": np.zeros(n), "y": np.zeros(n), "x": x, "c": c, "ia": ia},
        name="chain-gather")


def grid_neighbours(rows, cols) -> tuple:
    """West and north neighbour of every cell of a row-major grid;
    border cells repeat their one neighbour (cell 0 reads itself)."""
    idx = np.arange(rows * cols, dtype=np.int64)
    west = np.where(idx % cols, idx - 1, np.maximum(idx - cols, 0))
    north = np.where(idx >= cols, idx - cols, np.maximum(idx - 1, 0))
    return west, north


def named_stencil(h, first, second, shape) -> LoopProgram:
    """``g[i] = h[i] + g[first[i]] + g[second[i]]`` on a 2-D grid — the
    Figure 1 wavefront shape, which the skew pass pipelines."""
    n = len(h)

    def relax(i, a):
        a.g[i] = a.h[i] + a.g[a.first[i]] + a.g[a.second[i]]

    return LoopProgram(n, statements=[
        Statement(reads=(At("g", "first"), At("g", "second"), At("h")),
                  writes=(At("g"),), body=relax, name="relax"),
    ], data={"g": np.zeros(n), "h": h, "first": first, "second": second},
        name="named-stencil", shape=shape)


def oracle(source, **fig3):
    """Serial-order result of a program (or of the Figure 3 kernel)."""
    if isinstance(source, LoopProgram):
        return SerialExecutor().run(source.make_kernel())
    return SerialExecutor().run(SimpleLoopKernel(fig3["x"], fig3["b"], source))


# ----------------------------------------------------------------------
# The cases: plan kind × dependence source
# ----------------------------------------------------------------------

class Case:
    """One compiled loop plus what the contract needs to drive it."""

    def __init__(self, kind, source):
        rng = np.random.default_rng(7)
        self.rt = rt = Runtime(nproc=NPROC, tuning=None)
        self.kernel = None        # per-call kernel (raw deps only)
        self.data_swap = None     # data-only rebind arrays
        self.structure_swap = None  # structural rebind arrays
        x, b = rng.normal(size=N), rng.normal(size=N)
        if kind in ("staged-fission", "staged-skew"):
            if kind == "staged-fission":
                ia = np.array([rng.integers(0, i + 1) for i in range(N)])
                prog = chain_then_gather(x, b, ia)
                self.data_swap = {"x": rng.normal(size=N)}
                self.structure_swap = {"ia": np.zeros(N, dtype=np.int64)}
            else:
                west, north = grid_neighbours(*GRID)
                prog = named_stencil(x, west, north, GRID)
                self.data_swap = {"h": rng.normal(size=N)}
                self.structure_swap = {"first": north, "second": west}
            self.loop = rt.compile(prog, strategy="auto")
            self.kind = "staged"
            assert self.loop.variant.name == kind.split("-")[1]
            return
        if kind == "scheduled":
            ia = np.array([rng.integers(0, i + 1) for i in range(N)])
            options = {"executor": "preschedule", "scheduler": "global"}
        elif kind == "speculative":
            ia = np.arange(N)  # self-reads only: nothing to repair
            options = {"strategy": "speculative"}
        else:  # speculative-after-fallback: a full chain, all conflict
            ia = np.maximum(np.arange(N) - 1, 0)
            options = {"strategy": "speculative"}
        self.kind = "scheduled" if kind == "scheduled" else "speculative"
        if source == "program":
            self.loop = rt.compile(
                LoopProgram.from_indirection(ia, x=x, b=b), **options)
            self.data_swap = {"x": rng.normal(size=N)}
            self.structure_swap = {"ia": np.zeros(N, dtype=np.int64)}
        else:
            self.loop = rt.compile(ia, **options)
            self.kernel = SimpleLoopKernel(x, b, ia)
        if kind == "speculative-after-fallback":
            # Nothing falls back: the loop keeps the plan it compiled.
            plan = self.loop.plan
            rate = self.loop(self.kernel).speculation.conflict_rate
            assert rate == (N - 1) / N and self.loop.plan is plan

    def expected(self):
        if self.loop.program is not None:
            return oracle(self.loop.program)
        k = self.kernel
        return oracle(k.ia, x=k.x0, b=k.b)


CASES = [
    ("scheduled", "raw"), ("scheduled", "program"),
    ("speculative", "raw"), ("speculative", "program"),
    ("speculative-after-fallback", "raw"),
    ("speculative-after-fallback", "program"),
    ("staged-fission", "program"), ("staged-skew", "program"),
]


@pytest.mark.parametrize("kind,source", CASES)
class TestSurfaceContract:
    def test_whole_surface(self, kind, source):
        case = Case(kind, source)
        rt, loop, kernel = case.rt, case.loop, case.kernel
        assert type(loop) is CompiledLoop
        assert loop.plan.kind == case.kind
        assert (loop.program is not None) == (source == "program")
        assert hasattr(loop, "stage_loops") == (case.kind == "staged")

        # -- execution: both spellings, bitwise equal to serial order
        want = case.expected()
        before = loop.executions
        called, ran = loop(kernel), loop.run(kernel)
        assert same(called.x, want) and same(ran.x, want)
        assert (called.executions, ran.executions) == (before + 1, before + 2)
        assert loop.executions == before + 2
        assert called.executor == loop.executor_name
        assert called.inspection is loop.inspection
        assert isinstance(called.sim, SimResult)
        assert loop(kernel, with_sim=False).sim is None

        # -- timing is no backend, argument validation
        with pytest.raises(ValidationError, match="unknown backend 'sim'"):
            loop(kernel, backend="sim")
        for bad in (0, -1.0):
            with pytest.raises(ValidationError, match="timeout"):
                loop(kernel, timeout=bad)

        # -- one memoised simulation, one report shape
        assert loop.simulate() is loop.simulate()
        assert called.sim is loop.simulate()
        rep = loop.report()
        extra = ({"variant", "num_stages"} if case.kind == "staged"
                 else {"numeric_batches", "kernel_path"})
        assert set(rep) == REPORT_KEYS | extra
        assert rep["executor"] == loop.executor_name == called.executor
        assert rep["executions"] == loop.executions
        assert rep["n"] == N and rep["nproc"] == NPROC

        # -- rebind: data binding is orthogonal to the plan
        if source == "raw":
            with pytest.raises(ValidationError, match="LoopProgram"):
                loop.rebind(x=np.zeros(N))
            return
        traffic = (rt.cache_stats.lookups, rt.cache_stats.disk_stores)
        plan, stages = loop.plan, list(getattr(loop, "stage_loops", ()))
        assert loop.rebind(**case.data_swap) is loop
        # Nothing recompiled: the same plan, the same stage loops.
        assert loop.rebinds == 1 and loop.plan is plan
        assert list(getattr(loop, "stage_loops", ())) == stages
        assert (rt.cache_stats.lookups, rt.cache_stats.disk_stores) == traffic
        assert same(loop().x, case.expected())

        fresh = loop.rebind(**case.structure_swap)
        assert fresh is not loop and type(fresh) is CompiledLoop
        assert fresh.plan.kind == loop.plan.kind
        assert fresh.executions == 0
        assert same(fresh().x, oracle(fresh.program))
        assert not same(fresh().x, loop().x)  # the old loop kept its data


# ----------------------------------------------------------------------
# The backend surface: a backend name picks an entry point of the
# plan's executor — every plan kind × backend × source, once
# ----------------------------------------------------------------------

BACKENDS = ("serial", "sim", "threads", "processes")
#: The plan kind × backend pairs refused with a ValidationError; every
#: other pair equals the serial oracle bit for bit (``sim`` is no
#: backend: refused, naming the three, while ``loop.simulate()`` times).
REFUSED = {("staged", "threads"), ("staged", "processes")}


def backend_case(kind, source, rt):
    """``(loop, per-call kernel, oracle)``: a sparse triangular solve —
    the one workload every backend runs — or a fissioned sweep."""
    rng = np.random.default_rng(13)
    if kind == "staged":
        prog = sweep_program(rng.normal(size=N), rng.normal(size=N))
        return rt.compile(prog, strategy="auto"), None, oracle(prog)
    l = random_lower_triangular(N, avg_off_diag=2.0, max_band=8, seed=13)
    b = rng.normal(size=N)
    options = ({"strategy": "speculative"} if kind == "speculative"
               else {"executor": kind})
    want = SerialExecutor().run(TriangularSolveKernel(l, b))
    if source == "program":
        return rt.compile(LoopProgram.from_csr(l, b), **options), None, want
    return rt.compile(l, **options), TriangularSolveKernel(l, b), want


@pytest.mark.parametrize("recovery", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind,source", [
    (kind, source)
    for kind in ("self", "preschedule", "doacross", "speculative")
    for source in ("raw", "program")
] + [("staged", "program")])
def test_every_plan_on_every_backend(kind, source, backend, recovery):
    if backend == "processes" and "fork" not in mp.get_all_start_methods():
        pytest.skip("the processes backend needs POSIX fork")
    rt = Runtime(nproc=NPROC, tuning=None, observe=True, recovery=recovery)
    loop, kernel, want = backend_case(kind, source, rt)
    assert loop.plan.kind == {"speculative": "speculative",
                              "staged": "staged"}.get(kind, "scheduled")
    if (kind, backend) in REFUSED:
        # A staged loop refuses at its first stage: its replay kernel is
        # not thread-safe, and the processes backend names itself.
        match = "not thread-safe" if backend == "threads" else "'processes'"
        with pytest.raises(ValidationError, match=match):
            loop(kernel, backend=backend)
        return
    if backend == "sim":
        with pytest.raises(ValidationError,
                           match="'processes', 'serial', 'threads'$"):
            loop(kernel, backend=backend)
        assert isinstance(loop.simulate(), SimResult)
        return
    report = loop(kernel, backend=backend)
    assert report.backend == backend
    assert same(report.x, want)
    # Only a threaded run of the plan's own executor records a timeline.
    assert (report.timeline is not None) == (backend == "threads")


@pytest.mark.parametrize("rows", [30, 50])
@pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
@pytest.mark.parametrize("kind", ["self", "preschedule", "doacross",
                                  "speculative"])
def test_a_kernel_of_the_wrong_size_is_refused(kind, backend, rows):
    # A loop compiled for n = 40 used to return zeros in rows 40-49 of a
    # 50-row kernel, and to raise a bare IndexError on a 30-row one (on
    # threads an ExecutionError, which recovery retried to no purpose).
    if backend == "processes" and "fork" not in mp.get_all_start_methods():
        pytest.skip("the processes backend needs POSIX fork")
    rt = Runtime(nproc=NPROC, tuning=None, recovery=True)
    options = ({"strategy": "speculative"} if kind == "speculative"
               else {"executor": kind})
    loop = rt.compile(
        random_lower_triangular(40, avg_off_diag=2.0, max_band=8, seed=13),
        **options)
    kernel = TriangularSolveKernel(
        random_lower_triangular(rows, avg_off_diag=2.0, max_band=8, seed=13),
        np.ones(rows))
    with pytest.raises(ValidationError,
                       match=f"kernel has n={rows}, the loop has n=40") as info:
        loop(kernel, backend=backend)
    assert getattr(info.value, "recovery", None) is None  # never retried
    assert loop.executions == 0


class TestOneTypeEveryRoute:
    def test_every_compile_route_returns_compiled_loop(self):
        rng = np.random.default_rng(1)
        rt = Runtime(nproc=NPROC)
        ia = np.array([rng.integers(0, i + 1) for i in range(N)])
        fig3 = LoopProgram.from_indirection(
            ia, x=rng.normal(size=N), b=rng.normal(size=N))
        sweep = sweep_program(rng.normal(size=N), rng.normal(size=N))
        loops = {
            "explicit": rt.compile(ia, executor="doacross"),
            "auto-raw": rt.compile(ia, strategy="auto"),
            "auto-program": rt.compile(fig3, strategy="auto"),
            "auto-transformed": rt.compile(sweep, strategy="auto"),
            "speculative": rt.compile(fig3, strategy="speculative"),
        }
        for route, loop in loops.items():
            assert type(loop) is CompiledLoop, route
        assert loops["auto-transformed"].plan.kind == "staged"
        assert loops["speculative"].plan.kind == "speculative"

    def test_program_verdict_is_declared_on_every_loop(self):
        rng = np.random.default_rng(2)
        rt = Runtime(nproc=8)
        fig3 = LoopProgram.from_indirection(np.arange(N), x=np.ones(N),
                                            b=np.ones(N))
        assert rt.compile(fig3).program_verdict is None
        assert rt.compile(fig3, strategy="auto").program_verdict is None
        staged = rt.compile(
            sweep_program(rng.normal(size=N), rng.normal(size=N)),
            strategy="auto")
        assert staged.program_verdict.variant_name == "fission"
        assert staged.program_verdict is staged.verdict
        # An identity winner: the search ran, no rewrite beat the source.
        chain = LoopProgram(N, statements=[
            Statement(reads=(At("s", np.maximum(np.arange(N) - 1, 0)),),
                      writes=(At("s"),),
                      body=lambda i, a: a.s.__setitem__(i, a.s[max(i - 1, 0)] + 1.0)),
            Statement(reads=(At("s"),), writes=(At("s"),),
                      body=lambda i, a: a.s.__setitem__(i, 2.0 * a.s[i])),
        ], data={"s": np.zeros(N)})
        identity = rt.compile(chain, strategy="auto")
        assert identity.plan.kind != "staged"
        assert identity.program_verdict.variant_name == "identity"
        assert identity.verdict is identity.program_verdict.stage_verdicts[0]

    def test_call_signature_is_shared(self):
        params = list(inspect.signature(CompiledLoop.__call__).parameters)
        assert params == ["self", "kernel", "backend", "unit_work",
                          "timeout", "with_sim"]
        assert CompiledLoop.run is CompiledLoop.__call__


# ----------------------------------------------------------------------
# Defect 1: staged loops accept the shared call signature
# ----------------------------------------------------------------------

def staged_sweep(rt, seed=3):
    rng = np.random.default_rng(seed)
    prog = sweep_program(rng.normal(size=N), rng.normal(size=N))
    loop = rt.compile(prog, strategy="auto")
    assert loop.plan.kind == "staged"
    return prog, loop


class TestStagedCallSignature:
    def test_run_auto_on_a_transformed_winner(self):
        rt = Runtime(nproc=8)
        rng = np.random.default_rng(3)
        prog = sweep_program(rng.normal(size=N), rng.normal(size=N))
        report = rt.run(prog, strategy="auto")
        assert report.executor == "transform:fission"
        assert same(report.x, oracle(prog))

    def test_unit_work_none_accepted_array_rejected(self):
        prog, loop = staged_sweep(Runtime(nproc=8))
        assert same(loop(unit_work=None).x, oracle(prog))
        for call in (lambda: loop(unit_work=np.ones(N)),
                     lambda: loop(unit_work=np.ones(N), with_sim=False),
                     lambda: loop.simulate(unit_work=np.ones(N))):
            with pytest.raises(ValidationError,
                               match="price work from their stage programs"):
                call()
        with pytest.raises(ValidationError, match="per-call kernels"):
            loop(kernel=object())
        assert loop.executions == 1  # rejected calls ran nothing


# ----------------------------------------------------------------------
# Defects 2-3: staged loops run under the session's instrumentation
# ----------------------------------------------------------------------

class TestStagedInstrumentation:
    def test_direct_call_reports_phases_that_sum_to_wall(self):
        rt = Runtime(nproc=8, observe=True)
        _, loop = staged_sweep(rt)
        mark = rt.observer.mark()
        report = loop()
        phases = report.phases
        assert phases is not None
        assert phases.tracked + phases.other == pytest.approx(
            phases.wall_seconds)
        assert phases["execute"] > 0
        assert phases["execute"] >= report.host_seconds * 0.5
        # One phase-root execute span: the stages' spans nest inside it.
        roots = [ev for ev in rt.observer.tracer.events_since(mark)
                 if ev.name == "execute" and ev.phase_root]
        assert len(roots) == 1
        assert roots[0].attrs["executor"] == "transform:fission"

    def test_stage_retry_surfaces_in_the_report(self):
        rt = Runtime(nproc=8, recovery=True)
        prog, loop = staged_sweep(rt)
        with armed(FaultPlan([FaultSpec("kernel", times=1, iteration=5)])):
            report = loop()
        assert same(report.x, oracle(prog))
        rec = report.recovery
        assert rec is not None and rec.recovered
        assert rec.cause == "InjectedFault"
        assert [a.iteration for a in rec.attempts] == [5]
        assert rec.tiers == [rec.attempts[0].tier] == [rec.final_tier]
        # Each stage ran to completion exactly once: the retry stayed
        # inside the failing stage.
        assert [sl.executions for sl in loop.stage_loops] == [1, 1]
        assert loop().recovery is None  # the budget is spent

    def test_attempts_concatenate_in_stage_order(self):
        rng = np.random.default_rng(5)
        prog = sweep_program(rng.normal(size=N), rng.normal(size=N))
        variant = fission(prog)
        # One session per stage, each armed with its own fault.
        stage_loops = [Runtime(nproc=NPROC, recovery=True).compile(
            stage.program) for stage in variant.stages]
        rt = Runtime(nproc=NPROC, recovery=True)
        loop = CompiledLoop(rt, StagedPlan(variant, stage_loops),
                            program=prog)
        with armed(FaultPlan("kernel", iteration=9),
                   runtime=stage_loops[0].runtime), \
                armed(FaultPlan("kernel", iteration=4),
                      runtime=stage_loops[1].runtime):
            report = loop()
        assert same(report.x, oracle(prog))
        assert [a.iteration for a in report.recovery.attempts] == [9, 4]
        assert report.recovery.recovered

    def test_exhausted_stage_is_not_rerun_by_the_outer_loop(self):
        plan = FaultPlan([FaultSpec("kernel", times=99, iteration=5)])
        rt = Runtime(nproc=8, recovery=RetryPolicy(max_attempts=2))
        _, loop = staged_sweep(rt)
        with armed(plan), pytest.raises(InjectedFault) as info:
            loop()
        record = info.value.recovery
        assert not record.recovered
        # The failing stage's own chain accounts for every firing: the
        # outer loop did not retry around it.
        assert len(record.attempts) == len(plan.fired)
        assert loop.executions == 0


# ----------------------------------------------------------------------
# Defect 4: a recovery tier swaps the plan for one call only, and the
# loop describes what that call ran
# ----------------------------------------------------------------------

class TestGuardSwapsThePlan:
    def test_recovery_tier_runs_on_the_same_loop_without_demoting_it(self):
        # Low-conflict structure, so only the injected faults (two
        # speculative attempts, one classic) push it down a tier.
        rng = np.random.default_rng(12)
        prog = LoopProgram.from_indirection(
            np.arange(N), x=rng.normal(size=N), b=rng.normal(size=N))
        rt = Runtime(nproc=NPROC, tuning=None, recovery=True)
        loop = rt.compile(prog, strategy="speculative")
        with armed(FaultPlan("kernel", times=3, seed=0)):
            report = loop()
        assert report.recovery.tiers == ["serial", "classic"]
        assert report.executor == "self"       # what the tier really ran
        assert report.executions == loop.executions == 1
        assert loop.plan.kind == "speculative"  # …but only transiently
        assert loop.executor_name == "speculative"
        clean = loop()
        assert clean.recovery is None and clean.executor == "speculative"
        assert clean.executions == 2
        assert same(clean.x, oracle(prog))


class TestALoopRunsThePlanItsCompileChose:
    def test_stages_run_their_verdicts_and_simulate_as_they_run(self):
        # The sweep's chain stage is the tuner's speculative pick; it
        # must still run speculatively after calls and a rebind, and
        # the bundle's timing must price the stages that actually run.
        n, nproc = 8_000, 8
        rng = np.random.default_rng(5)
        prog = sweep_program(rng.normal(size=n), rng.normal(size=n))
        rt = Runtime(nproc=nproc)
        loop = rt.compile(prog, strategy="auto")
        assert loop.plan.kind == "staged"
        loop(), loop()
        x2 = rng.normal(size=n)
        assert loop.rebind(x=x2) is loop
        assert same(loop().x, oracle(prog.with_data(x=x2)))
        verdicts = loop.program_verdict.stage_verdicts
        assert "speculative" in [vd.executor for vd in verdicts]
        for stage_loop, vd in zip(loop.stage_loops, verdicts):
            assert stage_loop.executor_name == vd.executor
        costs = rt.costs
        stages = [sl.simulate(unit_work=st.program.unit_work(costs))
                  for st, sl in zip(loop.variant.stages, loop.stage_loops)]
        barriers = costs.sync_cost(nproc) * (len(stages) - 1)
        assert loop.simulate().total_time == (
            sum(s.total_time for s in stages) + barriers)


# ----------------------------------------------------------------------
# Defect 5: a refused rebind changes nothing, and unusable data is
# refused at the rebind — by the entry's name, not mid-run by numpy
# ----------------------------------------------------------------------

class TestRebindIsAllOrNothing:
    @pytest.mark.parametrize("kind,size", [
        ("scheduled", 3), ("speculative", 3),
        ("staged-fission", 3), ("staged-skew", 3),
        # Long enough for the accesses, refused by the hand kernel.
        ("scheduled", N + 1), ("speculative", N + 1),
    ])
    def test_a_refused_rebind_leaves_the_loop_as_it_was(self, kind, size):
        bad = np.ones(size)
        case = Case(kind, "program")
        loop, ((name, good),) = case.loop, case.data_swap.items()
        program, kernel, plan = loop.program, loop.bound_kernel, loop.plan
        before = loop().x
        with pytest.raises(ValidationError):
            loop.rebind(**{name: bad})
        assert loop.program is program and loop.bound_kernel is kernel
        assert loop.plan is plan and loop.rebinds == 0
        assert same(loop().x, before)
        # The loop used to keep the rejected program, and refuse every
        # later rebind with the first one's complaint.
        assert loop.rebind(**{name: good}) is loop and loop.rebinds == 1
        assert same(loop().x, oracle(program.with_data(**{name: good})))

    @pytest.mark.parametrize("bad", [np.ones(3), "hello", 1.5],
                             ids=["short", "str", "scalar"])
    @pytest.mark.parametrize("kind", ["simple", "recorded", "staged"])
    def test_unusable_data_is_refused_at_rebind(self, kind, bad):
        # A hand kernel, a replay kernel, stage loops: all bind "x".
        rt = Runtime(nproc=NPROC)
        loop = (staged_sweep(rt)[1] if kind == "staged"
                else rt.compile(program_of(kind, N, 5)))
        with pytest.raises(ValidationError,
                           match=f"data entry 'x' .* at least {N} elements"):
            loop.rebind(x=bad)
        assert loop.rebinds == 0
        loop()  # recorded and staged loops used to die here, in numpy
