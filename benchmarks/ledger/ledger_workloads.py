"""The ledger's six workloads.

Each workload knows how to generate its inputs from a seed, compute the
serial oracles for them, perform one *op* through the library's public
entry points (``Runtime`` → ``compile`` → ``loop()`` / ``rebind``), and
perform the same op *staged* — one public call per layer, each wrapped
in a span — so the traced pass can say where the op's time went.  The
staged form calls only public functions and must reproduce the real
op's schedule and result exactly; the driver checks that.

Shared rules: ``Runtime(nproc=8)`` (eight *simulated* processors),
``backend="serial"``, every input array derived from the seed.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import LoopProgram, Runtime
from repro.core.inspector import InspectionResult, Inspector
from repro.core.wavefront import compute_wavefronts
from repro.krylov.ilu import numeric_ilu
from repro.mesh.problems import get_problem
from repro.program.transform import enumerate_variants
from repro.runtime.cache import ScheduleCache
from repro.runtime.registry import (
    executor_registry,
    partitioner_registry,
    scheduler_registry,
)
from repro.sparse.triangular import split_triangular
from repro.speculate.executor import SpeculativeExecutor
from repro.speculate.loop import speculation_key
from repro.speculate.shadow import AccessLog
from repro.tuning.space import enumerate_space
from repro.workload.generator import generate_workload
from repro.workload.multisweep import stencil_program, sweep_program

import ledger_oracles as oracles

__all__ = ["NPROC", "OpResult", "Workload", "WORKLOAD_CLASSES"]

#: Simulated processors of every session (no OS threads are started).
NPROC = 8

#: The default strategy bundle of ``Runtime.compile``.
_DEFAULT = dict(executor="self", scheduler="local", assignment="wrapped",
                balance="wrapped")


@dataclass
class OpResult:
    """What one op (real or staged) hands back to the driver."""

    #: One entry per loop executed: an array, or a dict of arrays.
    outputs: list
    #: ``SimResult`` of each executed plan (the model speed-up).
    sims: list
    #: Executor schedule of each loop compiled (staged-vs-real check).
    schedules: list = field(default_factory=list)
    #: The loops the op ran and their reports (for the untimed counts).
    loops: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    #: The session the op ran in (``None`` on warm workloads).
    runtime: object = None
    #: Staged ops only: ``(runtime, key, dep, prog)`` for the extras.
    handle: tuple | None = None
    #: Counts the extras found (staged ops only).
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Staged pipelines: the public calls behind compile() and loop()
# ----------------------------------------------------------------------

def staged_compile(sp, rt, prog, dep, *, executor, scheduler, assignment,
                   balance, get_span="cache.miss_get"):
    """The classic ``Runtime.compile`` path, one span per layer call."""
    sched = executor_registry.metadata(executor).get(
        "scheduler_override") or scheduler
    smeta = scheduler_registry.metadata(sched)
    schedule_fn = scheduler_registry.get(sched)
    partition_fn = partitioner_registry.get(assignment)
    weights = scheduler_registry.binding(sched).get("weights")
    inspector = Inspector(rt.costs)
    with sp.span("cache.key", "compile"):
        key = ScheduleCache.key_for(
            dep, rt.nproc, sched, assignment,
            balance if smeta.get("consumes_balance", True) else "",
            rt.costs,
            versions=(scheduler_registry.fingerprint(sched),
                      partitioner_registry.fingerprint(assignment)),
        )
    with sp.span(get_span, "compile"):
        inspection = rt.cache.get(key, dep)
    if inspection is None:
        with sp.span("inspector.wavefront", "compile"):
            wf = compute_wavefronts(dep)
        sp.count("inspector.indices", dep.n)
        with sp.span("inspector.partition", "compile"):
            owner = partition_fn(dep.n, rt.nproc)
        with sp.span("inspector.schedule", "compile"):
            kwargs = {"balance": balance}
            if isinstance(weights, str):
                kwargs["weights"] = inspector.resolve_weight_source(
                    weights, dep)
            schedule = schedule_fn(wf, owner, rt.nproc, **kwargs)
        with sp.span("inspector.price", "compile"):
            priced = inspector.price_inspection(dep, wf, rt.nproc, owner)
        inspection = InspectionResult(
            dep=dep, wavefronts=wf, schedule=schedule, strategy=sched,
            costs=priced, host_seconds=0.0)
        with sp.span("cache.put", "compile"):
            rt.cache.put(key, inspection)
    with sp.span("executor.build", "compile"):
        ex = executor_registry.get(executor)(inspection, rt.nproc, rt.costs)
    with sp.span("program.make_kernel", "compile"):
        kernel = prog.make_kernel()
    return key, ex, kernel


def staged_call(sp, ex, kernel, *, simulate=True):
    """``loop()`` on the serial backend: order, run, model timing.

    Warm loops memoised their default simulation in set-up and pass
    ``simulate=False``; a cold loop's first call pays for it here.
    """
    if hasattr(ex, "execution_order"):
        with sp.span("executor.order", "call"):
            ex.execution_order()
    with sp.span("executor.run", "call"):
        x = ex.run(kernel)
    sim = None
    if simulate:
        with sp.span("simulator.simulate", "call"):
            sim = ex.simulate()
        sp.count("simulator.items", kernel.n)
    return x, sim


def staged_speculative(sp, rt, prog):
    """The ``strategy="speculative"`` path: log, plan, run, model timing."""
    with sp.span("speculate.log", "compile"):
        log = AccessLog.from_source(prog)
    with sp.span("speculate.key", "compile"):
        rt.tuning_store.get(
            "spec:" + speculation_key(log, rt.nproc, rt.costs))
    with sp.span("executor.build", "compile"):
        ex = SpeculativeExecutor(log, rt.nproc, rt.costs, seed=rt.tune_seed)
    with sp.span("program.make_kernel", "compile"):
        kernel = prog.make_kernel()
    with sp.span("speculate.plan", "call"):
        ex.plan()
    with sp.span("speculate.run", "call"):
        x = ex.run(kernel)
    with sp.span("simulator.simulate", "call"):
        sim = ex.simulate()
    sp.count("simulator.items", kernel.n)
    return ex, x, sim


def staged_any(sp, rt, prog, dep, opts, **kw):
    """Stage a compile + call under whichever tier ``opts`` names."""
    meta = executor_registry.metadata(opts["executor"])
    if meta.get("speculative"):
        ex, x, sim = staged_speculative(sp, rt, prog)
        return None, ex, x, sim
    key, ex, kernel = staged_compile(sp, rt, prog, dep, **opts, **kw)
    x, sim = staged_call(sp, ex, kernel)
    return key, ex, x, sim


def _written(program) -> list:
    names = []
    for acc in program.resolved_accesses()[1]:
        if acc.array not in names:
            names.append(acc.array)
    return names


def _staged_run(sp, loop):
    """Run the kernel of one warm loop.

    A speculative loop whose guard tripped has handed itself over to a
    fallback pipeline it holds privately, so from outside only its
    ``loop()`` is a faithful call; every other loop is staged.
    """
    if getattr(loop.executor, "mode", "") == "speculative":
        with sp.span("executor.run", "call"):
            return loop(with_sim=False).x
    return staged_call(sp, loop.executor, loop.bound_kernel,
                       simulate=False)[0]


def staged_warm_call(sp, loop):
    """A warm ``loop()``: plain loops run their executor, transformed
    loops run one executor per stage and thread the written arrays."""
    if not hasattr(loop, "stage_loops"):
        return _staged_run(sp, loop)
    outputs: dict = {}
    for k, stage in enumerate(loop.variant.stages):
        sl = loop.stage_loops[k]
        carry = {nm: arr for nm, arr in outputs.items()
                 if nm in sl.program.data}
        if carry:
            with sp.span("program.rebind", "call"):
                sl = loop.stage_loops[k] = sl.rebind(**carry)
        x = _staged_run(sp, sl)
        outputs.update(x if isinstance(x, dict)
                       else {_written(stage.program)[0]: x})
    written = _written(loop.program)
    if len(written) == 1:
        return outputs[written[0]]
    return {nm: outputs[nm] for nm in written}


def _batches(loop) -> int:
    """``execute_batch`` calls of one run (iterations when the executor
    goes one index at a time)."""
    stages = getattr(loop, "stage_loops", None)
    if stages is not None:
        return sum(_batches(s) for s in stages)
    ex = loop.executor
    if hasattr(ex, "num_phases"):
        return int(ex.num_phases)
    if getattr(ex, "mode", "") == "speculative":
        plan = ex.plan()
        return len(plan.chunk_bounds) + int(plan.repair_indices.size)
    return int(loop.dep.n)


# ----------------------------------------------------------------------
# Workload protocol
# ----------------------------------------------------------------------

class Workload:
    """One named workload; see the module docstring for the contract."""

    name = ""
    #: Ops run (and discarded) at the end of every set-up.
    warmup_ops = 5

    def __init__(self, seed: int, scale: float = 1.0, tmp_root=None):
        self.seed = int(seed)
        #: Problem-size factor on ``n`` (1 for real runs; the test
        #: shrinks it).
        self.scale = float(scale)
        #: Where temp store directories go (the run must stay inside
        #: its checkout, so the caller names a directory there).
        self.tmp_root = tmp_root
        self.pool: list = []

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def size(self, n: int) -> int:
        return max(16, int(round(n * self.scale)))

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        """Build inputs, oracles and (warm workloads) compiled loops."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired (temp directories)."""

    # -- one op ----------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Ops ``k`` and ``k + cycle`` work on the same pool input, so
        ``cycle`` consecutive ops visit every input once."""
        return len(self.pool)

    def prepare(self, k: int):
        """Inputs of op ``k`` (untimed)."""
        return self.pool[k % self.cycle]

    def op(self, inp, sp, observe: bool = False) -> OpResult:
        """The op, through the public API; ``observe`` runs it in a
        ``Runtime(observe=True)`` session (the phase replica)."""
        raise NotImplementedError

    def staged(self, inp, sp) -> OpResult:
        """The same op, one spanned public call per layer."""
        raise NotImplementedError

    def extras(self, staged: OpResult, sp) -> None:
        """Diagnostic layer calls that are not part of the op."""

    def finish(self, inp) -> None:
        """Undo what the op left behind (untimed)."""

    def expected(self, inp) -> list:
        """Per output, the tuple of oracle results that count as right."""
        raise NotImplementedError

    def serial(self, inp) -> None:
        """The plain Python loop on the op's inputs (timed by the driver)."""
        raise NotImplementedError

    def diagnostics(self):
        """Yield ``(metric, seconds, output, expected)`` of diagnostic
        runs outside the op (real backends on ``trisolve_warm``)."""
        return ()

    def counts(self, result: OpResult) -> dict:
        """Per-op counts of a real op (untimed; call before finish)."""
        loops = result.loops
        out = {
            "program.edges": sum(lp.dep.num_edges for lp in loops),
            "inspector.wavefronts": sum(
                lp.inspection.num_wavefronts for lp in loops),
            "executor.iters": sum(lp.dep.n for lp in loops),
            "executor.batches": sum(_batches(lp) for lp in loops),
            "transform.stages": sum(
                len(getattr(lp, "stage_loops", ())) for lp in loops),
            "cache.hit_frac": result.runtime.cache_stats.hit_rate,
        }
        for loop, report in zip(loops, result.reports):
            spec = report.speculation
            if spec is not None:
                out.update({
                    "speculate.conflict_rate": spec.conflict_rate,
                    "speculate.re_executed": spec.re_executed,
                    "speculate.useful_frac":
                        1.0 - spec.re_executed / loop.dep.n,
                    "speculate.shadow_bytes": spec.shadow_bytes,
                })
        return out


@dataclass
class _Fig3Input:
    ia: np.ndarray
    x: np.ndarray
    b: np.ndarray
    oracle: np.ndarray


def _fig3_input(rng, ia) -> _Fig3Input:
    n = ia.shape[0]
    x = rng.standard_normal(n)
    b = 0.5 * rng.standard_normal(n)
    return _Fig3Input(ia, x, b, oracles.figure3(x, b, ia))


def _declare_fig3(self, inp) -> LoopProgram:
    return LoopProgram.from_indirection(inp.ia, x=inp.x, b=inp.b)


class _ColdWorkload(Workload):
    """new ``Runtime`` → declare → ``compile`` → ``loop()``."""

    #: ``rt.compile`` keyword arguments of the op.
    compile_opts: dict = {}

    def declare(self, inp) -> LoopProgram:
        raise NotImplementedError

    def op(self, inp, sp, observe=False):
        with sp.span("runtime.new"):
            rt = Runtime(nproc=NPROC, observe=observe)
        with sp.span("program.declare"):
            prog = self.declare(inp)
        with sp.span("runtime.compile"):
            loop = rt.compile(prog, **self.compile_opts)
        with sp.span("runtime.call"):
            report = loop()
        return OpResult([report.x], [report.sim], [loop.executor.schedule],
                        [loop], [report], runtime=rt)

    def staged(self, inp, sp):
        with sp.span("runtime.new"):
            rt = Runtime(nproc=NPROC)
        with sp.span("program.declare"):
            prog = self.declare(inp)
        strategy = self.compile_opts.get("strategy")
        dep = None
        if strategy == "speculative":
            opts = dict(_DEFAULT, executor="speculative")
        else:
            with sp.span("program.extract", "compile"):
                dep = Inspector.dependences_of(prog)
            if strategy == "auto":
                with sp.span("tuning.search", "compile"):
                    opts = rt.tune(dep).compile_kwargs()
            else:
                opts = dict(_DEFAULT, **self.compile_opts)
        key, ex, x, sim = staged_any(sp, rt, prog, dep, opts)
        return OpResult([x], [sim], [ex.schedule],
                        handle=(rt, key, dep, prog))

    def extras(self, staged, sp):
        rt, key, dep, _ = staged.handle
        if key is not None:
            with sp.span("cache.mem_get"):
                rt.cache.get(key, dep)

    def expected(self, inp):
        return [(inp.oracle,)]


# ----------------------------------------------------------------------
# The six
# ----------------------------------------------------------------------

class Fig3Cold(_ColdWorkload):
    name = "fig3_cold"
    declare = _declare_fig3

    def setup(self):
        n = self.size(60_000)
        self.pool = []
        for j in range(8):
            rng = self.rng(1, j)
            self.pool.append(_fig3_input(rng, rng.integers(0, n, size=n)))

    def serial(self, inp):
        oracles.figure3(inp.x, inp.b, inp.ia)


class SpecSparse(_ColdWorkload):
    name = "spec_sparse"
    compile_opts = {"strategy": "speculative"}
    declare = _declare_fig3
    serial = Fig3Cold.serial

    def setup(self):
        n = self.size(300_000)
        self.pool = []
        for j in range(8):
            rng = self.rng(5, j)
            # Identity indirection (a DOALL) with 0.5 % of the
            # iterations redirected to an earlier element.
            ia = np.arange(n)
            back = rng.choice(np.arange(1, n), size=max(1, n // 200),
                              replace=False)
            ia[back] = rng.integers(0, back)
            self.pool.append(_fig3_input(rng, ia))


@dataclass
class _CsrInput:
    matrix: object
    b: np.ndarray
    unit_diagonal: bool
    #: Both serial summation orders (see the oracle's docstring).
    oracle: tuple = ()

    def solve(self, *, dot: bool) -> np.ndarray:
        m = self.matrix
        return oracles.forward_substitution(
            m.indptr, m.indices, m.data, self.b,
            unit_diagonal=self.unit_diagonal, dot=dot)


def _csr_input(matrix, b, *, unit_diagonal: bool) -> _CsrInput:
    inp = _CsrInput(matrix, b, unit_diagonal)
    inp.oracle = (inp.solve(dot=False), inp.solve(dot=True))
    return inp


def _serial_csr(self, inp) -> None:
    inp.solve(dot=False)  # Figure 8 as printed


class AutoCold(_ColdWorkload):
    name = "auto_cold"
    compile_opts = {"strategy": "auto"}
    serial = _serial_csr

    def setup(self):
        mesh = max(8, int(round(65 * math.sqrt(self.scale))))
        self.pool = []
        for j in range(12):
            rng = self.rng(3, j)
            w = generate_workload(f"{mesh}-4-3",
                                  seed=int(rng.integers(2**31)))
            self.pool.append(_csr_input(
                w.matrix, rng.standard_normal(w.n), unit_diagonal=False))

    def declare(self, inp):
        return LoopProgram.from_csr(inp.matrix, inp.b)

    def expected(self, inp):
        return [inp.oracle]

    def extras(self, staged, sp):
        super().extras(staged, sp)
        rt, _, dep, prog = staged.handle
        with sp.span("tuning.enumerate"):
            enumerate_space(dep.n, NPROC)
        with sp.span("tuning.warm_lookup"):
            rt.tune(dep)
        with sp.span("transform.variants"):
            variants = enumerate_variants(prog)
        staged.stats["tuning.variants"] = len(variants)


def _observed(compile_warm):
    """Warm loops compiled in a fresh observed session, its span list
    emptied so the replica's phases cover the op alone."""
    rt = Runtime(nproc=NPROC, observe=True)
    loops = compile_warm(rt)
    rt.observer.tracer.clear()
    return loops


class TrisolveWarm(Workload):
    name = "trisolve_warm"
    serial = _serial_csr
    #: Samples per real backend in :meth:`diagnostics`.
    BACKEND_SAMPLES = 10

    def setup(self):
        get_problem.cache_clear()  # every set-up pays for the assembly
        prob = get_problem("L5-PT", scale=math.sqrt(self.scale))
        self.l_strict = split_triangular(numeric_ilu(prob.a))[0]
        n = self.l_strict.nrows
        self.pool = [
            _csr_input(self.l_strict, self.rng(2, j).standard_normal(n),
                       unit_diagonal=True)
            for j in range(8)]
        self.loop = self.compile_warm(Runtime(nproc=NPROC))

    def compile_warm(self, rt):
        prog = LoopProgram.from_csr(self.l_strict, self.pool[0].b,
                                    unit_diagonal=True)
        loop = rt.compile(prog, executor="preschedule", scheduler="global")
        loop.simulate()  # memoised: ops never pay for the model
        return loop

    def op(self, inp, sp, observe=False):
        loop = _observed(self.compile_warm) if observe else self.loop
        with sp.span("program.rebind"):
            loop = loop.rebind(b=inp.b)
        with sp.span("runtime.call"):
            report = loop()
        if not observe:
            self.loop = loop
        return OpResult([report.x], [report.sim], loops=[loop],
                        reports=[report], runtime=loop.runtime)

    def staged(self, inp, sp):
        with sp.span("program.rebind"):
            loop = self.loop = self.loop.rebind(b=inp.b)
        return OpResult([staged_warm_call(sp, loop)], [loop.simulate()])

    def expected(self, inp):
        return [inp.oracle]

    def diagnostics(self):
        # Never more workers than cores: the row asks what real
        # parallelism buys on this host, not what oversubscription costs.
        loop = self.compile_warm(Runtime(nproc=min(2, os.cpu_count() or 1)))
        for backend in ("threads", "processes"):
            for j in range(self.BACKEND_SAMPLES):
                inp = self.prepare(j)
                loop = loop.rebind(b=inp.b)
                t0 = perf_counter()
                report = loop(backend=backend, with_sim=False)
                seconds = perf_counter() - t0
                yield (f"backends.{backend}_run_s", seconds, report.x,
                       inp.oracle)


@dataclass
class _TransformInput:
    x: np.ndarray
    h: np.ndarray
    sweep_oracle: dict
    grid_oracle: np.ndarray


class TransformWarm(Workload):
    name = "transform_warm"

    def setup(self):
        n = self.size(8_000)
        self.grid = max(6, int(round(64 * math.sqrt(self.scale))))
        self.c = self.rng(4).standard_normal(n)
        self.pool = []
        for j in range(8):
            rng = self.rng(4, j)
            x = rng.standard_normal(n)
            h = rng.standard_normal(self.grid * self.grid)
            self.pool.append(_TransformInput(
                x, h, oracles.fused_sweep(x, self.c),
                oracles.grid_relaxation(h, self.grid, self.grid)))
        first = self.pool[0]
        self.programs = (sweep_program(first.x, self.c),
                         stencil_program(first.h, (self.grid, self.grid)))
        self.sweep, self.stencil = self.compile_warm(Runtime(nproc=NPROC))

    def compile_warm(self, rt):
        loops = [rt.compile(p, strategy="auto") for p in self.programs]
        for loop in loops:
            loop.simulate()
        return loops

    def op(self, inp, sp, observe=False):
        sweep, stencil = (_observed(self.compile_warm) if observe
                          else (self.sweep, self.stencil))
        with sp.span("program.rebind"):
            sweep = sweep.rebind(x=inp.x)
        with sp.span("runtime.call"):
            r1 = sweep()
        with sp.span("program.rebind"):
            stencil = stencil.rebind(h=inp.h)
        with sp.span("runtime.call"):
            r2 = stencil()
        if not observe:
            self.sweep, self.stencil = sweep, stencil
        return OpResult([r1.x, r2.x], [r1.sim, r2.sim],
                        loops=[sweep, stencil], reports=[r1, r2],
                        runtime=sweep.runtime)

    def staged(self, inp, sp):
        with sp.span("program.rebind"):
            sweep = self.sweep = self.sweep.rebind(x=inp.x)
        x1 = staged_warm_call(sp, sweep)
        with sp.span("program.rebind"):
            stencil = self.stencil = self.stencil.rebind(h=inp.h)
        x2 = staged_warm_call(sp, stencil)
        return OpResult([x1, x2], [sweep.simulate(), stencil.simulate()])

    def extras(self, staged, sp):
        with sp.span("transform.variants"):
            found = [enumerate_variants(p) for p in self.programs]
        staged.stats["tuning.variants"] = sum(len(v) for v in found)

    def expected(self, inp):
        return [(inp.sweep_oracle,), (inp.grid_oracle,)]

    def serial(self, inp):
        oracles.fused_sweep(inp.x, self.c)
        oracles.grid_relaxation(inp.h, self.grid, self.grid)


@dataclass
class _RestartInput:
    new: _Fig3Input
    seen: int


class StoreRestart(Workload):
    name = "store_restart"
    declare = _declare_fig3
    extras = _ColdWorkload.extras
    #: Structures persisted in set-up; the first is compiled with
    #: ``strategy="auto"`` so the tuning store holds a verdict.
    SEEN = 12
    cycle = SEEN
    root = None

    def setup(self):
        self.close()
        self.n = self.size(20_000)
        if self.tmp_root is not None:
            Path(self.tmp_root).mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp_root))
        self.cache_dir = self.root / "schedules"
        self.tuning_dir = self.root / "tuning"
        self.seen = [self._structure(6, j) for j in range(self.SEEN)]
        rt = self.new_runtime()
        for j, e in enumerate(self.seen):
            rt.compile(self.declare(e), **self._opts(j))
        # Every op must find the store as set-up left it: remember the
        # listings and the index so finish() can put them back.
        self._kept = {d: set(os.listdir(d))
                      for d in (self.cache_dir, self.tuning_dir)}
        self._index = (self.cache_dir / "index.json").read_bytes()

    def close(self):
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def _structure(self, *stream) -> _Fig3Input:
        rng = self.rng(*stream)
        return _fig3_input(rng, rng.integers(0, self.n, size=self.n))

    def new_runtime(self, observe=False):
        return Runtime(nproc=NPROC, cache_dir=self.cache_dir,
                       tuning_dir=self.tuning_dir, observe=observe)

    @staticmethod
    def _opts(j: int) -> dict:
        return {"strategy": "auto"} if j == 0 else {}

    def prepare(self, k):
        return _RestartInput(self._structure(7, k), k % self.SEEN)

    def op(self, inp, sp, observe=False):
        with sp.span("runtime.new"):
            rt = self.new_runtime(observe)
        loops = []
        for j, e in enumerate(self.seen + [inp.new]):
            with sp.span("program.declare"):
                prog = self.declare(e)
            with sp.span("runtime.compile"):
                loop = rt.compile(prog, **self._opts(j))
            if loop.cache_hit != (j < self.SEEN):
                raise AssertionError(
                    f"structure {j}: cache_hit={loop.cache_hit}")
            loops.append(loop)
        if rt.tuning_stats.disk_hits != 1:
            raise AssertionError("the tuning verdict did not come from disk")
        ran = [loops[-1], loops[inp.seen]]
        reports = []
        for loop in ran:
            with sp.span("runtime.call"):
                reports.append(loop())
        return OpResult([r.x for r in reports], [r.sim for r in reports],
                        [lp.executor.schedule for lp in loops], ran, reports,
                        runtime=rt)

    def counts(self, result):
        out = super().counts(result)
        files = list(self.cache_dir.iterdir())
        entries = sum(1 for f in files if f.suffix == ".npz")
        out["cache.disk_bytes_per_entry"] = (
            sum(f.stat().st_size for f in files) / entries)
        return out

    def staged(self, inp, sp):
        with sp.span("runtime.new"):
            rt = self.new_runtime()
        built = []
        for j, e in enumerate(self.seen + [inp.new]):
            with sp.span("program.declare"):
                prog = self.declare(e)
            with sp.span("program.extract", "compile"):
                dep = Inspector.dependences_of(prog)
            opts = _DEFAULT
            if self._opts(j):
                with sp.span("tuning.warm_lookup", "compile"):
                    opts = rt.tune(dep).compile_kwargs()
            key, ex, kernel = staged_compile(
                sp, rt, prog, dep, **opts,
                get_span=("cache.disk_get" if j < self.SEEN
                          else "cache.miss_get"))
            built.append((key, dep, prog, ex, kernel))
        outputs, sims = [], []
        for *_, ex, kernel in (built[-1], built[inp.seen]):
            x, sim = staged_call(sp, ex, kernel)
            outputs.append(x)
            sims.append(sim)
        key, dep, prog = built[-1][:3]
        return OpResult(outputs, sims, [b[3].schedule for b in built],
                        handle=(rt, key, dep, prog))

    def finish(self, inp):
        for d, kept in self._kept.items():
            for name in set(os.listdir(d)) - kept:
                os.unlink(d / name)
        (self.cache_dir / "index.json").write_bytes(self._index)

    def expected(self, inp):
        return [(inp.new.oracle,), (self.seen[inp.seen].oracle,)]

    def serial(self, inp):
        for e in (inp.new, self.seen[inp.seen]):
            oracles.figure3(e.x, e.b, e.ia)


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    Fig3Cold, TrisolveWarm, AutoCold, TransformWarm, SpecSparse,
    StoreRestart)}
