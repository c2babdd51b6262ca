"""The speculative plan — compile without inspecting, guard, remember.

:func:`speculative_plan` is the body of
``Runtime.compile(deps, strategy="speculative")``: it builds an
:class:`~repro.speculate.shadow.AccessLog` straight from the
dependence source (a program's declared accesses, or an
inspector-normalized graph — never a wavefront sweep, never a sort),
wraps a :class:`~repro.speculate.executor.SpeculativeExecutor`, and
returns a :class:`SpeculativePlan` for the session's one
:class:`~repro.runtime.session.CompiledLoop` type to run.  Nothing was
inspected, so the plan is its own inspection summary (``pipeline_cost``
0, the dependence graph materialized only if somebody asks), and a
value rebind reuses the cached speculation plan for free.

The **adaptive guard** is the plan's ``finish`` step: every execution
attaches its :class:`~repro.speculate.executor.ConflictReport` to the
:class:`~repro.runtime.session.RunReport`, and when the measured
conflict rate reaches the plan's break-even threshold (at most
:data:`~repro.speculate.executor.FALLBACK_THRESHOLD`) it replaces
``loop.plan`` with the classic scheduled plan for all future calls (the
triggering run is already correct — speculation repairs before it
reports).  The verdict is persisted in the session's
:class:`~repro.tuning.TuningStore` under :func:`speculation_key`, so
the *next* session skips speculation for that structure without ever
re-measuring it; a low-conflict success is recorded the same way,
purely as a diagnostic breadcrumb.
"""

from __future__ import annotations

from ..runtime.session import LoopPlan
from ..util.digest import structure_digest
from .executor import SpeculativeExecutor
from .shadow import AccessLog

__all__ = ["SpeculativePlan", "speculative_plan", "speculation_key"]

#: What the guard (and a failed attempt's recovery tier) falls back to.
_CLASSIC = {"executor": "self", "scheduler": "local",
            "assignment": "wrapped", "balance": "wrapped"}


def speculation_key(log: AccessLog, nproc: int, costs) -> str:
    """TuningStore key of one speculation decision.

    Hashes the identity of the structure the access events came from
    (:meth:`AccessLog.structure_id
    <repro.speculate.shadow.AccessLog.structure_id>` — the one memoised
    identity the classic keys use, not the event arrays), the machine
    shape and the cost model — the same ingredients as the classic
    tuning key, minus the strategy space: the fallback verdict is about
    the *workload*, not about which schedulers are registered.
    """
    return structure_digest(params=(
        log.structure_id(), int(nproc), costs.astuple(),
        "speculate-v2"))


class SpeculativePlan(LoopPlan):
    """Execute optimistically, check afterwards, fall back if it hurts."""

    kind = "speculative"
    executor_name = strategy = "speculative"
    scheduler_name = "identity"
    assignment = balance = "wrapped"
    cache_hit = False
    #: Nothing was inspected.
    pipeline_cost = 0.0
    num_wavefronts = 0
    wavefronts = None

    def __init__(self, runtime, source, executor: SpeculativeExecutor,
                 store_key: str, *, compile_count: int):
        self.runtime = runtime
        #: The dependence source (program or graph) the log came from.
        self.source = source
        self.executor = executor
        self.schedule = executor.schedule
        self.store_key = store_key
        self.compile_count = compile_count
        #: Conflict rate at which the guard swaps in the classic plan,
        #: priced per structure from the machine model by amortising
        #: the avoided inspection over the session's expected execution
        #: horizon (the ceiling is the legacy constant).
        self.fallback_threshold = executor.break_even_rate(
            runtime.expected_executions)
        self._classic: LoopPlan | None = None
        self._dep = None
        self._verdict_recorded = False

    @property
    def dep(self):
        """Materialized lazily — diagnostics only; execution never asks."""
        if self._dep is None:
            from ..core.inspector import Inspector  # deferred: cycle

            self._dep = Inspector.dependences_of(self.source)
        return self._dep

    def classic(self) -> LoopPlan:
        """The scheduled plan of the same structure, compiled once."""
        if self._classic is None:
            self._classic = self.runtime._scheduled_plan(self.source,
                                                         **_CLASSIC)
        return self._classic

    # ------------------------------------------------------------------
    def execute(self, loop, kernel, backend, **options):
        self.executor.last_conflicts = None
        return super().execute(loop, kernel, backend, **options)

    def degraded(self, backend: str):
        yield "speculative", self, backend
        # A failed speculative attempt degrades to the classic plan on
        # the serial backend — the kernel restarts from start(), so the
        # result is the no-fault oracle's, bitwise.
        yield "classic", self.classic(), "serial"

    def rebound(self, program, arrays) -> LoopPlan:
        self.source = program
        return self

    def finish(self, loop, report) -> None:
        """The adaptive guard."""
        conflicts = self.executor.last_conflicts
        if conflicts is None:
            # A timing-only backend, or a recovery tier ran instead.
            return
        report.speculation = conflicts
        if conflicts.conflict_rate >= self.fallback_threshold:
            conflicts.fell_back = True
            self._record_verdict(conflicts, fallback=True)
            loop.plan = self.classic()
        elif not self._verdict_recorded:
            self._record_verdict(conflicts, fallback=False)
        observer = self.runtime.observer
        if observer is not None:
            observer.record_speculation(conflicts)

    def _record_verdict(self, conflicts, *, fallback: bool) -> None:
        self._verdict_recorded = True
        store = self.runtime.tuning_store
        if store is None:
            return
        from ..tuning.store import TuningVerdict  # deferred: cycle

        sim = self.simulate()
        spec = _CLASSIC if fallback else self.compile_kwargs()
        verdict = TuningVerdict(
            **spec,
            sim_makespan=float(sim.total_time),
            seq_time=float(sim.seq_time),
            candidates=1, sims=1,
            seed=conflicts.seed,
            signature=(f"speculation:rate={conflicts.conflict_rate:.4f},"
                       f"reexec={conflicts.re_executed},"
                       f"fallback={fallback}"),
        )
        store.session_put(self.store_key, verdict,
                          faults=self.runtime.faults,
                          observer=self.runtime.observer)


def speculative_plan(runtime, deps) -> LoopPlan:
    """Build the plan behind ``strategy="speculative"``.

    Consults the session's :class:`~repro.tuning.TuningStore` first: a
    remembered fallback verdict for this structure yields the classic
    scheduled plan immediately (no speculation, no re-measuring).
    """
    log = AccessLog.from_source(deps)
    key = "spec:" + speculation_key(log, runtime.nproc, runtime.costs)
    store = runtime.tuning_store
    if store is not None:
        remembered = store.session_get(key, observer=runtime.observer)
        if remembered is not None and remembered.executor != "speculative":
            return runtime._scheduled_plan(deps,
                                           **remembered.compile_kwargs())
    executor = SpeculativeExecutor(log, runtime.nproc, runtime.costs,
                                   seed=runtime.tune_seed,
                                   observer=runtime.observer)
    return SpeculativePlan(runtime, deps, executor, key,
                           compile_count=runtime._count_compile(key))
