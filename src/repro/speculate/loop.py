"""The speculative plan — compile without inspecting.

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

The plan runs speculatively on every call, whatever the conflict rate:
whether speculating beats inspecting is ``strategy="auto"``'s question,
answered once at compile time by the tuner's simulator.  Each
execution attaches its :class:`~repro.speculate.executor.ConflictReport`
to the :class:`~repro.runtime.session.RunReport`.
"""

from __future__ import annotations

from ..runtime.session import LoopPlan
from ..util.digest import structure_digest
from .executor import SpeculativeExecutor
from .shadow import AccessLog

__all__ = ["SpeculativePlan", "speculative_plan", "speculation_key"]

#: What a failed attempt's recovery tier falls back to.
_CLASSIC = {"executor": "self", "scheduler": "local",
            "assignment": "wrapped", "balance": "wrapped"}


def speculation_key(log: AccessLog, nproc: int, costs) -> str:
    """Key of one speculative structure.

    The library no longer calls it — a speculative compile digests
    nothing — and keeps it, layout unchanged, for the benchmark
    ledger's replica of that compile.  Hashes the identity of the
    structure the access events came from (:meth:`AccessLog.structure_id
    <repro.speculate.shadow.AccessLog.structure_id>` — the one memoised
    identity the classic keys use, not the event arrays), the machine
    shape and the cost model — the same ingredients as the classic
    tuning key, minus the strategy space.
    """
    return structure_digest(params=(
        log.structure_id(), int(nproc), costs.astuple(),
        "speculate-v2"))


class SpeculativePlan(LoopPlan):
    """Execute optimistically, check afterwards, repair what conflicted."""

    kind = "speculative"
    executor_name = strategy = "speculative"
    scheduler_name = "identity"
    assignment = balance = "wrapped"
    cache_hit = False
    #: Nothing was inspected.
    pipeline_cost = 0.0
    num_wavefronts = 0
    wavefronts = None

    def __init__(self, runtime, source, executor: SpeculativeExecutor):
        self.runtime = runtime
        #: The dependence source (program or graph) the log came from.
        self.source = source
        self.executor = executor
        self.schedule = executor.schedule
        self._classic: LoopPlan | None = None
        self._dep = None

    #: Off the access log: a report extracts no dependences.
    n = property(lambda self: self.executor.log.n)

    @property
    def dep(self):
        """Materialized lazily — diagnostics only; execution never asks."""
        if self._dep is None:
            from ..core.inspector import Inspector  # deferred: cycle

            self._dep = Inspector.dependences_of(self.source)
        return self._dep

    # ------------------------------------------------------------------
    def degraded(self, backend: str):
        yield "speculative", self, backend
        # A failed speculative attempt degrades to the classic plan on
        # the serial backend — the kernel restarts from start(), so the
        # result is the no-fault oracle's, bitwise.  Compiled once.
        if self._classic is None:
            self._classic = self.runtime._scheduled_plan(self.source,
                                                         **_CLASSIC)
        yield "classic", self._classic, "serial"

    def rebound(self, program, arrays) -> LoopPlan:
        self.source = program
        return self

    def finish(self, loop, report) -> None:
        """Attach the structure's conflict report to a speculative run."""
        if report.executor != "speculative":  # a recovery tier ran
            return
        conflicts = self.executor.plan().report
        report.speculation = conflicts
        observer = self.runtime.observer
        if observer is not None:
            observer.record_speculation(conflicts)


def speculative_plan(runtime, deps) -> LoopPlan:
    """Build the plan behind ``strategy="speculative"``."""
    executor = SpeculativeExecutor(AccessLog.from_source(deps), runtime.nproc,
                                   runtime.costs, seed=runtime.tune_seed,
                                   observer=runtime.observer)
    return SpeculativePlan(runtime, deps, executor)
