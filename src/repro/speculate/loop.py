"""The speculative plan — compile without inspecting.

:func:`speculative_plan` is the body of
``Runtime.compile(deps, strategy="speculative")``: it builds an
:class:`~repro.speculate.shadow.AccessLog` straight from the
dependence source (a program's declared accesses, or an
inspector-normalized graph — never a wavefront sweep, never a sort)
and hands a :class:`~repro.speculate.executor.SpeculativeExecutor` to
a :class:`~repro.runtime.session.ScheduledPlan` like any executor.
Nothing was inspected, so the executor is its own inspection summary
(``pipeline_cost`` 0, the dependence graph materialized only if
somebody asks), and a value rebind reuses the cached speculation plan
for free.

The plan runs speculatively on every call, whatever the conflict rate:
whether speculating beats inspecting is ``strategy="auto"``'s question,
answered once at compile time by the tuner's simulator.
"""

from __future__ import annotations

from ..runtime.session import ScheduledPlan
from ..util.digest import structure_digest
from .executor import SpeculativeExecutor
from .shadow import AccessLog

__all__ = ["speculative_plan", "speculation_key"]

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


def speculative_plan(runtime, deps) -> ScheduledPlan:
    """Build the plan behind ``strategy="speculative"``."""
    executor = SpeculativeExecutor(AccessLog.from_source(deps), runtime.nproc,
                                   runtime.costs, seed=runtime.tune_seed,
                                   observer=runtime.observer)
    # A failed attempt's last tier is the classic plan on the serial
    # backend — the kernel restarts from start(), so the result is the
    # no-fault oracle's, bitwise.
    return ScheduledPlan(
        executor, executor, kind="speculative", executor_name="speculative",
        scheduler_name="identity", assignment="wrapped", balance="wrapped",
        cache_hit=False,
        classic=lambda: runtime._scheduled_plan(deps, **_CLASSIC))
