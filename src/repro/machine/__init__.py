"""Simulated shared-memory multiprocessor (Encore Multimax/320 stand-in).

The paper's experiments ran on a real 16-processor Multimax.  CPython
cannot express true loop-level parallelism (GIL), so this package
provides a deterministic discrete-event machine whose cost categories
are exactly the ones the paper measures and models: per-row floating
point work, global synchronization (barriers), shared-array checks and
increments (busy-wait coordination), schedule-array accesses, and an
optional contention factor.  Executor semantics — program order per
processor, barrier release rules, busy-wait release rules — are
simulated exactly, so relative timings of scheduling strategies are
preserved.

A real ``threading``-based backend (:mod:`repro.machine.threads`)
validates the *correctness* of the transformed loops under true
concurrency, GIL notwithstanding.
"""

from .costs import MachineCosts, MULTIMAX_320, ZERO_OVERHEAD
from .simulator import (
    SimResult,
    simulate,
    simulate_prescheduled,
    simulate_self_executing,
    sequential_time,
    work_vector,
)
from .threads import ThreadedMachine
from .processes import ProcessPrescheduledSolver, ProcessSelfExecutingSolver

__all__ = [
    "ProcessPrescheduledSolver",
    "ProcessSelfExecutingSolver",
    "MachineCosts",
    "MULTIMAX_320",
    "ZERO_OVERHEAD",
    "SimResult",
    "simulate",
    "simulate_prescheduled",
    "simulate_self_executing",
    "sequential_time",
    "work_vector",
    "ThreadedMachine",
]
