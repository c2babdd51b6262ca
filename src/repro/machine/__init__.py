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

Two real machines run the transformed loops over the loop's own
kernel under true concurrency: :mod:`repro.machine.threads` validates
their *correctness*, GIL notwithstanding, and
:mod:`repro.machine.processes` forks workers over a shared ``x``.
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

__all__ = [
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
