"""Efficiency projections to larger machines (Table 4, Section 5.1.3).

"These projections make the assumption that the costs of
synchronization, the costs from the extra operations required to run
the parallel versions of the codes and the costs due to contention do
not change with the number of processors."

Method: at the measured processor count, factor the observed efficiency
into (symbolically estimated efficiency) × (overhead factor); hold the
overhead factor fixed; recompute the symbolically estimated efficiency
at the target processor count with a fresh schedule.  The ``Best``
column is the overhead factor itself — the efficiency a perfectly
load-balanced run would reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dependence import DependenceGraph
from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import simulate
from ..runtime.session import Runtime

__all__ = ["EfficiencyProjection", "project_efficiencies"]


@dataclass
class EfficiencyProjection:
    """Projected efficiencies for one executor on one problem."""

    executor: str
    scheduler: str
    base_nproc: int
    #: Overhead factor — the "Best" efficiency (perfect load balance).
    best: float
    #: processor count -> projected efficiency
    projected: dict

    def at(self, p: int) -> float:
        return self.projected[p]


def project_efficiencies(
    dep: DependenceGraph,
    *,
    executor: str,
    scheduler: str = "global",
    base_nproc: int = 16,
    target_nprocs: tuple[int, ...] = (16, 32, 64),
    costs: MachineCosts = MULTIMAX_320,
    unit_work: np.ndarray | None = None,
) -> EfficiencyProjection:
    """Project measured efficiency to larger processor counts.

    The "measured" efficiency is the machine simulation at
    ``base_nproc`` (our stand-in for the 16-processor Multimax run);
    symbolically estimated efficiencies at every target count come from
    zero-overhead simulations with schedules rebuilt per count.
    """
    if executor not in ("self", "preschedule"):
        raise ValidationError("executor must be 'self' or 'preschedule'")
    zero = costs.with_overheads_zeroed()
    # One session per distinct processor count, each inspecting once.
    loops = {p: Runtime(p, costs=costs).compile(
                 dep, executor=executor, scheduler=scheduler)
             for p in dict.fromkeys((base_nproc, *target_nprocs))}

    def e_symbolic(p):
        # The zero-overhead what-if is not the session's to answer:
        # its cost model is part of every schedule's cache key.
        return simulate(loops[p].schedule, dep, zero, mode=executor,
                        unit_work=unit_work).efficiency

    best = (loops[base_nproc].simulate(unit_work=unit_work).efficiency
            / e_symbolic(base_nproc))
    projected = {p: best * e_symbolic(p) for p in target_nprocs}
    return EfficiencyProjection(
        executor=executor,
        scheduler=scheduler,
        base_nproc=base_nproc,
        best=best,
        projected=projected,
    )
