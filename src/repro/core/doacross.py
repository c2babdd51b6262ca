"""The plain doacross baseline (Section 5.1.2).

"Recall that the self-executing loop is a doacross loop with a
reordered index set."  The doacross executor therefore *is* the
self-executing executor run over the identity schedule, with one cost
difference the paper highlights: because the index set is not
reordered, there is no schedule-array access overhead — the Multimax
measurements showed doacross has lower overhead but far less
concurrency, and ends up slower than both alternatives.
"""

from __future__ import annotations

import numpy as np

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..runtime.registry import register_executor
from .dependence import DependenceGraph
from .executor import ClassicExecutor
from .partition import wrapped_partition
from .schedule import Schedule, _wavefront_batches, identity_schedule
from .wavefront import compute_wavefronts

__all__ = ["DoacrossExecutor"]


@register_executor("doacross", scheduler_override="identity",
                   assignment_override="wrapped")
def _build_doacross(inspection, nproc, costs):
    """Registry factory: the no-reordering baseline.

    The two overrides tell the runtime that whatever scheduler and
    assignment were requested, a doacross loop runs the wrapped
    identity schedule — the defining property of the baseline — so the
    runtime inspects exactly that, and the executor runs the
    inspection's schedule.
    """
    return DoacrossExecutor(inspection.dep, nproc, costs,
                            wavefronts=inspection.wavefronts,
                            schedule=inspection.schedule)


class DoacrossExecutor(ClassicExecutor):
    """Busy-wait execution in original index order (wrapped ownership).

    ``schedule`` hands over that identity schedule when the caller
    already holds it; any other schedule is ignored and the wrapped
    identity is built from ``wavefronts``.
    """

    mode = "doacross"

    def __init__(self, dep: DependenceGraph, nproc: int,
                 costs: MachineCosts = MULTIMAX_320,
                 wavefronts: np.ndarray | None = None,
                 schedule: Schedule | None = None):
        if schedule is None or not self._is_wrapped_identity(schedule, nproc):
            wf = (wavefronts if wavefronts is not None
                  else compute_wavefronts(dep))
            schedule = identity_schedule(wf, nproc)
        super().__init__(schedule, dep, costs)

    @staticmethod
    def _is_wrapped_identity(schedule: Schedule, nproc: int) -> bool:
        return (schedule.strategy == "identity" and schedule.nproc == nproc
                and np.array_equal(schedule.owner,
                                   wrapped_partition(schedule.n, nproc)))

    def _build_levels(self):
        if (self.dep.all_backward
                and self.schedule.deps_cross_wavefronts(self.dep)):
            # Original order is legal for backward dependences (every
            # identity list ascends), so the loop cannot deadlock; its
            # values are those of any dependence-respecting order, and
            # the wavefronts are the widest such batches — a numeric
            # order only: it leaves each processor's program order.
            return _wavefront_batches(np.arange(self.dep.n, dtype=np.int64),
                                      self.schedule.wavefronts)
        return super()._build_levels()
