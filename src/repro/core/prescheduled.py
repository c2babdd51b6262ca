"""The pre-scheduled executor (Figure 5 of the paper).

Execution proceeds in global phases, one per wavefront; a global
barrier separates consecutive phases ("the end of a phase is marked by
a special flag ... a call is made to global synchronization").  Between
barriers each processor works through its share of the current
wavefront with no further coordination.

Numeric, simulated and threaded engines are
:class:`~repro.core.executor.ClassicExecutor`'s: one batch per phase
(all rows in a wavefront are independent), the barrier machine model,
and real threads meeting at a barrier after every phase.
"""

from __future__ import annotations

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..runtime.registry import register_executor
from .dependence import DependenceGraph
from .executor import ClassicExecutor
from .schedule import Schedule

__all__ = ["PreScheduledExecutor"]


@register_executor("preschedule")
def _build_prescheduled(inspection, nproc, costs):
    """Registry factory: barrier-synchronized wavefront phases."""
    return PreScheduledExecutor(inspection.schedule, inspection.dep, costs)


class PreScheduledExecutor(ClassicExecutor):
    """Barrier-synchronized wavefront execution of a schedule."""

    mode = "preschedule"

    def __init__(self, schedule: Schedule, dep: DependenceGraph,
                 costs: MachineCosts = MULTIMAX_320):
        # Phases need every local list wavefront-sorted; say so now,
        # not at the first run.  The phase lists themselves are only
        # materialised by a threaded run.
        schedule.check_wavefront_sorted()
        super().__init__(schedule, dep, costs)

    @property
    def num_phases(self) -> int:
        return self.schedule.num_wavefronts
