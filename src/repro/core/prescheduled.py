"""The pre-scheduled executor (Figure 5 of the paper).

Execution proceeds in global phases, one per wavefront; a global
barrier separates consecutive phases ("the end of a phase is marked by
a special flag ... a call is made to global synchronization").  Between
barriers each processor works through its share of the current
wavefront with no further coordination.

Three engines:

* :meth:`PreScheduledExecutor.run` — numeric execution through the
  shared :class:`~repro.core.executor.LevelExecutor` path, one batch
  per phase (all rows in a wavefront are independent);
* :meth:`PreScheduledExecutor.simulate` — machine-model timing;
* :meth:`PreScheduledExecutor.run_threaded` — real threads with
  :class:`threading.Barrier` synchronization.
"""

from __future__ import annotations

import numpy as np

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import (
    SimResult,
    simulate_prescheduled,
    wavefront_batches,
)
from ..machine.threads import ThreadedMachine
from ..runtime.registry import register_executor
from .dependence import DependenceGraph
from .executor import LevelExecutor, LoopKernel
from .schedule import Schedule

__all__ = ["PreScheduledExecutor"]


@register_executor("preschedule")
def _build_prescheduled(inspection, nproc, costs):
    """Registry factory: barrier-synchronized wavefront phases."""
    return PreScheduledExecutor(inspection.schedule, inspection.dep, costs)


class PreScheduledExecutor(LevelExecutor):
    """Barrier-synchronized wavefront execution of a schedule."""

    mode = "preschedule"

    def __init__(self, schedule: Schedule, dep: DependenceGraph,
                 costs: MachineCosts = MULTIMAX_320):
        self.schedule = schedule
        self.dep = dep
        self.costs = costs
        # Materialise phases once; this also validates that every local
        # list is wavefront-sorted (raises ScheduleError otherwise).
        self._phases = schedule.phases()

    # ------------------------------------------------------------------
    @property
    def num_phases(self) -> int:
        return len(self._phases)

    def _build_levels(self):
        # The constructor's phases() call proved every list sorted;
        # the numeric batches are those phases laid end to end.
        flat = self.schedule.flattened()
        return wavefront_batches(flat, self.schedule.wavefronts[flat])

    def simulate(self, *, unit_work: np.ndarray | None = None) -> SimResult:
        """Machine-model timing of this schedule."""
        return simulate_prescheduled(
            self.schedule, self.dep, self.costs, unit_work=unit_work,
        )

    def run_threaded(self, kernel: LoopKernel, *, timeout: float = 30.0,
                     timeline=None, faults=None) -> np.ndarray:
        """Execute on real threads with barrier synchronization.

        ``timeline`` is an optional
        :class:`~repro.observe.TimelineRecorder` stamping every
        iteration's interval on its processor's lane; ``faults`` an
        optional :class:`~repro.resilience.FaultPlan` the machine's
        watchdog consults.
        """
        kernel.start()
        machine = ThreadedMachine(self.schedule.nproc, timeout=timeout,
                                  faults=faults)
        machine.run_prescheduled(kernel, self._phases, timeline=timeline)
        return kernel.result()
