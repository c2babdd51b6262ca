"""The self-executing executor (Figure 4 of the paper).

A self-executing loop is "a doacross loop that executes loop iterations
in a modified order": every iteration busy-waits on a shared ``ready``
array until the iterations it depends on have completed, computes, then
marks itself ready.  There are no global barriers, so iterations of
consecutive wavefronts overlap in a pipeline whenever the dependences
allow — the effect behind the robustness results of Section 5.1.4.

Numeric, simulated and threaded engines are
:class:`~repro.core.executor.ClassicExecutor`'s.
"""

from __future__ import annotations

import numpy as np

from ..runtime.registry import register_executor
from .executor import ClassicExecutor

__all__ = ["SelfExecutingExecutor"]


@register_executor("self")
def _build_self_executing(inspection, nproc, costs):
    """Registry factory: Figure 1's recommended executor."""
    return SelfExecutingExecutor(inspection.schedule, inspection.dep, costs)


class SelfExecutingExecutor(ClassicExecutor):
    """Busy-wait coordinated execution of a (reordered) schedule."""

    mode = "self"

    def execution_order(self) -> np.ndarray:
        """A deadlock-free total order consistent with this schedule."""
        return self.level_plan().order
