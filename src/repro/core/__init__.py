"""The paper's primary contribution: run-time loop parallelization.

This package implements the inspector/executor machinery of Sections 2
and 3 of the paper:

* :mod:`~repro.core.dependence` — iteration-level dependence graphs
  extracted from indirection arrays or sparse-matrix structures;
* :mod:`~repro.core.wavefront` — the topological sort of Figure 7 that
  assigns every loop index a wavefront number (vectorized frontier
  engine; the per-index originals live in :mod:`~repro.core.reference`
  as property-tested oracles);
* :mod:`~repro.core.partition` — wrapped/blocked index partitions;
* :mod:`~repro.core.schedule` — global and local index-set scheduling;
* :mod:`~repro.core.inspector` — the run-time inspector tying the above
  together (with cost accounting for Table 5);
* :mod:`~repro.core.executor` and friends — the pre-scheduled
  (Figure 5), self-executing (Figure 4) and doacross executors, each
  with a numeric engine, a simulated-machine timing engine, and a real
  thread-based engine.
"""

from . import reference
from .dependence import DependenceGraph
from .wavefront import compute_wavefronts, wavefront_counts, wavefront_members
from .partition import (
    wrapped_partition,
    blocked_partition,
    chunked_partition,
    owner_from_assignment,
)
from .schedule import (
    Schedule,
    global_schedule,
    local_schedule,
    identity_schedule,
    save_schedule_npz,
    load_schedule_npz,
)
from .inspector import Inspector, InspectionResult
from .executor import (
    LoopKernel,
    GenericLoopKernel,
    SimpleLoopKernel,
    TriangularSolveKernel,
    UpperTriangularSolveKernel,
    SerialExecutor,
)
from .self_executing import SelfExecutingExecutor
from .prescheduled import PreScheduledExecutor
from .doacross import DoacrossExecutor

__all__ = [
    "reference",
    "DependenceGraph",
    "compute_wavefronts",
    "wavefront_counts",
    "wavefront_members",
    "wrapped_partition",
    "blocked_partition",
    "chunked_partition",
    "owner_from_assignment",
    "Schedule",
    "global_schedule",
    "local_schedule",
    "identity_schedule",
    "save_schedule_npz",
    "load_schedule_npz",
    "Inspector",
    "InspectionResult",
    "LoopKernel",
    "GenericLoopKernel",
    "SimpleLoopKernel",
    "TriangularSolveKernel",
    "UpperTriangularSolveKernel",
    "SerialExecutor",
    "SelfExecutingExecutor",
    "PreScheduledExecutor",
    "DoacrossExecutor",
]
