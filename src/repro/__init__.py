"""repro — run-time parallelization and scheduling of loops.

A production-quality reproduction of Saltz, Mirchandaney & Baxter,
*Run-Time Parallelization and Scheduling of Loops* (ICASE 88-70 /
SPAA 1989): the inspector/executor model, wavefront scheduling (global
and local), pre-scheduled and self-executing executors, loop programs
recorded from plain Python bodies, a simulated shared-memory
multiprocessor, a parallel preconditioned Krylov solver (PCGPAK
stand-in), and the paper's full experimental harness.

Quick start
-----------
>>> import numpy as np
>>> from repro import LoopProgram, Runtime
>>> ia = np.array([0, 0, 1, 2, 1, 4])
>>> prog = LoopProgram.from_indirection(ia, x=np.ones(6),
...                                     b=0.5 * np.ones(6))
>>> rt = Runtime(nproc=4)
>>> loop = rt.compile(prog)       # dependence extraction + schedule
>>> out = loop()                  # the kernel is already bound
>>> round(float(out.sim.efficiency), 3) <= 1.0
True
>>> _ = loop.rebind(x=np.zeros(6))   # new data, zero inspector work

(Raw dependence data compiles directly too:
``rt.compile(ia)(kernel)``.)

See ``examples/`` for full walkthroughs and ``benchmarks/`` for the
table/figure reproductions.
"""

from .errors import (
    ReproError,
    ValidationError,
    StructureError,
    ScheduleError,
    DeadlockError,
    ExecutionError,
    ExecutionTimeout,
    ConvergenceError,
)
from .core.inspector import Inspector, InspectionResult
from .machine.costs import MachineCosts, MULTIMAX_320
from .program import At, LoopProgram
from .runtime import (
    Runtime,
    CompiledLoop,
    RunReport,
    ScheduleCache,
    register_executor,
    register_scheduler,
    register_partitioner,
)
from .tuning import Tuner, TuningStore, TuningVerdict
# Importing the package registers the "speculative" executor.
from .speculate import AccessLog, ConflictReport, SpeculativeExecutor
from .resilience import RecoveryRecord, RetryPolicy
from .observe import (
    MetricsRegistry,
    Observer,
    PhaseBreakdown,
    Timeline,
    Tracer,
    simulated_timeline,
    write_chrome_trace,
)

__version__ = "14.0.0"

__all__ = [
    "At",
    "LoopProgram",
    "Runtime",
    "CompiledLoop",
    "RunReport",
    "ScheduleCache",
    "Tuner",
    "TuningStore",
    "TuningVerdict",
    "AccessLog",
    "ConflictReport",
    "SpeculativeExecutor",
    "RetryPolicy",
    "RecoveryRecord",
    "Observer",
    "Tracer",
    "MetricsRegistry",
    "PhaseBreakdown",
    "Timeline",
    "simulated_timeline",
    "write_chrome_trace",
    "register_executor",
    "register_scheduler",
    "register_partitioner",
    "ReproError",
    "ValidationError",
    "StructureError",
    "ScheduleError",
    "DeadlockError",
    "ExecutionError",
    "ExecutionTimeout",
    "ConvergenceError",
    "Inspector",
    "InspectionResult",
    "MachineCosts",
    "MULTIMAX_320",
    "__version__",
]
