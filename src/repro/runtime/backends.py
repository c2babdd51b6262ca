"""Execution backends — one protocol over the run paths.

An executor has three differently-shaped entry points (``run`` for
numerics, ``simulate`` for machine-model timing, ``run_threaded`` for
real threads) and the process-based solvers are a world of their own.
:class:`ExecutionBackend` is the one call over them: a backend takes a
:class:`~repro.runtime.session.CompiledLoop` plus a kernel and returns
the ``(numeric result, simulated timing)`` pair that
:class:`~repro.runtime.session.RunReport` normalizes, so ::

    rt = Runtime(nproc=8, backend="threads")
    loop = rt.compile(deps)
    report = loop(kernel)            # same call, any backend

works identically for ``"serial"``, ``"sim"``, ``"threads"`` and
``"processes"`` — the four registered here, and all there are.  Which
*plan* runs is not a backend's business: a speculative loop's executor
owns the optimistic protocol, so ``serial`` runs it speculatively and
``sim`` times it.  New backends (a GPU dispatcher, a distributed pool)
register with :func:`~repro.runtime.registry.register_backend` without
touching core.

Backends receive the kernel already resolved: loops compiled from a
:class:`~repro.program.LoopProgram` carry a pre-bound kernel, which
the session substitutes when the caller passes none — a backend never
distinguishes bound from per-call kernels.

Built-in backends
-----------------
* ``serial`` — deterministic numeric execution (each executor replays a
  provably legal order) plus the machine-model timing: the default;
* ``sim`` — timing only; no kernel required, ``x`` is ``None``;
* ``threads`` — real Python threads with the executor's own
  synchronization protocol (busy-waits or barriers), validating the
  protocol under true concurrency;
* ``processes`` — genuinely parallel OS processes over POSIX shared
  memory; supports the sparse triangular-solve workload
  (:class:`~repro.core.executor.TriangularSolveKernel`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..machine.simulator import SimResult
from .registry import register_backend

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "SimBackend",
    "ThreadsBackend",
    "ProcessesBackend",
]


class ExecutionBackend:
    """Protocol: turn a compiled loop + kernel into ``(x, sim)``.

    Subclasses override :meth:`execute`; stateless instances are
    constructed per call by the :class:`~repro.runtime.Runtime`
    session.  Returning ``sim=None`` means "attach the standard
    machine-model timing": the session fills it in (memoized, and
    outside the wall-clock measurement) unless the caller opted out —
    so execution backends never pay for a simulation the caller
    discards.
    """

    #: Registry key (set on registration; informational).
    name: str = "abstract"
    #: Whether :meth:`execute` requires a kernel.
    needs_kernel: bool = True

    def execute(
        self,
        compiled,
        kernel,
        *,
        unit_work: np.ndarray | None = None,
        timeout: float = 30.0,
    ) -> tuple[np.ndarray | None, SimResult | None]:
        raise NotImplementedError

    def check_kernel(self, kernel) -> None:
        if self.needs_kernel and kernel is None:
            raise ValidationError(
                f"backend {self.name!r} executes a kernel; pass one, or "
                "compile a kernel-bearing LoopProgram so the loop is "
                "pre-bound (only the 'sim' backend runs kernel-free)"
            )


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Deterministic in-process execution — the correctness reference."""

    name = "serial"

    def execute(self, compiled, kernel, *, unit_work=None, timeout=30.0):
        self.check_kernel(kernel)
        return compiled.executor.run(kernel), None


@register_backend("sim")
class SimBackend(ExecutionBackend):
    """Machine-model timing only; no numeric execution."""

    name = "sim"
    needs_kernel = False

    def execute(self, compiled, kernel, *, unit_work=None, timeout=30.0):
        return None, compiled.simulate(unit_work=unit_work)


@register_backend("threads")
class ThreadsBackend(ExecutionBackend):
    """Real threads running the executor's synchronization protocol.

    Kernels declaring ``thread_safe = False`` (the replay kernel
    :class:`~repro.program.StatementReplayKernel`, whose proxies keep
    per-iteration state) are rejected eagerly — silently racing on
    shared kernel state would corrupt numerics without any error.
    """

    name = "threads"

    def execute(self, compiled, kernel, *, unit_work=None, timeout=30.0):
        self.check_kernel(kernel)
        if not getattr(kernel, "thread_safe", True):
            raise ValidationError(
                f"kernel {type(kernel).__name__} declares itself not "
                "thread-safe; run it on the 'serial' backend (or the "
                "'sim' backend for timing only)"
            )
        observer = getattr(compiled.runtime, "observer", None)
        recorder = None
        if observer is not None:
            from ..observe.export import TimelineRecorder

            recorder = TimelineRecorder(compiled.nproc)
        # The plan reaches the machine's watchdog, which then honors
        # injected timeouts and cancels injected stalls.
        x = compiled.executor.run_threaded(
            kernel, timeout=timeout, timeline=recorder,
            faults=getattr(compiled.runtime, "faults", None))
        if recorder is not None:
            #: Read by the session right after execute().
            self.last_timeline = recorder.timeline()
        return x, None


@register_backend("processes")
class ProcessesBackend(ExecutionBackend):
    """Genuinely parallel execution on OS processes + shared memory.

    The process solvers implement the two executor protocols for the
    paper's flagship workload, the sparse lower-triangular solve; other
    kernels are rejected with a clear error rather than silently
    falling back.
    """

    name = "processes"

    def execute(self, compiled, kernel, *, unit_work=None, timeout=30.0):
        from ..core.executor import TriangularSolveKernel
        from ..machine.processes import (
            ProcessPrescheduledSolver,
            ProcessSelfExecutingSolver,
        )

        self.check_kernel(kernel)
        if not isinstance(kernel, TriangularSolveKernel):
            raise ValidationError(
                "the 'processes' backend supports TriangularSolveKernel "
                f"workloads, got {type(kernel).__name__}"
            )
        # Faults travel as a picklable handout, not a wrapped kernel:
        # the workers rebuild their state from the pool initializer.
        plan = getattr(compiled.runtime, "faults", None)
        faults = plan.process_faults(kernel.n) if plan is not None else None
        if compiled.executor_name == "preschedule":
            solver = ProcessPrescheduledSolver(
                kernel.l, compiled.schedule, compiled.dep, diag=kernel.diag,
            )
            x = solver.solve(kernel.b, timeout=timeout, faults=faults)
        else:
            # Self-executing and doacross both busy-wait on ready flags;
            # doacross simply walks the identity schedule.
            solver = ProcessSelfExecutingSolver(
                kernel.l, compiled.schedule, compiled.dep, diag=kernel.diag,
            )
            x = solver.solve(kernel.b, timeout=timeout, faults=faults)
        return x, None
