"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
while still being able to discriminate the finer-grained categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, ...)."""


class StructureError(ReproError, ValueError):
    """A sparse-matrix or graph structure is malformed or inconsistent.

    Raised, for example, when a CSR ``indptr`` is not monotone, when a
    column index is out of range, or when a matrix expected to be lower
    triangular has entries above the diagonal.
    """


class ScheduleError(ReproError, RuntimeError):
    """A schedule is illegal for the executor it was handed to.

    A schedule is *legal* for the self-executing executor when the
    combined graph of program-order edges (consecutive entries of each
    processor's local list) and dependence edges is acyclic; otherwise
    the busy-waits of Figure 4 of the paper would deadlock.  The
    pre-scheduled executor additionally requires every dependence to
    cross a phase boundary.
    """


class DeadlockError(ScheduleError):
    """Self-execution deadlocked: a cycle of busy-waits was detected."""


class ExecutionError(ReproError, RuntimeError):
    """A backend execution failed inside a worker.

    Raised (in the calling thread) when a worker thread or process
    dies mid-run: the original exception travels as ``__cause__`` and
    ``iteration`` carries the loop index that was executing, so a
    failure deep in a wavefront is attributable rather than a bare
    join-time surprise.  Recoverable: the
    :mod:`repro.resilience` degradation chain retries these down-tier.
    """

    def __init__(self, message: str, *, iteration: int | None = None):
        super().__init__(message)
        #: Loop iteration that was executing when the worker failed
        #: (``None`` when the failure was outside any iteration body).
        self.iteration = None if iteration is None else int(iteration)


class ExecutionTimeout(ExecutionError, DeadlockError):
    """The watchdog cancelled a run that exceeded its ``timeout``.

    Subclasses both :class:`ExecutionError` (it is a recoverable
    execution failure) and :class:`DeadlockError` (historically the
    thread machine's wall-clock guard reported deadlocks this way, and
    a stuck wavefront is indistinguishable from one).
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""

    def __init__(self, message: str, *, iterations: int, residual: float):
        super().__init__(message)
        #: Number of iterations performed before giving up.
        self.iterations = int(iterations)
        #: Final relative residual norm.
        self.residual = float(residual)
