"""Real multi-process execution — the GIL workaround backend.

:class:`~repro.machine.threads.ThreadedMachine` validates executor
protocols but cannot show actual parallelism (CPython's GIL serialises
the numeric work).  :class:`ProcessMachine` runs the same two protocols
over the same kernel on OS processes:

* :meth:`~ProcessMachine.run_prescheduled` — Figure 5: a pool runs each
  phase's per-processor shares, and the phase's ``map`` returning *is*
  the global barrier;
* :meth:`~ProcessMachine.run_self_executing` — Figure 4: one worker per
  processor walks its schedule, busy-waiting on a shared ``ready`` byte
  array exactly like the transformed loop.

Workers run the kernel they are handed: the pool initializer passes it
and ``fork`` inherits it without pickling.  What they write must be
shared, so the machine runs a kernel whose working state is one float64
vector ``x`` (the triangular kernels): ``x`` and the ready flags live in
one anonymous shared mapping the workers inherit, and ``x`` is moved
back into memory of its own before the mapping closes, on every exit
path.  On a two-core box this does not *beat* the serial solve; the
point is that the executor semantics hold under real concurrency.
POSIX/fork-only.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import time
from contextlib import contextmanager

import numpy as np

from ..errors import DeadlockError, ExecutionTimeout, ValidationError
from ..util.validation import check_positive, check_timeout

__all__ = ["ProcessMachine"]

#: What the pool initializer hands a worker (set in the child only).
_WORKER: dict = {}


def _attach(kernel, ready, indptr, indices) -> None:
    _WORKER.update(kernel=kernel, ready=ready, indptr=indptr, indices=indices)


def _run_share(rows: np.ndarray) -> int:
    """One processor's share of one barrier phase (rows independent)."""
    execute_index = _WORKER["kernel"].execute_index
    for i in rows.tolist():
        execute_index(i)
    return len(rows)


def _busy_wait_walk(args) -> int:
    """One processor's whole schedule with busy-waits (Figure 4)."""
    rows, timeout = args
    execute_index, ready = _WORKER["kernel"].execute_index, _WORKER["ready"]
    indptr, indices = _WORKER["indptr"], _WORKER["indices"]
    deadline = time.monotonic() + timeout
    for i in rows.tolist():
        for j in indices[indptr[i]:indptr[i + 1]].tolist():
            spins = 0
            while not ready[j]:
                spins += 1
                if spins % 1024 == 0:
                    time.sleep(0)
                    if time.monotonic() > deadline:
                        raise DeadlockError(
                            f"process busy-wait on index {j} timed out")
        execute_index(i)
        ready[i] = 1
    return len(rows)


class ProcessMachine:
    """Runs per-processor schedule lists on forked worker processes."""

    def __init__(self, nproc: int, *, timeout: float = 30.0):
        if "fork" not in mp.get_all_start_methods():
            raise ValidationError(
                "process backend requires the fork start method (POSIX)")
        self.nproc = check_positive(nproc, "nproc")
        #: Wall seconds: the pool's deadline, and each busy-wait's.
        self.timeout = check_timeout(timeout)

    @contextmanager
    def _pool(self, kernel, dep=None):
        """A pool whose workers share the started ``kernel``'s ``x``
        (and, given ``dep``, the ready flags of its predecessors)."""
        n = kernel.n
        segment = mmap.mmap(-1, max(1, 9 * n))
        x = np.ndarray((n,), dtype=np.float64, buffer=segment)
        x[:] = kernel.x
        kernel.x = x
        ready = np.ndarray((n,), dtype=np.uint8, buffer=segment, offset=8 * n)
        graph = (None, None) if dep is None else (dep.indptr, dep.indices)
        try:
            with mp.get_context("fork").Pool(
                    self.nproc, initializer=_attach,
                    initargs=(kernel, ready, *graph)) as pool:
                yield pool
        finally:
            kernel.x = x.copy()  # no view outlives the mapping
            segment.close()

    def _wait(self, result, seconds: float) -> None:
        try:
            result.get(max(0.0, seconds))
        except mp.TimeoutError:
            raise ExecutionTimeout(
                f"process run exceeded {self.timeout}s "
                "(worker wedged or dead)") from None

    def run_prescheduled(self, kernel, phases) -> None:
        """Execute ``phases[w][p]`` with a barrier after every phase;
        the deadline bounds the whole run."""
        deadline = time.monotonic() + self.timeout
        with self._pool(kernel) as pool:
            for phase in phases:
                work = [rows for rows in phase if rows.size]
                if work:
                    self._wait(pool.map_async(_run_share, work),
                               deadline - time.monotonic())

    def run_self_executing(self, kernel, schedule, dep) -> None:
        """Execute with busy-wait coordination on shared ready flags; a
        schedule that would deadlock is refused before anything forks."""
        if not schedule.is_legal_self_executing(dep):
            raise DeadlockError("schedule would deadlock under self-execution")
        jobs = [(rows, self.timeout) for rows in schedule.local_order]
        with self._pool(kernel, dep) as pool:
            # chunksize=1 with pool size == task count gives each worker
            # one schedule, which the busy-wait's liveness relies on: a
            # blocked worker waits on a schedule already running.  The
            # workers keep their own deadline; the parent's margin
            # catches what they cannot report, a worker that died.
            self._wait(pool.map_async(_busy_wait_walk, jobs, chunksize=1),
                       self.timeout + min(5.0, max(0.5, 0.5 * self.timeout)))
