"""Real multi-process execution — the GIL workaround backend.

:class:`ThreadedMachine` validates executor *protocols* but cannot show
actual parallelism (CPython's GIL serialises the numeric work).  This
module provides genuinely parallel execution of the two executor
strategies for the paper's flagship workload — the sparse triangular
solve — using OS processes and POSIX shared memory:

* :class:`ProcessPrescheduledSolver` — Figure 5 semantics: a process
  pool executes each wavefront phase as a level-synchronous batch; the
  synchronous ``map`` return *is* the global barrier.
* :class:`ProcessSelfExecutingSolver` — Figure 4 semantics: one worker
  process per simulated processor walks its schedule, busy-waiting on a
  shared ``ready`` byte array exactly like the transformed loop.

Workers inherit the matrix via ``fork`` (copy-on-write, no
serialization of the large arrays per task); the solution vector and
the ready flags live in :class:`multiprocessing.shared_memory`.

On a two-core CI box with interpreter-per-process overhead these do not
*beat* the sequential solve for small systems — the point is that the
executor semantics are correct under real concurrency, and that the
library provides the multiprocessing path the paper's shared-memory
machine made native.  (This backend is POSIX/fork-only.)
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import shared_memory

import numpy as np

from ..errors import DeadlockError, ExecutionTimeout, ValidationError
from ..core.dependence import DependenceGraph
from ..core.schedule import Schedule
from ..sparse.csr import CSRMatrix
from ..sparse.triangular import resolve_diagonal
from ..util.validation import check_vector

__all__ = ["ProcessPrescheduledSolver", "ProcessSelfExecutingSolver"]

# Module-level worker state, installed by the pool initializer.  With
# the fork start method children inherit the parent's address space, so
# the matrix arrays arrive copy-on-write; only the shared-memory names
# travel through the initializer arguments.
_STATE: dict = {}


def _attach_worker(shm_x_name, shm_ready_name, indptr, indices, data, diag, b):
    _STATE["shm_x"] = shared_memory.SharedMemory(name=shm_x_name)
    n = diag.shape[0]
    _STATE["x"] = np.ndarray((n,), dtype=np.float64, buffer=_STATE["shm_x"].buf)
    if shm_ready_name is not None:
        _STATE["shm_ready"] = shared_memory.SharedMemory(name=shm_ready_name)
        _STATE["ready"] = np.ndarray(
            (n,), dtype=np.uint8, buffer=_STATE["shm_ready"].buf
        )
    _STATE["indptr"] = indptr
    _STATE["indices"] = indices
    _STATE["data"] = data
    _STATE["diag"] = diag
    _STATE["b"] = b


def _solve_rows_batch(rows: np.ndarray) -> int:
    """One processor's share of one wavefront phase (rows independent)."""
    x = _STATE["x"]
    indptr, indices, data = _STATE["indptr"], _STATE["indices"], _STATE["data"]
    diag, b = _STATE["diag"], _STATE["b"]
    for i in rows:
        lo, hi = indptr[i], indptr[i + 1]
        acc = b[i]
        for k in range(lo, hi):
            j = indices[k]
            if j < i:
                acc -= data[k] * x[j]
        x[i] = acc / diag[i]
    return len(rows)


def _self_executing_walk(args) -> int:
    """One processor's full schedule with busy-waits (Figure 4)."""
    rows, timeout = args
    x = _STATE["x"]
    ready = _STATE["ready"]
    indptr, indices, data = _STATE["indptr"], _STATE["indices"], _STATE["data"]
    diag, b = _STATE["diag"], _STATE["b"]
    deadline = time.monotonic() + timeout
    for i in rows:
        lo, hi = indptr[i], indptr[i + 1]
        acc = b[i]
        for k in range(lo, hi):
            j = indices[k]
            if j < i:
                spins = 0
                while not ready[j]:
                    spins += 1
                    if spins % 1024 == 0:
                        time.sleep(0)
                        if time.monotonic() > deadline:
                            raise DeadlockError(
                                f"process busy-wait on index {j} timed out"
                            )
                acc -= data[k] * x[j]
        x[i] = acc / diag[i]
        ready[i] = 1
    return len(rows)


class _ProcessSolverBase:
    """Shared setup: validates inputs, owns the shared-memory segments."""

    def __init__(self, l: CSRMatrix, schedule: Schedule,
                 dep: DependenceGraph | None = None,
                 *, diag: np.ndarray | None = None,
                 unit_diagonal: bool = False):
        if "fork" not in mp.get_all_start_methods():
            raise ValidationError(
                "process backend requires the fork start method (POSIX)"
            )
        n = l.nrows
        if schedule.n != n:
            raise ValidationError("schedule size must match the matrix")
        if not l.is_lower_triangular():
            raise ValidationError("process solvers handle lower triangular systems")
        self.l = l
        self.schedule = schedule
        self.dep = dep
        self.diag = resolve_diagonal(l, diag, unit_diagonal)
        if np.any(self.diag == 0.0):
            raise ValidationError("triangular solve requires a nonzero diagonal")
        self.n = n

    def _make_shared(self, with_ready: bool):
        shm_x = shared_memory.SharedMemory(create=True, size=self.n * 8)
        shm_ready = (
            shared_memory.SharedMemory(create=True, size=max(1, self.n))
            if with_ready else None
        )
        return shm_x, shm_ready


class ProcessPrescheduledSolver(_ProcessSolverBase):
    """Level-synchronous (barrier) triangular solve on real processes."""

    def solve(self, b: np.ndarray, *, timeout: float | None = None,
              phases: list | None = None) -> np.ndarray:
        """Solve ``L x = b`` in ``phases`` (the schedule's by default);
        ``timeout`` bounds the whole solve (wall seconds) — a wedged or
        dead worker raises :class:`~repro.errors.ExecutionTimeout`
        instead of hanging the caller."""
        b = check_vector(b, self.n, "b")
        phases = self.schedule.phases() if phases is None else phases
        shm_x, _ = self._make_shared(with_ready=False)
        ctx = mp.get_context("fork")
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            x_view = np.ndarray((self.n,), dtype=np.float64, buffer=shm_x.buf)
            x_view[:] = 0.0
            with ctx.Pool(
                self.schedule.nproc,
                initializer=_attach_worker,
                initargs=(shm_x.name, None, self.l.indptr, self.l.indices,
                          self.l.data, self.diag, b),
            ) as pool:
                for phase in phases:
                    work = [rows for rows in phase if rows.size]
                    if not work:
                        continue
                    if deadline is None:
                        # The synchronous map IS the global barrier.
                        pool.map(_solve_rows_batch, work)
                    else:
                        result = pool.map_async(_solve_rows_batch, work)
                        remaining = deadline - time.monotonic()
                        try:
                            result.get(max(0.0, remaining))
                        except mp.TimeoutError:
                            pool.terminate()
                            raise ExecutionTimeout(
                                f"prescheduled process solve exceeded "
                                f"{timeout}s (worker wedged or dead)"
                            ) from None
            return x_view.copy()
        finally:
            shm_x.close()
            shm_x.unlink()


class ProcessSelfExecutingSolver(_ProcessSolverBase):
    """Busy-wait coordinated triangular solve on real processes."""

    def __init__(self, l, schedule, dep, **kwargs):
        super().__init__(l, schedule, dep, **kwargs)
        if dep is None:
            raise ValidationError("self-executing backend needs the dependence graph")
        if not schedule.is_legal_self_executing(dep):
            raise DeadlockError("schedule would deadlock under self-execution")

    def solve(self, b: np.ndarray, *, timeout: float = 60.0) -> np.ndarray:
        b = check_vector(b, self.n, "b")
        shm_x, shm_ready = self._make_shared(with_ready=True)
        ctx = mp.get_context("fork")
        try:
            x_view = np.ndarray((self.n,), dtype=np.float64, buffer=shm_x.buf)
            x_view[:] = 0.0
            ready_view = np.ndarray((self.n,), dtype=np.uint8, buffer=shm_ready.buf)
            ready_view[:] = 0
            with ctx.Pool(
                self.schedule.nproc,
                initializer=_attach_worker,
                initargs=(shm_x.name, shm_ready.name, self.l.indptr,
                          self.l.indices, self.l.data, self.diag, b),
            ) as pool:
                jobs = [
                    (self.schedule.local_order[p], timeout)
                    for p in range(self.schedule.nproc)
                ]
                # chunksize=1 with pool size == task count guarantees a
                # 1:1 worker/schedule mapping, which the busy-wait
                # protocol's liveness argument relies on: a blocked
                # worker can only be waiting on a schedule that is
                # already running in another worker.
                result = pool.map_async(_self_executing_walk, jobs,
                                        chunksize=1)
                try:
                    # Workers enforce their own busy-wait deadline; the
                    # parent-side margin catches the one failure they
                    # cannot report — a worker that died outright (its
                    # task never completes, so a bare map would hang).
                    result.get(timeout + min(5.0, max(0.5, 0.5 * timeout)))
                except mp.TimeoutError:
                    pool.terminate()
                    raise ExecutionTimeout(
                        f"self-executing process solve exceeded "
                        f"{timeout}s (worker wedged or dead)"
                    ) from None
            return x_view.copy()
        finally:
            shm_x.close()
            shm_x.unlink()
            shm_ready.close()
            shm_ready.unlink()
