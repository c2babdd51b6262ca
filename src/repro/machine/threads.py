"""Real thread-based execution of schedules.

CPython's GIL serialises the numeric work, so this backend cannot show
*speedups* — its purpose is to validate that the executor protocols are
*correct under true concurrency*: threads really do interleave at
bytecode granularity, so an executor that under-synchronises produces
wrong answers here.  The test-suite runs every executor through this
backend and compares against the sequential oracle.

The kernel duck-type: any object with ``execute_index(i)`` (and
``start()``/``result()``, used by the callers, not by this module).

Failure discipline
------------------
* A kernel exception in a worker is wrapped into a typed
  :class:`~repro.errors.ExecutionError` carrying the originating
  iteration index and raised in the calling thread; library errors
  (:class:`~repro.errors.ReproError`) pass through untouched, as does
  the ``FloatingPointError`` of the caller's ``np.errstate``.
* Every run is supervised by a **watchdog** thread enforcing the
  ``timeout``: when the wall deadline passes, the watchdog sets the
  shared abort event.  Cancellation is *cooperative* — busy-waits poll
  the event between spins, and wavefront barriers are condition-based
  so blocked waiters wake and unwind instead of deadlocking — and the
  run raises
  :class:`~repro.errors.ExecutionTimeout` (a
  :class:`~repro.errors.DeadlockError` subclass, preserving the old
  guard's contract) with per-lane progress in the message.
* The first worker error also sets the abort event, so surviving
  lanes unwind promptly instead of spinning out the full timeout.
"""

from __future__ import annotations

import contextvars
import threading
import time

from ..errors import ExecutionError, ExecutionTimeout, ReproError
from ..util.validation import check_positive, check_timeout

__all__ = ["ThreadedMachine"]

#: Busy-waits yield the GIL (and poll the abort event) every this many
#: spins.
SPIN_YIELD_EVERY = 64


class _Cancelled(Exception):
    """Internal: a lane unwinding after the abort event was set."""


class _WavefrontBarrier:
    """A barrier whose waiters poll the abort event.

    ``threading.Barrier`` breaks permanently once any wait times out;
    this one instead lets every waiter notice a cancelled run within
    one poll interval and unwind via :class:`_Cancelled`, keeping the
    barrier usable for lanes that arrive after the abort.
    """

    def __init__(self, parties: int, abort: threading.Event, poll: float):
        self._parties = parties
        self._abort = abort
        self._poll = poll
        self._cond = threading.Condition()
        self._count = 0
        self._generation = 0

    def wait(self) -> None:
        with self._cond:
            generation = self._generation
            self._count += 1
            if self._count == self._parties:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
            while self._generation == generation:
                self._cond.wait(self._poll)
                if self._abort.is_set():
                    raise _Cancelled()


class ThreadedMachine:
    """Runs per-processor schedule lists on real Python threads."""

    def __init__(self, nproc: int, *, timeout: float = 30.0):
        self.nproc = check_positive(nproc, "nproc")
        #: Wall-clock deadline for a run, enforced by the watchdog.
        self.timeout = check_timeout(timeout)
        #: Watchdog / barrier poll interval: fine-grained enough that
        #: short test timeouts cancel promptly, coarse enough to stay
        #: invisible next to the kernel work.
        self.poll = min(0.05, max(self.timeout / 20.0, 0.001))

    # ------------------------------------------------------------------
    def _prepare(self) -> threading.Event:
        """Per-run shared state: abort event, expiry, progress counters."""
        self._abort = threading.Event()
        self._expired = False
        self._progress = [0] * self.nproc
        return self._abort

    def _watch(self, deadline: float) -> None:
        """Watchdog body: abort the run at the deadline."""
        abort = self._abort
        while not abort.is_set():
            if time.monotonic() > deadline:
                self._expired = True
                abort.set()
                return
            abort.wait(self.poll)

    def _launch(self, target, per_proc_args) -> None:
        """Run one thread per processor under the watchdog; the run_*
        entry point has already called :meth:`_prepare`."""
        abort = self._abort
        errors: list[BaseException] = []
        lock = threading.Lock()

        def wrap(args):
            try:
                target(*args)
            except _Cancelled:
                pass  # cooperative unwind; the cause is recorded elsewhere
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                # Fail fast: let the other lanes unwind instead of
                # spinning on results that will never arrive.
                abort.set()

        # Each lane runs in its own copy of the caller's np.errstate.
        threads = [
            threading.Thread(target=contextvars.copy_context().run,
                             args=(wrap, per_proc_args[p]), daemon=True)
            for p in range(self.nproc)
        ]
        deadline = time.monotonic() + self.timeout
        watchdog = threading.Thread(target=self._watch, args=(deadline,),
                                    daemon=True)
        for t in threads:
            t.start()
        watchdog.start()
        # Cancellation is cooperative, so lanes normally exit within a
        # poll interval of the abort; the grace window only matters for
        # kernels that block outside our control.
        grace = max(1.0, 20 * self.poll)
        for t in threads:
            t.join(max(0.0, deadline + grace - time.monotonic()))
        zombies = [p for p, t in enumerate(threads) if t.is_alive()]
        abort.set()  # stop the watchdog on clean completion
        watchdog.join(max(0.2, 4 * self.poll))
        if errors:
            exc = errors[0]
            if isinstance(exc, (ReproError, FloatingPointError)):
                raise exc
            raise ExecutionError(f"worker thread failed: {exc}") from exc
        if self._expired or zombies:
            progress = ", ".join(
                f"p{p}:{done}" for p, done in enumerate(self._progress))
            extra = (f"; non-cooperative lanes still running: {zombies}"
                     if zombies else "")
            raise ExecutionTimeout(
                f"threaded run cancelled by the watchdog (exceeded "
                f"{self.timeout}s — probable deadlock); "
                f"iterations completed per lane: [{progress}]{extra}")

    # ------------------------------------------------------------------
    def _lane_run(self, kernel, timeline, lane: int):
        """The per-processor iteration body, guarded and counted.

        ``timeline`` is a
        :class:`~repro.observe.export.TimelineRecorder` (or ``None``):
        when recording, every ``execute_index`` call stamps a
        ``(start, end, i)`` interval on its processor's lane.  Kernel
        failures surface as :class:`~repro.errors.ExecutionError` with
        the originating iteration; library errors pass through.
        """
        if timeline is None:
            base = kernel.execute_index
        else:
            base = timeline.recording(kernel.execute_index, lane)
        progress = self._progress

        def run(i):
            try:
                base(i)
            except (ReproError, FloatingPointError, _Cancelled):
                raise
            except BaseException as exc:
                raise ExecutionError(
                    f"worker {lane} failed at iteration {i}: {exc}",
                    iteration=i) from exc
            progress[lane] += 1

        return run

    def run_prescheduled(self, kernel, phases, *, timeline=None) -> None:
        """Execute ``phases[w][p]`` with a barrier after every phase.

        ``phases`` is the output of :meth:`repro.core.Schedule.phases`.
        """
        abort = self._prepare()
        barrier = _WavefrontBarrier(self.nproc, abort, self.poll)
        num_phases = len(phases)

        def proc(p):
            run = self._lane_run(kernel, timeline, p)
            for w in range(num_phases):
                for i in phases[w][p]:
                    if abort.is_set():
                        raise _Cancelled()
                    run(int(i))
                barrier.wait()

        self._launch(proc, [(p,) for p in range(self.nproc)])

    def run_self_executing(self, kernel, schedule, dep, *,
                           timeline=None) -> None:
        """Execute with busy-wait coordination on a shared ready list.

        Faithful to Figure 4: each iteration spins until every operand's
        ``ready`` flag is set, then computes, then sets its own flag.
        """
        n = schedule.n
        ready = bytearray(n)  # GIL guarantees byte-level atomicity
        indptr, indices = dep.indptr, dep.indices
        abort = self._prepare()

        def proc(p):
            run = self._lane_run(kernel, timeline, p)
            for i in schedule.local_order[p]:
                i = int(i)
                if abort.is_set():
                    raise _Cancelled()
                for j in indices[indptr[i] : indptr[i + 1]]:
                    j = int(j)
                    spins = 0
                    while not ready[j]:
                        spins += 1
                        if spins % SPIN_YIELD_EVERY == 0:
                            time.sleep(0)
                            if abort.is_set():
                                raise _Cancelled()
                run(i)
                ready[i] = 1

        self._launch(proc, [(p,) for p in range(self.nproc)])
