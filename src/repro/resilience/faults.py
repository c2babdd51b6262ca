"""Deterministic, seeded fault injection at the runtime's named seams.

A :class:`FaultPlan` is a session-scoped budget of failures.  Each
:class:`FaultSpec` names a seam, how many times it fires (``times``,
default once — so a retry of the same tier succeeds once the budget is
spent), and where (an explicit iteration, or a seeded choice drawn
from :func:`repro.util.rng.default_rng` the first time the plan meets
a workload).  Activated via ``Runtime(faults=...)`` and guarded with
the same zero-overhead ``is None`` pattern as :mod:`repro.observe`:
a ``faults=None`` session never constructs a wrapper, takes a lock, or
branches more than once per call.

Seams
-----
``kernel``
    Raise :class:`~repro.errors.InjectedFault` from
    ``execute_index``/``execute_batch``/``execute_levels`` at the
    target iteration — a user-kernel exception mid-wavefront.
``stall``
    Sleep ``seconds`` inside the target iteration before computing —
    a wedged worker.  Stalls are cooperative: the thread machine's
    watchdog cancels them on abort, so a cancelled run unwinds
    instead of leaking a sleeping thread into the retry.
``death``
    Raise a plain ``RuntimeError`` (threads — exercising the typed
    :class:`~repro.errors.ExecutionError` wrapping) or hard-exit the
    worker process (``processes``) at the target iteration.
``store``
    Corrupt the next on-disk write of the schedule cache / tuning
    store — bytes land at the *final* path, simulating a crash
    mid-write before the atomic rename; later reads self-heal.
``timeout``
    Make the thread machine's watchdog fire immediately, regardless
    of the wall clock — a simulated timeout without the wait.

All mutation of the budget happens under one lock: the plan is shared
by worker threads, the watchdog and the stores.  It may be shared by
sessions too, so it holds none of their state: an observed session
counts the growth of ``plan.fired`` across its own attempts and store
writes (:meth:`FaultPlan.mirror`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import InjectedFault, ValidationError
from ..util.rng import default_rng

__all__ = ["FaultSpec", "FaultPlan", "SEAMS"]

#: The injectable seams, in degradation-chain order of appearance.
SEAMS = ("kernel", "stall", "death", "store", "timeout")

#: Seams that target a specific loop iteration.
_ITERATION_SEAMS = ("kernel", "stall", "death")


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: where, how often, and its parameters."""

    #: Seam name — one of :data:`SEAMS`.
    seam: str
    #: How many times this fault fires before going quiet (the budget
    #: that lets a retry of the same tier eventually succeed).
    times: int = 1
    #: Target iteration for iteration-scoped seams; ``None`` draws a
    #: seeded choice once the workload size is known.
    iteration: int | None = None
    #: Stall duration (``stall`` seam only).
    seconds: float = 0.25
    #: Which store the ``store`` seam corrupts: ``"schedule"``,
    #: ``"tuning"``, or ``None`` for whichever writes first.
    store: str | None = None
    #: Corruption shape: ``"truncate"`` (short prefix of junk) or
    #: ``"garbage"`` (full-length junk bytes).
    mode: str = "truncate"

    def __post_init__(self):
        if self.seam not in SEAMS:
            raise ValidationError(
                f"unknown fault seam {self.seam!r}; valid seams are: "
                + ", ".join(repr(s) for s in SEAMS))
        if self.times < 1:
            raise ValidationError("fault times must be at least 1")
        if self.seconds <= 0:
            raise ValidationError("stall seconds must be positive")
        if self.store not in (None, "schedule", "tuning"):
            raise ValidationError(
                "fault store must be 'schedule', 'tuning' or None")
        if self.mode not in ("truncate", "garbage"):
            raise ValidationError("fault mode must be 'truncate' or 'garbage'")


class FaultPlan:
    """A seeded, budgeted set of :class:`FaultSpec` to inject.

    Convenience constructors build the common single-fault plans::

        Runtime(faults=FaultPlan.kernel_exception(), recovery=True)
        Runtime(faults=FaultPlan.worker_stall(seconds=5.0), ...)

    Compose several seams by passing specs explicitly::

        FaultPlan([FaultSpec("kernel"), FaultSpec("store")], seed=7)

    The plan is stateful: each spec's ``times`` budget decrements when
    it fires, and ``plan.fired`` records every injection (seam,
    iteration, detail) for reports and tests.
    """

    def __init__(self, specs=(), *, seed: int | None = None):
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ValidationError(
                    f"FaultPlan takes FaultSpec entries, got "
                    f"{type(spec).__name__}")
        self.seed = seed
        self._rng = default_rng(0 if seed is None else seed)
        self._remaining = [spec.times for spec in self.specs]
        #: Resolved iteration per spec index (seeded choices memoized).
        self._chosen: dict[int, int] = {}
        self._lock = threading.Lock()
        #: Cooperative cancellation of in-flight stalls (set by the
        #: watchdog / first worker error, cleared per attempt).
        self._cancel = threading.Event()
        #: Record of every injection: dicts of seam/iteration/detail.
        self.fired: list[dict] = []

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def kernel_exception(cls, iteration: int | None = None, *,
                         times: int = 1, seed: int | None = None):
        return cls([FaultSpec("kernel", times=times, iteration=iteration)],
                   seed=seed)

    @classmethod
    def worker_stall(cls, seconds: float = 0.25,
                     iteration: int | None = None, *,
                     times: int = 1, seed: int | None = None):
        return cls([FaultSpec("stall", times=times, iteration=iteration,
                              seconds=seconds)], seed=seed)

    @classmethod
    def worker_death(cls, iteration: int | None = None, *,
                     times: int = 1, seed: int | None = None):
        return cls([FaultSpec("death", times=times, iteration=iteration)],
                   seed=seed)

    @classmethod
    def store_partial_write(cls, store: str | None = None, *,
                            times: int = 1, mode: str = "truncate",
                            seed: int | None = None):
        return cls([FaultSpec("store", times=times, store=store, mode=mode)],
                   seed=seed)

    @classmethod
    def forced_timeout(cls, *, times: int = 1, seed: int | None = None):
        return cls([FaultSpec("timeout", times=times)], seed=seed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _target(self, idx: int, n: int) -> int:
        """Resolved target iteration of spec ``idx`` (seeded, memoized)."""
        spec = self.specs[idx]
        if spec.iteration is not None:
            return spec.iteration
        target = self._chosen.get(idx)
        if target is None:
            target = self._chosen[idx] = int(self._rng.integers(0, max(n, 1)))
        return target

    def _fire(self, idx: int, **detail) -> None:
        """Spend one unit of spec ``idx``'s budget (lock held)."""
        self._remaining[idx] -= 1
        self.fired.append({"seam": self.specs[idx].seam, **detail})

    def mirror(self, observer, since: int) -> None:
        """Count on ``observer`` every injection recorded after the
        first ``since`` (``faults.injected``, ``faults.<seam>``).

        An observed session brackets each of its own attempts and store
        writes with ``len(plan.fired)`` and this, so a shared plan's
        injections land on the session that ran into them.
        """
        for record in self.fired[since:]:
            observer.inc("faults.injected")
            observer.inc(f"faults.{record['seam']}")

    # ------------------------------------------------------------------
    # Kernel-side seams (serial / threads / speculative)
    # ------------------------------------------------------------------
    def wrap_kernel(self, kernel):
        """Wrap ``kernel`` so armed iteration seams fire inside it.

        Returns ``kernel`` unchanged when no iteration-scoped spec has
        budget left — a plan whose faults are all spent (or all
        store/timeout scoped) adds nothing to the execution path.
        A fresh attempt also re-arms the cooperative stall gate.
        """
        self._cancel.clear()
        with self._lock:
            armed = {}
            for idx, spec in enumerate(self.specs):
                if spec.seam in _ITERATION_SEAMS and self._remaining[idx] > 0:
                    armed[self._target(idx, kernel.n)] = idx
        if not armed:
            return kernel
        return _FaultyKernel(kernel, self, armed)

    def perform(self, idx: int, iteration: int) -> None:
        """Fire spec ``idx`` at ``iteration`` (called by the wrapper)."""
        with self._lock:
            if self._remaining[idx] <= 0:
                return
            spec = self.specs[idx]
            self._fire(idx, iteration=iteration)
        if spec.seam == "kernel":
            raise InjectedFault(
                f"injected kernel exception at iteration {iteration}",
                seam="kernel", iteration=iteration)
        if spec.seam == "death":
            # A plain RuntimeError, not a ReproError: the thread
            # machine must wrap it into a typed ExecutionError exactly
            # as it would any unexpected worker crash.
            raise RuntimeError(
                f"injected worker death at iteration {iteration}")
        # stall: cooperative sleep — the watchdog cancels it on abort.
        deadline = time.monotonic() + spec.seconds
        while not self._cancel.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(0.01, remaining))

    def cancel_stalls(self) -> None:
        """Wake every in-flight injected stall (watchdog/error path)."""
        self._cancel.set()

    # ------------------------------------------------------------------
    # Store seam
    # ------------------------------------------------------------------
    def store_fault(self, store: str) -> FaultSpec | None:
        """Claim one armed ``store`` fault matching ``store``, if any."""
        with self._lock:
            for idx, spec in enumerate(self.specs):
                if (spec.seam == "store" and self._remaining[idx] > 0
                        and spec.store in (None, store)):
                    self._fire(idx, store=store, mode=spec.mode)
                    return spec
        return None

    # ------------------------------------------------------------------
    # Timeout seam (consulted by the thread machine's watchdog)
    # ------------------------------------------------------------------
    def force_timeout(self) -> bool:
        """True exactly once per armed ``timeout`` spec firing."""
        with self._lock:
            for idx, spec in enumerate(self.specs):
                if spec.seam == "timeout" and self._remaining[idx] > 0:
                    self._fire(idx)
                    return True
        return False

    # ------------------------------------------------------------------
    # Process-backend seams (picklable handout, fired at handout time)
    # ------------------------------------------------------------------
    def process_faults(self, n: int) -> dict | None:
        """Claim the armed stall/death seams as a picklable dict.

        The budget is spent in the parent when the dict is handed to
        the worker pool — a retry after the injected crash runs clean.
        Returns ``None`` when nothing is armed (workers then skip the
        per-row check entirely).
        """
        out: dict = {}
        with self._lock:
            for idx, spec in enumerate(self.specs):
                if self._remaining[idx] <= 0:
                    continue
                if spec.seam == "stall":
                    target = self._target(idx, n)
                    out.setdefault("stall", {})[target] = spec.seconds
                    self._fire(idx, iteration=target)
                elif spec.seam == "death":
                    target = self._target(idx, n)
                    out.setdefault("die", []).append(target)
                    self._fire(idx, iteration=target)
        return out or None

    # ------------------------------------------------------------------
    def remaining(self) -> int:
        """Total unfired budget across every spec."""
        with self._lock:
            return sum(self._remaining)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        seams = ",".join(s.seam for s in self.specs) or "empty"
        return f"FaultPlan({seams}, remaining={self.remaining()})"


class _FaultyKernel:
    """Kernel proxy that fires armed iteration faults, then delegates.

    Everything except the three execute entry points forwards to the
    wrapped kernel (``start``/``result``/``n``/its level-plan
    capability and structure/backend attributes), so executors cannot
    tell the difference until a fault fires.
    """

    def __init__(self, inner, plan: FaultPlan, armed: dict[int, int]):
        self._inner = inner
        self._plan = plan
        self._armed = armed  # target iteration -> spec index
        self.n = inner.n

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_index(self, i: int) -> None:
        idx = self._armed.get(i)
        if idx is not None:
            self._plan.perform(idx, i)
        self._inner.execute_index(i)

    def execute_batch(self, idx) -> None:
        # Faults fire *before* the batch executes (a raise loses the
        # whole batch, exactly like a crash), so the numeric path stays
        # the inner kernel's own vectorized batch — bitwise identical.
        for target, spec_idx in self._armed.items():
            if target in idx:
                self._plan.perform(spec_idx, target)
        self._inner.execute_batch(idx)

    def execute_levels(self, levels, gather, lo=0, hi=None) -> None:
        # Named here, not left to __getattr__, which would hand the
        # executor the inner kernel's method and skip every fault.  A
        # fault fires before the level holding its target; the levels
        # themselves run through the inner kernel, segment by segment.
        if hi is None:
            hi = levels.num_levels
        hits = sorted((levels.level_of(target), target, spec_idx)
                      for target, spec_idx in self._armed.items()
                      if 0 <= target < self.n)
        for level, target, spec_idx in hits:
            if lo <= level < hi:
                self._inner.execute_levels(levels, gather, lo, level)
                lo = level
                self._plan.perform(spec_idx, target)
        self._inner.execute_levels(levels, gather, lo, hi)
