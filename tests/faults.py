"""Seeded fault injection for the recovery tests.

The library carries no injection code: ``with armed(plan):`` patches
the runtime's seams for the block, and every session inside it meets
the plan, a seeded budget of :class:`FaultSpec` failures (each fires
``times`` times, at an explicit or a seeded iteration).  ``kernel``
raises :class:`InjectedFault`; ``stall`` waits (on ``threads``, on the
run's abort event, so the watchdog cancels it); ``death`` raises a
plain ``RuntimeError`` on ``threads`` and kills the worker process on
``processes``; ``store`` leaves junk at an entry's final path instead
of its write; ``timeout`` makes the threads watchdog abort at once.
``processes`` forks a pool per solve, so its replacement task
functions are module-level: ``pool.map`` pickles them by name.
"""

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np

from repro.core.executor import LevelPlan
from repro.errors import ExecutionError, ValidationError
from repro.machine import processes
from repro.machine.threads import ThreadedMachine
from repro.runtime.cache import LruStoreBase
from repro.runtime.session import LoopPlan
from repro.tuning.store import TuningStore
from repro.util.rng import default_rng
from repro.util.validation import (check_positive, check_positive_finite,
                                   check_seed)

#: The injectable seams; the first three target an iteration.
SEAMS = ("kernel", "stall", "death", "store", "timeout")

#: What an injected partial write leaves: never a valid npz/JSON prefix.
_JUNK = b"\x00repro-partial-write\x00"


class InjectedFault(ExecutionError):
    """A failure a :class:`FaultPlan` injected at ``seam``."""

    def __init__(self, message: str, *, seam: str, iteration=None):
        super().__init__(message, iteration=iteration)
        self.seam = seam


@dataclass(frozen=True)
class FaultSpec:
    """One injected failure: where, how often, and its parameters."""

    seam: str
    times: int = 1
    iteration: int | None = None      # None: a seeded choice
    seconds: float = 0.25             # a stall's length
    store: str | None = None          # "schedule", "tuning" or either
    mode: str = "truncate"            # or "garbage": full-length junk

    def __post_init__(self):
        if self.seam not in SEAMS:
            raise ValidationError(
                f"unknown fault seam {self.seam!r}; valid seams: {SEAMS}")
        check_positive(self.times, "fault times")
        check_positive_finite(self.seconds, "stall seconds")
        if self.iteration is not None:
            check_seed(self.iteration, "fault iteration")
        if self.store not in (None, "schedule", "tuning"):
            raise ValidationError(
                "fault store must be 'schedule', 'tuning' or None")
        if self.mode not in ("truncate", "garbage"):
            raise ValidationError("fault mode must be 'truncate' or 'garbage'")


class FaultPlan:
    """A seeded, budgeted set of :class:`FaultSpec` — or one, built from
    a seam name and its fields; ``plan.fired`` records every injection."""

    def __init__(self, specs=(), *, seed: int | None = None, **fields):
        if isinstance(specs, str):
            specs = [FaultSpec(specs, **fields)]
        self.specs = tuple(specs)
        if not all(isinstance(spec, FaultSpec) for spec in self.specs):
            raise ValidationError("FaultPlan takes FaultSpec entries")
        self._rng = default_rng(0 if seed is None else seed)
        self._remaining = [spec.times for spec in self.specs]
        self._chosen: dict[int, int] = {}
        self._lock = threading.Lock()
        self.abort = threading.Event()  # what a stall waits on
        self.fired: list[dict] = []

    def _fire(self, idx: int, **detail) -> bool:
        """Spend one unit of spec ``idx``'s budget, if any is left."""
        with self._lock:
            if self._remaining[idx] <= 0:
                return False
            self._remaining[idx] -= 1
            self.fired.append({"seam": self.specs[idx].seam, **detail})
            return True

    def _claim(self, seam: str, **detail):
        """Fire the first spec on ``seam`` (and ``store``) with budget."""
        for idx, spec in enumerate(self.specs):
            if (spec.seam == seam and spec.store in (None, detail.get("store"))
                    and self._fire(idx, **detail)):
                return spec

    def _armed(self, seams, n: int) -> dict:
        """Target iteration → spec index, for ``seams`` with budget
        left (a seeded target is drawn once)."""
        armed = {}
        for idx, spec in enumerate(self.specs):
            if spec.seam in seams and self._remaining[idx] > 0:
                if spec.iteration is None and idx not in self._chosen:
                    self._chosen[idx] = int(self._rng.integers(max(n, 1)))
                armed[self._chosen.get(idx, spec.iteration)] = idx
        return armed

    def wrap_kernel(self, kernel):
        """``kernel``, wrapped when an iteration seam has budget left."""
        self.abort = threading.Event()
        armed = self._armed(SEAMS[:3], kernel.n)
        return _FaultyKernel(kernel, self, armed) if armed else kernel

    def perform(self, idx: int, iteration: int) -> None:
        """Fire spec ``idx`` at ``iteration`` if it has budget left."""
        spec = self.specs[idx]
        if not self._fire(idx, iteration=iteration):
            return
        if spec.seam == "kernel":
            raise InjectedFault(
                f"injected kernel exception at iteration {iteration}",
                seam="kernel", iteration=iteration)
        if spec.seam == "death":
            raise RuntimeError(
                f"injected worker death at iteration {iteration}")
        self.abort.wait(spec.seconds)

    def process_faults(self, n: int) -> dict:
        """Fire the armed stall/death specs for one process solve."""
        out: dict = {}
        for target, idx in self._armed(("stall", "death"), n).items():
            spec = self.specs[idx]
            self._fire(idx, iteration=target)
            out.setdefault(spec.seam, {})[target] = spec.seconds
        return out


def level_of(levels, i: int) -> int:
    """The level of the :class:`~repro.core.executor.LevelPlan`
    ``levels`` that iteration ``i`` runs in."""
    at = int(np.flatnonzero(levels.order == i)[0])
    return int(np.searchsorted(levels.bounds, at, side="right")) - 1


def levels_between(levels, lo: int, hi: int) -> LevelPlan:
    """Levels ``lo .. hi-1`` of ``levels`` as a plan of their own."""
    cuts = levels.cuts
    return LevelPlan(levels.order[cuts[lo]:cuts[hi]],
                     levels.bounds[lo:hi + 1] - cuts[lo])


class _FaultyKernel:
    """Fires armed iteration faults, then delegates to the kernel."""

    def __init__(self, inner, plan: FaultPlan, armed: dict[int, int]):
        self._inner, self._plan, self._armed = inner, plan, armed
        self.n = inner.n

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_index(self, i: int) -> None:
        if i in self._armed:
            self._plan.perform(self._armed[i], i)
        self._inner.execute_index(i)

    def execute_levels(self, levels, gather) -> None:
        # A fault fires before the level holding its target; the levels
        # between faults run through the inner kernel as plans of their
        # own, compiled on the spot.
        lo = 0
        for level, target, spec_idx in sorted(
                (level_of(levels, t), t, s) for t, s in self._armed.items()
                if 0 <= t < self.n):
            if level > lo:
                self._run(levels, gather, lo, level)
                lo = level
            self._plan.perform(spec_idx, target)
        self._run(levels, gather, lo, levels.num_levels)

    def _run(self, levels, gather, lo: int, hi: int) -> None:
        if (lo, hi) != (0, levels.num_levels):
            levels = levels_between(levels, lo, hi)
            gather = self._inner.compile_levels(levels)
        self._inner.execute_levels(levels, gather)


#: The process seams fired for the solve in flight, read by the workers.
_HANDOUT: dict = {}
_run_share = processes._run_share
_busy_wait_walk = processes._busy_wait_walk


def _process_fault(rows) -> None:
    if any(i in rows for i in _HANDOUT.get("death", ())):
        os._exit(1)
    time.sleep(sum(s for i, s in _HANDOUT.get("stall", {}).items()
                   if i in rows))


def _faulty_share(rows):
    _process_fault(rows)
    return _run_share(rows)


def _faulty_walk(args):
    _process_fault(args[0])
    return _busy_wait_walk(args)


@contextlib.contextmanager
def armed(plan: FaultPlan, *, runtime=None):
    """Fire ``plan`` at the patched seams inside the block; yields it.

    ``runtime`` limits the iteration seams to that session's attempts;
    the store and timeout seams fire for every session.  Scopes nest.
    """
    execute, store_disk = LoopPlan.execute, LruStoreBase._store_disk
    prepare, watch = ThreadedMachine._prepare, ThreadedMachine._watch

    def faulty_execute(self, loop, kernel, backend, **kw):
        if kernel is not None and runtime in (None, loop.runtime):
            if backend == "processes":  # each solve forks a fresh pool
                _HANDOUT.clear()
                _HANDOUT.update(plan.process_faults(kernel.n))
            else:
                kernel = plan.wrap_kernel(kernel)
        return execute(self, loop, kernel, backend, **kw)

    def faulty_store_disk(self, key, value):
        kind = "tuning" if isinstance(self, TuningStore) else "schedule"
        spec = plan._claim("store", store=kind)
        if spec is None:
            return store_disk(self, key, value)
        (self.persist_dir / f"{key}{self.suffix}").write_bytes(
            _JUNK[:len(_JUNK) // 2] if spec.mode == "truncate"
            else _JUNK * 64)

    def faulty_prepare(self):
        plan.abort = prepare(self)
        return plan.abort

    def faulty_watch(self, deadline):
        if not self._abort.is_set() and plan._claim("timeout"):
            self._expired = True
            self._abort.set()
        else:
            watch(self, deadline)

    with contextlib.ExitStack() as stack:
        for owner, name, patch in (
                (LoopPlan, "execute", faulty_execute),
                (LruStoreBase, "_store_disk", faulty_store_disk),
                (ThreadedMachine, "_prepare", faulty_prepare),
                (ThreadedMachine, "_watch", faulty_watch),
                (processes, "_run_share", _faulty_share),
                (processes, "_busy_wait_walk", _faulty_walk)):
            stack.enter_context(mock.patch.object(owner, name, patch))
        yield plan
