"""Deterministic discrete-event simulation of the executors.

The simulator computes *when* every loop iteration would complete on a
``p``-processor shared-memory machine, given a schedule, the dependence
graph and a cost model.  It is a longest-path evaluation over the
combined DAG of

* **program-order edges** — consecutive entries of each processor's
  local list, and
* **dependence edges** — the loop's data dependences,

with executor-specific release rules:

* *pre-scheduled* (Figure 5): processors synchronize at a global
  barrier between consecutive wavefront phases; a phase costs the
  maximum per-processor work in it plus one barrier;
* *self-executing* (Figure 4): an iteration busy-waits until each of
  its operands' ``ready`` flags is set — it starts at the maximum of
  its processor's availability and its operands' completion times;
* *doacross*: self-execution over the identity schedule, minus the
  reordered-index-array access cost.

Because the evaluation is exact and deterministic, simulated timings
are exactly reproducible — a property the test-suite leans on.

The self-executing evaluation is one per-iteration event loop over
plain Python lists, walked in an order the :class:`Schedule` supplies
(:meth:`~repro.core.schedule.Schedule.simulation_order` — what "a
legal order" means is the schedule's business, not the machine's).
:func:`repro.core.reference.simulate_self_executing` is the same rule
written over numpy scalars and an independent stack-based order; the
property suite asserts the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ScheduleError, ValidationError
from ..util.validation import check_unit_work
from .costs import MachineCosts

if TYPE_CHECKING:  # imported for annotations only — avoids a cycle with
    # repro.core, whose executors import this module at load time.
    from ..core.dependence import DependenceGraph
    from ..core.schedule import Schedule

__all__ = [
    "SimResult",
    "work_vector",
    "sequential_time",
    "simulate",
    "simulate_prescheduled",
    "simulate_self_executing",
]

_MODES = ("preschedule", "self", "doacross")


@dataclass
class SimResult:
    """Outcome of one simulated execution.

    Times are in the cost model's units (microseconds by default).
    """

    mode: str
    nproc: int
    total_time: float
    seq_time: float
    busy: np.ndarray = field(repr=False)
    idle: np.ndarray = field(repr=False)
    sync_time: float = 0.0
    check_time: float = 0.0
    inc_time: float = 0.0
    sched_time: float = 0.0
    num_phases: int = 0
    finish: np.ndarray | None = field(default=None, repr=False)

    @property
    def efficiency(self) -> float:
        """``T_seq / (p * T_par)`` — the paper's parallel efficiency."""
        if self.total_time <= 0:
            return 1.0
        return self.seq_time / (self.nproc * self.total_time)

    @property
    def speedup(self) -> float:
        if self.total_time <= 0:
            return float(self.nproc)
        return self.seq_time / self.total_time

    @property
    def total_idle(self) -> float:
        return float(self.idle.sum())

    @property
    def total_busy(self) -> float:
        return float(self.busy.sum())


# ----------------------------------------------------------------------
# Work vectors
# ----------------------------------------------------------------------

def _base_work(
    dep: DependenceGraph, costs: MachineCosts, unit_work: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``(base, nd)``: per-index computational work and dependence
    counts, as floats — the one place ``unit_work`` is validated."""
    nd = dep.dep_counts().astype(np.float64)
    base = (costs.base_work(nd) if unit_work is None
            else check_unit_work(unit_work, dep.n))
    return base, nd


def _with_overheads(base, nd, costs: MachineCosts, mode: str, nproc: int):
    """``base`` plus ``mode``'s per-iteration parallel overheads."""
    shared = costs.shared_factor(nproc)
    if mode == "preschedule":
        return base + shared * costs.t_sched_access
    if mode == "self":
        return base + shared * (costs.t_sched_access + costs.t_inc + costs.t_check * nd)
    # doacross: no reordered-index array to fetch from
    return base + shared * (costs.t_inc + costs.t_check * nd)


def work_vector(
    dep: DependenceGraph,
    costs: MachineCosts,
    mode: str,
    nproc: int,
    unit_work: np.ndarray | None = None,
) -> np.ndarray:
    """Per-index execution cost under ``mode``, including overheads.

    ``unit_work`` overrides the computational part (default:
    ``costs.base_work`` of the dependence counts, which matches the
    triangular-solve kernel where work is proportional to the row's
    off-diagonal count).
    """
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    return _with_overheads(*_base_work(dep, costs, unit_work), costs, mode, nproc)


def sequential_time(
    dep: DependenceGraph,
    costs: MachineCosts,
    unit_work: np.ndarray | None = None,
) -> float:
    """Time of the optimized sequential program (no parallel extras)."""
    return float(_base_work(dep, costs, unit_work)[0].sum())


# ----------------------------------------------------------------------
# Pre-scheduled executor
# ----------------------------------------------------------------------

def simulate_prescheduled(
    schedule: Schedule,
    dep: DependenceGraph,
    costs: MachineCosts = MachineCosts(),
    *,
    unit_work: np.ndarray | None = None,
) -> SimResult:
    """Simulate Figure 5: barrier-separated wavefront phases.

    Phases are only safe when every local list is sorted by wavefront
    and every dependence crosses a phase boundary; anything else
    raises :class:`ScheduleError`.
    """
    n, p = schedule.n, schedule.nproc
    if dep.n != n:
        raise ValidationError("schedule and dependence graph sizes differ")
    wf = schedule.wavefronts
    schedule.check_wavefront_sorted()
    if not schedule.deps_cross_wavefronts(dep):
        raise ScheduleError(
            "a dependence does not cross a phase boundary; the wavefront "
            "array is inconsistent with the dependence graph"
        )
    base, nd = _base_work(dep, costs, unit_work)
    w = _with_overheads(base, nd, costs, "preschedule", p)
    nw = schedule.num_wavefronts

    # Per (phase, processor) work totals: one weighted bincount over
    # (wavefront, owner) keys — same accumulation order as a per-index
    # scatter, at a fraction of the cost.  The per-phase critical
    # processor is the row maximum.
    m = (
        np.bincount(wf * p + schedule.owner, weights=w, minlength=nw * p)
        .reshape(nw, p)
    )
    phase_max = m.max(axis=1)
    sync = costs.sync_cost(p)
    total = float(phase_max.sum() + nw * sync)
    busy = m.sum(axis=0)
    idle = (phase_max[:, None] - m).sum(axis=0)

    sched_overhead = costs.shared_factor(p) * costs.t_sched_access * n
    return SimResult(
        mode="preschedule",
        nproc=p,
        total_time=total,
        seq_time=float(base.sum()),
        busy=busy,
        idle=idle,
        sync_time=float(nw * sync),
        sched_time=float(sched_overhead),
        num_phases=nw,
    )


# ----------------------------------------------------------------------
# Self-executing / doacross executors
# ----------------------------------------------------------------------

def _run_scalar(schedule, dep, w, t_poll, order):
    """The per-iteration event loop over plain Python lists.

    Every hot array is converted to a Python list up front (the same
    trade the frontier sweep's scalar spans make): list indexing and
    float arithmetic cost a fraction of per-element numpy scalar access
    while performing bit-identical IEEE double operations.  Any
    topological ``order`` of the combined DAG yields the same result:
    an iteration's inputs (its operands' finish times and its
    processor's availability) are fixed by the time it is legal to
    visit it.
    """
    n, p = schedule.n, schedule.nproc
    owner = schedule.owner.tolist()
    indptr = dep.indptr.tolist()
    indices = dep.indices.tolist()
    wl = w.tolist()
    finish = [0.0] * n
    proc_avail = [0.0] * p
    busy = [0.0] * p
    idle = [0.0] * p
    ceil = math.ceil
    for i in order.tolist():
        pi = owner[i]
        t0 = proc_avail[pi]
        wi = wl[i]
        lo, hi = indptr[i], indptr[i + 1]
        start = t0
        if hi > lo:
            r = finish[indices[lo]]
            # A single-dependence row (every Figure 3 row) skips the
            # scan; a slice walk beats max() on rows of a few operands.
            if hi - lo > 1:
                for j in indices[lo + 1:hi]:
                    v = finish[j]
                    if v > r:
                        r = v
            if r > t0:
                wait = r - t0
                if t_poll > 0.0:
                    wait = ceil(wait / t_poll) * t_poll
                start = t0 + wait
                idle[pi] += start - t0
        fi = start + wi
        finish[i] = fi
        busy[pi] += wi
        proc_avail[pi] = fi
    return (
        np.asarray(finish, dtype=np.float64),
        np.asarray(proc_avail, dtype=np.float64),
        np.asarray(busy, dtype=np.float64),
        np.asarray(idle, dtype=np.float64),
    )


def simulate_self_executing(
    schedule: Schedule,
    dep: DependenceGraph,
    costs: MachineCosts = MachineCosts(),
    *,
    mode: str = "self",
    unit_work: np.ndarray | None = None,
    keep_finish_times: bool = False,
    order: np.ndarray | None = None,
) -> SimResult:
    """Simulate Figure 4 (``mode="self"``) or a plain doacross loop.

    The two differ only in the per-iteration overhead vector; pass the
    identity schedule for a faithful doacross baseline.  Every machine
    width runs the one event loop; the per-iteration oracle is
    :func:`repro.core.reference.simulate_self_executing` and the
    property suite asserts exact agreement on every :class:`SimResult`
    field.

    ``order`` hands over a topological order of the (program-order ∪
    dependence) DAG the caller has already proven — an executor's
    :meth:`~repro.core.schedule.Schedule.execution_levels` order —
    instead of asking ``schedule.simulation_order(dep)`` for one
    (which raises :class:`~repro.errors.DeadlockError` when there is
    none).  Results do not depend on which topological order is walked.
    """
    if mode not in ("self", "doacross"):
        raise ValidationError(f"mode must be 'self' or 'doacross', got {mode!r}")
    n, p = schedule.n, schedule.nproc
    if dep.n != n:
        raise ValidationError("schedule and dependence graph sizes differ")
    base, nd = _base_work(dep, costs, unit_work)
    w = _with_overheads(base, nd, costs, mode, p)
    seq_time, num_deps = float(base.sum()), nd.sum()
    del base, nd  # the loop's lists are the memory peak: hold only ``w``
    if order is None:
        order = schedule.simulation_order(dep)
    finish, proc_avail, busy, idle = _run_scalar(
        schedule, dep, w, costs.t_poll, order)
    total = float(proc_avail.max()) if p else 0.0
    idle += total - proc_avail

    shared = costs.shared_factor(p)
    return SimResult(
        mode=mode,
        nproc=p,
        total_time=total,
        seq_time=seq_time,
        busy=busy,
        idle=idle,
        check_time=float(shared * costs.t_check * num_deps),
        inc_time=float(shared * costs.t_inc * n),
        sched_time=float(shared * costs.t_sched_access * n) if mode == "self" else 0.0,
        num_phases=schedule.num_wavefronts,
        finish=finish if keep_finish_times else None,
    )


def simulate(
    schedule: Schedule,
    dep: DependenceGraph,
    costs: MachineCosts = MachineCosts(),
    *,
    mode: str = "self",
    unit_work: np.ndarray | None = None,
) -> SimResult:
    """Dispatch on ``mode``: ``"preschedule"``, ``"self"`` or ``"doacross"``."""
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "preschedule":
        return simulate_prescheduled(schedule, dep, costs, unit_work=unit_work)
    return simulate_self_executing(schedule, dep, costs, mode=mode,
                                   unit_work=unit_work)
