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

The self-executing evaluation walks a plan the :class:`Schedule`
supplies (:meth:`~repro.core.schedule.Schedule.simulation_levels`: a
legal order grouped into levels — what "legal" means is the schedule's
business, not the machine's) in one of two walks, both exact:

* :func:`_run_scalar`, the per-iteration event loop over plain Python
  lists — for every plan whose levels are narrow: identity and
  doacross orders, the combined-DAG sweep's levels (at most ``nproc``
  wide) and meshes of a few dozen iterations per wavefront;
* :func:`_run_levels`, the same rule a level at a time — for plans of
  wide levels, such as Figure 3's wavefronts (thousands wide): first
  each processor's whole list is one running sum, the same IEEE
  additions in the same order, exact up to the first level where an
  operand can finish late; from that level on a processor's run
  through a level is one running sum, and only the iterations from a
  busy-wait on go item by item.

:func:`simulate_self_executing` alone chooses, on the plan's mean level
width (:data:`_WIDE_LEVEL`).  :func:`repro.core.reference.
simulate_self_executing` is the same rule written over numpy scalars
and an independent stack-based order; the property suite asserts that
either walk agrees with it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ScheduleError, ValidationError
from ..util.frontier import counts_to_indptr, expand_csr_ranges
from ..util.validation import check_unit_work, read_only
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

#: Mean level width (iterations) from which a plan is walked a level at
#: a time (:func:`_run_levels`) instead of an iteration at a time
#: (:func:`_run_scalar`).  A level costs the level walk a fixed two
#: dozen numpy calls plus one per processor run, from the first level
#: that can wait; the event loop pays per iteration.  On layered random
#: graphs with 1–3 operands an iteration the level walk breaks even at
#: ≈ 64 wide on 2 processors, ≈ 128 on 8 and ≈ 160 on 16; Figure 3's
#: wavefronts (≈ 7 500 wide, the first wait in level 5 of 9) run ≈ 25×
#: faster (≈ 10× while the walk walked every level), a Table 5 mesh's
#: (≈ 18 wide) would run ≈ 5× slower.
_WIDE_LEVEL = 128


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


def _work(dep, costs: MachineCosts, mode: str, nproc: int, unit_work):
    """``(w, seq_time, num_deps)``: ``mode``'s per-index execution cost
    (read-only) — :func:`_base_work` plus the mode's parallel overheads
    — the sequential time and the dependence count, built once per mode
    for a tuner rung (:meth:`DependenceGraph.holding
    <repro.core.dependence.DependenceGraph.holding>`)."""
    def build():
        base, nd = _base_work(dep, costs, unit_work)
        shared = costs.shared_factor(nproc)
        if mode == "preschedule":
            w = base + shared * costs.t_sched_access
        elif mode == "self":
            w = base + shared * (costs.t_sched_access + costs.t_inc + costs.t_check * nd)
        else:   # doacross: no reordered-index array to fetch from
            w = base + shared * (costs.t_inc + costs.t_check * nd)
        return read_only(w), float(base.sum()), nd.sum()
    return dep._hold(("work", mode, nproc), (costs, unit_work), build)


def work_vector(
    dep: DependenceGraph,
    costs: MachineCosts,
    mode: str,
    nproc: int,
    unit_work: np.ndarray | None = None,
) -> np.ndarray:
    """Per-index execution cost under ``mode``, including overheads
    (read-only).

    ``unit_work`` overrides the computational part (default:
    ``costs.base_work`` of the dependence counts, which matches the
    triangular-solve kernel where work is proportional to the row's
    off-diagonal count).
    """
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    return _work(dep, costs, mode, nproc, unit_work)[0]


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
    w, seq_time, _ = _work(dep, costs, "preschedule", p, unit_work)
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
        seq_time=seq_time,
        busy=busy,
        idle=idle,
        sync_time=float(nw * sync),
        sched_time=float(sched_overhead),
        num_phases=nw,
    )


# ----------------------------------------------------------------------
# Self-executing / doacross executors
# ----------------------------------------------------------------------

def _headroom(owner: np.ndarray, w: np.ndarray, nproc: int,
              bound: float) -> list:
    """Per processor, ``bound`` minus its total work, plus a rounding
    margin: the event loop stops once an iteration's finish time less
    the work its processor has done reaches past this — once the finish
    time plus the work still queued behind the iteration exceeds
    ``bound``.

    That sum is a lower bound on the makespan: a processor never starts
    an item before its previous one finished, so its last finish is at
    least any item's finish plus the work queued behind it — whatever
    the sign of that work, and however waits round up to poll quanta.
    The totals here and the loop's running sums round differently from
    the loop's chain of finish times; the margin, 4(n + 2) ulps of
    ``|bound| + Σ|w|``, covers both, so a stop means the exact makespan
    exceeds ``bound``.
    """
    margin = (4 * (w.shape[0] + 2) * np.finfo(np.float64).eps
              * (abs(bound) + float(np.abs(w).sum())))
    totals = np.bincount(owner, weights=w, minlength=nproc)
    return ((bound + margin) - totals).tolist()


def _run_scalar(schedule, dep, w, t_poll, order, bound):
    """The per-iteration event loop over plain Python lists.

    Every hot array is converted to a Python list up front (the same
    trade the frontier sweep's scalar spans make; a tuner rung converts
    the graph's CSR once, and ``w`` once per run of walks of one mode,
    see :meth:`DependenceGraph.holding
    <repro.core.dependence.DependenceGraph.holding>`): list
    indexing and float arithmetic cost a fraction of per-element numpy
    scalar access while performing bit-identical IEEE double
    operations.  Any topological ``order`` of the combined DAG
    yields the same result: an iteration's inputs (its operands' finish
    times and its processor's availability) are fixed by the time it is
    legal to visit it.

    A finite ``bound`` stops the walk — the loop returns ``None`` — as
    soon as the makespan provably exceeds it (see :func:`_headroom`).
    ``finish`` comes back a list.
    """
    n, p = schedule.n, schedule.nproc
    owner = schedule.owner.tolist()
    indptr, indices = dep.csr_lists()
    # One slot: a rung holds the list of the mode it walks, and the peak
    # stays one list, as when every walk converted its own.
    wl = dep._hold("work list", (w,), w.tolist)
    bounded = bound < math.inf
    if bounded:
        headroom = _headroom(schedule.owner, w, p, bound)
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
        done = busy[pi] + wi
        if bounded and fi - done > headroom[pi]:
            return None
        finish[i] = fi
        busy[pi] = done
        proc_avail[pi] = fi
    return (
        finish,
        np.asarray(proc_avail, dtype=np.float64),
        np.asarray(busy, dtype=np.float64),
        np.asarray(idle, dtype=np.float64),
    )


def _finish_run(t, ready, work, t_poll, idle):
    """The event loop's step over the rest of one processor's run, from
    its availability ``t``: an item starts at ``t`` or, when its ready
    time is later, after a busy-wait rounded up to whole poll quanta
    (added to ``idle``).  Returns the finish times and the new idle."""
    ceil = math.ceil
    out = []
    for r, wi in zip(ready, work):
        start = t
        if r > t:
            wait = r - t
            if t_poll > 0.0:
                wait = ceil(wait / t_poll) * t_poll
            start = t + wait
            idle += start - t
        t = start + wi
        out.append(t)
    return out, idle


def _run_levels(schedule, dep, w, t_poll, order, bounds, bound):
    """The event loop a level at a time, for plans of wide levels.

    ``order[bounds[k]:bounds[k+1]]`` is level ``k``: everything its
    iterations depend on lies in earlier levels, and each processor's
    iterations in it are adjacent and in program order (whole
    wavefronts laid out by owner and position, or sweep levels of at
    most one iteration per processor).

    First the wait-free pass: each processor's whole list is one running
    sum, its busy total and, by the same additions in the same order,
    the event loop's finish times while nothing waits.  An iteration is
    flagged when an operand so finishes after its processor's previous
    iteration.  Before the first level holding one nothing waits, so by
    induction over levels those finish times are exact; the walk starts
    at that level, seeded with each processor's finish just before it.
    Per level:

    1. every iteration's ready time — the latest finish among its
       operands — is one segmented ``np.maximum.reduceat``: the operands
       lie in earlier levels, and ``max`` is exact;
    2. each processor's run is one ``np.add.accumulate`` seeded with its
       availability;
    3. from the first iteration of a run whose ready time passes its
       predecessor's finish, :func:`_finish_run` walks the rest of the
       run item by item over Python floats, reusing the ready times —
       linear however many of them wait.

    ``bound`` is :func:`_run_scalar`'s predicate, checked a level at a
    time: it holds for some iteration or for none, so ``None`` is
    decided identically.  In the wait-free prefix a finish time is the
    busy time so far, so there it holds for a processor whose headroom
    is below zero.
    """
    n, p = schedule.n, schedule.nproc
    bounded = bound < math.inf
    # Seeded with the loop's 0.0: the ``+= 0.0`` turns a leading -0.0
    # into the loop's 0.0 + -0.0.  ``prev`` is the processor's previous
    # finish, 0.0 at the head of a list.
    finish, prev = np.empty(n), np.zeros(n)
    busy, sizes = np.zeros(p), np.zeros(p, dtype=np.int64)
    for q, lst in enumerate(schedule.local_order):
        if lst.shape[0]:
            run = w[lst]
            run[0] += 0.0
            np.add.accumulate(run, out=run)
            busy[q], sizes[q] = run[-1], lst.shape[0]
            finish[lst] = run
            prev[lst[1:]] = run[:-1]
    # Flag every iteration with an operand that finishes after ``prev``.
    rows = dep.edge_rows
    late = np.zeros(n, dtype=bool)
    late[rows[finish[dep.indices] > prev[rows]]] = True
    del prev
    late = late[order]
    start = np.searchsorted(bounds, late.argmax() if late.any() else n,
                            side="right") - 1
    tail = order[bounds[start]:]
    own = schedule.owner[tail]
    left = np.bincount(own, minlength=p)
    avail = busy.copy()
    for q in np.flatnonzero(left).tolist():
        ran = sizes[q] - left[q]
        avail[q] = finish[schedule.local_order[q][ran - 1]] if ran else 0.0
    if bounded:
        head = np.asarray(_headroom(schedule.owner, w, p, bound))
        if np.any(head[sizes > left] < 0.0):
            return None
        head, done = head[own], finish[tail]
    fin = w[tail]           # overwritten, a level at a time, by finish times
    counts = dep.indptr[tail + 1] - dep.indptr[tail]
    operands = dep.indices[expand_csr_ranges(dep.indptr[tail], counts)]
    at = counts_to_indptr(counts)
    idle = [0.0] * p
    cuts = (bounds[start:] - bounds[start]).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        o, f = own[lo:hi], fin[lo:hi]
        starts = np.flatnonzero(np.diff(o, prepend=-1))
        ends = np.append(starts[1:], hi - lo)
        procs = o[starts]
        seed = avail[procs]
        f[starts] += seed
        stops = ends.tolist()
        for s, e in zip(starts.tolist(), stops):
            np.add.accumulate(f[s:e], out=f[s:e])
        a, b = at[lo], at[hi]
        if b > a:
            has = counts[lo:hi] > 0
            ready = np.full(hi - lo, -np.inf)
            ready[has] = np.maximum.reduceat(finish[operands[a:b]],
                                             at[lo:hi][has] - a)
            prev = np.empty(hi - lo)
            prev[1:] = f[:-1]
            prev[starts] = seed
            waits = np.flatnonzero(ready > prev)
            if waits.size:
                run_of = np.searchsorted(starts, waits, side="right") - 1
                first = np.flatnonzero(np.diff(run_of, prepend=-1))
                for j, k in zip(waits[first].tolist(), run_of[first].tolist()):
                    e, q = stops[k], int(procs[k])
                    f[j:e], idle[q] = _finish_run(
                        float(prev[j]), ready[j:e].tolist(),
                        w[tail[lo + j:lo + e]].tolist(), t_poll, idle[q])
        if bounded and np.any(f - done[lo:hi] > head[lo:hi]):
            return None
        finish[tail[lo:hi]] = f
        avail[procs] = f[ends - 1]
    return finish, avail, busy, np.asarray(idle, dtype=np.float64)


def simulate_self_executing(
    schedule: Schedule,
    dep: DependenceGraph,
    costs: MachineCosts = MachineCosts(),
    *,
    mode: str = "self",
    unit_work: np.ndarray | None = None,
    keep_finish_times: bool = False,
    order: tuple[np.ndarray, np.ndarray] | None = None,
    bound: float = math.inf,
) -> SimResult | None:
    """Simulate Figure 4 (``mode="self"``) or a plain doacross loop.

    The two differ only in the per-iteration overhead vector; pass the
    identity schedule for a faithful doacross baseline.  A plan whose
    levels average at least :data:`_WIDE_LEVEL` iterations is walked a
    level at a time (:func:`_run_levels`), any other by the
    per-iteration event loop (:func:`_run_scalar`); the oracle of both
    is :func:`repro.core.reference.simulate_self_executing`, and the
    property suite asserts exact agreement on every :class:`SimResult`
    field.

    ``order`` hands over an ``(order, bounds)`` plan the caller has
    already proven — an executor's
    :meth:`~repro.core.schedule.Schedule.execution_levels` — instead of
    asking ``schedule.simulation_levels(dep)`` for one (which raises
    :class:`~repro.errors.DeadlockError` when there is none): a
    topological order of the (program-order ∪ dependence) DAG, grouped
    into levels of mutually independent iterations with each
    processor's adjacent.  Results do not depend on which plan is
    walked.

    ``bound`` is a makespan the caller has no use for exceeding (the
    tuner's bar): the walk gives up as soon as the makespan provably
    exceeds it and the function returns ``None`` instead of a
    :class:`SimResult` — so ``None`` means ``total_time > bound``.  A
    result it does return is the unbounded one, bit for bit.
    """
    if mode not in ("self", "doacross"):
        raise ValidationError(f"mode must be 'self' or 'doacross', got {mode!r}")
    n, p = schedule.n, schedule.nproc
    if dep.n != n:
        raise ValidationError("schedule and dependence graph sizes differ")
    w, seq_time, num_deps = _work(dep, costs, mode, p, unit_work)
    levels, bounds = (schedule.simulation_levels(dep) if order is None
                      else order)
    if n >= _WIDE_LEVEL * (bounds.shape[0] - 1):
        walked = _run_levels(schedule, dep, w, costs.t_poll, levels, bounds,
                             bound)
    else:
        walked = _run_scalar(schedule, dep, w, costs.t_poll, levels, bound)
    if walked is None:
        return None
    finish, proc_avail, busy, idle = walked
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
        finish=(np.asarray(finish, dtype=np.float64) if keep_finish_times
                else None),
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
