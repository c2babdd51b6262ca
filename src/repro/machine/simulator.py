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

The self-executing evaluation is *wavefront-batched*: levels of the
combined DAG hold mutually independent iterations (at most one per
processor, no dependence inside a level), so each level's start times
are computed with whole-array numpy — a segment-max over the level's
gathered operand finish times against the owners' availability, with
vectorized poll-quantum rounding.  The per-iteration event loop is
retained verbatim (it absorbs runs of tiny levels, whole near-chain
graphs, and serves as the structure for the
:func:`repro.core.reference.simulate_self_executing` oracle); property
tests assert every engine produces bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DeadlockError, ScheduleError, ValidationError
from ..util.frontier import (
    counts_to_indptr,
    expand_csr_ranges,
    frontier_sweep,
    segment_max,
)
from ..util.validation import check_vector
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
    "toposort_plan",
    "wavefront_batches",
    "deps_cross_wavefronts",
    "execution_levels",
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
    nd = dep.dep_counts().astype(np.float64)
    base = (costs.base_work(nd) if unit_work is None
            else check_vector(unit_work, dep.n, "unit_work"))
    shared = costs.shared_factor(nproc)
    if mode == "preschedule":
        return base + shared * costs.t_sched_access
    if mode == "self":
        return base + shared * (costs.t_sched_access + costs.t_inc + costs.t_check * nd)
    # doacross: no reordered-index array to fetch from
    return base + shared * (costs.t_inc + costs.t_check * nd)


def sequential_time(
    dep: DependenceGraph,
    costs: MachineCosts,
    unit_work: np.ndarray | None = None,
) -> float:
    """Time of the optimized sequential program (no parallel extras)."""
    base = (
        costs.base_work(dep.dep_counts())
        if unit_work is None
        else np.asarray(unit_work, dtype=np.float64)
    )
    return float(base.sum())


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
    if not deps_cross_wavefronts(wf, dep):
        raise ScheduleError(
            "a dependence does not cross a phase boundary; the wavefront "
            "array is inconsistent with the dependence graph"
        )
    w = work_vector(dep, costs, "preschedule", p, unit_work)
    nw = schedule.num_wavefronts

    # Per (phase, processor) work totals: one weighted bincount over
    # (wavefront, owner) keys — same accumulation order as a per-index
    # scatter, at a fraction of the cost.  The per-phase critical
    # processor is a segment max over the phase-major totals (the same
    # helper the batched self-executing engine uses per level).
    m = (
        np.bincount(wf * p + schedule.owner, weights=w, minlength=nw * p)
        .reshape(nw, p)
    )
    phase_max = (
        segment_max(m.ravel(), np.arange(nw + 1, dtype=np.int64) * p)
        if nw
        else np.zeros(0)
    )
    sync = costs.sync_cost(p)
    total = float(phase_max.sum() + nw * sync)
    busy = m.sum(axis=0)
    idle = (phase_max[:, None] - m).sum(axis=0)

    sched_overhead = costs.shared_factor(p) * costs.t_sched_access * n
    return SimResult(
        mode="preschedule",
        nproc=p,
        total_time=total,
        seq_time=sequential_time(dep, costs, unit_work),
        busy=busy,
        idle=idle,
        sync_time=float(nw * sync),
        sched_time=float(sched_overhead),
        num_phases=nw,
    )


# ----------------------------------------------------------------------
# Self-executing / doacross executors
# ----------------------------------------------------------------------

def _combined_plan(
    schedule: Schedule, dep: DependenceGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Levelled topological order of the (program-order ∪ dependence) DAG.

    Builds one merged successor CSR — each iteration's dependence
    successors plus its program-order successor on the same processor —
    and runs the shared frontier sweep over it (the same level-set
    engine the wavefront computation uses), so the plan costs O(n + e)
    numpy work rather than a Python visit per iteration.  Returns
    ``(order, levels)``: a topological order grouped level by level and
    the per-index level numbers.

    Raises :class:`DeadlockError` when the combination is cyclic —
    i.e. the busy-waits of a self-executing run would never release.
    """
    n = schedule.n
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    for lst in schedule.local_order:
        if lst.size > 1:
            prev[lst[1:]] = lst[:-1]
            nxt[lst[:-1]] = lst[1:]
    indeg = dep.dep_counts().astype(np.int64)
    indeg += prev >= 0

    succ_indptr, succ_indices = dep.successors()
    dep_counts = np.diff(succ_indptr)
    has_nxt = nxt >= 0
    cindptr = counts_to_indptr(dep_counts + has_nxt)
    cindices = np.empty(int(cindptr[-1]), dtype=np.int64)
    # Each row keeps its dependence successors first …
    cindices[expand_csr_ranges(cindptr[:-1], dep_counts)] = succ_indices
    # … and its program-order successor (if any) in the final slot.
    cindices[cindptr[1:][has_nxt] - 1] = nxt[has_nxt]

    levels, order, visited = frontier_sweep(cindptr, cindices, indeg, n)
    if visited != n:
        raise DeadlockError(
            "self-execution would deadlock: cycle in program-order + "
            "dependence edges (an iteration waits on one scheduled after "
            "it on the same processor)"
        )
    return order, levels


def toposort_plan(schedule: Schedule, dep: DependenceGraph) -> np.ndarray:
    """Topological order of the combined (program-order ∪ dependence) DAG.

    See :func:`_combined_plan`; raises :class:`DeadlockError` when the
    combination is cyclic.
    """
    order, _ = _combined_plan(schedule, dep)
    return order


def _toposort_levels(
    schedule: Schedule, dep: DependenceGraph
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, level_indptr)`` batches of the combined DAG.

    ``order[level_indptr[k]:level_indptr[k+1]]`` is level ``k`` — a set
    of iterations with no dependence among them and at most one per
    processor (program-order edges chain a processor's items across
    levels), so a level's start times are mutually independent.
    """
    order, levels = _combined_plan(schedule, dep)
    return order, counts_to_indptr(np.bincount(levels))


def _wf_sorted_shape(
    schedule: Schedule, dep: DependenceGraph, wfl: np.ndarray
) -> bool:
    """Every local list wavefront-sorted and every dependence crossing
    wavefronts — the shape produced by the global/local schedulers.
    ``wfl`` is the wavefronts along ``schedule.flattened()``."""
    return (schedule.unsorted_processor(wfl) is None
            and deps_cross_wavefronts(schedule.wavefronts, dep))


def wavefront_batches(
    flat: np.ndarray, wfl: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``flat`` stably sorted by its wavefronts ``wfl``, with the
    wavefront boundaries: ``order[bounds[k]:bounds[k+1]]`` is the
    ``k``-th non-empty wavefront.

    For the flattened lists of a wavefront-sorted schedule —
    per-processor runs, each already non-decreasing in wavefront — one
    stable sort on the wavefront alone yields ``(wavefront, owner,
    position)`` order: the pre-scheduled phases laid end to end.
    """
    n = flat.shape[0]
    if n == 0:
        return flat, np.zeros(1, dtype=np.int64)
    o = np.argsort(wfl, kind="stable")
    w = wfl[o]
    bounds = np.concatenate(([0], np.flatnonzero(w[1:] != w[:-1]) + 1, [n]))
    return flat[o], bounds


def deps_cross_wavefronts(wf: np.ndarray, dep: DependenceGraph) -> bool:
    """Every dependence points into a strictly earlier wavefront."""
    return not (
        dep.num_edges and bool(np.any(wf[dep.indices] >= wf[dep.edge_rows()]))
    )


def execution_levels(
    schedule: Schedule, dep: DependenceGraph
) -> tuple[np.ndarray, np.ndarray]:
    """A deadlock-free order of ``schedule``, grouped into batches.

    ``order`` is a topological order of the (program-order ∪
    dependence) DAG and ``order[bounds[k]:bounds[k+1]]`` a set with no
    dependence inside it.  Wavefront-sorted schedules are proven legal
    by the shape probe and batch by whole wavefronts
    (:func:`wavefront_batches`); any other shape pays for the
    combined-DAG sweep, which raises :class:`DeadlockError` on a cycle
    and yields its (at most ``nproc``-wide) levels.
    """
    flat = schedule.flattened()
    wfl = schedule.wavefronts[flat]
    if _wf_sorted_shape(schedule, dep, wfl):
        return wavefront_batches(flat, wfl)
    return _toposort_levels(schedule, dep)


def _fast_order(
    schedule: Schedule, dep: DependenceGraph, *, try_wf_sorted: bool = True
) -> np.ndarray | None:
    """Cheap valid processing orders for the two common schedule shapes.

    The shape checks are whole-schedule array reductions over the
    flattened local lists (one concatenate + masked diffs) instead of a
    Python loop over per-processor lists.  ``try_wf_sorted=False``
    skips the wavefront-sorted probe when the caller already knows it
    fails (a :func:`_fast_levels` attempt runs the identical check).
    """
    flat, procs, _ = schedule._flat_with_procs()
    wfl = schedule.wavefronts[flat]
    if try_wf_sorted and _wf_sorted_shape(schedule, dep, wfl):
        return wavefront_batches(flat, wfl)[0]
    increasing_lists = not (
        flat.size > 1
        and bool(np.any((np.diff(flat) <= 0) & (procs[1:] == procs[:-1])))
    )
    if increasing_lists and dep.all_backward():
        return np.arange(schedule.n, dtype=np.int64)
    return None


def _fast_levels(
    schedule: Schedule, dep: DependenceGraph
) -> tuple[np.ndarray, np.ndarray] | None:
    """Batch plan for wavefront-sorted schedules — no graph sweep needed.

    Levels are ``(wavefront, occurrence)`` pairs: the ``k``-th index a
    processor executes within one wavefront joins that wavefront's
    ``k``-th sub-level.  A program-order predecessor lands in an
    earlier pair (same wavefront with a smaller occurrence, or an
    earlier wavefront) and every dependence crosses wavefronts
    (checked), so pair-lexicographic batches are safe and carry at most
    one index per processor each.
    """
    flat, procs, _ = schedule._flat_with_procs()
    n = flat.shape[0]
    wfl = schedule.wavefronts[flat]
    if not _wf_sorted_shape(schedule, dep, wfl):
        return None
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if int(wfl.min()) < 0:  # custom wavefront arrays may be arbitrary
        return None
    nw = int(wfl.max()) + 1
    # Occurrence rank inside each (processor, wavefront) run of the
    # flattened schedule (runs are contiguous: flat is per-processor
    # lists concatenated, each non-decreasing in wavefront).
    key = procs * nw + wfl
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(key[1:], key[:-1], out=run_start[1:])
    starts = np.nonzero(run_start)[0]
    lens = np.diff(np.append(starts, n))
    occ = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    o = np.lexsort((flat, occ, wfl))
    order = flat[o]
    wfo, occo = wfl[o], occ[o]
    lvl_start = np.empty(n, dtype=bool)
    lvl_start[0] = True
    lvl_start[1:] = (wfo[1:] != wfo[:-1]) | (occo[1:] != occo[:-1])
    bounds = np.append(np.nonzero(lvl_start)[0], n).astype(np.int64)
    return order, bounds


#: Valid ``engine=`` values of :func:`simulate_self_executing`.
ENGINES = ("auto", "batched", "scalar")

#: Level size at or below which the batched engine hands a *run* of
#: consecutive small levels to the scalar event loop in one go —
#: mirroring the frontier sweep's hybrid, so per-level numpy overhead
#: never makes the batched engine slower than the loop it replaces.
#: A level can never exceed ``nproc`` items (program-order edges chain
#: a processor's iterations across levels), so ``"auto"`` also routes
#: whole simulations whose width bound ``min(nproc, n/num_wavefronts)``
#: cannot clear this threshold straight to the scalar engine.
SCALAR_LEVEL = 24


def _scalar_span(
    order, a, b, owner, indptr, indices, w, t_poll,
    finish, proc_avail, busy, idle,
) -> None:
    """The per-iteration event loop over ``order[a:b]`` (shared tail).

    This is the original scalar engine, kept verbatim — the batched
    engine delegates runs of tiny levels to it.  Any topological order
    of the combined DAG yields bit-identical results: an iteration's
    inputs (its operands' finish times and its processor's
    availability) are fixed by the time it is legal to visit it.
    """
    for k in range(a, b):
        i = order[k]
        pi = owner[i]
        t0 = proc_avail[pi]
        lo, hi = indptr[i], indptr[i + 1]
        start = t0
        if hi > lo:
            r = finish[indices[lo:hi]].max()
            if r > t0:
                wait = r - t0
                if t_poll > 0.0:
                    wait = math.ceil(wait / t_poll) * t_poll
                start = t0 + wait
                idle[pi] += start - t0
        fi = start + w[i]
        finish[i] = fi
        busy[pi] += w[i]
        proc_avail[pi] = fi


def _legal_order(schedule, dep, order=None, try_wf_sorted=True):
    """``order`` when the caller already holds a proven one, else a
    cheap shape-derived order, else the combined-DAG sweep."""
    if order is None:
        order = _fast_order(schedule, dep, try_wf_sorted=try_wf_sorted)
    if order is None:
        order = toposort_plan(schedule, dep)
    return order


def _run_scalar(schedule, dep, w, t_poll, try_wf_sorted=True, order=None):
    """Whole-order scalar event loop over plain Python lists.

    One full pass of the per-iteration loop, with every hot array
    converted to a Python list up front (the same trade the frontier
    sweep's scalar spans make): list indexing and float arithmetic cost
    a fraction of per-element numpy scalar access, which makes this
    engine ~2.5× the speed of the numpy-indexed loop it replaces while
    performing bit-identical IEEE double operations.
    """
    order = _legal_order(schedule, dep, order, try_wf_sorted)
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
        lo, hi = indptr[i], indptr[i + 1]
        start = t0
        if hi > lo:
            r = finish[indices[lo]]
            for k in range(lo + 1, hi):
                v = finish[indices[k]]
                if v > r:
                    r = v
            if r > t0:
                wait = r - t0
                if t_poll > 0.0:
                    wait = ceil(wait / t_poll) * t_poll
                start = t0 + wait
                idle[pi] += start - t0
        fi = start + wl[i]
        finish[i] = fi
        busy[pi] += wl[i]
        proc_avail[pi] = fi
    return (
        np.asarray(finish, dtype=np.float64),
        np.asarray(proc_avail, dtype=np.float64),
        np.asarray(busy, dtype=np.float64),
        np.asarray(idle, dtype=np.float64),
    )


def _run_single_proc(schedule, dep, w, order=None):
    """One processor, non-negative work: no busy-wait can ever trigger.

    Every operand precedes its consumer on the only processor, so with
    ``w >= 0`` finish times are monotone and each start equals the
    processor's availability — the run is one cumulative sum over a
    valid order (sequential accumulation, bit-identical to the event
    loop's running additions).
    """
    order = _legal_order(schedule, dep, order)
    n = schedule.n
    finish = np.zeros(n, dtype=np.float64)
    f = np.cumsum(w[order])
    finish[order] = f
    total = f[-1] if n else 0.0
    proc_avail = np.array([total], dtype=np.float64)
    busy = np.array([total], dtype=np.float64)
    idle = np.zeros(1, dtype=np.float64)
    return finish, proc_avail, busy, idle


def _run_batched(schedule, dep, w, t_poll, plan=None):
    """Per-wavefront batched evaluation of the combined DAG.

    Each level holds mutually independent iterations (no dependence
    among them, at most one per processor), so the whole level's start
    times are ``max(proc_avail[owner], segment-max of operand finish
    times)`` with vectorized poll-quantum rounding — one set of numpy
    gathers per *level* instead of one Python visit per iteration.
    Runs of levels at or below :data:`SCALAR_LEVEL` fall back to the
    scalar event loop, so deep narrow stretches never pay per-level
    numpy overhead.
    """
    if plan is None:
        plan = _fast_levels(schedule, dep)
    if plan is None:
        plan = _toposort_levels(schedule, dep)
    order, bounds = plan
    n, p = schedule.n, schedule.nproc
    owner = schedule.owner
    indptr, indices = dep.indptr, dep.indices
    finish = np.zeros(n, dtype=np.float64)
    proc_avail = np.zeros(p, dtype=np.float64)
    busy = np.zeros(p, dtype=np.float64)
    idle = np.zeros(p, dtype=np.float64)

    nlev = bounds.shape[0] - 1
    k = 0
    while k < nlev:
        a, b = int(bounds[k]), int(bounds[k + 1])
        if b - a <= SCALAR_LEVEL:
            # Swallow the whole run of small levels in one scalar pass
            # (any per-level prefix of a topological order is itself
            # topological, so the hand-off is exact).
            j = k + 1
            while j < nlev and int(bounds[j + 1]) - int(bounds[j]) <= SCALAR_LEVEL:
                j += 1
            _scalar_span(order, a, int(bounds[j]), owner, indptr, indices,
                         w, t_poll, finish, proc_avail, busy, idle)
            k = j
            continue
        nodes = order[a:b]
        pr = owner[nodes]
        t0 = proc_avail[pr]
        starts = indptr[nodes]
        cnts = indptr[nodes + 1] - starts
        has = cnts > 0
        if has.any():
            whole = bool(has.all())
            hs = starts if whole else starts[has]
            hc = cnts if whole else cnts[has]
            t0h = t0 if whole else t0[has]
            operands = finish[indices[expand_csr_ranges(hs, hc)]]
            r = segment_max(operands, counts_to_indptr(hc))
            wait = r - t0h
            waiting = wait > 0.0
            if t_poll > 0.0:
                wait = np.ceil(wait / t_poll) * t_poll
            sh = np.where(waiting, t0h + wait, t0h)
            if whole:
                start = sh
                idle[pr] += sh - t0h
            else:
                start = t0  # fancy-indexed gather above: already a copy
                start[has] = sh
                idle[pr[has]] += sh - t0h  # owners are unique per level
        else:
            start = t0
        fin = start + w[nodes]
        finish[nodes] = fin
        busy[pr] += w[nodes]
        proc_avail[pr] = fin
        k += 1
    return finish, proc_avail, busy, idle


def simulate_self_executing(
    schedule: Schedule,
    dep: DependenceGraph,
    costs: MachineCosts = MachineCosts(),
    *,
    mode: str = "self",
    unit_work: np.ndarray | None = None,
    keep_finish_times: bool = False,
    engine: str = "auto",
    order: np.ndarray | None = None,
) -> SimResult:
    """Simulate Figure 4 (``mode="self"``) or a plain doacross loop.

    The two differ only in the per-iteration overhead vector; pass the
    identity schedule for a faithful doacross baseline.

    ``engine`` selects the evaluation strategy: ``"batched"`` — the
    per-wavefront vectorized engine; ``"scalar"`` — the per-iteration
    event loop; ``"auto"`` (default) —
    batched for graphs wide enough to amortise plan construction,
    scalar for near-chains, and a closed-form cumulative sum on one
    processor.  All engines produce bit-identical
    :class:`SimResult` fields; the per-iteration oracle is retained in
    :func:`repro.core.reference.simulate_self_executing` and the
    property suite asserts exact agreement.

    ``order`` hands over a topological order of the (program-order ∪
    dependence) DAG the caller has already proven — an executor's
    :func:`execution_levels` order — so the per-iteration engines skip
    their own shape probe and sort.  Results do not depend on which
    topological order is walked.
    """
    if mode not in ("self", "doacross"):
        raise ValidationError(f"mode must be 'self' or 'doacross', got {mode!r}")
    if engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {engine!r}")
    n, p = schedule.n, schedule.nproc
    if dep.n != n:
        raise ValidationError("schedule and dependence graph sizes differ")
    w = work_vector(dep, costs, mode, p, unit_work)
    t_poll = costs.t_poll

    plan = None
    try_wf_sorted = True
    if engine == "auto":
        if p == 1 and (n == 0 or float(w.min()) >= 0.0):
            engine = "single"
        elif min(p, n // max(schedule.num_wavefronts, 1)) > SCALAR_LEVEL:
            # Wide enough for whole-level numpy to pay.  Wavefront-
            # sorted schedules get their plan from one cheap lexsort;
            # other shapes need the combined-DAG frontier sweep, whose
            # construction only amortises on visibly larger machines.
            # A failed probe is not repeated downstream: the batched
            # route goes straight to the sweep, the scalar route skips
            # the identical wavefront-sorted order check.
            plan = _fast_levels(schedule, dep)
            if plan is None:
                try_wf_sorted = False
                if p >= 4 * SCALAR_LEVEL:
                    plan = _toposort_levels(schedule, dep)
            engine = "batched" if plan is not None else "scalar"
        else:
            engine = "scalar"
    if engine == "single":
        finish, proc_avail, busy, idle = _run_single_proc(schedule, dep, w,
                                                          order)
    elif engine == "batched":
        finish, proc_avail, busy, idle = _run_batched(schedule, dep, w, t_poll,
                                                      plan=plan)
    else:
        finish, proc_avail, busy, idle = _run_scalar(
            schedule, dep, w, t_poll, try_wf_sorted=try_wf_sorted,
            order=order)

    total = float(proc_avail.max()) if p else 0.0
    idle += total - proc_avail

    nd = dep.dep_counts().astype(np.float64)
    shared = costs.shared_factor(p)
    check_time = float(shared * costs.t_check * nd.sum()) if mode in ("self", "doacross") else 0.0
    inc_time = float(shared * costs.t_inc * n)
    sched_time = float(shared * costs.t_sched_access * n) if mode == "self" else 0.0
    return SimResult(
        mode=mode,
        nproc=p,
        total_time=total,
        seq_time=sequential_time(dep, costs, unit_work),
        busy=busy,
        idle=idle,
        check_time=check_time,
        inc_time=inc_time,
        sched_time=sched_time,
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
    engine: str = "auto",
) -> SimResult:
    """Dispatch on ``mode``: ``"preschedule"``, ``"self"`` or ``"doacross"``."""
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "preschedule":
        return simulate_prescheduled(schedule, dep, costs, unit_work=unit_work)
    return simulate_self_executing(schedule, dep, costs, mode=mode,
                                   unit_work=unit_work, engine=engine)
