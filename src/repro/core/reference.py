"""Pure-Python reference implementations — the paper-faithful oracles.

The production inspector paths (:mod:`repro.core.wavefront`,
:meth:`DependenceGraph.successors
<repro.core.dependence.DependenceGraph.successors>`,
:class:`~repro.core.schedule.Schedule` internals and its
:meth:`~repro.core.schedule.Schedule.toposort_plan`) are vectorized for
speed, and the machine simulator walks Python lists in an order the
schedule's shape probe usually supplies without a sweep; the per-index
/ per-edge originals are preserved here, verbatim in structure, as
independent oracles:

* they transcribe the paper's algorithms literally (Figure 7's
  one-index-at-a-time sweep, the sequential greedy balance loop), so
  the semantics can be audited against the paper line by line;
* the property-based tests (``tests/test_property_core.py``,
  ``tests/test_wavefront.py``) assert ``vectorized == reference`` on
  random DAGs, so the fast paths can never drift from the reference
  semantics;
* ``benchmarks/gates.py`` measures the fast paths *against* these
  oracles, keeping the speedup claim honest.

Everything here is intentionally slow — O(n) or O(e) Python-level
iterations — and none of it is called on the production hot path
except :func:`greedy_owner` for explicitly *weighted* greedy balance,
whose load-dependent increments are inherently sequential.
"""

from __future__ import annotations

import numpy as np

from ..errors import DeadlockError, ScheduleError, StructureError
from ..util.validation import as_int_array
from .dependence import DependenceGraph

__all__ = [
    "compute_wavefronts",
    "compute_wavefronts_general",
    "successors",
    "nested_dependences",
    "greedy_owner",
    "validate_schedule",
    "schedule_position",
    "schedule_phases",
    "toposort_plan",
    "simulate_self_executing",
    "speculation_violations",
]


def compute_wavefronts(dep: DependenceGraph) -> np.ndarray:
    """Sequential wavefront sweep — the literal Figure 7 loop.

    Visits the indices one at a time; requires every dependence to
    point to a smaller index so a single forward pass suffices.
    """
    if not dep.all_backward:
        raise StructureError(
            "sequential sweep requires backward-only dependences; "
            "use compute_wavefronts_general"
        )
    n = dep.n
    wf = np.zeros(n, dtype=np.int64)
    indptr, indices = dep.indptr, dep.indices
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            wf[i] = wf[indices[lo:hi]].max() + 1
    return wf


def compute_wavefronts_general(dep: DependenceGraph) -> np.ndarray:
    """Wavefronts of an arbitrary DAG via stack-based Kahn propagation."""
    n = dep.n
    wf = np.zeros(n, dtype=np.int64)
    indeg = dep.dep_counts().copy()
    succ_indptr, succ_indices = successors(dep)
    stack = list(np.nonzero(indeg == 0)[0])
    seen = 0
    while stack:
        j = stack.pop()
        seen += 1
        for i in succ_indices[succ_indptr[j] : succ_indptr[j + 1]]:
            if wf[j] + 1 > wf[i]:
                wf[i] = wf[j] + 1
            indeg[i] -= 1
            if indeg[i] == 0:
                stack.append(int(i))
    if seen != n:
        raise StructureError("dependence graph contains a cycle")
    return wf


def successors(dep: DependenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Reversed-edge CSR built with the per-edge fill loop."""
    counts = np.bincount(dep.indices, minlength=dep.n)
    indptr = np.zeros(dep.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    fill = indptr[:-1].copy()
    succ = np.empty(dep.num_edges, dtype=np.int64)
    rows = np.repeat(np.arange(dep.n, dtype=np.int64), dep.dep_counts())
    for k in range(dep.num_edges):
        j = dep.indices[k]
        succ[fill[j]] = rows[k]
        fill[j] += 1
    return indptr, succ


def nested_dependences(g, n: int | None = None) -> DependenceGraph:
    """Figure 6 nested-loop dependences built one row at a time."""
    g = as_int_array(g, "g")
    if g.ndim != 2:
        raise StructureError(f"g must be 2-D, got shape {g.shape}")
    if n is None:
        n = g.shape[0]
    n = int(n)
    indptr = [0]
    indices: list[np.ndarray] = []
    for i in range(n):
        deps = np.unique(g[i])
        deps = deps[deps < i]
        indices.append(deps)
        indptr.append(indptr[-1] + deps.shape[0])
    return DependenceGraph(
        np.asarray(indptr, dtype=np.int64),
        np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
        n,
        check_acyclic=False,
    )


def greedy_owner(
    wf: np.ndarray,
    weights: np.ndarray | None,
    nproc: int,
) -> np.ndarray:
    """Sequential greedy balance: heaviest index to least-loaded processor.

    Within each wavefront, indices are taken heaviest first and each
    goes to the processor with the smallest accumulated load (ties to
    the lowest processor number, matching ``np.argmin``).
    """
    wf = np.asarray(wf, dtype=np.int64)
    n = wf.shape[0]
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    order = np.lexsort((np.arange(n), wf))
    owner = np.empty(n, dtype=np.int64)
    load = np.zeros(nproc, dtype=np.float64)
    nw = int(wf.max()) + 1 if n else 0
    bounds = np.searchsorted(wf[order], np.arange(nw + 1))
    for w in range(nw):
        members = order[bounds[w] : bounds[w + 1]]
        heavy_first = members[np.argsort(-weights[members], kind="stable")]
        for i in heavy_first:
            p = int(np.argmin(load))
            owner[i] = p
            load[p] += weights[i]
    return owner


def validate_schedule(schedule) -> None:
    """Per-processor consistency sweep over a Schedule-like object."""
    n = schedule.n
    seen = np.zeros(n, dtype=bool)
    for p, lst in enumerate(schedule.local_order):
        if lst.size and (lst.min() < 0 or lst.max() >= n):
            raise ScheduleError(f"processor {p} schedules out-of-range indices")
        if np.any(schedule.owner[lst] != p):
            raise ScheduleError(
                f"processor {p}'s list contains indices it does not own"
            )
        if np.any(seen[lst]):
            raise ScheduleError("an index appears on more than one processor")
        seen[lst] = True
    if not np.all(seen):
        missing = int(np.count_nonzero(~seen))
        raise ScheduleError(f"{missing} indices are scheduled on no processor")


def schedule_position(schedule) -> np.ndarray:
    """Per-processor rank of every index, one scatter per processor."""
    pos = np.empty(schedule.n, dtype=np.int64)
    for lst in schedule.local_order:
        pos[lst] = np.arange(lst.shape[0])
    return pos


def schedule_phases(schedule) -> list[list[np.ndarray]]:
    """(wavefront, processor) phase lists, one searchsorted per processor."""
    nw = schedule.num_wavefronts
    out: list[list[np.ndarray]] = [[] for _ in range(nw)]
    for p, lst in enumerate(schedule.local_order):
        wfs = schedule.wavefronts[lst]
        if lst.size and np.any(np.diff(wfs) < 0):
            raise ScheduleError(
                f"processor {p}'s list is not sorted by wavefront; "
                "a pre-scheduled execution would violate dependences"
            )
        bounds = np.searchsorted(wfs, np.arange(nw + 1))
        for w in range(nw):
            out[w].append(lst[bounds[w] : bounds[w + 1]])
    return out


def toposort_plan(schedule, dep: DependenceGraph) -> np.ndarray:
    """Stack-based Kahn order of the (program-order ∪ dependence) DAG."""
    n = schedule.n
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    for lst in schedule.local_order:
        if lst.size > 1:
            prev[lst[1:]] = lst[:-1]
            nxt[lst[:-1]] = lst[1:]
    indeg = dep.dep_counts().astype(np.int64)
    indeg += prev >= 0
    succ_indptr, succ_indices = successors(dep)
    stack = [int(i) for i in np.nonzero(indeg == 0)[0]]
    order = np.empty(n, dtype=np.int64)
    k = 0
    while stack:
        j = stack.pop()
        order[k] = j
        k += 1
        nj = nxt[j]
        if nj >= 0:
            indeg[nj] -= 1
            if indeg[nj] == 0:
                stack.append(int(nj))
        for i in succ_indices[succ_indptr[j] : succ_indptr[j + 1]]:
            indeg[i] -= 1
            if indeg[i] == 0:
                stack.append(int(i))
    if k != n:
        raise DeadlockError(
            "self-execution would deadlock: cycle in program-order + "
            "dependence edges (an iteration waits on one scheduled after "
            "it on the same processor)"
        )
    return order


def simulate_self_executing(
    schedule,
    dep: DependenceGraph,
    costs=None,
    *,
    mode: str = "self",
    unit_work: np.ndarray | None = None,
    keep_finish_times: bool = False,
):
    """The per-iteration discrete-event loop — the simulator oracle.

    Walks a topological order of the combined (program-order ∪
    dependence) DAG one iteration at a time: each iteration starts at
    the maximum of its processor's availability and its operands'
    finish times (busy-waits rounded up to whole poll quanta), exactly
    the Figure 4 release rule.  The production simulator
    (:func:`repro.machine.simulator.simulate_self_executing`) applies
    the same rule over Python lists or a wavefront at a time, to
    whichever legal plan :meth:`Schedule.simulation_levels
    <repro.core.schedule.Schedule.simulation_levels>` finds cheapest;
    this loop always walks the stack-based :func:`toposort_plan`, and
    the property suite asserts ``total_time`` / ``busy`` / ``idle`` /
    ``finish`` equal bit for bit.
    """
    import math

    from ..machine.costs import MachineCosts
    from ..machine.simulator import (
        SimResult,
        sequential_time,
        work_vector,
    )

    if costs is None:
        costs = MachineCosts()
    if mode not in ("self", "doacross"):
        raise StructureError(f"mode must be 'self' or 'doacross', got {mode!r}")
    n, p = schedule.n, schedule.nproc
    w = work_vector(dep, costs, mode, p, unit_work)
    order = toposort_plan(schedule, dep)

    finish = np.zeros(n, dtype=np.float64)
    proc_avail = np.zeros(p, dtype=np.float64)
    busy = np.zeros(p, dtype=np.float64)
    idle = np.zeros(p, dtype=np.float64)
    owner = schedule.owner
    indptr, indices = dep.indptr, dep.indices
    t_poll = costs.t_poll

    for i in order:
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

    total = float(proc_avail.max()) if p else 0.0
    idle += total - proc_avail

    nd = dep.dep_counts().astype(np.float64)
    shared = costs.shared_factor(p)
    return SimResult(
        mode=mode,
        nproc=p,
        total_time=total,
        seq_time=sequential_time(dep, costs, unit_work),
        busy=busy,
        idle=idle,
        check_time=float(shared * costs.t_check * nd.sum()),
        inc_time=float(shared * costs.t_inc * n),
        sched_time=float(shared * costs.t_sched_access * n) if mode == "self" else 0.0,
        num_phases=schedule.num_wavefronts,
        finish=finish if keep_finish_times else None,
    )


def speculation_violations(n: int, read_it, read_el, write_it,
                           write_el) -> np.ndarray:
    """Per-event conflict-detection oracle for the speculative tier.

    The literal, one-event-at-a-time transcription of the rules the
    vectorized shadow scan (:func:`repro.speculate.shadow.scan_accesses`)
    implements: iteration ``i`` is *violated* when

    * it reads an element some earlier iteration writes (stale read),
      or
    * it writes an element an earlier iteration also writes
      (write-after-write).

    Returns the boolean violated mask of length ``n``.  The property
    tests assert vectorized == reference on random event sets.
    """
    first_write: dict = {}
    for it, el in zip(write_it, write_el):
        it, el = int(it), int(el)
        first_write[el] = min(first_write.get(el, it), it)
    violated = np.zeros(n, dtype=bool)
    for it, el in zip(read_it, read_el):
        it, el = int(it), int(el)
        if el in first_write and first_write[el] < it:
            violated[it] = True
    for it, el in zip(write_it, write_el):
        it, el = int(it), int(el)
        if first_write[el] < it:
            violated[it] = True
    return violated
