"""Execution schedules: global and local index-set scheduling.

A :class:`Schedule` fixes (a) which processor owns each loop index and
(b) the order in which each processor visits its indices.  The paper's
two schedulers (Section 2.3):

* :func:`global_schedule` — sort the whole index set by wavefront
  (ties by index number, reproducing Figure 9's anti-diagonal list) and
  deal the sorted list across processors in a wrapped manner
  (Figure 10), which evenly partitions every wavefront's work;
* :func:`local_schedule` — keep a fixed owner assignment and merely
  reorder each processor's own indices by wavefront.  Cheaper to
  compute and fully parallelizable, but does nothing about per-phase
  load balance.

:func:`identity_schedule` is the degenerate no-reordering schedule the
plain ``doacross`` baseline runs.

A schedule is also the one owner of "a legal order" of itself:
:meth:`Schedule.execution_levels` (the executors' batched numeric
order), :meth:`Schedule.simulation_levels` (what the machine simulator
walks), :meth:`Schedule.toposort_plan` (the combined-DAG sweep alone)
and :meth:`Schedule.deps_cross_wavefronts`, all over one shape probe.

All three are registered in the
:data:`~repro.runtime.registry.scheduler_registry` under the uniform
adapter signature ``fn(wf, owner, nproc, *, balance, weights) ->
Schedule``; user-defined schedulers plug in with
``@register_scheduler("name")`` and become valid ``scheduler=``
strings everywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeadlockError, ScheduleError, ValidationError
from ..runtime.registry import register_scheduler
from ..util.frontier import counts_to_indptr, expand_csr_ranges, frontier_sweep
from ..util.validation import check_positive
from .partition import owner_from_assignment, wrapped_partition
from .dependence import DependenceGraph

__all__ = [
    "Schedule",
    "BALANCE_OPTIONS",
    "WEIGHT_SOURCES",
    "global_schedule",
    "local_schedule",
    "identity_schedule",
    "save_schedule_npz",
    "load_schedule_npz",
]

#: Valid ``balance=`` values of :func:`global_schedule` — also the
#: ``balance_options`` metadata of the registered ``"global"``
#: scheduler (one source of truth for validation and the tuner's
#: candidate enumeration, which preserves this order).
BALANCE_OPTIONS = ("wrapped", "greedy")


@dataclass
class Schedule:
    """A processor assignment plus per-processor execution orders.

    Attributes
    ----------
    nproc:
        Number of processors.
    owner:
        ``owner[i]`` is the processor that executes index ``i``.
    local_order:
        ``local_order[p]`` is processor ``p``'s index list, in
        execution order.
    wavefronts:
        Wavefront number per index (inspector output the schedule was
        built from).
    strategy:
        Human-readable provenance (``"global"``, ``"local"``,
        ``"identity"``).
    """

    nproc: int
    owner: np.ndarray
    local_order: list = field(repr=False)
    wavefronts: np.ndarray = field(repr=False)
    strategy: str = "custom"

    def __post_init__(self):
        self.nproc = check_positive(self.nproc, "nproc")
        if len(self.local_order) != self.nproc:
            raise ValidationError(
                f"local_order must have {self.nproc} lists, got {len(self.local_order)}"
            )
        self.owner = owner_from_assignment(self.owner, self.nproc)
        self.local_order = [np.asarray(lst, dtype=np.int64) for lst in self.local_order]
        self.validate()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.owner.shape[0]

    @property
    def num_wavefronts(self) -> int:
        return int(self.wavefronts.max()) + 1 if self.n else 0

    def _flat_with_procs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated local lists, their processor tags, list lengths."""
        lengths = np.asarray(
            [lst.shape[0] for lst in self.local_order], dtype=np.int64
        )
        flat = (
            np.concatenate(self.local_order)
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        )
        procs = np.repeat(np.arange(self.nproc, dtype=np.int64), lengths)
        return flat, procs, lengths

    def validate(self) -> None:
        """Check the schedule is a consistent permutation of ``0..n-1``.

        One pass of whole-schedule numpy reductions (range, ownership,
        coverage via ``bincount``) instead of a per-processor sweep —
        semantically the per-processor
        :func:`repro.core.reference.validate_schedule`.
        """
        flat, procs, _ = self._flat_with_procs()
        if flat.size and (flat.min() < 0 or flat.max() >= self.n):
            bad = (flat < 0) | (flat >= self.n)
            raise ScheduleError(
                f"processor {int(procs[np.argmax(bad)])} schedules "
                "out-of-range indices"
            )
        mismatch = self.owner[flat] != procs
        if np.any(mismatch):
            raise ScheduleError(
                f"processor {int(procs[np.argmax(mismatch)])}'s list "
                "contains indices it does not own"
            )
        times_scheduled = np.bincount(flat, minlength=self.n)
        if np.any(times_scheduled > 1):
            raise ScheduleError("an index appears on more than one processor")
        if flat.size != self.n:
            missing = int(np.count_nonzero(times_scheduled == 0))
            raise ScheduleError(f"{missing} indices are scheduled on no processor")

    def position(self) -> np.ndarray:
        """``position[i]`` = rank of index ``i`` within its processor's list."""
        flat, _, lengths = self._flat_with_procs()
        pos = np.empty(self.n, dtype=np.int64)
        offsets = np.cumsum(lengths) - lengths
        pos[flat] = np.arange(flat.size, dtype=np.int64) - np.repeat(
            offsets, lengths
        )
        return pos

    def flattened(self) -> np.ndarray:
        """All indices in (processor, position) order — the ``schedule``
        array the transformed loops of Figures 4/5 index into."""
        return (
            np.concatenate(self.local_order)
            if self.n
            else np.empty(0, dtype=np.int64)
        )

    def unsorted_processor(self, wfl: np.ndarray | None = None
                           ) -> int | None:
        """The first processor whose local list is not sorted by
        wavefront, or ``None`` when every list is — the one place that
        decides it (:meth:`phases`, the pre-scheduled executor and
        simulator, and the executors' shape probe all ask here).
        ``wfl`` is ``wavefronts[flattened()]``, from a caller that
        already holds it."""
        if wfl is None:
            wfl = self.wavefronts[self.flattened()]
        drops = np.diff(wfl) < 0
        # A wavefront decrease is only legal where the processor
        # changes: from the last entry of one list to the first of the
        # next.  List ``p`` ends just before flat position ``ends[p]``.
        ends = np.cumsum([lst.shape[0] for lst in self.local_order])
        drops[ends[(ends > 0) & (ends < wfl.size)] - 1] = False
        if not drops.any():
            return None
        return int(np.searchsorted(ends, np.argmax(drops), side="right"))

    def check_wavefront_sorted(self) -> None:
        """Raise :class:`ScheduleError` unless every local list is
        sorted by wavefront — what barrier-separated phases require."""
        proc = self.unsorted_processor()
        if proc is not None:
            raise ScheduleError(
                f"processor {proc}'s list is not sorted by wavefront; "
                "a pre-scheduled execution would violate dependences"
            )

    def phases(self) -> list[list[np.ndarray]]:
        """``phases()[w][p]``: processor ``p``'s indices in wavefront ``w``.

        This is the pre-scheduled executor's view: the end of each phase
        is "marked by a special flag" (Figure 5's ``NEWPHASE``) and all
        processors synchronize before the next phase begins.
        """
        self.check_wavefront_sorted()
        nw = self.num_wavefronts
        flat, procs, _ = self._flat_with_procs()
        wfs = self.wavefronts[flat]
        # ``(processor, wavefront)`` keys are non-decreasing along the
        # flattened schedule, so every phase cell is one searchsorted
        # slice of it.
        key = procs * nw + wfs if nw else procs
        bounds = np.searchsorted(key, np.arange(self.nproc * nw + 1))
        out: list[list[np.ndarray]] = [[] for _ in range(nw)]
        for p in range(self.nproc):
            for w in range(nw):
                cell = p * nw + w
                out[w].append(flat[bounds[cell] : bounds[cell + 1]])
        return out

    def work_per_processor(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Total (optionally weighted) indices per processor."""
        if weights is None:
            return np.bincount(self.owner, minlength=self.nproc).astype(np.float64)
        return np.bincount(self.owner, weights=weights, minlength=self.nproc)

    # ------------------------------------------------------------------
    # Legal orders.  A *numeric* order need respect the dependences
    # only; a *simulation* order must also respect each processor's
    # program order (the machine model advances a clock per processor).
    # Everything below answers for the combined (program-order ∪
    # dependence) DAG, so its orders are both.
    # ------------------------------------------------------------------
    def deps_cross_wavefronts(self, dep: DependenceGraph) -> bool:
        """Every dependence points into a strictly earlier wavefront."""
        wf = self.wavefronts
        return not (
            dep.num_edges
            and bool(np.any(wf[dep.indices] >= wf[dep.edge_rows()]))
        )

    def _wavefront_levels(
        self, dep: DependenceGraph, flat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The shape probe: whole-wavefront batches when every local
        list is wavefront-sorted and every dependence crosses
        wavefronts — the shape the global/local schedulers produce,
        proven legal by two array reductions — else ``None``.
        ``flat`` is :meth:`flattened`, from a caller that holds it."""
        wfl = self.wavefronts[flat]
        if (self.unsorted_processor(wfl) is None
                and self.deps_cross_wavefronts(dep)):
            return _wavefront_batches(flat, wfl)
        return None

    def _sweep_levels(
        self, dep: DependenceGraph
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)`` levels of the combined DAG, any shape.

        Builds one merged successor CSR — each iteration's dependence
        successors plus its program-order successor on the same
        processor — and runs the shared frontier sweep over it (the
        level-set engine of the wavefront computation), so the plan
        costs O(n + e) numpy work rather than a Python visit per
        iteration.  ``order[bounds[k]:bounds[k+1]]`` is level ``k``: no
        dependence inside it and at most one iteration per processor.

        Raises :class:`DeadlockError` when the combination is cyclic —
        i.e. the busy-waits of a self-executing run would never release.
        """
        n = self.n
        prev = np.full(n, -1, dtype=np.int64)
        nxt = np.full(n, -1, dtype=np.int64)
        for lst in self.local_order:
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
        return order, counts_to_indptr(np.bincount(levels))

    def toposort_plan(self, dep: DependenceGraph) -> np.ndarray:
        """Topological order of the combined DAG by the frontier sweep
        alone (:meth:`_sweep_levels`) — what
        :func:`repro.core.reference.toposort_plan` is the oracle of."""
        return self._sweep_levels(dep)[0]

    def execution_levels(
        self, dep: DependenceGraph
    ) -> tuple[np.ndarray, np.ndarray]:
        """A deadlock-free order of this schedule, grouped into batches.

        ``order`` is a topological order of the combined DAG and
        ``order[bounds[k]:bounds[k+1]]`` a set with no dependence inside
        it: whole wavefronts where the shape probe answers, else the
        sweep's (at most ``nproc``-wide) levels, which raises
        :class:`DeadlockError` on a cycle.
        """
        plan = self._wavefront_levels(dep, self.flattened())
        return plan if plan is not None else self._sweep_levels(dep)

    def simulation_levels(
        self, dep: DependenceGraph
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: a topological order of the combined DAG,
        as cheaply as this schedule's shape allows, grouped into levels
        of mutually independent iterations with each processor's
        adjacent and in program order — what the machine simulator
        walks.  Whole wavefronts for wavefront-sorted lists (the
        pre-scheduled phases laid end to end); ``arange(n)`` one
        iteration a level for ascending lists over all-backward
        dependences (identity / doacross schedules); the sweep's levels
        otherwise.  Raises :class:`DeadlockError` on a cycle.
        """
        flat, procs, _ = self._flat_with_procs()
        plan = self._wavefront_levels(dep, flat)
        if plan is not None:
            return plan
        ascending_lists = not (
            flat.size > 1
            and bool(np.any((np.diff(flat) <= 0) & (procs[1:] == procs[:-1])))
        )
        if ascending_lists and dep.all_backward():
            return (np.arange(self.n, dtype=np.int64),
                    np.arange(self.n + 1, dtype=np.int64))
        return self._sweep_levels(dep)

    def is_legal_self_executing(self, dep: DependenceGraph) -> bool:
        """True when self-execution cannot deadlock under this schedule.

        Deadlock requires a cycle in (program-order ∪ dependence) edges;
        equivalently, some dependence ``j`` of ``i`` scheduled *after*
        ``i`` on the same processor, or a cross-processor cycle —
        exactly when :meth:`simulation_levels` has no plan to give.
        """
        try:
            self.simulation_levels(dep)
        except DeadlockError:
            return False
        return True


def _wavefront_batches(
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


def global_schedule(
    wf: np.ndarray,
    nproc: int,
    *,
    weights: np.ndarray | None = None,
    balance: str = "wrapped",
) -> Schedule:
    """Global index-set scheduling (topological sort + repartition).

    Parameters
    ----------
    wf:
        Wavefront numbers from the inspector.
    nproc:
        Processor count.
    weights:
        Optional per-index work estimates; only used by
        ``balance="greedy"``.
    balance:
        ``"wrapped"`` — deal the wavefront-sorted list round-robin
        (the paper's method, Figure 10); ``"greedy"`` — within each
        wavefront assign heaviest index to the least-loaded processor
        (an ablation; unit weights when ``weights`` is omitted).

    Greedy owners are exactly those of the sequential oracle
    :func:`repro.core.reference.greedy_owner`: unit weights take the
    closed form of :func:`_greedy_unit_owner`, general weights the heap
    of :func:`_greedy_weighted_owner` (Python floats, so the loads add
    up bit for bit as the oracle's numpy ``argmin`` loop does).
    """
    wf = np.asarray(wf, dtype=np.int64)
    nproc = check_positive(nproc, "nproc")
    n = wf.shape[0]
    order = np.lexsort((np.arange(n), wf))  # sort by wavefront, ties by index

    owner = np.empty(n, dtype=np.int64)
    if balance == "wrapped":
        owner[order] = np.arange(n, dtype=np.int64) % nproc
    elif balance == "greedy":
        if weights is None:
            # Unit weights make the greedy recurrence closed-form
            # (load[p] after j assignments is exactly j + load0[p]),
            # so the whole inner loop vectorizes; see _greedy_unit_owner.
            owner = _greedy_unit_owner(wf, order, nproc)
        else:
            owner = _greedy_weighted_owner(wf, order, weights, nproc)
    else:
        raise ValidationError(f"unknown balance strategy {balance!r}")

    local = _local_lists(owner, wf, nproc)
    return Schedule(nproc=nproc, owner=owner, local_order=local,
                    wavefronts=wf, strategy=f"global/{balance}")


def local_schedule(wf: np.ndarray, owner, nproc: int) -> Schedule:
    """Local index-set scheduling: keep ``owner``, sort locally by wavefront."""
    wf = np.asarray(wf, dtype=np.int64)
    owner = owner_from_assignment(owner, nproc)
    if owner.shape[0] != wf.shape[0]:
        raise ValidationError("owner and wavefront arrays must have equal length")
    local = _local_lists(owner, wf, nproc)
    return Schedule(nproc=nproc, owner=owner, local_order=local,
                    wavefronts=wf, strategy="local")


def identity_schedule(wf: np.ndarray, nproc: int, owner=None) -> Schedule:
    """No reordering: each processor visits its indices in original order.

    This is what a plain ``doacross`` loop does; with a wrapped owner it
    is the baseline of Section 5.1.2.  Note the *wavefront* array is
    still carried for reporting, but local lists are by index order.
    """
    wf = np.asarray(wf, dtype=np.int64)
    n = wf.shape[0]
    nproc = check_positive(nproc, "nproc")
    if owner is None:
        owner = wrapped_partition(n, nproc)
    else:
        owner = owner_from_assignment(owner, nproc)
    local = [np.nonzero(owner == p)[0].astype(np.int64) for p in range(nproc)]
    return Schedule(nproc=nproc, owner=owner, local_order=local,
                    wavefronts=wf, strategy="identity")


def _greedy_unit_owner(wf: np.ndarray, order: np.ndarray, nproc: int) -> np.ndarray:
    """Vectorized unit-weight greedy balance, exactly matching the
    sequential :func:`repro.core.reference.greedy_owner` loop.

    With unit weights, processor ``p``'s load after receiving ``j``
    indices in a wavefront is ``load0[p] + j``; the sequential
    argmin-of-loads choice therefore assigns the ``t``-th index of the
    wavefront to the ``t``-th smallest ``(load0[p] + j, p)`` pair —
    a merge of ``nproc`` sorted lists, computed with one lexsort per
    wavefront instead of one argmin per index.
    """
    n = wf.shape[0]
    owner = np.empty(n, dtype=np.int64)
    load = np.zeros(nproc, dtype=np.float64)
    nw = int(wf.max()) + 1 if n else 0
    bounds = np.searchsorted(wf[order], np.arange(nw + 1))
    proc_ids = np.arange(nproc, dtype=np.int64)
    for w in range(nw):
        members = order[bounds[w] : bounds[w + 1]]
        m = members.shape[0]
        if not m:
            continue
        # Candidate keys: proc p's j-th assignment costs load[p] + j,
        # ties broken by processor number like np.argmin.  Each proc
        # can receive at most ~⌈m/nproc⌉ of the m picks (unit-weight
        # greedy keeps loads within 1 of each other), so candidates
        # are capped there — O(m + nproc) memory, not O(m · nproc) —
        # and re-widened in the rare case a proc exhausts its cap.
        cap = min(m, -(-m // nproc) + 2)
        while True:
            prio = (load[:, None]
                    + np.arange(cap, dtype=np.float64)[None, :]).ravel()
            cand_proc = np.repeat(proc_ids, cap)
            chosen = cand_proc[np.lexsort((cand_proc, prio))[:m]]
            counts = np.bincount(chosen, minlength=nproc)
            # A proc using *all* its candidates might have deserved
            # more than the cap provided; everything below cap is
            # provably complete.
            if cap >= m or counts.max() < cap:
                break
            cap = min(m, cap * 2)
        owner[members] = chosen
        load += counts
    return owner


def _greedy_weighted_owner(
    wf: np.ndarray, order: np.ndarray, weights, nproc: int
) -> np.ndarray:
    """Weighted greedy balance, exactly matching the sequential
    :func:`repro.core.reference.greedy_owner` loop.

    Load-dependent increments are inherently sequential, so this stays
    a loop — but over Python floats and a ``heapq`` of ``(load, p)``
    instead of one ``np.argmin`` per index.  Popping the smallest
    ``(load, p)`` is ``np.argmin``'s lowest-index tie-break, and Python
    float ``+`` is the same IEEE addition, so the owners are identical.
    Within a wavefront members go heaviest first, ties in index order
    (a stable sort on ``(wavefront, -weight)`` of the wavefront order).
    """
    w = np.asarray(weights)
    order = order[np.lexsort((-w[order], wf[order]))]
    work = w.astype(np.float64)[order].tolist()
    heap = [(0.0, p) for p in range(nproc)]
    picked = []
    for wi in work:
        load, p = heap[0]
        picked.append(p)
        heapq.heapreplace(heap, (load + wi, p))
    owner = np.empty(wf.shape[0], dtype=np.int64)
    owner[order] = picked
    return owner


def _local_lists(owner: np.ndarray, wf: np.ndarray, nproc: int) -> list[np.ndarray]:
    """Per-processor lists sorted by (wavefront, index): one stable sort
    of the key ``owner · span + wavefront``, cast to the narrowest
    unsigned type that holds it — NumPy radix-sorts keys of 16 bits or
    fewer, where a three-key ``lexsort`` compares."""
    if owner.shape[0]:
        lo = int(wf.min())
        span = int(wf.max()) - lo + 1
        key = owner * span + (wf - lo)
        order = np.argsort(key.astype(np.min_scalar_type(nproc * span - 1)),
                           kind="stable")
    else:
        order = np.empty(0, dtype=np.int64)
    bounds = counts_to_indptr(np.bincount(owner, minlength=nproc))
    return [order[bounds[p] : bounds[p + 1]] for p in range(nproc)]


# ----------------------------------------------------------------------
# Registry adapters — the open scheduler set
# ----------------------------------------------------------------------

# ``consumes_balance`` tells the Runtime's schedule-cache key builder
# whether ``balance=`` changes this scheduler's output; schedulers that
# ignore it (local, identity) share one cache entry across balance
# strings.  User-registered schedulers default to consuming it — the
# conservative choice: never serve a schedule the strategy might not
# have built.  ``balance_options`` declares the accepted values (the
# Runtime validates them eagerly, and the tuner's ``enumerate_space``
# crosses them into the candidate space); ``repartitions`` marks
# schedulers that rebuild the assignment, so the initial partition is
# irrelevant to them.

#: Valid ``weights=`` sources of the ``"global:weights=…"`` spec:
#: ``unit`` — unweighted greedy (the default ``weights=None``);
#: ``deps`` — each index weighs its dependence count;
#: ``work`` — each index weighs its modelled execution cost
#: (:meth:`~repro.machine.costs.MachineCosts.base_work`).
WEIGHT_SOURCES = ("unit", "deps", "work")


@register_scheduler("global", consumes_balance=True,
                    balance_options=BALANCE_OPTIONS,
                    repartitions=True,
                    params={"weights": str})
def _global_adapter(wf, owner, nproc, *, balance="wrapped", weights=None):
    # A string reaching this adapter is a weight *source* from a
    # ``"global:weights=…"`` spec that nothing resolved to an array —
    # the Inspector does that (it holds the dependence graph and cost
    # model); direct registry users must pass the array themselves.
    if isinstance(weights, str):
        if weights == "unit":
            weights = None
        else:
            raise ValidationError(
                f"weight source {weights!r} must be resolved to an array "
                "before scheduling (the Inspector/Runtime path does this); "
                f"valid sources are: {', '.join(WEIGHT_SOURCES)}"
            )
    return global_schedule(wf, nproc, weights=weights, balance=balance)


@register_scheduler("local", consumes_balance=False)
def _local_adapter(wf, owner, nproc, *, balance="wrapped", weights=None):
    return local_schedule(wf, owner, nproc)


@register_scheduler("identity", consumes_balance=False)
def _identity_adapter(wf, owner, nproc, *, balance="wrapped", weights=None):
    return identity_schedule(wf, nproc, owner=owner)


# ----------------------------------------------------------------------
# Persistence — inspection is amortisable across *program runs* too
# ----------------------------------------------------------------------

def save_schedule_npz(path, schedule: Schedule) -> None:
    """Persist a schedule so the inspector cost can be amortised across
    program runs (the PARTI-style "save the communication schedule"
    pattern the paper's line of work grew into)."""
    flat = schedule.flattened()
    lengths = np.asarray(
        [lst.shape[0] for lst in schedule.local_order], dtype=np.int64
    )
    np.savez_compressed(
        path,
        nproc=np.int64(schedule.nproc),
        owner=schedule.owner,
        flat=flat,
        lengths=lengths,
        wavefronts=schedule.wavefronts,
        strategy=np.bytes_(schedule.strategy.encode()),
    )


def load_schedule_npz(path) -> Schedule:
    """Load a schedule saved by :func:`save_schedule_npz` (re-validated)."""
    with np.load(path) as z:
        nproc = int(z["nproc"])
        lengths = z["lengths"]
        flat = z["flat"]
        bounds = counts_to_indptr(lengths)
        local = [flat[bounds[p] : bounds[p + 1]] for p in range(nproc)]
        return Schedule(
            nproc=nproc,
            owner=z["owner"],
            local_order=local,
            wavefronts=z["wavefronts"],
            strategy=bytes(z["strategy"]).decode(),
        )
