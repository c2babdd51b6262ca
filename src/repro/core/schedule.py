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

A schedule is a frozen value over read-only arrays, so one cached
schedule serves every loop that compiles its structure, and it is the
one owner of "a legal order" of itself:
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
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ..errors import DeadlockError, ScheduleError, ValidationError
from ..runtime.registry import register_scheduler
from ..util.frontier import counts_to_indptr, expand_csr_ranges, frontier_sweep
from ..util.digest import structure_digest
from ..util.validation import check_positive, read_only
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
    "read_schedule_npz",
]

#: Valid ``balance=`` values of :func:`global_schedule` — also the
#: ``balance_options`` metadata of the registered ``"global"``
#: scheduler (one source of truth for validation and the tuner's
#: candidate enumeration, which preserves this order).
BALANCE_OPTIONS = ("wrapped", "greedy")


@dataclass(frozen=True, eq=False)
class Schedule:
    """A processor assignment plus per-processor execution orders.

    A frozen value over read-only arrays (the lists are views of one
    :attr:`flattened` array; a writable one, ``owner`` or ``wavefronts``
    is copied once), hashed by identity; :meth:`from_flat` builds one
    from the flat lists.

    Attributes
    ----------
    nproc:
        Number of processors.
    owner:
        ``owner[i]`` is the processor that executes index ``i``.
    local_order:
        ``local_order[p]`` is processor ``p``'s index list, in
        execution order (a tuple).
    wavefronts:
        Wavefront number per index (inspector output the schedule was
        built from).
    strategy:
        Human-readable provenance (``"global"``, ``"local"``,
        ``"identity"``).
    flattened, lengths:
        All indices in (processor, position) order — the ``schedule``
        array the transformed loops of Figures 4/5 index into — and the
        length of each list.
    """

    nproc: int
    owner: np.ndarray
    local_order: tuple = field(repr=False)
    wavefronts: np.ndarray = field(repr=False)
    strategy: str = "custom"

    def __post_init__(self):
        lists = [np.asarray(lst, dtype=np.int64) for lst in self.local_order]
        vars(self).update(vars(self.from_flat(   # frozen: set once
            self.nproc, read_only(np.concatenate(lists or [[]])),
            [lst.shape[0] for lst in lists], self.wavefronts, self.strategy,
            self.owner)))

    @classmethod
    def from_flat(cls, nproc, flat, lengths, wavefronts, strategy,
                  owner=None) -> "Schedule":
        """The one normaliser, which validates: list ``p`` is the next
        ``lengths[p]`` entries of ``flat``, held as is when read-only
        ``int64`` (copied when writable, as ``owner`` and ``wavefronts``
        are); ``owner=None`` reads the owners off the lists."""
        nproc = check_positive(nproc, "nproc")
        flat = read_only(np.asarray(flat, dtype=np.int64), flat)
        lengths = read_only(np.array(lengths, dtype=np.int64))
        if (lengths.shape != (nproc,) or lengths.min() < 0
                or flat.shape != (lengths.sum(),)):
            raise ValidationError(f"lengths {lengths.tolist()} are not "
                                  f"{nproc} lists of {flat.shape} indices")
        cuts = counts_to_indptr(lengths).tolist()
        lists = tuple(flat[a:b] for a, b in zip(cuts, cuts[1:]))
        if owner is None:   # n = len(wavefronts); validate() names i >= n
            held = np.empty(len(wavefronts), dtype=np.int64)
            if not flat.size or flat.min() >= 0 and flat.max() < held.size:
                for p, lst in enumerate(lists):
                    held[lst] = p
        else:
            held = owner_from_assignment(owner, nproc)
        schedule = object.__new__(cls)
        vars(schedule).update(
            nproc=nproc, flattened=flat, lengths=lengths, local_order=lists,
            owner=read_only(held, owner), strategy=strategy,
            wavefronts=read_only(np.asarray(wavefronts), wavefronts))
        schedule.validate()
        return schedule

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.owner.shape[0]

    @property
    def num_wavefronts(self) -> int:
        return int(self.wavefronts.max()) + 1 if self.n else 0

    @cached_property
    def digest(self) -> str:
        """Identity of the lists, which fix the owners, whatever objects
        hold them — the tuner's :class:`~repro.tuning.measure.SharedSims`
        key.  The wavefronts are the graph's, so they are left out."""
        return structure_digest((self.flattened,),
                                (self.nproc, tuple(self.lengths.tolist())))

    def validate(self) -> None:
        """Check the schedule is a consistent permutation of ``0..n-1``.

        Whole-schedule reductions for range and coverage (one boolean
        scatter), one gather per list for ownership — semantically the
        per-processor :func:`repro.core.reference.validate_schedule`.
        """
        flat = self.flattened
        if flat.size and (flat.min() < 0 or flat.max() >= self.n):
            bad = (flat < 0) | (flat >= self.n)
            proc = np.searchsorted(np.cumsum(self.lengths), np.argmax(bad),
                                   side="right")
            raise ScheduleError(
                f"processor {int(proc)} schedules out-of-range indices")
        for p, lst in enumerate(self.local_order):
            if np.count_nonzero(self.owner[lst] != p):
                raise ScheduleError(
                    f"processor {p}'s list contains indices it does not own")
        seen = np.zeros(self.n, dtype=bool)
        seen[flat] = True
        if flat.size > np.count_nonzero(seen):
            raise ScheduleError("an index appears on more than one processor")
        if flat.size != self.n:
            raise ScheduleError(
                f"{self.n - flat.size} indices are scheduled on no processor")

    def position(self) -> np.ndarray:
        """``position[i]`` = rank of index ``i`` within its processor's list."""
        pos = np.empty(self.n, dtype=np.int64)
        for lst in self.local_order:
            pos[lst] = np.arange(lst.size)
        return pos

    def unsorted_processor(self, wfl: np.ndarray | None = None
                           ) -> int | None:
        """The first processor whose local list is not sorted by
        wavefront, or ``None`` when every list is — the one place that
        decides it (:meth:`phases`, the pre-scheduled executor and
        simulator, and the executors' shape probe all ask here).
        ``wfl`` is the key, ``wavefronts[flattened]`` unless the caller
        holds it or asks another (``flattened``: does each list ascend?)."""
        if wfl is None:
            wfl = self.wavefronts[self.flattened]
        drops = np.diff(wfl) < 0
        # A wavefront decrease is only legal where the processor
        # changes: from the last entry of one list to the first of the
        # next.  List ``p`` ends just before flat position ``ends[p]``.
        ends = np.cumsum(self.lengths)
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
        out: list[list[np.ndarray]] = [[] for _ in range(nw)]
        for lst in self.local_order:    # wavefront-sorted: one slice a cell
            bounds = np.searchsorted(self.wavefronts[lst], np.arange(nw + 1))
            for w in range(nw):
                out[w].append(lst[bounds[w] : bounds[w + 1]])
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
        return dep._hold("crossing", (wf,), lambda: not (
            dep.num_edges
            and bool(np.any(wf[dep.indices] >= wf[dep.edge_rows]))))

    def _wavefront_levels(
        self, dep: DependenceGraph
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The shape probe: whole-wavefront batches when every local
        list is wavefront-sorted and every dependence crosses
        wavefronts — the shape the global/local schedulers produce,
        proven legal by two array reductions — else ``None``."""
        wfl = self.wavefronts[self.flattened]
        if (self.unsorted_processor(wfl) is None
                and self.deps_cross_wavefronts(dep)):
            return _wavefront_batches(self.flattened, wfl)
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

        succ_indptr, succ_indices = dep.successors
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
        plan = self._wavefront_levels(dep)
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
        plan = self._wavefront_levels(dep)
        if plan is not None:
            return plan
        if (dep.all_backward
                and self.unsorted_processor(self.flattened) is None):
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
    :func:`repro.core.reference.greedy_owner`.  Unit weights deal the
    wrapped lists: after ``c`` picks, processors ``c mod nproc …
    nproc-1`` carry ``⌊c/nproc⌋`` and the rest one more, so the
    least-loaded, lowest-numbered processor is always the next in the
    round-robin.  General weights take the heap of
    :func:`_greedy_weighted_owner` (Python floats, so the loads add up
    bit for bit as the oracle's numpy ``argmin`` loop does).
    """
    wf = np.asarray(wf, dtype=np.int64)
    nproc = check_positive(nproc, "nproc")
    n = wf.shape[0]
    order = _local_lists(None, wf, 1)[0]  # by wavefront, ties by index

    owner = np.empty(n, dtype=np.int64)
    if balance == "wrapped" or (balance == "greedy" and weights is None):
        owner[order] = np.arange(n, dtype=np.int64) % nproc
    elif balance == "greedy":
        owner = _greedy_weighted_owner(wf, order, weights, nproc)
    else:
        raise ValidationError(f"unknown balance strategy {balance!r}")

    return Schedule.from_flat(nproc, *_local_lists(owner, wf, nproc), wf,
                              f"global/{balance}", owner=read_only(owner))


def local_schedule(wf: np.ndarray, owner, nproc: int) -> Schedule:
    """Local index-set scheduling: keep ``owner``, sort locally by wavefront."""
    wf = np.asarray(wf, dtype=np.int64)
    owner = owner_from_assignment(owner, nproc)
    if owner.shape[0] != wf.shape[0]:
        raise ValidationError("owner and wavefront arrays must have equal length")
    return Schedule.from_flat(nproc, *_local_lists(owner, wf, nproc), wf,
                              "local", owner=owner)


def identity_schedule(wf: np.ndarray, nproc: int, owner=None) -> Schedule:
    """No reordering: each processor visits its indices in original order.

    This is what a plain ``doacross`` loop does; with a wrapped owner it
    is the baseline of Section 5.1.2.  Note the *wavefront* array is
    still carried for reporting, but local lists are by index order.
    """
    wf = np.asarray(wf, dtype=np.int64)
    owner = (wrapped_partition(wf.shape[0], nproc) if owner is None
             else owner_from_assignment(owner, nproc))
    return Schedule.from_flat(nproc, *_local_lists(owner, None, nproc), wf,
                              "identity", owner=owner)


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


def _local_lists(owner, wf, nproc: int) -> tuple:
    """``(order, counts)``: the lists sorted by (wavefront, index) end to
    end, read-only, and their lengths — one stable sort of the key
    ``owner · span + wavefront`` (of ``owner`` alone if ``wf`` is None,
    of ``wf`` alone, with no counts, if ``owner`` is) in the narrowest
    unsigned type holding it and ``span``: NumPy radix-sorts keys of 16
    bits or fewer, where a ``lexsort`` compares."""
    lo, hi = ((int(wf.min()), int(wf.max())) if wf is not None and wf.size
              else (0, 0))
    span = hi - lo + 1
    dtype = np.min_scalar_type(max(nproc * span - 1, span))
    key = (wf - lo if owner is None else owner).astype(dtype)
    if owner is not None and span > 1:
        key *= span
        key += (wf - lo).astype(dtype)
    return read_only(np.argsort(key, kind="stable")), (
        None if owner is None else np.bincount(owner, minlength=nproc))


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

#: Layout number of a persisted schedule; a file without it is foreign.
_NPZ_FORMAT = 2


def save_schedule_npz(path, schedule: Schedule, meta=None, **arrays) -> None:
    """Persist a schedule so the inspector cost can be amortised across
    program runs (the PARTI-style "save the communication schedule"
    pattern the paper's line of work grew into): one uncompressed
    ``.npz`` of a JSON ``meta`` header (plus the caller's ``meta``) and
    one ``uint8`` ``payload`` packing the lists, their lengths, the
    wavefronts and any extra integer ``arrays``, each at its narrowest
    type.  The lists determine the owners, so those are not stored."""
    parts = {"flat": schedule.flattened, "lengths": schedule.lengths,
             "wavefronts": schedule.wavefronts, **arrays}
    layout, blobs = [], []
    for name, a in parts.items():
        a = np.asarray(a, dtype=np.int64)
        ends = (a.min(), a.max()) if a.size else (0,)
        dtype = np.result_type(*map(np.min_scalar_type, ends))
        layout.append((name, dtype.str, a.size))
        blobs.append(a.astype(dtype).view(np.uint8))
    header = {"format": _NPZ_FORMAT, "n": schedule.n, "nproc": schedule.nproc,
              "strategy": schedule.strategy, "layout": layout, **(meta or {})}
    np.savez(path, meta=np.frombuffer(json.dumps(header).encode(), np.uint8),
             payload=np.concatenate(blobs))


def read_schedule_npz(path) -> tuple[Schedule, dict, dict]:
    """``(schedule, header, extra arrays)`` of a :func:`save_schedule_npz`
    file, read in one go.  It is outside input: CRCs and ``.npy``
    headers are checked, the schedule is re-validated, and every array
    is a read-only copy (none keeps the file alive) — the schedule's
    ``int64`` as a cold inspection's are, the extras at their type."""
    import zipfile  # deferred: only a restart reads an entry

    with zipfile.ZipFile(io.BytesIO(Path(path).read_bytes())) as z:
        meta, payload = (_uint8_vector(z.read(f"{name}.npy"))
                         for name in ("meta", "payload"))
    header = json.loads(meta.tobytes())
    if header["format"] != _NPZ_FORMAT:
        raise ValidationError(f"schedule file layout {header['format']!r}")
    arrays, at = {}, 0
    for name, dtype, size in header.pop("layout"):
        dtype = np.dtype(dtype)
        arrays[name] = np.frombuffer(payload, dtype, size, at)
        at += size * dtype.itemsize
    flat, lengths, wavefronts = (read_only(arrays.pop(name).astype(np.int64))
                                 for name in ("flat", "lengths", "wavefronts"))
    if wavefronts.shape != (header["n"],):
        raise ValidationError("wavefronts do not match the schedule size")
    schedule = Schedule.from_flat(header["nproc"], flat, lengths, wavefronts,
                                  header["strategy"])
    return schedule, header, {name: read_only(a.copy())
                              for name, a in arrays.items()}


def _uint8_vector(member: bytes) -> np.ndarray:
    """The data of an ``.npy`` member with a 1-D ``uint8`` header."""
    start = 10 + int.from_bytes(member[8:10], "little")   # v1.0 header
    expected = io.BytesIO()
    np.lib.format.write_array_header_1_0(expected, {
        "descr": "|u1", "fortran_order": False,
        "shape": (len(member) - start,)})
    if member[:start] != expected.getvalue():
        raise ValidationError("a schedule file member is not a uint8 vector")
    return np.frombuffer(member, np.uint8, offset=start)


def load_schedule_npz(path) -> Schedule:
    """Load a schedule saved by :func:`save_schedule_npz` (re-validated)."""
    return read_schedule_npz(path)[0]
