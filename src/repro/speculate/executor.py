"""The speculative executor — run first, check afterwards, repair rarely.

:class:`SpeculativeExecutor` is the library's third execution tier,
next to the pre-scheduled and self-executing executors: it never sees
a schedule because it never runs an inspection.  One execution is

1. **detect** — one vectorized shadow scan
   (:func:`~repro.speculate.shadow.scan_accesses`) flags the iterations
   an unordered run would get wrong: the repair set;
2. **optimistic attempt** — partition ``[0, n)`` into contiguous
   chunks and execute each, minus the repair set, as one level in a
   seeded-RNG-shuffled order, as if the loop were DOALL;
3. **repair** — execute the repair set by its own wavefronts: the
   source paper's sweep, over the flagged iterations alone.

The attempt is sound because an iteration outside the repair set, by
construction, reads nothing an earlier iteration writes (or reads it
through the kernels' Figure 4 ``xold`` renaming, which no execution
order can perturb) and is the first writer of every element it writes,
whose every later reader and writer is repaired — so its optimistic
value is already the serial value, and the repair set's wavefronts
apply the later accesses in dependence order.  A doomed iteration is never
attempted, so there is nothing to checkpoint or restore, and no
element id of the access log ever indexes the kernel's
arrays: a kernel whose iteration ``k`` writes ``x[n-1-k]`` (the upper
substitution) or several arrays runs like any other.  The result is
bitwise identical to the serial backend, misspeculation included; the
contract property asserts it.

Because the shadow scan depends only on the *access pattern* — never
on computed values — the whole attempt/detect/repair control flow is
precomputed once per structure (:meth:`SpeculativeExecutor.plan`):
its levels are what the inherited classic ``run`` walks, what
:meth:`simulate` prices and what ``threads`` and ``processes`` run as
two barrier phases, and it survives data rebinds for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.dependence import DependenceGraph
from ..core.executor import ClassicExecutor
from ..core.wavefront import compute_wavefronts
from ..machine.costs import MachineCosts
from ..machine.simulator import SimResult
from ..observe.tracer import maybe_span
from ..program.extraction import _edges_general
from ..runtime.registry import register_executor
from ..util.frontier import counts_to_indptr
from ..util.rng import default_rng
from ..util.validation import check_positive, check_seed, check_unit_work
from .shadow import AccessLog, ShadowScan, scan_accesses

__all__ = ["ConflictReport", "SpeculationPlan", "SpeculativeExecutor"]

#: Attempt granularity: ``min(CHUNKS_PER_PROC * nproc, n)`` contiguous
#: chunks, shuffled.
CHUNKS_PER_PROC = 4


@dataclass(frozen=True)
class ConflictReport:
    """What one speculative execution did — attached to ``RunReport``.

    Fixed by the access pattern, so every run of a structure shares one
    (frozen) report."""

    #: Execution passes: 1 (clean) or 2 (optimistic + repair).
    attempts: int
    #: Violated fraction of the iteration space.
    conflict_rate: float
    #: Violated iterations.
    violated: int
    #: Iterations executed after the attempt (the violated ones).
    re_executed: int
    #: Iterations whose optimistic values were kept as-is.
    committed_optimistically: int
    #: Chunking of the optimistic attempt.
    chunks: int
    chunk_size: int
    #: First violated iteration (``None`` when the attempt was clean).
    first_violation: int | None
    #: Bytes of the event log + shadow arrays backing the detection.
    shadow_bytes: int
    #: Seed of the chunk-order shuffle (misspeculation is reproducible).
    seed: int


@dataclass
class SpeculationPlan:
    """Precomputed attempt/detect/repair control flow of one structure.

    Deterministic in (access log, seed, chunking) and independent of
    array values, so :meth:`SpeculativeExecutor.run` and
    :meth:`SpeculativeExecutor.simulate` replay the same plan.
    """

    #: ``(lo, hi)`` chunk bounds in shuffled execution order.
    chunk_bounds: tuple
    #: The shadow scan of the optimistic attempt.
    scan: ShadowScan
    #: Indices to execute after the attempt, ascending: the violated ones.
    repair_indices: np.ndarray
    #: The report of every run.
    report: ConflictReport


class SpeculativeExecutor(ClassicExecutor):
    """Optimistic DOALL execution with vectorized conflict detection.

    A :class:`~repro.core.executor.ClassicExecutor` without a
    dependence graph: its level plan is the speculation plan's.  Nothing
    was inspected, so it is its own inspection summary as well.

    Parameters
    ----------
    log:
        The loop's :class:`~repro.speculate.shadow.AccessLog`.
    nproc:
        Processor count (chunk granularity and simulated timing).
    costs:
        Machine cost model for :meth:`simulate`.
    seed:
        Chunk-shuffle seed, a non-negative integer (``None`` shuffles
        unseeded); the session passes its ``tune_seed`` so
        misspeculation and repair are reproducible per session.
    """

    mode = strategy = "speculative"
    #: What the inspection summary reports of an inspection-free plan.
    pipeline_cost = 0.0
    num_wavefronts = 0
    wavefronts = None

    def __init__(self, log: AccessLog, nproc: int,
                 costs: MachineCosts = MachineCosts(), *, seed=None,
                 observer=None):
        self.log = log
        self.nproc = check_positive(nproc, "nproc")
        self.seed = None if seed is None else check_seed(seed)
        #: Session :class:`~repro.observe.Observer` (``None`` = silent).
        self.observer = observer
        self.schedule = _SpecSchedule(n=log.n, nproc=self.nproc)
        self.costs = costs
        self._plan: SpeculationPlan | None = None

    @cached_property
    def dep(self) -> DependenceGraph:
        """Off the log's source, on first read — diagnostics only:
        execution never asks."""
        from ..core.inspector import Inspector  # deferred: import cycle

        return Inspector.dependences_of(self.log.source)

    @property
    def speculation(self) -> ConflictReport:
        """The report every run of this structure attaches."""
        return self.plan().report

    # ------------------------------------------------------------------
    def plan(self) -> SpeculationPlan:
        """The (cached) attempt/detect/repair plan of this structure."""
        if self._plan is None:
            with maybe_span(self.observer, "speculate.plan",
                            n=self.log.n, events=self.log.num_events):
                self._plan = self._build_plan()
        return self._plan

    def _build_plan(self) -> SpeculationPlan:
        log = self.log
        n = log.n
        k = min(CHUNKS_PER_PROC * self.nproc, max(n, 1))
        edges = (np.arange(k + 1, dtype=np.int64) * n) // k
        order = default_rng(self.seed).permutation(k)
        bounds = tuple(
            (int(edges[j]), int(edges[j + 1])) for j in order
            if edges[j] < edges[j + 1]
        )
        scan = scan_accesses(log)
        repair_indices = np.flatnonzero(scan.violated)
        violated = int(repair_indices.size)
        report = ConflictReport(
            attempts=1 if violated == 0 else 2,
            conflict_rate=violated / n if n else 0.0,
            violated=violated,
            re_executed=violated,
            committed_optimistically=n - violated,
            chunks=len(bounds),
            chunk_size=int(np.diff(edges).max()) if n else 0,
            first_violation=int(repair_indices[0]) if violated else None,
            shadow_bytes=log.nbytes + scan.nbytes,
            seed=-1 if self.seed is None else self.seed,
        )
        return SpeculationPlan(chunk_bounds=bounds, scan=scan,
                               repair_indices=repair_indices, report=report)

    def _build_levels(self) -> tuple[np.ndarray, np.ndarray]:
        # Phase 0: each chunk minus the repair set, one level each;
        # phase 1: the repair set's own wavefronts, each ascending.
        plan, at = self.plan(), [0]
        order = np.empty(self.log.n, dtype=np.int64)
        for lo, hi in plan.chunk_bounds:
            kept = np.flatnonzero(~plan.scan.violated[lo:hi])
            if kept.size:
                np.add(kept, lo, out=order[at[-1]:at[-1] + kept.size])
                at.append(at[-1] + kept.size)
        wf = _residue_wavefronts(self.log, plan.scan, plan.repair_indices)
        plan.scan.stale = None  # read once: the level plan is cached
        order[at[-1]:] = plan.repair_indices[np.argsort(wf, kind="stable")]
        return order, np.concatenate(
            (at, at[-1] + counts_to_indptr(np.bincount(wf))[1:]))

    def phases(self) -> list:
        """The level plan as two barrier phases: the chunks (each minus
        the repair set) dealt round-robin as :meth:`simulate` prices
        them, then the repair set on processor 0 in wavefront order.
        A first-phase iteration reads nothing an earlier one writes and
        is its elements' first writer: its lanes need no other sync."""
        plan, order, p = self.plan(), self.level_plan().order, self.nproc
        lanes, at = [[] for _ in range(p)], 0
        for j, (lo, hi) in enumerate(plan.chunk_bounds):
            kept = hi - lo - int(np.count_nonzero(plan.scan.violated[lo:hi]))
            lanes[j % p].append(order[at:at + kept])
            at += kept
        none = order[:0]
        return [[np.concatenate(lane) if lane else none for lane in lanes],
                [order[at:]] + [none] * (p - 1)]

    # ------------------------------------------------------------------
    def simulate(self, *, unit_work: np.ndarray | None = None,
                 keep_finish_times: bool = False) -> SimResult:
        """Machine-model timing of the same plan :meth:`run` replays.

        The optimistic attempt deals the shuffled chunks round-robin
        over the processors and costs the maximum load (plus
        shadow-logging overheads per event: a ``t_check``-priced read
        log, a ``t_inc``-priced write log).  Detection is one parallel
        sweep over the events; repair is priced as a serial run of its
        iterations, whatever its wavefronts (nothing is restored:
        :meth:`run` never attempts them).  The work model is affine in read counts, so
        every term is a closed form of per-chunk and repair-set event
        counts: nothing of length ``n`` is built unless ``unit_work`` is.
        """
        plan = self.plan()
        log, p, costs = self.log, self.nproc, self.costs
        n, repair = log.n, plan.repair_indices
        bounds = np.array(plan.chunk_bounds, dtype=np.int64).reshape(-1, 2)
        reads, writes = log.range_counts(bounds)
        num_reads = log.read_it.shape[0]
        if unit_work is None:
            # (iterations, reads) of the chunks, the repair set, the loop.
            base, fix, seq = (
                costs.t_work_base * size + costs.t_work_per_dep * count
                for size, count in (
                    (bounds[:, 1] - bounds[:, 0], reads),
                    (repair.size, repair.size if log.one_read else
                     np.count_nonzero(plan.scan.violated[log.read_it])),
                    (n, num_reads)))
        else:
            unit_work = check_unit_work(unit_work, n)
            base = np.array([unit_work[lo:hi].sum()
                             for lo, hi in plan.chunk_bounds])
            fix, seq = unit_work[repair].sum(), unit_work.sum()
        shared = costs.shared_factor(p)
        # Each chunk: base + shared * (t_check * reads + t_inc * writes).
        cost = base + shared * (costs.t_check * reads + costs.t_inc * writes)
        busy = np.bincount(np.arange(cost.size) % p, weights=cost,
                           minlength=p)
        detect = shared * costs.t_check * log.num_events / p
        total = (float(busy.max()) if n else 0.0) + detect + fix
        busy[0] += fix
        return SimResult(
            mode="speculative", nproc=p, total_time=float(total),
            seq_time=float(seq), busy=busy,
            idle=np.maximum(total - busy, 0.0),
            check_time=float(detect + shared * costs.t_check * num_reads),
            inc_time=float(shared * costs.t_inc * log.write_it.shape[0]),
            num_phases=plan.report.attempts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpeculativeExecutor(n={self.log.n}, nproc={self.nproc}, "
                f"events={self.log.num_events}, seed={self.seed!r})")


def _residue_wavefronts(log: AccessLog, scan: ShadowScan,
                        repair: np.ndarray) -> np.ndarray:
    """Wavefront numbers of the repair set among itself: the log's edges
    restricted to it (an unviolated iteration depends on nothing).  Under
    identity writes, the stale reads whose element's writer is violated
    too; otherwise the extractor's edges over the violated writes, the
    stale reads being the live ones (an unviolated writer makes one)."""
    if not repair.size:
        return repair
    r_it, r_el = scan.stale
    if log.identity_writes:
        mine = scan.violated[r_el]
        dst, src = r_it[mine], r_el[mine]
    else:
        mine = scan.violated[log.write_it]
        dst, src = _edges_general(log.n, r_it, r_el, log.write_it[mine],
                                  log.write_el[mine], all_live=True)
    dst, src = np.searchsorted(repair, dst), np.searchsorted(repair, src)
    return compute_wavefronts(DependenceGraph(
        counts_to_indptr(np.bincount(dst, minlength=repair.size)),
        src[np.argsort(dst, kind="stable")], repair.size, check_acyclic=False))


@register_executor("speculative", scheduler_override="identity",
                   fixed_assignment="wrapped", speculative=True)
def _build_speculative(inspection, nproc: int, costs: MachineCosts):
    """Registry factory (classic contract): events off the inspected graph.

    :meth:`Runtime.compile <repro.runtime.session.Runtime.compile>`
    reroutes ``speculative``-flagged executors through the
    no-inspection fast path, so this factory only serves callers
    driving the executor registry directly against an existing
    inspection.
    """
    return SpeculativeExecutor(
        AccessLog.from_dependences(inspection.dep), nproc, costs)


@dataclass(frozen=True)
class _SpecSchedule:
    """Identity stand-in satisfying the executor ``schedule`` contract."""

    n: int
    nproc: int
    num_wavefronts: int = 0
