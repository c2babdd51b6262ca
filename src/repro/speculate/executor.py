"""The speculative executor — run first, check afterwards, repair rarely.

:class:`SpeculativeExecutor` is the library's third execution tier,
next to the pre-scheduled and self-executing executors: it never sees
a schedule because it never runs an inspection.  One execution is

1. **detect** — one vectorized shadow scan
   (:func:`~repro.speculate.shadow.scan_accesses`) flags the iterations
   an unordered run would get wrong, closed into the :func:`repair set
   <repro.speculate.shadow.repair_set>`;
2. **optimistic attempt** — partition ``[0, n)`` into contiguous
   chunks and execute each, minus the repair set, as one batch in a
   seeded-RNG-shuffled order, as if the loop were DOALL;
3. **repair** — execute the repair set serially, in index order.

The attempt is sound because an iteration outside the repair set, by
construction, reads nothing an earlier iteration writes (or reads it
through the kernels' Figure 4 ``xold`` renaming, which no execution
order can perturb) and shares no written element with a repaired one
— so its optimistic value is already the serial value, and the serial
sweep recomputes the rest against correct operands.  A doomed
iteration is never attempted, so there is nothing to checkpoint or
restore, and no element id of the access log ever indexes the kernel's
arrays: a kernel whose iteration ``k`` writes ``x[n-1-k]`` (the upper
substitution) or several arrays runs like any other.  The result is
bitwise identical to the serial backend, misspeculation included; the
contract property asserts it.

Because the shadow scan depends only on the *access pattern* — never
on computed values — the whole attempt/detect/repair control flow is
precomputed once per structure (:meth:`SpeculativeExecutor.plan`) and
replayed by both :meth:`run` (numerics) and :meth:`simulate`
(machine-model timing), and it survives data rebinds for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..machine.costs import MachineCosts
from ..machine.simulator import SimResult
from ..observe.tracer import maybe_span
from ..runtime.registry import register_executor
from ..util.rng import default_rng
from ..util.validation import check_positive, check_seed, check_unit_work
from .shadow import AccessLog, ShadowScan, repair_set, scan_accesses

__all__ = ["ConflictReport", "SpeculationPlan", "SpeculativeExecutor",
           "FALLBACK_THRESHOLD", "MIN_FALLBACK_RATE",
           "DEFAULT_EXPECTED_EXECUTIONS"]

#: Ceiling of the adaptive guard: whatever the machine model says, a
#: structure whose measured conflict rate reaches this abandons
#: speculation and recompiles the classic inspector/executor pipeline.
FALLBACK_THRESHOLD = 0.05

#: Floor of the adaptive guard — below this rate the serial repair is
#: noise whatever the structure, so speculation always stays.
MIN_FALLBACK_RATE = 0.01

#: Attempt granularity: ``min(CHUNKS_PER_PROC * nproc, n)`` contiguous
#: chunks, shuffled.
CHUNKS_PER_PROC = 4

#: Amortisation horizon assumed when the session does not declare one:
#: how many executions a structure is expected to serve, over which
#: the classic pipeline would spread its inspection cost.
DEFAULT_EXPECTED_EXECUTIONS = 16.0


def _refuse(backend: str) -> ValidationError:
    return ValidationError(
        "the speculative executor runs on the 'serial' or 'sim' "
        f"backends; the {backend!r} protocol would race on the shared "
        "shadow state")


@dataclass
class ConflictReport:
    """What one speculative execution did — attached to ``RunReport``."""

    #: Execution passes: 1 (clean) or 2 (optimistic + repair).
    attempts: int
    #: Directly violated fraction of the iteration space.
    conflict_rate: float
    #: Directly violated iterations (before the repair closure).
    violated: int
    #: Iterations re-executed serially (the violated closure).
    re_executed: int
    #: Elements the repair set writes (what :meth:`SpeculativeExecutor.
    #: simulate` prices as a restore).
    restored_elements: int
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
    #: Set by the adaptive guard when this run tripped the fallback —
    #: future executions of the loop use the classic pipeline.
    fell_back: bool = False


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
    #: Indices to re-execute serially, ascending.
    repair_indices: np.ndarray
    #: Elements the repair set writes, unique (priced, never touched).
    restore_elements: np.ndarray
    #: Report template (copied per run so ``fell_back`` never leaks).
    report: ConflictReport


class SpeculativeExecutor:
    """Optimistic DOALL execution with vectorized conflict detection.

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
    schedule:
        Optional real schedule (when built from an inspection by the
        registry factory); a lightweight identity stand-in otherwise.
    """

    mode = "speculative"

    def __init__(self, log: AccessLog, nproc: int,
                 costs: MachineCosts = MachineCosts(), *, seed=None,
                 schedule=None, observer=None):
        self.log = log
        self.nproc = check_positive(nproc, "nproc")
        self.costs = costs
        self.seed = None if seed is None else check_seed(seed)
        #: Session :class:`~repro.observe.Observer` (``None`` = silent).
        self.observer = observer
        self.schedule = schedule if schedule is not None else _SpecSchedule(
            n=log.n, nproc=self.nproc)
        #: :class:`ConflictReport` of the most recent :meth:`run`.
        self.last_conflicts: ConflictReport | None = None
        self._plan: SpeculationPlan | None = None

    # ------------------------------------------------------------------
    def break_even_rate(self, expected_executions: float | None = None
                        ) -> float:
        """Per-structure conflict rate at which speculation stops paying.

        Priced from the machine model and the access log alone (no
        shadow scan, no dependence extraction — the quantities the
        no-inspection path is allowed to know):

        * staying speculative costs the serial repair of the
          conflicting iterations on *every* execution — roughly
          ``rate * n * (re-execute + restore)`` model µs;
        * falling back costs the classic inspection once, amortised
          over the structure's expected executions — estimated at the
          inspector's sort prices (``t_sort_base`` per iteration,
          ``t_sort_per_dep`` per read event).

        Equating the two gives the break-even rate, clamped to
        ``[MIN_FALLBACK_RATE, FALLBACK_THRESHOLD]`` so the guard never
        tolerates more than the legacy constant nor thrashes on noise.
        A horizon of 1 (a cold one-shot structure) therefore keeps the
        ceiling — nothing amortises an inspection nobody reuses.
        """
        log, costs = self.log, self.costs
        n = log.n
        if n <= 0:
            return FALLBACK_THRESHOLD
        horizon = (DEFAULT_EXPECTED_EXECUTIONS
                   if expected_executions is None
                   else max(1.0, float(expected_executions)))
        total_reads = float(log.read_it.shape[0])
        inspect_est = n * costs.t_sort_base + costs.t_sort_per_dep * total_reads
        repair_per_iter = (
            costs.t_work_base
            + costs.t_work_per_dep * total_reads / n
            + costs.t_rearrange * float(log.write_it.shape[0]) / n
        )
        if repair_per_iter <= 0.0:
            return FALLBACK_THRESHOLD
        rate = inspect_est / (horizon * n * repair_per_iter)
        return float(min(FALLBACK_THRESHOLD, max(MIN_FALLBACK_RATE, rate)))

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
        repair = repair_set(log, scan)
        repair_indices = np.nonzero(repair)[0]
        if repair_indices.size:
            restore = np.unique(log.write_el[repair[log.write_it]])
        else:
            restore = np.empty(0, dtype=np.int64)
        violated = scan.num_violated
        report = ConflictReport(
            attempts=1 if repair_indices.size == 0 else 2,
            conflict_rate=violated / n if n else 0.0,
            violated=violated,
            re_executed=int(repair_indices.size),
            restored_elements=int(restore.size),
            committed_optimistically=n - int(repair_indices.size),
            chunks=len(bounds),
            chunk_size=int(np.diff(edges).max()) if n else 0,
            first_violation=(int(np.argmax(scan.violated))
                             if violated else None),
            shadow_bytes=log.nbytes + scan.nbytes,
            seed=-1 if self.seed is None else self.seed,
        )
        return SpeculationPlan(chunk_bounds=bounds, scan=scan,
                               repair_indices=repair_indices,
                               restore_elements=restore, report=report)

    # ------------------------------------------------------------------
    def run(self, kernel) -> np.ndarray:
        """Execute ``kernel`` speculatively; bitwise equal to serial."""
        plan = self.plan()
        n = self.log.n
        if kernel.n != n:
            raise ValidationError(
                f"kernel has n={kernel.n}, access log has n={n}"
            )
        repair = plan.repair_indices
        attempted = None
        if repair.size:
            attempted = np.ones(n, dtype=bool)
            attempted[repair] = False
        obs = self.observer
        kernel.start()
        with maybe_span(obs, "speculate.attempt",
                        chunks=len(plan.chunk_bounds)):
            for lo, hi in plan.chunk_bounds:
                idx = np.arange(lo, hi, dtype=np.int64)
                if attempted is not None:
                    idx = idx[attempted[lo:hi]]
                if idx.size:
                    kernel.execute_batch(idx)
        if repair.size:
            with maybe_span(obs, "speculate.repair",
                            re_executed=int(repair.size)):
                for i in repair:
                    kernel.execute_index(int(i))
        self.last_conflicts = dataclasses.replace(plan.report)
        return kernel.result()

    def run_threaded(self, kernel, *, timeout: float = 30.0,
                     timeline=None, faults=None):
        """Refuses, under the classic executors' signature."""
        raise _refuse("threads")

    def run_processes(self, kernel, *, timeout: float = 30.0, faults=None):
        """Refuses, under the classic executors' signature."""
        raise _refuse("processes")

    # ------------------------------------------------------------------
    def simulate(self, *, unit_work: np.ndarray | None = None,
                 keep_finish_times: bool = False) -> SimResult:
        """Machine-model timing of the same plan :meth:`run` replays.

        The optimistic attempt deals the shuffled chunks round-robin
        over the processors and costs the maximum load (plus
        shadow-logging overheads per event: a ``t_check``-priced read
        log, a ``t_inc``-priced write log).  Detection is one parallel
        sweep over the events; repair re-executes its iterations
        serially, plus ``t_rearrange`` per element the repair set
        writes.  :meth:`run` no longer attempts the repair set, so it
        restores nothing: that restore term is a conservative price,
        kept so the guard's and the tuner's verdicts stand, and left for
        the speculation-as-a-schedule rework to re-price.  One buffer
        holds the attempt cost per iteration, then its prefix sum.
        """
        plan = self.plan()
        log, p, costs = self.log, self.nproc, self.costs
        n = log.n
        counts_r = log.read_counts()
        base = (costs.base_work(counts_r) if unit_work is None
                else check_unit_work(unit_work, n))
        shared = costs.shared_factor(p)
        # base + shared * (t_check * reads + t_inc * writes), in place,
        # operation for operation; identity writes count 1 each.
        prefix = np.zeros(n + 1)
        w = np.multiply(costs.t_check, counts_r, out=prefix[1:])
        w += costs.t_inc * (1.0 if log.identity_writes else np.bincount(
            log.write_it, minlength=n).astype(np.float64))
        w *= shared
        w += base
        np.cumsum(w, out=w)
        busy = np.zeros(p)
        for k, (lo, hi) in enumerate(plan.chunk_bounds):
            busy[k % p] += prefix[hi] - prefix[lo]
        attempt = float(busy.max()) if n else 0.0
        detect = shared * costs.t_check * log.num_events / p
        total = attempt + detect
        repair = 0.0
        if plan.repair_indices.size:
            repair = (costs.t_rearrange * plan.restore_elements.size
                      + float(base[plan.repair_indices].sum()))
            busy[0] += repair
            total += repair
        idle = np.maximum(total - busy, 0.0)
        return SimResult(
            mode="speculative",
            nproc=p,
            total_time=float(total),
            seq_time=float(base.sum()),
            busy=busy,
            idle=idle,
            check_time=float(detect + shared * costs.t_check * counts_r.sum()),
            inc_time=float(shared * costs.t_inc * log.write_it.shape[0]),
            num_phases=plan.report.attempts,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpeculativeExecutor(n={self.log.n}, nproc={self.nproc}, "
                f"events={self.log.num_events}, seed={self.seed!r})")


@dataclass(frozen=True)
class _SpecSchedule:
    """Identity stand-in satisfying the executor ``schedule`` contract."""

    n: int
    nproc: int
    num_wavefronts: int = 0


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
        AccessLog.from_dependences(inspection.dep), nproc, costs,
        schedule=inspection.schedule,
    )
