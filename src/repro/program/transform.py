"""Loop-nest transforms — rewrite the program, then schedule it.

The paper schedules a *fixed* loop at run time; this layer changes the
loop before the inspector ever sees it.  Every pass consumes a
:class:`~repro.program.LoopProgram` and emits new programs plus an
invertible :class:`IterationMap`, so results always land back in the
caller's arrays and serial semantics are preserved by construction:

* :func:`fission` splits a multi-statement program along the cycles of
  its statement conflict graph — each strongly connected component
  becomes an independently schedulable stage, run in condensation
  order (the loop-fission legality condition);
* :func:`skew` renumbers a 2-D iteration space (``shape=(R, C)``)
  into anti-diagonal order — the static wavefront transform.  The
  dependence *graph* is numbering-invariant, but the order-sensitive
  strategies are not: row-major in-row chains serialize ``doacross``,
  anti-diagonal order pipelines it.

:func:`enumerate_variants` packages the legal rewrites of one program
as :class:`Variant` bundles for the tuner, which scores variants ×
strategies with the same exact simulator and picks the cheapest
(:meth:`Tuner.tune_program <repro.tuning.tuner.Tuner.tune_program>`).
:class:`StagedPlan` is the executable form of a transformed winner —
the plan a :class:`~repro.runtime.CompiledLoop` runs when
``strategy="auto"`` picks a rewrite: stage loops run in order, written
arrays thread forward, and ``rebind`` keeps the amortisation story —
data swaps never repay the inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.executor import LevelPlan, LoopKernel
from ..errors import ValidationError
from ..machine.simulator import SimResult
from ..resilience.recovery import RecoveryRecord
from ..runtime.session import LoopPlan
from ..util.validation import read_only
from .binding import LoopProgram
from .descriptors import Statement

__all__ = [
    "IterationMap",
    "MappedKernel",
    "Stage",
    "Variant",
    "StagedPlan",
    "fission",
    "skew",
    "enumerate_variants",
]


@dataclass(frozen=True)
class IterationMap:
    """An invertible renumbering of the iteration space.

    ``forward[k]`` is the original iteration that the transformed
    program's iteration ``k`` executes.  Being a permutation is what
    makes every transform reversible — the serial result can always be
    stated (and checked) in original coordinates.
    """

    forward: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        if fwd.ndim != 1 or not np.array_equal(
                np.sort(fwd), np.arange(fwd.shape[0], dtype=np.int64)):
            raise ValidationError(
                "IterationMap.forward must be a permutation of "
                "[0, n) — transforms must stay invertible"
            )

    @classmethod
    def identity(cls, n: int) -> "IterationMap":
        return cls(np.arange(int(n), dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.forward.shape[0])

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.forward,
                                   np.arange(self.n, dtype=np.int64)))

    @cached_property
    def inverse(self) -> np.ndarray:
        """``inverse[i]`` = transformed position of original iteration
        ``i`` (``inverse[forward[k]] == k``)."""
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.forward] = np.arange(self.n, dtype=np.int64)
        return inv


class MappedKernel(LoopKernel):
    """Runs an inner kernel through an :class:`IterationMap`.

    The transformed loop's iteration ``k`` executes the inner kernel's
    iteration ``forward[k]``; renaming inside the inner kernel is by
    *original* iteration numbers, so it is order-independent and the
    wrap is sound for any legal schedule of the transformed program.
    """

    def __init__(self, inner, imap: IterationMap):
        if inner.n != imap.n:
            raise ValidationError(
                f"MappedKernel: inner kernel has n={inner.n} but the "
                f"iteration map covers n={imap.n}"
            )
        self.inner = inner
        self.imap = imap
        self._forward = imap.forward
        self.n = inner.n

    @property
    def thread_safe(self) -> bool:
        return bool(getattr(self.inner, "thread_safe", True))

    def start(self) -> None:
        self.inner.start()

    def execute_index(self, i: int) -> None:
        self.inner.execute_index(int(self._forward[i]))

    # The level protocol is the inner kernel's, over the mapped order.
    @property
    def vectorized(self) -> bool:
        return bool(getattr(self.inner, "vectorized", False))

    @property
    def tape_builds(self) -> int:
        return getattr(self.inner, "tape_builds", 0)

    def gather_key(self) -> tuple:
        return (*self.inner.gather_key(), self._forward)

    def compile_levels(self, levels):
        mapped = LevelPlan(read_only(self._forward[levels.order]),
                           levels.bounds)
        return mapped, self.inner.compile_levels(mapped)

    def execute_levels(self, levels, gather) -> None:
        mapped, inner_gather = gather
        self.inner.execute_levels(mapped, inner_gather)

    def result(self):
        return self.inner.result()


@dataclass(frozen=True)
class Stage:
    """One schedulable piece of a transformed program."""

    program: LoopProgram
    imap: IterationMap
    #: Indices (into the source program's statement list) this stage
    #: carries.
    statements: tuple


@dataclass(frozen=True)
class Variant:
    """One legal rewrite of a program: an ordered bundle of stages."""

    name: str
    stages: tuple
    source: LoopProgram

    def structure_key(self) -> tuple:
        """Stage structure hashes — equivalent variants share this, so
        the tuner dedupes them onto the same cache/store entries."""
        return tuple(st.program.structure_hash() for st in self.stages)


# ----------------------------------------------------------------------
# Fission
# ----------------------------------------------------------------------

def _condensation_order(adj: np.ndarray) -> list:
    """Strongly connected statement groups of ``adj`` in a legal order.

    Warshall's closure gives reachability; two statements share a group
    when each reaches the other, and the next group is the one with the
    smallest remaining member whose every reacher is already placed —
    stable across runs and platforms.
    """
    num = adj.shape[0]
    reach = np.asarray(adj, dtype=bool) | np.eye(num, dtype=bool)
    for k in range(num):
        reach |= np.outer(reach[:, k], reach[k])
    placed = np.zeros(num, dtype=bool)
    order: list[list[int]] = []
    while not placed.all():
        for v in np.flatnonzero(~placed):
            group = reach[v] & reach[:, v]
            if not (reach[:, v] & ~placed & ~group).any():
                break
        placed |= group
        order.append(np.flatnonzero(group).tolist())
    return order


def fission(prog: LoopProgram) -> Variant | None:
    """Split a multi-statement program along dependence-cycle boundaries.

    Statements in one strongly connected component of the conflict
    graph must stay together (they form a dependence cycle across
    iterations); the condensation's topological order gives the legal
    stage sequence.  Returns ``None`` when there is nothing to split —
    a single statement, a single SCC, or a monolithic kernel whose
    body cannot be taken apart.
    """
    if prog.num_statements < 2 or prog.kernel is not None:
        return None
    adj = prog.statement_adjacency()
    comps = _condensation_order(adj)
    if len(comps) < 2:
        return None
    stages = []
    base = prog.name or "program"
    for k, comp in enumerate(comps):
        sub = LoopProgram(
            prog.n,
            statements=[prog.statements[j] for j in comp],
            data=prog.data,
            name=f"{base}/fission{k}",
            shape=prog.shape,
        )
        sub._replay.adopt(prog._replay, comp)
        stages.append(Stage(sub, IterationMap.identity(prog.n),
                            tuple(comp)))
    return Variant("fission", tuple(stages), prog)


# ----------------------------------------------------------------------
# Skew
# ----------------------------------------------------------------------

def _permute_access(acc, forward: np.ndarray):
    """A concrete ragged :class:`At` for a permuted access, read-only."""
    from .descriptors import At
    from ..util.frontier import counts_to_indptr

    if acc.identity:
        return At(acc.array, read_only(forward.copy()))
    counts = (np.diff(acc.indptr) if acc.width is None
              else np.full(forward.shape[0], acc.width, dtype=np.int64))
    starts = counts_to_indptr(counts)[:-1][forward]
    new_counts = counts[forward]
    indptr = counts_to_indptr(new_counts)
    take = (np.repeat(starts, new_counts)
            + np.arange(int(indptr[-1]), dtype=np.int64)
            - np.repeat(indptr[:-1], new_counts))
    return At(acc.array, (read_only(indptr), read_only(acc.indices[take])))


def _permute_program(prog: LoopProgram, imap: IterationMap) -> LoopProgram:
    """The program renumbered by ``imap``, executing via MappedKernel."""
    forward = imap.forward
    statements = []
    for st, (rr, ww) in zip(prog.statements, prog._stmt_resolved):
        statements.append(Statement(
            reads=tuple(_permute_access(acc, forward) for acc in rr),
            writes=tuple(_permute_access(acc, forward) for acc in ww),
            name=st.name,
        ))
    source = prog

    def factory(**data):
        inner = source.with_data(**data).make_kernel()
        if inner is None:
            return None
        return MappedKernel(inner, imap)

    has_kernel = (prog.kernel is not None
                  or any(st.body is not None for st in prog.statements))
    return LoopProgram(
        prog.n,
        statements=statements,
        kernel=factory if has_kernel else None,
        data=prog.data,
        name=f"{prog.name or 'program'}/skew",
    )


def skew(prog: LoopProgram) -> Variant | None:
    """Renumber a row-major 2-D iteration space into anti-diagonal order.

    Iterations are sorted by diagonal ``r + c`` (then by row) — the
    static wavefront order.  Legal exactly when every dependence still
    points backward under the new numbering (checked against the
    extracted graph); returns ``None`` for programs without a
    ``shape``, degenerate 1-D shapes, or illegal reorderings.
    """
    if prog.shape is None:
        return None
    rows, cols = prog.shape
    n = prog.n
    idx = np.arange(n, dtype=np.int64)
    r, c = idx // cols, idx % cols
    forward = np.argsort((r + c) * np.int64(rows) + r, kind="stable")
    if np.array_equal(forward, idx):
        return None
    imap = IterationMap(forward)
    dep = prog.dependence_graph()
    if dep.num_edges:
        inv = imap.inverse
        dst = dep.edge_rows
        src = dep.indices
        if np.any(inv[src] >= inv[dst]):
            return None
    skewed = _permute_program(prog, imap)
    return Variant(
        "skew",
        (Stage(skewed, imap, tuple(range(prog.num_statements))),),
        prog,
    )


# ----------------------------------------------------------------------
# Variant enumeration
# ----------------------------------------------------------------------

def enumerate_variants(prog: LoopProgram) -> list:
    """Every distinct legal rewrite of ``prog``, identity first.

    Composes the passes (fission, skew, skew-each-fission-stage) and
    dedupes by stage structure hashes, so two roads to the same
    structure collapse onto one tuning entry.
    """
    identity = Variant(
        "identity",
        (Stage(prog, IterationMap.identity(prog.n),
               tuple(range(prog.num_statements))),),
        prog,
    )
    variants = [identity]
    fissioned = fission(prog)
    if fissioned is not None:
        variants.append(fissioned)
    skewed = skew(prog)
    if skewed is not None:
        variants.append(skewed)
    if fissioned is not None and prog.shape is not None:
        stages = []
        any_skewed = False
        for stage in fissioned.stages:
            sv = skew(stage.program)
            if sv is not None:
                inner = sv.stages[0]
                stages.append(Stage(inner.program, inner.imap,
                                    stage.statements))
                any_skewed = True
            else:
                stages.append(stage)
        if any_skewed:
            variants.append(Variant("fission+skew", tuple(stages), prog))
    seen = set()
    out = []
    for variant in variants:
        key = variant.structure_key()
        if key not in seen:
            seen.add(key)
            out.append(variant)
    return out


# ----------------------------------------------------------------------
# Execution of a multi-stage winner
# ----------------------------------------------------------------------

def _written_names(program: LoopProgram) -> list:
    names = []
    for acc in program.resolved_accesses()[1]:
        if acc.array not in names:
            names.append(acc.array)
    return names


class StagedPlan(LoopPlan):
    """Run a transform variant as one compiled loop per stage.

    Stage loops run in condensation order; arrays written by an earlier
    stage are threaded into later stages through data-only rebinds (no
    inspector work), and the simulated makespan is the stage sum plus
    one barrier between consecutive stages — exactly the quantity the
    tuner used to pick this variant.  The plan doubles as the
    inspection summary of the whole bundle (summed costs and
    wavefronts, the source program's dependence graph).
    """

    kind = "staged"
    scheduler_name = assignment = "bundle"
    balance = "wrapped"
    executor = schedule = wavefronts = None

    def __init__(self, variant: Variant, stage_loops):
        self.variant = variant
        #: One compiled loop per stage; entries are replaced in place
        #: as rebinds thread arrays through.
        self.stage_loops = list(stage_loops)
        self.runtime = self.stage_loops[0].runtime
        self.executor_name = self.strategy = f"transform:{variant.name}"
        self.num_wavefronts = int(sum(
            loop.inspection.num_wavefronts for loop in self.stage_loops))
        self.cache_hit = all(loop.cache_hit for loop in self.stage_loops)
        self._recoveries: list = []

    @property
    def pipeline_cost(self) -> float:
        """The stages' inspection prices, summed (priced on read)."""
        return float(sum(
            loop.inspection.pipeline_cost for loop in self.stage_loops))

    @property
    def dep(self):
        return self.variant.source.dependence_graph()

    # ------------------------------------------------------------------
    def execute(self, loop, kernel, backend, *, unit_work, timeout,
                timeline=None):
        if kernel is not None:
            raise ValidationError(
                "a transformed loop executes its stage kernels; "
                "per-call kernels are not supported"
            )
        self._check_unit_work(unit_work)
        self._recoveries = []
        outputs: dict = {}
        for k, stage in enumerate(self.variant.stages):
            stage_loop = self.stage_loops[k]
            carry = {nm: arr for nm, arr in outputs.items()
                     if nm in stage_loop.program.data}
            if carry:
                stage_loop = self.stage_loops[k] = stage_loop.rebind(**carry)
            rep = stage_loop(backend=backend, timeout=timeout,
                             with_sim=False)
            if rep.recovery is not None:
                self._recoveries.append(rep.recovery)
            if isinstance(rep.x, dict):
                outputs.update(rep.x)
            elif rep.x is not None:
                outputs[_written_names(stage.program)[0]] = rep.x
        written = _written_names(loop.program)
        if not outputs:  # stage kernels that report no numbers
            return None
        if len(written) == 1:
            return outputs[written[0]]
        return {nm: outputs[nm] for nm in written if nm in outputs}

    def finish(self, loop, report) -> None:
        """Concatenate the stage loops' recovery records, stage order."""
        records = self._recoveries
        if not records:
            return
        report.recovery = RecoveryRecord(
            attempts=[a for rec in records for a in rec.attempts],
            tiers=list(dict.fromkeys(t for rec in records
                                     for t in rec.tiers)),
            final_tier=records[-1].final_tier,
            recovered=True,
            cause=records[0].cause,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _check_unit_work(unit_work) -> None:
        if unit_work is not None:
            raise ValidationError(
                "transformed loops price work from their stage "
                "programs; per-call unit_work is not supported"
            )

    def _simulate(self, unit_work) -> SimResult:
        """Bundle timing: stage sum + one barrier between stages.

        Stages are priced from their programs' declared accesses
        (:meth:`LoopProgram.unit_work`) so every stage of every variant
        charges the same per-statement work — the invariant that makes
        cross-variant comparison meaningful.
        """
        self._check_unit_work(unit_work)
        costs, nproc = self.runtime.costs, self.runtime.nproc
        sims = [
            loop.simulate(unit_work=stage.program.unit_work(costs))
            for stage, loop in zip(self.variant.stages, self.stage_loops)
        ]
        sync = costs.sync_cost(nproc) * (len(sims) - 1)
        total = float(sum(s.total_time for s in sims)) + sync
        busy = np.sum([s.busy for s in sims], axis=0)
        return SimResult(
            mode=self.strategy,
            nproc=nproc,
            total_time=total,
            seq_time=float(sum(s.seq_time for s in sims)),
            busy=busy,
            idle=np.maximum(total - busy, 0.0),
            sync_time=float(sum(s.sync_time for s in sims)) + sync,
            num_phases=int(sum(s.num_phases for s in sims)),
        )

    def report(self) -> dict:
        return {"variant": self.variant.name,
                "num_stages": len(self.variant.stages)}

    # ------------------------------------------------------------------
    def rebound(self, program, arrays) -> LoopPlan:
        """Push the new arrays into every stage loop that binds them."""
        for k, stage_loop in enumerate(self.stage_loops):
            carry = {nm: v for nm, v in arrays.items()
                     if nm in stage_loop.program.data}
            if carry:
                self.stage_loops[k] = stage_loop.rebind(**carry)
        return self

    def compile_kwargs(self) -> dict:
        # A new structure re-tunes variants × strategies.
        return {"strategy": "auto"}
