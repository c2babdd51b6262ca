"""The run-time inspector: dependence analysis + scheduling, with costs.

Step 4 of the paper's automated procedure: "At start of execution, the
wavefront numbers are computed and the indices are sorted on the basis
of these wavefronts.  The indices may or may not be repartitioned."

:class:`Inspector` performs exactly that, producing a
:class:`~repro.core.schedule.Schedule`.  The inspection's own price on
the machine model — the paper's Table 5 compares these costs
(sequential sort, parallelized sort, global rearrangement, local
scheduling) against the cost of one loop execution, because the
inspector pays off only when amortised — is not paid by the inspection:
:attr:`InspectionResult.costs` is computed on first read, from the
pricing inputs the result keeps, and memoised on the result (so on the
schedule-cache entry that holds it).  Reports, the tuner's winner and
the Table 5 / Figure 1 drivers read it and pay; a plain compile and run
does not.

Inspector cost accounting
-------------------------
* *sequential sort* — one Figure 7 sweep: ``Σ (t_sort_base +
  t_sort_per_dep · ndeps(i))``;
* *parallel sort* — the same sweep striped across processors with busy
  waits (the paper's parallelization), priced by running the machine
  simulator on the sweep's own dependence graph;
* *global rearrange* — sequential construction of the sorted list and
  the wrapped dealing ("it is not clear how one would efficiently
  parallelize global scheduling"): ``t_rearrange · n``;
* *local sort* — each processor sorts its own indices concurrently:
  ``max_p ( t_local_sort · |owned by p| )``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import simulate_self_executing
from ..runtime.registry import partitioner_registry, scheduler_registry
from ..observe.tracer import maybe_span
from ..sparse.csr import CSRMatrix
from ..util.timing import Stopwatch
from .dependence import DependenceGraph
from .partition import owner_from_assignment
from .schedule import WEIGHT_SOURCES, Schedule, identity_schedule
from .wavefront import compute_wavefronts

__all__ = ["Inspector", "InspectionResult", "InspectorCosts"]


@dataclass(frozen=True)
class InspectorCosts:
    """Simulated inspection costs (machine-model microseconds)."""

    #: One sequential Figure 7 sweep.
    seq_sort: float
    #: The sweep striped over the processors with busy waits.
    par_sort: float
    #: Sequential global list construction + wrapped dealing
    #: (zero for local scheduling, which skips it).
    rearrange: float
    #: Concurrent per-processor local sorting
    #: (zero for global scheduling, which rebuilds the lists anyway).
    local_sort: float

    @property
    def total_global(self) -> float:
        """Cheapest global-scheduling pipeline: parallel sort + rearrange."""
        return self.par_sort + self.rearrange

    @property
    def total_local(self) -> float:
        """Local-scheduling pipeline: parallel sort + local sort."""
        return self.par_sort + self.local_sort


class InspectionResult:
    """Everything the inspector produced for one loop.

    ``costs`` may be handed in (a disk load carries the price in its
    sidecar); otherwise ``nproc``, ``owner`` (the initial assignment)
    and ``machine_costs`` are kept and :attr:`costs` prices the
    inspection on first read.
    """

    def __init__(self, dep: DependenceGraph, wavefronts: np.ndarray,
                 schedule: Schedule, strategy: str,
                 costs: InspectorCosts | None = None,
                 host_seconds: float = 0.0, *, nproc: int | None = None,
                 owner: np.ndarray | None = None,
                 machine_costs: MachineCosts = MULTIMAX_320):
        self.dep = dep
        self.wavefronts = wavefronts
        self.schedule = schedule
        self.strategy = strategy
        #: Actual host seconds spent inspecting (for amortisation checks).
        self.host_seconds = host_seconds
        self.nproc = nproc
        self.owner = owner
        self.machine_costs = machine_costs
        self._costs = costs

    @property
    def costs(self) -> InspectorCosts:
        """The Table 5 price of this inspection, computed once."""
        if self._costs is None:
            self._costs = Inspector(self.machine_costs).price_inspection(
                self.dep, self.wavefronts, self.nproc, self.owner)
        return self._costs

    @property
    def num_wavefronts(self) -> int:
        return int(self.wavefronts.max()) + 1 if self.wavefronts.size else 0

    @property
    def pipeline_cost(self) -> float:
        """Model-µs cost of the inspection pipeline this result used.

        ``global`` pays the parallel sort plus the sequential
        rearrangement; ``local`` the parallel sort plus the concurrent
        local sorts; ``identity`` sorts nothing.  A user-registered
        scheduler is priced at the parallel sort alone — the mandatory
        wavefront sweep; whatever the custom strategy does on top is
        its own, unpriced, work.
        """
        if self.strategy == "global":
            return self.costs.total_global
        if self.strategy == "local":
            return self.costs.total_local
        if self.strategy == "identity":
            return 0.0
        return self.costs.par_sort


class Inspector:
    """Builds schedules from run-time dependence information."""

    def __init__(self, costs: MachineCosts = MULTIMAX_320, *,
                 observer=None):
        self.machine_costs = costs
        #: Session :class:`~repro.observe.Observer` (``None`` = silent).
        self.observer = observer

    # ------------------------------------------------------------------
    @staticmethod
    def dependences_of(source) -> DependenceGraph:
        """Normalise a dependence source.

        Accepts a :class:`DependenceGraph`, a
        :class:`~repro.program.LoopProgram` (its declared access
        patterns supply the graph), a lower-triangular
        :class:`CSRMatrix` (Figure 8 loops), or a 1-D indirection array
        (Figure 3 loops).
        """
        if isinstance(source, DependenceGraph):
            return source
        if getattr(source, "__loop_program__", False):
            return source.dependence_graph()
        if isinstance(source, CSRMatrix):
            return DependenceGraph.from_lower_csr(source)
        arr = np.asarray(source)
        if arr.ndim == 1:
            return DependenceGraph.from_indirection(arr)
        if arr.ndim == 2:
            return DependenceGraph.from_indirection_nested(arr)
        raise ValidationError(
            "dependence source must be a DependenceGraph, LoopProgram, "
            "CSRMatrix, or 1-D/2-D indirection array"
        )

    # ------------------------------------------------------------------
    def inspect(
        self,
        source,
        nproc: int,
        *,
        strategy: str = "global",
        assignment: str = "wrapped",
        owner=None,
        balance: str = "wrapped",
    ) -> InspectionResult:
        """Run the inspector.

        Parameters
        ----------
        source:
            Dependence information (see :meth:`dependences_of`).
        nproc:
            Target processor count.
        strategy:
            Any name in the
            :data:`~repro.runtime.registry.scheduler_registry` —
            built-ins: ``"global"`` (topological sort + repartition),
            ``"local"`` (keep the initial assignment, sort locally),
            ``"identity"`` (no reordering; doacross baseline).
        assignment:
            Any name in the
            :data:`~repro.runtime.registry.partitioner_registry` —
            built-ins: ``"wrapped"``, ``"blocked"``, ``"chunked"``
            (ignored when ``owner`` is given).
        balance:
            Passed to :func:`~repro.core.schedule.global_schedule`.
        """
        # Resolve both strategies up front, so an unknown name — or an
        # unknown weight source in a "name:weights=…" spec — fails with
        # the valid options enumerated before any work is done.
        schedule_fn = scheduler_registry.get(strategy)
        partition_fn = partitioner_registry.get(assignment)
        binding = scheduler_registry.binding(strategy)
        if isinstance(binding.get("weights"), str):
            self.check_weight_source(binding["weights"])

        obs = self.observer
        sw = Stopwatch().start()
        with maybe_span(obs, "inspect", strategy=strategy) as span:
            dep = self.dependences_of(source)
            span.annotate(n=dep.n, edges=dep.num_edges)
            wf = compute_wavefronts(dep)

            if owner is not None:
                init_owner = owner_from_assignment(owner, nproc)
            else:
                init_owner = partition_fn(dep.n, nproc)

        kwargs = {"balance": balance}
        if isinstance(binding.get("weights"), str):
            # A "name:weights=…" spec names a weight *source*; only the
            # inspector holds the graph and cost model to realize it.
            kwargs["weights"] = self.resolve_weight_source(
                binding["weights"], dep
            )
        with maybe_span(obs, "schedule", strategy=strategy,
                        assignment=assignment, nproc=nproc):
            schedule = schedule_fn(wf, init_owner, nproc, **kwargs)
        sw.stop()
        return InspectionResult(
            dep=dep,
            wavefronts=wf,
            schedule=schedule,
            strategy=strategy,
            host_seconds=sw.elapsed,
            nproc=nproc,
            owner=init_owner,
            machine_costs=self.machine_costs,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def check_weight_source(source: str) -> str:
        """Assert a ``weights=`` spec value names a known source."""
        if source not in WEIGHT_SOURCES:
            raise ValidationError(
                f"unknown weight source {source!r}; valid sources are: "
                + ", ".join(repr(s) for s in WEIGHT_SOURCES)
            )
        return source

    def resolve_weight_source(self, source: str, dep: DependenceGraph) -> np.ndarray | None:
        """Realize a ``weights=`` spec value as a per-index array.

        ``"unit"`` means unweighted (``None``); ``"deps"`` weighs each
        index by its dependence count; ``"work"`` by its modelled
        execution cost.  Anything else fails with the options listed.
        """
        self.check_weight_source(source)
        if source == "unit":
            return None
        if source == "deps":
            return dep.dep_counts().astype(np.float64)
        return self.machine_costs.base_work(dep.dep_counts())

    # ------------------------------------------------------------------
    def price_inspection(
        self,
        dep: DependenceGraph,
        wf: np.ndarray,
        nproc: int,
        init_owner: np.ndarray,
    ) -> InspectorCosts:
        """Price the inspection steps on the machine model (Table 5).

        Called on the first read of :attr:`InspectionResult.costs`, not
        by :meth:`inspect`.
        """
        mc = self.machine_costs
        nd = dep.dep_counts().astype(np.float64)
        sort_work = mc.t_sort_base + mc.t_sort_per_dep * nd
        seq_sort = float(sort_work.sum())

        # The parallelized sweep: consecutive indices striped over the
        # processors, busy waits on uncomputed wavefront entries — i.e.
        # a doacross over the sweep's own dependence graph.
        striped = identity_schedule(wf, nproc)
        par = simulate_self_executing(
            striped, dep, mc, mode="doacross", unit_work=sort_work,
        )
        par_sort = par.total_time

        rearrange = float(mc.t_rearrange * dep.n)
        owned = np.bincount(init_owner, minlength=nproc).astype(np.float64)
        local_sort = float(mc.t_local_sort * owned.max()) if dep.n else 0.0
        return InspectorCosts(
            seq_sort=seq_sort,
            par_sort=par_sort,
            rearrange=rearrange,
            local_sort=local_sort,
        )
