"""Parallel PCGPAK: cost-accounted execution on the machine model.

Appendix 2 of the paper prescribes how each component of the solver is
decomposed:

* SAXPYs, inner products and the sparse matrix–vector product use a
  *contiguous (blocked) partition* of the index range — trivially
  parallel, with a reduction (barrier) after inner products and a
  barrier after the matvec;
* the triangular solves and the numeric factorization use a *wrapped
  partition* and the wavefront machinery — pre-scheduled or
  self-executing executors over the matrix-dependent dependence graph;
* the symbolic factorization is *self-scheduled* over wrapped rows.

:class:`ParallelSolver` runs the numeric solve once (exact iteration
counts, exact operation log) and prices the recorded operations on the
machine model, yielding the quantities of the paper's Table 1.
:class:`TriangularSolveAnalysis` prices a single lower solve in the
"where does the time go" decomposition of Tables 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from ..core.schedule import identity_schedule
from ..core.partition import blocked_partition
from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from ..runtime.session import Runtime
from ..machine.simulator import simulate, simulate_self_executing, work_vector
from ..sparse.csr import CSRMatrix
from .ilu import ILUFactorization, ILUPreconditioner
from .oplog import OperationLog
from .solver import SolveResult, solve

__all__ = ["ParallelSolver", "ParallelSolveReport", "TriangularSolveAnalysis"]


# ----------------------------------------------------------------------
# Per-component pricing helpers
# ----------------------------------------------------------------------

def _blocked_rowwork_max(a: CSRMatrix, nproc: int, costs: MachineCosts) -> float:
    """Max per-processor time of a blocked row-partitioned sweep over A."""
    row_work = 0.5 * costs.t_work_base + costs.t_work_per_dep * a.row_nnz()
    owner = blocked_partition(a.nrows, nproc)
    per_proc = np.bincount(owner, weights=row_work, minlength=nproc)
    return float(per_proc.max())


def _vec_time(n: int, nproc: int, costs: MachineCosts, per_el: float,
              sync: bool) -> float:
    """Blocked data-parallel vector op: ceil(n/p) elements + optional barrier."""
    chunk = -(-n // nproc)  # ceil division
    t = chunk * per_el
    if sync:
        t += costs.sync_cost(nproc)
    return t


def _factorization_unit_work(pattern: CSRMatrix, costs: MachineCosts) -> np.ndarray:
    """Exact per-row work of the numeric factorization on ``pattern``.

    Eliminating row ``i`` costs, for each strictly-lower pattern entry
    ``(i, k)``: one divide plus one multiply–add per strictly-upper
    entry of pivot row ``k``.
    """
    n = pattern.nrows
    rows = pattern.row_of_nnz()
    upper_nnz = np.bincount(
        rows[pattern.indices > rows], minlength=n
    ).astype(np.float64)
    work = np.full(n, costs.t_work_base, dtype=np.float64)
    lower_mask = pattern.indices < rows
    # For each lower entry (i, k): 1 + upper_nnz[k] operations.
    contrib = 1.0 + upper_nnz[pattern.indices[lower_mask]]
    np.add.at(work, rows[lower_mask], costs.t_work_per_dep * contrib)
    return work


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

@dataclass
class ParallelSolveReport:
    """Simulated parallel execution of a full PCGPAK-style solve."""

    nproc: int
    executor: str
    scheduler: str
    method: str
    iterations: int
    converged: bool
    #: Simulated times, microseconds.
    parallel_time: float
    seq_time: float
    sort_time: float
    factorization_time: float
    breakdown: dict = field(default_factory=dict)
    solve_result: SolveResult | None = field(default=None, repr=False)

    @property
    def efficiency(self) -> float:
        """Paper definition: ``T_seq / (p * T_par)``."""
        return self.seq_time / (self.nproc * self.parallel_time)

    @property
    def speedup(self) -> float:
        return self.seq_time / self.parallel_time


@dataclass
class TriangularSolveAnalysis:
    """One row of the paper's Tables 2/3 for a lower triangular solve."""

    nproc: int
    executor: str
    phases: int
    symbolic_efficiency: float
    #: All times in machine-model milliseconds.
    parallel_time: float
    rotating_estimate: float
    rotating_estimate_plus_barrier: float
    one_pe_parallel: float
    one_pe_sequential: float
    seq_time: float
    doacross_time: float | None = None


# ----------------------------------------------------------------------
# The parallel solver
# ----------------------------------------------------------------------

class ParallelSolver:
    """Prices a preconditioned Krylov solve on the simulated machine.

    Parameters
    ----------
    a:
        System matrix.
    nproc:
        Simulated processor count.
    executor:
        ``"self"`` or ``"preschedule"`` — how the triangular solves and
        the numeric factorization are run.
    scheduler:
        ``"global"`` or ``"local"`` index-set scheduling for those
        components.
    costs:
        Machine cost model (defaults to the Multimax calibration).
        When a ``runtime`` session is given, its cost model applies —
        passing a conflicting ``costs`` alongside it is an error.
    runtime:
        Optional shared :class:`~repro.runtime.Runtime` session.  When
        given (its ``nproc`` must match), the solver's inspections go
        through the session's :class:`~repro.runtime.ScheduleCache`,
        so repeated solver constructions over the same factor
        structure — the PCGPAK amortisation pattern — skip the
        topological sorts entirely.
    factorization:
        The ILU(0) factors of ``a`` when the caller already
        holds them (``TestProblem.factorization``); computed otherwise.

    The factors and the two compiled loops are the preconditioner's
    (:attr:`precond`): the numeric solve applies what the pricing
    simulates, and ``lower_loop`` etc. are read through it.
    """

    def __init__(
        self,
        a: CSRMatrix,
        nproc: int,
        *,
        executor: str = "self",
        scheduler: str = "global",
        costs: MachineCosts | None = None,
        runtime: Runtime | None = None,
        factorization: ILUFactorization | None = None,
    ):
        if executor not in ("self", "preschedule"):
            raise ValidationError("executor must be 'self' or 'preschedule'")
        if scheduler not in ("global", "local"):
            raise ValidationError("scheduler must be 'global' or 'local'")
        if runtime is None:
            costs = MULTIMAX_320 if costs is None else costs
            runtime = Runtime(nproc=int(nproc), costs=costs, cache=8)
        elif runtime.nproc != int(nproc):
            raise ValidationError(
                f"runtime.nproc={runtime.nproc} does not match nproc={nproc}"
            )
        elif costs is not None and costs != runtime.costs:
            raise ValidationError(
                "conflicting cost models: pass costs through the runtime "
                "session (or omit the costs argument)"
            )
        else:
            costs = runtime.costs
        self.a = a
        self.nproc = int(nproc)
        self.executor = executor
        self.scheduler = scheduler
        self.costs = costs
        self.runtime = runtime

        # Whatever the Krylov iteration applies is what gets priced.
        self.precond = ILUPreconditioner(
            a, 0, factorization=factorization, runtime=runtime,
            executor=executor, scheduler=scheduler, assignment="wrapped",
        )
        self.pattern = self.precond.factorization.lu

        # Per-call component times (microseconds), computed once.
        self._times = self._price_components()

    lower_loop = property(attrgetter("precond.lower_loop"))
    upper_loop = property(attrgetter("precond.upper_loop"))
    program_lower = property(attrgetter("precond.lower_loop.program"))
    program_upper = property(attrgetter("precond.upper_loop.program"))
    schedule_lower = property(attrgetter("precond.lower_loop.schedule"))
    schedule_upper = property(attrgetter("precond.upper_loop.schedule"))

    # ------------------------------------------------------------------
    def _price_components(self) -> dict:
        c = self.costs
        p = self.nproc
        n = self.a.nrows

        # The loops' own (memoised) machine-model timings.
        sim_lower = self.lower_loop.simulate()
        sim_upper = self.upper_loop.simulate()
        sim_fact = self.lower_loop.simulate(
            unit_work=_factorization_unit_work(self.pattern, c))
        # Symbolic factorization: self-scheduled over wrapped rows —
        # near-perfectly parallel merge work proportional to row sizes.
        merge_work = c.t_sort_base + c.t_sort_per_dep * self.pattern.row_nnz()
        symbolic_par = float(merge_work.sum()) / p + c.sync_cost(p)
        symbolic_seq = float(merge_work.sum())

        return {
            "matvec": _blocked_rowwork_max(self.a, p, c) + c.sync_cost(p),
            "matvec_seq": 0.5 * c.t_work_base * n
            + c.t_work_per_dep * self.a.nnz,
            "saxpy": _vec_time(n, p, c, c.t_work_per_dep, sync=False),
            "saxpy_seq": n * c.t_work_per_dep,
            "dot": _vec_time(n, p, c, c.t_work_per_dep, sync=True),
            "dot_seq": n * c.t_work_per_dep,
            "scale": _vec_time(n, p, c, 0.5 * c.t_work_per_dep, sync=False),
            "scale_seq": 0.5 * n * c.t_work_per_dep,
            "lower_solve": sim_lower.total_time,
            "lower_solve_seq": sim_lower.seq_time,
            "upper_solve": sim_upper.total_time,
            "upper_solve_seq": sim_upper.seq_time,
            "numeric_fact": sim_fact.total_time,
            "numeric_fact_seq": sim_fact.seq_time,
            "symbolic_fact": symbolic_par,
            "symbolic_fact_seq": symbolic_seq,
            "gemv_per_el": c.t_work_per_dep,
        }

    # ------------------------------------------------------------------
    def triangular_solve(self, b: np.ndarray, *, upper: bool = False,
                         backend: str = "serial") -> np.ndarray:
        """Solve one factor system the way each Krylov iteration does:
        :meth:`ILUPreconditioner.triangular_solve`."""
        return self.precond.triangular_solve(b, upper=upper, backend=backend)

    # ------------------------------------------------------------------
    def sort_time(self) -> float:
        """Total inspection time for both solve directions (parallelized
        sort; plus the sequential rearrangement for global scheduling)."""
        return (self.lower_loop.inspection.pipeline_cost
                + self.upper_loop.inspection.pipeline_cost)

    def price_log(self, log: OperationLog) -> tuple[float, float, dict]:
        """Price an operation log: returns (parallel µs, sequential µs, breakdown)."""
        t = self._times
        par = {}
        seq = {}
        for op in ("matvec", "saxpy", "dot", "scale",
                   "lower_solve", "upper_solve"):
            par[op] = log.counts[op] * t[op]
            seq[op] = log.counts[op] * t[f"{op}_seq"]
        gemv_el = log.volume["gemv"]
        par["gemv"] = gemv_el / self.nproc * t["gemv_per_el"]
        seq["gemv"] = gemv_el * t["gemv_per_el"]
        return float(sum(par.values())), float(sum(seq.values())), {
            "parallel": par, "sequential": seq,
        }

    def solve(
        self,
        b: np.ndarray,
        *,
        method: str = "pcg",
        tol: float = 1e-8,
        maxiter: int = 1000,
        restart: int = 30,
    ) -> ParallelSolveReport:
        """Numerically solve and price the whole computation (Table 1).

        The numeric solve applies the very preconditioner the pricing
        simulated — same factors, same compiled loops — so the
        operation log matches the priced structure exactly.
        """
        res = solve(
            self.a, b, method=method, precond=self.precond,
            tol=tol, maxiter=maxiter, restart=restart,
        )
        par_iter, seq_iter, breakdown = self.price_log(res.log)
        t = self._times
        fact_par = t["numeric_fact"] + t["symbolic_fact"]
        fact_seq = t["numeric_fact_seq"] + t["symbolic_fact_seq"]
        return ParallelSolveReport(
            nproc=self.nproc,
            executor=self.executor,
            scheduler=self.scheduler,
            method=method,
            iterations=res.iterations,
            converged=res.converged,
            parallel_time=par_iter + fact_par,
            seq_time=seq_iter + fact_seq,
            sort_time=self.sort_time(),
            factorization_time=fact_par,
            breakdown=breakdown,
            solve_result=res,
        )

    # ------------------------------------------------------------------
    def analyze_lower_solve(self, *, include_doacross: bool = False) -> TriangularSolveAnalysis:
        """The Tables 2/3 decomposition for one lower triangular solve.

        All quantities follow Section 5.1.2's estimation chain:

        * ``symbolic_efficiency`` — load balance of the floating-point
          work alone (all overheads zeroed);
        * ``1 PE seq`` — sequential time / (p × symbolic efficiency);
        * ``1 PE par`` — single-processor *parallel-code* time (base
          work + per-iteration parallel extras) / (p × symbolic
          efficiency);
        * ``rotating estimate`` — 1 PE par inflated by the contention
          factor (the rotating-processor experiment measures exactly
          the contention the extra shared traffic causes);
        * ``+ barrier`` — for pre-scheduled runs, adds one global
          synchronization per phase.
        """
        c, p = self.costs, self.nproc
        mode = self.executor
        sched = self.schedule_lower
        dep = self.lower_loop.dep

        sim = self.lower_loop.simulate()
        sym = simulate(sched, dep, c.with_overheads_zeroed(), mode=mode)
        e_sym = sym.efficiency
        seq = sim.seq_time

        par_1pe = float(work_vector(dep, c, mode, p).sum())
        one_pe_par = par_1pe / (p * e_sym)
        one_pe_seq = seq / (p * e_sym)
        rotating = par_1pe * c.shared_factor(p) / (p * e_sym)
        barrier = sched.num_wavefronts * c.sync_cost(p) if mode == "preschedule" else 0.0

        doacross_time = None
        if include_doacross:
            ident = identity_schedule(sched.wavefronts, p)
            doacross_time = simulate_self_executing(
                ident, dep, c, mode="doacross"
            ).total_time / 1000.0

        to_ms = 1.0 / 1000.0
        return TriangularSolveAnalysis(
            nproc=p,
            executor=mode,
            phases=sched.num_wavefronts,
            symbolic_efficiency=e_sym,
            parallel_time=sim.total_time * to_ms,
            rotating_estimate=rotating * to_ms,
            rotating_estimate_plus_barrier=(rotating + barrier) * to_ms,
            one_pe_parallel=one_pe_par * to_ms,
            one_pe_sequential=one_pe_seq * to_ms,
            seq_time=seq * to_ms,
            doacross_time=doacross_time,
        )
