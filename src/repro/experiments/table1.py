"""Table 1 — PCGPAK: self-execution vs pre-scheduling, 16 processors.

For every test problem, two fully parallel solver configurations are
priced (triangular solves and numeric factorization pre-scheduled vs
self-executing; everything else identically blocked), reporting solve
time, parallel efficiency and the topological-sort (inspection) time —
the same columns as the paper's Table 1.

Expected shape (paper, Section 5.1.1): the self-executing version
yields the highest efficiencies and lowest times for all problems
except the very regular 7-point ones, where pre-scheduling's few
cheap barriers can edge it out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..krylov.parallel import ParallelSolver
from ..runtime.session import Runtime
from ..util.tables import TextTable
from .runner import DEFAULT_PROBLEMS, ExperimentContext

__all__ = ["run_table1", "Table1Row"]


@dataclass
class Table1Row:
    """One problem's comparison (times in machine-model milliseconds)."""

    problem: str
    n: int
    iterations: int
    self_time: float
    self_efficiency: float
    presched_time: float
    presched_efficiency: float
    sort_time: float

    @property
    def self_wins(self) -> bool:
        return self.self_time <= self.presched_time

    @property
    def time_ratio(self) -> float:
        """Self-executing time as a fraction of pre-scheduled time."""
        return self.self_time / self.presched_time


def run_table1(
    ctx: ExperimentContext | None = None,
    problems=DEFAULT_PROBLEMS,
) -> tuple[list[Table1Row], TextTable]:
    """Run the Table 1 comparison; returns (rows, rendered table)."""
    ctx = ctx or ExperimentContext()
    rows: list[Table1Row] = []
    for prob in ctx.problems(problems):
        reports = {}
        # One session per problem: both executors run one inspection.
        session = Runtime(ctx.nproc, costs=ctx.costs)
        for executor in ("self", "preschedule"):
            solver = ParallelSolver(
                prob.a, ctx.nproc, executor=executor, scheduler="global",
                runtime=session, factorization=prob.factorization,
            )
            reports[executor] = solver.solve(
                prob.b, method=ctx.method, tol=ctx.tol,
                maxiter=ctx.maxiter, restart=ctx.restart,
            )
        se, ps = reports["self"], reports["preschedule"]
        rows.append(
            Table1Row(
                problem=prob.name,
                n=prob.n,
                iterations=se.iterations,
                self_time=se.parallel_time / 1000.0,
                self_efficiency=se.efficiency,
                presched_time=ps.parallel_time / 1000.0,
                presched_efficiency=ps.efficiency,
                sort_time=se.sort_time / 1000.0,
            )
        )

    table = TextTable(
        headers=["Problem", "n", "iters", "S.E. time", "S.E. eff",
                 "P.S. time", "P.S. eff", "Sort time"],
        formats=[None, "d", "d", ".1f", ".3f", ".1f", ".3f", ".1f"],
        title=(
            f"Table 1: Self-Execution vs Pre-Scheduling for the parallel "
            f"Krylov solver, {ctx.nproc} processors (times in model ms)"
        ),
    )
    for r in rows:
        table.add_row(
            r.problem, r.n, r.iterations, r.self_time, r.self_efficiency,
            r.presched_time, r.presched_efficiency, r.sort_time,
        )
    return rows, table
