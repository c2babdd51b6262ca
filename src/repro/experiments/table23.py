"""Tables 2 & 3 — "where does the time go" for triangular solves.

For each accounting problem, one lower triangular solve (from the
ILU(0) factor) is priced under both executors, reporting the paper's
estimation chain: phases, symbolically estimated efficiency, the
simulated parallel time, the rotating-processor estimate (plus barrier
for the pre-scheduled case), and the two single-processor estimates.
Table 2 (pre-scheduled) additionally carries the doacross time.

Expected shape (paper, Section 5.1.2): for every problem the chain
``1 PE seq <= 1 PE par <= rotating (+barrier) ≈ parallel`` holds, the
self-executing symbolic efficiencies dominate the pre-scheduled ones,
and the doacross loop is slower than both.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..krylov.parallel import ParallelSolver, TriangularSolveAnalysis
from ..runtime.session import Runtime
from ..util.tables import TextTable
from .runner import ACCOUNTING_PROBLEMS, ExperimentContext

__all__ = ["run_table23", "SolveAccountingRow"]


@dataclass
class SolveAccountingRow:
    """One problem's accounting under one executor (model ms)."""

    problem: str
    analysis: TriangularSolveAnalysis


def run_table23(
    ctx: ExperimentContext | None = None,
    problems=ACCOUNTING_PROBLEMS,
) -> tuple[dict, dict]:
    """Run the accounting analysis.

    Returns ``(rows, tables)`` — both keyed by ``"preschedule"``
    (Table 2) and ``"self"`` (Table 3).
    """
    ctx = ctx or ExperimentContext()
    rows: dict[str, list[SolveAccountingRow]] = {"preschedule": [], "self": []}
    for prob in ctx.problems(problems):
        # One session per problem: both executors run one inspection.
        session = Runtime(ctx.nproc, costs=ctx.costs)
        for executor in ("preschedule", "self"):
            solver = ParallelSolver(
                prob.a, ctx.nproc, executor=executor, scheduler="global",
                runtime=session, factorization=prob.factorization,
            )
            analysis = solver.analyze_lower_solve(
                include_doacross=(executor == "preschedule")
            )
            rows[executor].append(SolveAccountingRow(prob.name, analysis))

    tables = {}
    for executor, label, num in (
        ("preschedule", "Pre-Scheduled", 2),
        ("self", "Self-Executing", 3),
    ):
        headers = ["Problem", "Phases", "Symb. eff", "Parallel", "Rotating",
                   "Rot.+Barrier", "1 PE Par", "1 PE Seq"]
        formats = [None, "d", ".2f", ".1f", ".1f", ".1f", ".1f", ".1f"]
        if executor == "preschedule":
            headers.append("Doacross")
            formats.append(".1f")
        t = TextTable(
            headers=headers, formats=formats,
            title=(
                f"Table {num}: Parallel Time and Estimates for "
                f"{label} Triangular Solves, {ctx.nproc} processors "
                "(model ms)"
            ),
        )
        for row in rows[executor]:
            a = row.analysis
            vals = [row.problem, a.phases, a.symbolic_efficiency,
                    a.parallel_time, a.rotating_estimate,
                    a.rotating_estimate_plus_barrier,
                    a.one_pe_parallel, a.one_pe_sequential]
            if executor == "preschedule":
                vals.append(a.doacross_time)
            t.add_row(*vals)
        tables[executor] = t
    return rows, tables
