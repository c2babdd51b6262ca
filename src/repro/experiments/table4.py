"""Table 4 — projected efficiencies for 16, 32 and 64 processors.

Constant-overhead projections (Section 5.1.3): the overhead factor
measured at 16 processors is held fixed while the symbolically
estimated efficiency is recomputed per processor count.

Expected shape (paper): "The projected performance of the pre-scheduled
programs deteriorates much more rapidly as one increases the number of
processors" — the S.E./P.S. gap widens with p.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.projections import project_efficiencies
from ..core.dependence import DependenceGraph
from ..util.tables import TextTable
from .runner import ACCOUNTING_PROBLEMS, ExperimentContext

__all__ = ["run_table4", "Table4Row"]

TARGET_NPROCS = (16, 32, 64)


@dataclass
class Table4Row:
    """Projections for one problem."""

    problem: str
    best_self: float
    best_presched: float
    #: p -> efficiency
    self_eff: dict
    presched_eff: dict


def run_table4(
    ctx: ExperimentContext | None = None,
    problems=ACCOUNTING_PROBLEMS,
    target_nprocs=TARGET_NPROCS,
) -> tuple[list[Table4Row], TextTable]:
    """Run the Table 4 projections; returns (rows, rendered table)."""
    ctx = ctx or ExperimentContext()
    rows: list[Table4Row] = []
    for prob in ctx.problems(problems):
        dep = DependenceGraph.from_lower_csr(prob.factorization.lu)
        proj = {}
        for executor in ("self", "preschedule"):
            proj[executor] = project_efficiencies(
                dep, executor=executor, scheduler="global",
                base_nproc=ctx.nproc, target_nprocs=target_nprocs,
                costs=ctx.costs,
            )
        rows.append(
            Table4Row(
                problem=prob.name,
                best_self=proj["self"].best,
                best_presched=proj["preschedule"].best,
                self_eff=proj["self"].projected,
                presched_eff=proj["preschedule"].projected,
            )
        )

    headers = ["Problem", "Best S.E.", "Best P.S."]
    formats: list[str | None] = [None, ".2f", ".2f"]
    for p in target_nprocs:
        headers += [f"{p}p S.E.", f"{p}p P.S."]
        formats += [".2f", ".2f"]
    table = TextTable(
        headers=headers, formats=formats,
        title="Table 4: Projected efficiencies of triangular solves "
              f"(measured at {ctx.nproc} processors)",
    )
    for r in rows:
        vals = [r.problem, r.best_self, r.best_presched]
        for p in target_nprocs:
            vals += [r.self_eff[p], r.presched_eff[p]]
        table.add_row(*vals)
    return rows, table
