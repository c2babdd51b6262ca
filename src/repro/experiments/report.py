"""Render the full experiment suite into a Markdown report.

Behind ``python -m repro.experiments -o report.md``: run every
experiment at the requested scale and emit one Markdown document with
a section per table/figure.
"""

from __future__ import annotations

from .ablations import run_balance_ablation, run_barrier_sweep, run_shared_cost_sweep
from .figure1 import render_quadrant, run_figure1
from .figure12 import render_ascii_chart, run_figure12
from .model_check import run_model_check
from .runner import ExperimentContext
from .table1 import run_table1
from .table23 import run_table23
from .table4 import run_table4
from .table5 import run_table5

__all__ = ["generate_report"]


def generate_report(ctx: ExperimentContext | None = None, *,
                    include_table1: bool = True) -> str:
    """Run everything; return a Markdown report.

    ``include_table1=False`` skips the full Krylov solves (the most
    expensive experiment) for quick regeneration of the rest.
    """
    ctx = ctx or ExperimentContext()
    sections: list[str] = [
        "# Measured results",
        "",
        f"Machine model: {ctx.costs!r}",
        f"Processors: {ctx.nproc}; problem scale: {ctx.scale}.",
        "",
    ]

    def add(title: str, table, extra: str = ""):
        sections.append(f"## {title}")
        sections.append("")
        sections.append(table.render_markdown())
        if extra:
            sections.append("")
            sections.append("```")
            sections.append(extra)
            sections.append("```")
        sections.append("")

    if include_table1:
        _, t1 = run_table1(ctx)
        add("Table 1 — full solver, self-execution vs pre-scheduling", t1)

    _, tables23 = run_table23(ctx)
    add("Table 2 — pre-scheduled triangular solves", tables23["preschedule"])
    add("Table 3 — self-executing triangular solves", tables23["self"])

    _, t4 = run_table4(ctx)
    add("Table 4 — projected efficiencies", t4)

    _, t5 = run_table5(ctx)
    add("Table 5 — local vs global scheduling", t5)

    points, f12 = run_figure12(ctx)
    add("Figures 12/13 — effect of local ordering", f12,
        extra=render_ascii_chart(points))

    cells, f1 = run_figure1(ctx)
    add("Figure 1 — summary quadrant", f1, extra=render_quadrant(cells))

    _, mc = run_model_check(ctx)
    add("Section 4.2 — model validation", mc)

    _, ab1 = run_barrier_sweep(ctx)
    add("Ablation — barrier cost sweep", ab1)
    _, ab2 = run_shared_cost_sweep(ctx)
    add("Ablation — shared check/increment cost sweep", ab2)
    _, ab3 = run_balance_ablation(ctx)
    add("Ablation — wavefront balancing strategy", ab3)

    return "\n".join(sections)
