"""Figures 12/13 — the crucial role of the synchronization mechanism.

Setup (Section 5.1.4): a 65×65 five-point mesh matrix; indices assigned
to processors *striped* (``i mod P``) and **not repartitioned** after
the topological sort — i.e. local scheduling.  The same partition and
schedule are then run under (a) barrier synchronization and (b)
self-executing synchronization, for processor counts 1..16.

Expected shape (paper): the barrier version's efficiency "varies wildly
with the number of processors" — whole phases can land on one processor
— while self-execution stays smooth because the busy-wait pipeline
tolerates the imbalance (Figure 13's pipelining effect).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dependence import DependenceGraph
from ..runtime.cache import ScheduleCache
from ..runtime.session import Runtime
from ..util.tables import TextTable
from ..workload.generator import generate_workload
from .runner import ExperimentContext

__all__ = ["run_figure12", "Figure12Point", "render_ascii_chart"]


@dataclass
class Figure12Point:
    """Efficiency of both synchronization mechanisms at one size."""

    nproc: int
    barrier_efficiency: float
    self_efficiency: float


def run_figure12(
    ctx: ExperimentContext | None = None,
    *,
    mesh: int = 65,
    nprocs=tuple(range(1, 17)),
) -> tuple[list[Figure12Point], TextTable]:
    """Sweep processor counts on the mesh problem, striped local schedule."""
    ctx = ctx or ExperimentContext()
    nprocs = tuple(nprocs)  # materialize once; callers may pass iterators
    wl = generate_workload(f"{mesh}mesh")
    dep = DependenceGraph.from_lower_csr(wl.matrix)
    # Shared cache across the sweep: the self-executing compile of each
    # p reuses the barrier compile's inspection.
    cache = ScheduleCache(maxsize=max(1, 2 * len(nprocs)))

    points: list[Figure12Point] = []
    for p in nprocs:
        rt = Runtime(nproc=p, costs=ctx.costs, cache=cache)
        barrier = rt.compile(dep, executor="preschedule", scheduler="local",
                             assignment="wrapped")
        self_exec = rt.compile(dep, executor="self", scheduler="local",
                               assignment="wrapped")
        sim_barrier = barrier.simulate()
        sim_self = self_exec.simulate()
        points.append(
            Figure12Point(
                nproc=p,
                barrier_efficiency=sim_barrier.efficiency,
                self_efficiency=sim_self.efficiency,
            )
        )

    table = TextTable(
        headers=["P", "Barrier eff", "Self-exec eff"],
        formats=["d", ".3f", ".3f"],
        title=(
            f"Figure 12/13: Effect of local ordering on a {mesh}x{mesh} mesh "
            "(striped assignment, no repartitioning)"
        ),
    )
    for pt in points:
        table.add_row(pt.nproc, pt.barrier_efficiency, pt.self_efficiency)
    return points, table


def render_ascii_chart(points: list[Figure12Point]) -> str:
    """A terminal rendition of Figure 12 (efficiency bars per P)."""
    width = 50  # characters an efficiency of 1.0 spans
    lines = ["EFF  0.0" + " " * (width - 12) + "1.0"]
    for pt in points:
        b = int(round(pt.barrier_efficiency * width))
        s = int(round(pt.self_efficiency * width))
        lines.append(f"P={pt.nproc:<3d} barrier |{'#' * b}{' ' * (width - b)}| {pt.barrier_efficiency:.2f}")
        lines.append(f"      self    |{'=' * s}{' ' * (width - s)}| {pt.self_efficiency:.2f}")
    return "\n".join(lines)
