"""Candidate evaluation: the machine model is the one scorer.

The simulator is exact, deterministic and host-speed-independent, so
candidates can be compared (and pruned) on *subsampled prefixes* of the
dependence graph as well as at full size, and no score ever needs a
second sample.

Everything goes through :meth:`Runtime.compile
<repro.runtime.session.Runtime.compile>`, so candidate compiles enjoy
the session's :class:`~repro.runtime.cache.ScheduleCache`, a
speculative-flagged candidate takes the session's one no-inspection
route, and a candidate that cannot execute at all (an illegal
schedule, a deadlock) scores ``inf`` instead of aborting the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dependence import DependenceGraph
from ..errors import ReproError
from ..util.frontier import counts_to_indptr
from .space import CandidateSpec

__all__ = ["Measurement", "prefix_graph", "simulate_spec"]


@dataclass
class Measurement:
    """One candidate's full-size score (:meth:`Tuner.exhaustive
    <repro.tuning.tuner.Tuner.exhaustive>`)."""

    spec: CandidateSpec
    #: Simulated makespan on the full graph (model µs; ``inf`` = failed).
    sim_makespan: float = float("inf")
    #: Error string of a failed compile/simulation, for reporting.
    error: str | None = None


def prefix_graph(dep: DependenceGraph, m: int) -> DependenceGraph:
    """The induced subgraph on the first ``m`` indices.

    For backward-only graphs (the paper's start-time schedulable case)
    this is a pure slice — every dependence of the first ``m`` rows
    already lands below ``m``.  General graphs additionally drop edges
    that point past the prefix.  Either way the result preserves the
    head of the workload's structure — chunk profiles, chain depth,
    frontier widths — which is what makes it a useful pruning fidelity.
    """
    m = int(min(m, dep.n))
    if m >= dep.n:
        return dep
    end = int(dep.indptr[m])
    indices = dep.indices[:end]
    if dep.all_backward():
        return DependenceGraph(dep.indptr[: m + 1], indices, m,
                               check_acyclic=False)
    # The first m rows own exactly the first `end` edges, so their row
    # tags are a prefix of the graph's cached edge_rows().
    rows = dep.edge_rows()[:end]
    keep = indices < m
    indptr = counts_to_indptr(np.bincount(rows[keep], minlength=m))
    return DependenceGraph(indptr, indices[keep], m, check_acyclic=False)


def simulate_spec(
    runtime,
    deps,
    spec: CandidateSpec,
    *,
    unit_work=None,
    expected_executions: float | None = None,
) -> tuple[float, str | None]:
    """Simulated score of one candidate (``inf`` when it cannot run).

    ``runtime`` is the search session (its ScheduleCache absorbs
    repeated compiles of the same rung); ``deps`` any dependence
    source.  Returns ``(score, error-or-None)``.

    The score is the simulated makespan, optionally under a
    ``unit_work`` pricing override, and — when ``expected_executions``
    is given (a horizon as :func:`~repro.util.validation.check_horizon`
    returns one: the tuner's entry points validate and clamp, not each
    of the search's simulations) — plus the candidate's inspection
    cost amortised over that many executions.  Amortisation is what
    lets the no-inspection speculative arm (``pipeline_cost`` 0) win
    cold structures that the classic pipeline would only beat in steady
    state; its makespan includes the serial repair of every conflict,
    so high-conflict workloads price themselves out naturally.
    """
    try:
        loop = runtime.compile(deps, **spec.compile_kwargs())
        score = float(loop.simulate(unit_work=unit_work).total_time)
        if expected_executions is not None:
            score += (float(loop.inspection.pipeline_cost)
                      / expected_executions)
        return score, None
    except ReproError as exc:
        return float("inf"), f"{type(exc).__name__}: {exc}"
