"""Candidate evaluation: the machine model is the one scorer.

The simulator is exact, deterministic and host-speed-independent, so
candidates can be compared (and pruned) on *subsampled prefixes* of the
dependence graph as well as at full size, no score ever needs a second
sample, and two candidates with one schedule need one simulation
(:class:`SharedSims`).

Everything goes through :meth:`Runtime.compile
<repro.runtime.session.Runtime.compile>`, so candidate compiles enjoy
the session's :class:`~repro.runtime.cache.ScheduleCache`, a
speculative-flagged candidate takes the session's one no-inspection
route, and a candidate that cannot execute at all (an illegal
schedule, a deadlock) scores ``inf`` instead of aborting the search.
Under a horizon a score adds the candidate's inspection price over that
many executions (:func:`~repro.analysis.model.amortised_time`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..analysis.model import amortised_time
from ..core.dependence import DependenceGraph
from ..core.wavefront import compute_wavefronts
from ..errors import ReproError
from ..machine.simulator import SimResult
from ..util.frontier import counts_to_indptr
from ..util.validation import read_only
from .space import CandidateSpec

__all__ = ["Measurement", "Scored", "prefix_graph", "simulate_spec"]


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
    already lands below ``m`` — and so are its wavefront numbers: the
    prefix is handed ``wf[:m]`` of the parent's memo (the first prefix
    sweeps the parent once), and is never swept itself.  General graphs
    additionally drop edges that point past the prefix.  Either way the
    result preserves the head of the workload's structure — chunk
    profiles, chain depth, frontier widths — which is what makes it a
    useful pruning fidelity.
    """
    m = int(min(m, dep.n))
    if m >= dep.n:
        return dep
    end = int(dep.indptr[m])
    indices = dep.indices[:end]
    if dep.all_backward:
        prefix = DependenceGraph(dep.indptr[: m + 1], indices, m,
                                 check_acyclic=False)   # read-only views
        vars(prefix)["wavefronts"] = compute_wavefronts(dep)[:m]  # the memo
        return prefix
    # The first m rows own exactly the first `end` edges, so their row
    # tags are a prefix of the graph's cached edge_rows.
    rows = dep.edge_rows[:end]
    keep = indices < m
    indptr = counts_to_indptr(np.bincount(rows[keep], minlength=m))
    return DependenceGraph(read_only(indptr), read_only(indices[keep]), m,
                           check_acyclic=False)


class SharedSims:
    """One rung's simulations, shared by schedule.

    Candidates whose compiled schedules are identical share one
    simulation: every ``doacross × assignment`` alias runs the one
    wrapped identity schedule, and ``global`` deals the same lists
    under ``wrapped`` as under unit-weight ``greedy`` (the same deal).
    An entry is the exact simulation — the final rung's winner's is
    handed to the caller — or a bound a cut one proved the makespan
    exceeds.  Each candidate adds its own amortised inspection to a
    shared makespan.  Graph, ``unit_work`` and cost model are fixed
    within a rung — and with the graph its wavefronts, which fix the
    pre-scheduled phases — so the schedule's lists are the key: its
    :attr:`~repro.core.schedule.Schedule.digest`.
    """

    def __init__(self):
        self._known: dict = {}
        #: Simulations abandoned at their bound, and candidates
        #: answered from an earlier candidate's simulation.
        self.cut = self.shared = 0

    def simulate(self, executor, unit_work, bound: float) -> SimResult | None:
        """``executor``'s exact simulation, or ``None`` when its
        makespan provably exceeds ``bound``."""
        key = (executor.mode, executor.schedule.digest)
        known = self._known.get(key)
        if known is not None:
            sim, cut_at = known
            if sim is not None or bound <= cut_at:
                self.shared += 1
                return sim
        sim = executor.simulate(unit_work=unit_work, bound=bound)
        if sim is None:
            self.cut += 1
        self._known[key] = (sim, bound)
        return sim


def _makespan_bound(bound: float, amortised: float) -> float:
    """The makespan above which ``makespan + amortised`` — rounded as
    the score is — reaches ``bound``."""
    if amortised == 0.0 or not math.isfinite(bound):
        return bound
    m = bound - amortised
    while m + amortised < bound:
        m = math.nextafter(m, math.inf)
    return m


class Scored(NamedTuple):
    """One candidate's score, and what scoring it built."""

    score: float
    error: str | None
    loop: object = None             # None: it did not compile
    sim: SimResult | None = None    # None: no finite score


def simulate_spec(
    runtime,
    deps,
    spec: CandidateSpec,
    *,
    unit_work=None,
    expected_executions: float | None = None,
    bound: float = math.inf,
    shared: SharedSims | None = None,
) -> Scored:
    """Simulated score of one candidate (``inf`` when it cannot run).

    ``runtime`` is the search session (its ScheduleCache absorbs
    repeated compiles of the same rung); ``deps`` any dependence
    source.  Returns the :class:`Scored` score, error-or-``None``,
    compiled candidate and the simulation behind a finite score.

    The score is :func:`~repro.analysis.model.amortised_time`: the
    simulated makespan (optionally under a ``unit_work`` pricing
    override) plus, under a horizon the tuner validated once, the
    candidate's inspection cost over ``expected_executions``.  That is
    what lets the no-inspection speculative arm (``pipeline_cost`` 0)
    win cold structures that the classic pipeline would only beat in
    steady state; its makespan includes the serial repair of every
    conflict, so high-conflict workloads price themselves out naturally.

    ``bound`` is a score the caller has no use for reaching (the
    tuner's bar): a scheduled candidate's simulation stops as soon as
    its score provably reaches it, and the candidate scores ``inf``
    with no error.  ``shared`` is the rung's :class:`SharedSims`; a
    score either way is the unbounded, unshared one, bit for bit.
    """
    try:
        loop = runtime.compile(deps, **spec.compile_kwargs())
        share = amortised_time(0.0, loop.inspection, expected_executions)
        if loop.plan.kind != "scheduled":
            sim = loop.simulate(unit_work=unit_work)
        else:
            sims = shared if shared is not None else SharedSims()
            sim = sims.simulate(loop.executor, unit_work,
                                _makespan_bound(bound, share))
            if sim is None:
                return Scored(math.inf, None, loop)
        return Scored(float(sim.total_time) + share, None, loop, sim)
    except ReproError as exc:
        return Scored(math.inf, f"{type(exc).__name__}: {exc}")
