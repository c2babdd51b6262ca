"""Candidate evaluation: the machine model is the one scorer.

The simulator is exact, deterministic and host-speed-independent, so
candidates can be compared (and pruned) on *subsampled prefixes* of the
dependence graph as well as at full size, no score ever needs a second
sample, and two candidates with one schedule need one simulation
(:class:`SharedSims`).

A candidate is scored as a *plan*: the session's one plan builder
(``Runtime._plan``, the one every compile builds through) turns it into
a :class:`~repro.runtime.session.ScheduledPlan` and nothing more — no
compiled loop, no ``compile`` span.  So candidate inspections enjoy the
session's :class:`~repro.runtime.cache.ScheduleCache`, a
speculative-flagged candidate takes the session's one no-inspection
route, and a candidate that cannot execute at all (an illegal
schedule, a deadlock) scores ``inf`` instead of aborting the search.
A rung pays once for what its candidates share (:class:`SharedSims`):
each inspection, each simulated schedule, and the graph's CSR lists,
work vectors and crossing test; a candidate pays for little beyond its
schedule and its walk.
Under a horizon a score adds the candidate's inspection price over that
many executions (:func:`~repro.analysis.model.amortised_time`).
"""

from __future__ import annotations

import math
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

__all__ = ["Scored", "prefix_graph", "simulate_spec"]


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
    """One rung's inspections and simulations, shared by its candidates.

    Candidates asking for one inspection — the ``self`` /
    ``preschedule`` pair of each scheduler × assignment × balance, the
    nine ``doacross × assignment`` aliases of the wrapped identity —
    share it: the first keys, looks up or inspects it in
    ``Runtime._plan``, the others bind it (:attr:`inspections`); each
    bundle is validated once per search (:attr:`resolved`).

    Candidates whose planned schedules are identical share one
    simulation: every ``doacross × assignment`` alias runs the one
    wrapped identity schedule, and ``global`` deals the same lists
    under ``wrapped`` as under unit-weight ``greedy`` (the same deal).
    An entry is the exact simulation — the final rung's winner's is
    handed to the caller — or a bound a cut one proved the makespan
    exceeds.  Each candidate adds its own amortised inspection to a
    shared makespan.  Graph, ``unit_work`` and cost model are fixed
    within a rung — and with the graph its wavefronts, which fix the
    pre-scheduled phases — so the schedule's lists are the key: its
    :attr:`~repro.core.schedule.Schedule.digest`.  What every
    simulation reads of the graph — its CSR lists, one work vector per
    mode, the crossing test — the graph holds for the rung
    (:meth:`~repro.core.dependence.DependenceGraph.holding`).
    """

    def __init__(self, resolved: dict | None = None):
        #: Bundle → its ``Runtime._resolve`` (the search's, when given),
        #: and resolved triple → the inspection planned on the rung's graph.
        self.resolved = {} if resolved is None else resolved
        self.inspections: dict = {}
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
    """One candidate's score, and the plan scoring it built."""

    score: float
    error: str | None
    plan: object = None             # None: no plan could be built
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
    repeated inspections across rungs and searches; ``shared`` binds a
    rung's own); ``deps`` any dependence source.  Returns the :class:`Scored` score, error-or-``None``,
    the candidate's plan and the simulation behind a finite score.

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
        plan = runtime._plan(deps, **spec.compile_kwargs(), held=shared)
        share = amortised_time(0.0, plan.inspection, expected_executions)
        if plan.kind != "scheduled":
            sim = plan.simulate(unit_work)
        else:
            sims = shared if shared is not None else SharedSims()
            sim = sims.simulate(plan.executor, unit_work,
                                _makespan_bound(bound, share))
            if sim is None:
                return Scored(math.inf, None, plan)
        return Scored(float(sim.total_time) + share, None, plan, sim)
    except ReproError as exc:
        return Scored(math.inf, f"{type(exc).__name__}: {exc}")
