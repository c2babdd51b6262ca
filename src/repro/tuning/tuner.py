"""The tuner: seeded successive halving over the strategy space.

The search exploits two properties of this library: the machine
simulator is *exact and deterministic* (so scores never need repeated
sampling), and dependence-graph prefixes preserve workload character
(so early rungs can run at a fraction of the size).  Successive
halving then does the rest:

1. enumerate the candidate space (:mod:`repro.tuning.space`);
2. simulate every candidate on a small prefix of the graph, keep the
   better half; repeat on a larger prefix;
3. simulate the survivors on the full graph — the machine model is
   the only scorer, at every rung, but a candidate's simulation stops
   as soon as it provably cannot change the rung's outcome, and
   candidates with identical schedules share one simulation;
4. the winner becomes a :class:`~repro.tuning.store.TuningVerdict`,
   cached in the :class:`~repro.tuning.store.TuningStore` so the next
   structurally identical compile skips the search entirely.

Determinism: candidate order is shuffled once by a seeded RNG (the
only randomness — it breaks score ties reproducibly), every simulation
is exact, and all sorts are stable, so the same seed and workload
always produce the identical verdict.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from ..core.inspector import Inspector
from ..errors import ValidationError
from ..machine.costs import MULTIMAX_320, MachineCosts
from ..machine.simulator import sequential_time
from ..observe.tracer import maybe_span
from ..util.digest import structure_digest
from ..util.validation import (
    check_horizon,
    check_positive,
    check_seed,
    check_unit_work,
)
from .features import extract_features
from .measure import Measurement, Scored, SharedSims, prefix_graph, simulate_spec
from .space import CandidateSpec, enumerate_space, space_fingerprint
from .store import TuningStore, TuningVerdict

__all__ = ["Tuner", "ProgramVerdict"]

#: Prefix sizes (fractions of ``n``) of the pruning rungs; the full
#: graph is always the final rung.
RUNG_FRACTIONS = (1 / 16, 1 / 4)
#: Fraction of candidates surviving each pruning rung.
KEEP = 0.5
#: Smallest prefix worth simulating — rungs below it are skipped (tiny
#: graphs go straight to exhaustive full-size search).
MIN_RUNG = 256
#: Fewest candidates a pruning rung keeps.
FINALISTS = 3


@dataclass(frozen=True)
class ProgramVerdict:
    """Outcome of a variants × strategies search over one program.

    Not persisted — each *stage*'s strategy verdict lands in the
    :class:`~repro.tuning.store.TuningStore` under its own structural
    key (that is where the amortisation lives: two variants sharing a
    stage structure share its entry), so re-assembling the program
    verdict on a warm store costs one cheap search pass per stage.
    """

    #: Name of the winning variant (``"identity"`` = untransformed).
    variant_name: str
    #: The winning :class:`~repro.program.transform.Variant` bundle.
    variant: object
    #: One strategy :class:`TuningVerdict` per stage, in stage order.
    stage_verdicts: tuple
    #: Combined score of the winner: stage makespans + inter-stage
    #: barriers (+ amortised inspection under the tuner's horizon).
    sim_makespan: float
    #: Same score for the untransformed (identity) variant — the
    #: baseline the acceptance criteria compare against.
    baseline_makespan: float
    #: Sequential time of the source program under access pricing.
    seq_time: float
    #: ``(variant name, combined score)`` for every variant searched.
    variant_scores: tuple

    @property
    def transformed(self) -> bool:
        return self.variant_name != "identity"

    @property
    def speedup_over_identity(self) -> float:
        """Baseline over winner (> 1 when a transform won)."""
        if self.sim_makespan <= 0:
            return 1.0
        return self.baseline_makespan / self.sim_makespan


class Tuner:
    """Searches the strategy space for one machine shape.

    Parameters
    ----------
    nproc, costs:
        The machine the schedules are tuned for (mirrors
        :class:`~repro.runtime.session.Runtime`).
    seed:
        Tie-break shuffle seed, and the chunk-shuffle seed speculative
        candidates are scored under; fixed seed ⇒ identical verdicts.
    store:
        Optional :class:`~repro.tuning.store.TuningStore` consulted
        before and populated after every search.
    expected_executions:
        Amortisation horizon, validated once, here: each candidate
        scores :func:`~repro.analysis.model.amortised_time` under it
        (``None``: its makespan alone).

    The shape of the search — :data:`RUNG_FRACTIONS`, :data:`KEEP`,
    :data:`MIN_RUNG`, :data:`FINALISTS` — is fixed by module constants.
    """

    def __init__(
        self,
        nproc: int,
        costs: MachineCosts = MULTIMAX_320,
        *,
        seed: int = 0,
        store: TuningStore | None = None,
        observer=None,
        expected_executions: float | None = None,
    ):
        from ..runtime.session import Runtime  # deferred: import cycle

        self.nproc = check_positive(nproc, "nproc")
        self.costs = costs
        self.seed = check_seed(seed)
        self.expected_executions = check_horizon(expected_executions)
        self.store = store
        #: Session :class:`~repro.observe.Observer` (``None`` = silent).
        #: Shared with the private search runtime, so candidate
        #: inspections nest (non-double-counted) under the tune span.
        self.observer = observer
        #: Private search session: candidate compiles land in its
        #: ScheduleCache, never the caller's.  It shares the seed, so a
        #: speculative candidate is scored under the chunk shuffle the
        #: session's own speculative plan will run.
        self._runtime = Runtime(nproc, costs=costs, cache=256, tuning=None,
                                tune_seed=self.seed, observe=observer)

    # ------------------------------------------------------------------
    def tune(self, deps, *,
             unit_work: np.ndarray | None = None) -> TuningVerdict:
        """Verdict for ``deps`` — from the store, or a fresh search.

        ``unit_work`` overrides the per-iteration work pricing (used
        by the variant search so every variant of one program charges
        identical statement work).  It and the tuner's horizon suffix
        the store key — such verdicts never collide with plain
        makespan searches.

        A store hit costs one structure hash and a lookup — no
        wavefront sweep, no feature extraction, no search.
        """
        return self._tune(deps, unit_work=unit_work)[0]

    def _tune(self, deps, *, unit_work=None):
        """:meth:`tune`, and what the search hands over (``None`` on a
        store hit; see :meth:`_search`)."""
        dep = Inspector.dependences_of(deps)
        if unit_work is not None:
            unit_work = check_unit_work(unit_work, dep.n)
        candidates = enumerate_space(dep.n, self.nproc)
        store, obs = self.store, self.observer
        key = None
        if store is not None:
            mode = "sim"
            if self.expected_executions is not None:
                mode += f":amort={self.expected_executions:g}"
            if unit_work is not None:
                mode += f":uw={structure_digest((unit_work,))}"
            key = TuningStore.key_for(
                dep, self.nproc, self.costs, space_fingerprint(candidates),
                mode=mode,
            )
            verdict = store.session_get(key, observer=obs)
            if verdict is not None:
                if obs is not None:
                    obs.inc("tuner.store_hits")
                return verdict, None
        verdict, winner = self._search(dep, candidates, unit_work=unit_work)
        if store is not None:
            store.session_put(key, verdict, observer=obs)
        return verdict, winner

    # ------------------------------------------------------------------
    def search(
        self,
        dep,
        candidates: list[CandidateSpec] | None = None,
        *,
        unit_work: np.ndarray | None = None,
    ) -> TuningVerdict:
        """Run the successive-halving search (no store involvement)."""
        if unit_work is not None:
            # Checked here, not per candidate: ``simulate_spec`` scores
            # any candidate's ValidationError as "cannot run".
            unit_work = check_unit_work(unit_work, dep.n)
        return self._search(dep, candidates, unit_work=unit_work)[0]

    def _search(self, dep, candidates, *, unit_work):
        """:meth:`search`, and its winner's :class:`Scored` (compiled
        loop, exact simulation) if scheduled under the default work —
        returned, never kept: a winner must not outlive its search."""
        if candidates is None:
            candidates = enumerate_space(dep.n, self.nproc)
        if not candidates:
            raise ValidationError("the candidate space is empty")
        obs = self.observer
        with maybe_span(obs, "tune", n=dep.n,
                        candidates=len(candidates)) as span:
            return self._search_impl(dep, candidates, unit_work=unit_work,
                                     span=span)

    def _score(self, dep, specs, *, unit_work,
               kept: int | None = None) -> tuple[list, SharedSims, Scored]:
        """One rung: simulate every spec on ``dep`` (the search's only
        scorer) and return ``(score, spec)`` best first — a stable
        sort, so ties keep the seeded shuffle order — with the rung's
        :class:`~repro.tuning.measure.SharedSims` (its cut and shared
        counts) and the :class:`~repro.tuning.measure.Scored` that sorts
        first.

        Each spec is scored against a bar, past which its exact score
        cannot change the rung's outcome; a spec whose simulation
        provably reaches its bar scores ``inf``.  In a pruning rung
        (``kept`` survivors by rank) the bar is the larger of the
        ``kept``-th best exact score so far and the best exact score so
        far in the spec's executor family — the two facts the halving
        and the diversity rule read; in the final rung (``kept=None``)
        it is the incumbent's score.  Every score behind a bar belongs
        to an earlier spec, which a tie ranks first, so the survivors,
        their order and the winner are the unbounded search's.
        """
        shared = SharedSims()
        exact: list[float] = []     # finite exact scores so far, sorted
        family: dict[str, float] = {}
        scored, best = [], None
        with dep.holding_lists():   # one list conversion per rung
            for spec in specs:
                if kept is None:
                    bar = exact[0] if exact else math.inf
                else:
                    bar = max(
                        exact[kept - 1] if len(exact) >= kept else math.inf,
                        family.get(spec.executor, math.inf))
                result = simulate_spec(
                    self._runtime, dep, spec, unit_work=unit_work,
                    expected_executions=self.expected_executions,
                    bound=bar, shared=shared)
                score = result.score
                if math.isfinite(score):
                    bisect.insort(exact, score)
                    family[spec.executor] = min(
                        score, family.get(spec.executor, math.inf))
                if best is None or score < best.score:
                    best = result   # the first of equals, as sorted
                scored.append((score, spec))
        scored.sort(key=lambda t: t[0])
        return scored, shared, best

    def _search_impl(
        self,
        dep,
        candidates: list[CandidateSpec],
        *,
        unit_work: np.ndarray | None,
        span,
    ) -> tuple[TuningVerdict, Scored | None]:
        obs = self.observer
        if obs is not None:
            obs.inc("tuner.searches")
            obs.inc("tuner.candidates", len(candidates))
        rng = np.random.default_rng(self.seed)
        survivors = [candidates[i] for i in rng.permutation(len(candidates))]
        sims = cut = shared = 0

        # Pruning rungs: simulate on growing prefixes, halve the field.
        for rung, m in enumerate(self._rung_sizes(dep.n)):
            entered = len(survivors)
            kept = max(FINALISTS, math.ceil(entered * KEEP))
            scored, rung_sims, _ = self._score(
                prefix_graph(dep, m), survivors,
                unit_work=None if unit_work is None else unit_work[:m],
                kept=kept)
            sims += entered
            cut += rung_sims.cut
            shared += rung_sims.shared
            survivors = [spec for _, spec in scored[:kept]]
            # Diversity guarantee: prefix fidelity is biased against
            # barrier-dominated executors (a preschedule run pays its
            # per-wavefront syncs against a fraction of the work), so
            # the best finite-scored candidate of *every* executor
            # family rides along to the next rung regardless of rank —
            # the full-size rung, not a subsample, retires families.
            seen_exec = {spec.executor for spec in survivors}
            for score, spec in scored[kept:]:
                if spec.executor not in seen_exec and math.isfinite(score):
                    seen_exec.add(spec.executor)
                    survivors.append(spec)
            if obs is not None:
                obs.inc(f"tuner.rung{rung}.pruned",
                        entered - len(survivors))

        # Final rung: every survivor at full size.
        scored, final, won = self._score(dep, survivors, unit_work=unit_work)
        sims += len(survivors)
        best_score, best = scored[0]
        if not math.isfinite(best_score):
            raise ValidationError(
                "no candidate produced a legal schedule for this workload"
            )

        if obs is not None:
            obs.inc("tuner.sims", sims)
            obs.inc("tuner.sims_cut", cut + final.cut)
            obs.inc("tuner.sims_shared", shared + final.shared)
            span.annotate(sims=sims, winner=best.label(),
                          sims_cut=cut + final.cut,
                          sims_shared=shared + final.shared,
                          final_cut=final.cut)
        # The final rung compiled and simulated the winner.  Its
        # wavefronts spare the signature a sweep of its own (the
        # speculative arm inspected nothing and has none), and its
        # inspection is the one the verdict's pipeline_cost prices.
        loop = won.loop
        features = extract_features(dep, loop.wavefronts, self.costs)
        handed = loop.plan.kind == "scheduled" and unit_work is None
        return TuningVerdict(
            executor=best.executor,
            scheduler=best.scheduler,
            assignment=best.assignment,
            balance=best.balance,
            sim_makespan=best_score,
            seq_time=sequential_time(dep, self.costs, unit_work),
            candidates=len(candidates),
            sims=sims,
            seed=self.seed,
            signature=features.signature(),
            pipeline_cost=float(loop.inspection.pipeline_cost),
        ), won if handed else None

    # ------------------------------------------------------------------
    def tune_program(self, prog) -> ProgramVerdict:
        """Search program variants × strategies; pick the cheapest plan.

        Every legal rewrite of ``prog`` (from
        :func:`~repro.program.transform.enumerate_variants`) is scored
        as the sum of its stages' tuned makespans plus one global
        barrier between consecutive stages — stages run strictly in
        order, so the barrier is the honest hand-off price.  All
        stages of all variants are priced from the *declared accesses*
        (:meth:`LoopProgram.unit_work
        <repro.program.binding.LoopProgram.unit_work>`), never from
        dependence counts, so a fissioned stage cannot hide the work
        of statements it dropped.

        Stage verdicts go through :meth:`tune`, hence through the
        TuningStore — variants deduped by structure hash share
        entries, and a warm store re-scores a program without a single
        simulation.
        """
        from ..program.transform import enumerate_variants

        variants = enumerate_variants(prog)
        sync = self.costs.sync_cost(self.nproc)
        results = []
        with maybe_span(self.observer, "tune",
                        variants=len(variants)) as span:
            for variant in variants:
                stage_verdicts = []
                total = sync * (len(variant.stages) - 1)
                for stage in variant.stages:
                    sp = stage.program
                    verdict = self.tune(sp.dependence_graph(),
                                        unit_work=sp.unit_work(self.costs))
                    stage_verdicts.append(verdict)
                    total += verdict.sim_makespan
                results.append((total, variant, tuple(stage_verdicts)))
            span.annotate(winner=min(results, key=lambda t: t[0])[1].name)
        baseline = results[0][0]  # identity is always first
        best_total, best_variant, best_verdicts = min(
            results, key=lambda t: t[0])
        return ProgramVerdict(
            variant_name=best_variant.name,
            variant=best_variant,
            stage_verdicts=best_verdicts,
            sim_makespan=float(best_total),
            baseline_makespan=float(baseline),
            seq_time=sequential_time(prog.dependence_graph(), self.costs,
                                     prog.unit_work(self.costs)),
            variant_scores=tuple((v.name, float(t)) for t, v, _ in results),
        )

    # ------------------------------------------------------------------
    def exhaustive(self, dep, candidates: list[CandidateSpec] | None = None) -> list[Measurement]:
        """Simulate *every* candidate at full size (the search's oracle).

        Used by the acceptance benchmark to check the halving search
        lands within tolerance of the true simulated optimum.
        """
        if candidates is None:
            candidates = enumerate_space(dep.n, self.nproc)
        out = []
        for spec in candidates:
            score, err = simulate_spec(self._runtime, dep, spec)[:2]
            m = Measurement(spec, sim_makespan=score, error=err)
            out.append(m)
        return sorted(out, key=lambda m: m.sim_makespan)

    def _rung_sizes(self, n: int) -> list[int]:
        """Strictly growing prefix sizes below ``n`` (may be empty)."""
        sizes = (int(n * frac) for frac in RUNG_FRACTIONS)
        return [m for m in sizes if m >= MIN_RUNG]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Tuner(nproc={self.nproc}, seed={self.seed}, "
                f"store={self.store!r})")
