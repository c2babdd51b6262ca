"""Persistent tuning verdicts — cross-run amortisation of the *search*.

The :class:`~repro.runtime.cache.ScheduleCache` amortises one
inspection; :class:`TuningStore` amortises a whole strategy search
(dozens of inspections and simulations).  It is keyed the same way —
on the graph's :meth:`structure digest
<repro.core.dependence.DependenceGraph.digest>` — extended with the
:func:`space fingerprint <repro.tuning.space.space_fingerprint>` of
the candidate set and the scoring mode (plain makespan, an
amortisation horizon, a work-pricing override), so a verdict is
invalidated exactly when the strategy space changes (a new
registration, a shadowed name, a bumped generation) or a differently
scored verdict is requested.  The workload's :meth:`feature signature
<repro.tuning.features.WorkloadFeatures.signature>` travels *inside*
the verdict rather than in the key: the exact structure digest already
subsumes it, and keeping it out of the key means a warm
``strategy="auto"`` compile answers without recomputing wavefronts —
no sweep, no search, just a hash and a lookup.

Persistence is a JSON file per key under the crash discipline the
schedule cache has — both inherit it from
:class:`~repro.runtime.cache.LruStoreBase`: locked write-then-rename
stores, and corrupt or truncated entries read as misses — the search
re-runs and overwrites the bad entry (self-healing, never a crash).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from ..runtime.cache import LruStoreBase
from ..util.digest import structure_digest
from .space import CandidateSpec

__all__ = ["TuningVerdict", "TuningStore"]

#: Bumped when the persisted verdict layout changes; old files re-search.
_FORMAT = 2


@dataclass(frozen=True)
class TuningVerdict:
    """The outcome of one strategy search — what ``strategy="auto"`` uses."""

    #: The winning strategy strings.
    executor: str
    scheduler: str
    assignment: str
    balance: str
    #: Simulated makespan of the winner on the full graph (model µs).
    sim_makespan: float
    #: Simulated sequential time of the workload (model µs).
    seq_time: float
    #: Candidates enumerated / simulations run by the search.
    candidates: int
    sims: int
    #: Search seed (verdicts are deterministic given the seed).
    seed: int
    #: Feature signature of the workload the search measured.
    signature: str
    #: False when this verdict was served from a :class:`TuningStore`.
    searched: bool = True
    #: Inspection cost (model µs) of the winning strategy — 0 for the
    #: no-inspection speculative arm; what amortised arbitration and
    #: the transform tuner charge against the expected executions.
    pipeline_cost: float = 0.0

    # ------------------------------------------------------------------
    @property
    def speedup(self) -> float:
        """Modelled speedup of the tuned configuration."""
        if self.sim_makespan <= 0:
            return float("nan")
        return self.seq_time / self.sim_makespan

    @property
    def spec(self) -> CandidateSpec:
        """The winning point of the search space."""
        return CandidateSpec(self.executor, self.scheduler,
                             self.assignment, self.balance)

    def compile_kwargs(self) -> dict:
        """Keyword arguments for :meth:`Runtime.compile
        <repro.runtime.session.Runtime.compile>`."""
        return self.spec.compile_kwargs()

    def label(self) -> str:
        """Compact rendering, identical to the candidate's search label."""
        return self.spec.label()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningVerdict":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})


class TuningStore(LruStoreBase):
    """LRU map from workload keys to :class:`TuningVerdict`.

    Parameters
    ----------
    maxsize:
        In-memory entry bound (LRU eviction beyond it).
    persist_dir:
        Optional directory for JSON write-through persistence; misses
        consult it before declaring the search necessary.
    """

    kind = "tuning store"
    metric_prefix = "tuning_store"
    suffix = ".tuning.json"

    def __init__(self, maxsize: int = 64, persist_dir=None):
        super().__init__(maxsize, persist_dir)

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(dep, nproc: int, costs, space_digest: str,
                mode: str = "sim") -> str:
        """Digest of (structure, machine, strategy space, scoring mode).

        ``mode`` is ``"sim"`` for a plain makespan search, suffixed by
        whatever else shaped the scores (``"sim:amort=4"``, a
        ``unit_work`` digest) — differently scored searches may
        legitimately disagree, so they never share a verdict.
        """
        return structure_digest(params=(
            "tuning", dep.digest, int(nproc), costs.astuple(),
            space_digest, mode, _FORMAT))

    # ------------------------------------------------------------------
    # Format: one JSON file, the verdict under a layout number
    # ------------------------------------------------------------------
    def _dump(self, verdict: TuningVerdict, tmp) -> None:
        tmp.write_text(json.dumps({"format": _FORMAT,
                                   "verdict": verdict.to_dict()}))

    def _load(self, path, dep) -> TuningVerdict | None:
        payload = json.loads(path.read_text())
        if payload.get("format") != _FORMAT:
            return None
        return TuningVerdict.from_dict(payload["verdict"])

    def _served(self, verdict: TuningVerdict) -> TuningVerdict:
        """Store-served verdicts come back with ``searched=False`` so
        callers (and tests) can tell a reuse from a fresh search."""
        return dataclasses.replace(verdict, searched=False)
