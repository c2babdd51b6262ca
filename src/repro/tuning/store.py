"""Persistent tuning verdicts — cross-run amortisation of the *search*.

The :class:`~repro.runtime.cache.ScheduleCache` amortises one
inspection; :class:`TuningStore` amortises a whole strategy search
(dozens of inspections and simulations).  It is keyed the same way —
on the graph's :meth:`structure digest
<repro.core.dependence.DependenceGraph.digest>` — extended with the
:func:`space fingerprint <repro.tuning.space.space_fingerprint>` of
the candidate set and the arbitration mode (sim-only vs
real-backend-timed), so a verdict is invalidated exactly when the
strategy space changes (a new registration, a shadowed name, a bumped
generation) or a differently-arbitrated verdict is requested.  The
workload's :meth:`feature signature
<repro.tuning.features.WorkloadFeatures.signature>` travels *inside*
the verdict rather than in the key: the exact structure digest already
subsumes it, and keeping it out of the key means a warm
``strategy="auto"`` compile answers without recomputing wavefronts —
no sweep, no search, just a hash and a lookup.

Persistence is a JSON file per key with the same crash discipline as
the schedule cache: write-then-rename stores, and corrupt or truncated
entries read as misses — the search re-runs and overwrites the bad
entry (self-healing, never a crash).
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
    store_kind = "tuning"

    def __init__(self, maxsize: int = 64, persist_dir=None):
        super().__init__(maxsize, persist_dir)

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(dep, nproc: int, costs, space_digest: str,
                mode: str = "sim") -> str:
        """Digest of (structure, machine, strategy space, arbitration mode).

        ``mode`` distinguishes sim-only searches (``"sim"``) from
        searches whose finalists a real backend arbitrated
        (``"exec:<backend>"``) — the two may legitimately disagree, so
        they never share a verdict.
        """
        return structure_digest(params=(
            "tuning", dep.digest(), int(nproc), dataclasses.astuple(costs),
            space_digest, mode, _FORMAT))

    # ------------------------------------------------------------------
    def get(self, key: str) -> TuningVerdict | None:
        """Fetch a verdict, or ``None`` when a search is needed.

        Store-served verdicts come back with ``searched=False`` so
        callers (and tests) can tell a reuse from a fresh search.
        """
        verdict = self._entries.get(key)
        if verdict is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return dataclasses.replace(verdict, searched=False)
        if self.persist_dir is not None:
            verdict = self._load_disk(key)
            if verdict is not None:
                self.stats.disk_hits += 1
                self._install(key, verdict)
                return dataclasses.replace(verdict, searched=False)
        self.stats.misses += 1
        return None

    def put(self, key: str, verdict: TuningVerdict, *, faults=None) -> None:
        """Store one verdict (write-through when persisting); ``faults``
        is the calling session's fault plan, as in
        :meth:`ScheduleCache.put <repro.runtime.cache.ScheduleCache.put>`."""
        self._install(key, verdict)
        if self.persist_dir is not None:
            self._store_disk(key, verdict, faults)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.persist_dir / f"{key}.tuning.json"

    def _store_disk(self, key: str, verdict: TuningVerdict, faults) -> None:
        path = self._path(key)
        payload = {"format": _FORMAT, "verdict": verdict.to_dict()}
        with self._locked():
            if self._store_fault(faults, [(path, 256)]):
                return  # simulated crash mid-write; reads self-heal
            # Write-then-rename with a process-unique temp name: a
            # crash mid-store never leaves a truncated entry, and two
            # racing writers never share a temp file.
            tmp = self._tmp_path(path, ".json")
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
            self._index_bump(key)
        self.stats.disk_stores += 1

    def _load_disk(self, key: str) -> TuningVerdict | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("format") != _FORMAT:
                return None
            return TuningVerdict.from_dict(payload["verdict"])
        except Exception:
            # Corrupt / truncated / foreign file: a miss, not a crash —
            # the re-search overwrites the bad entry.
            self.stats.disk_heals += 1
            return None

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TuningStore(entries={len(self)}/{self.maxsize}, "
                f"hits={self.stats.hits}, disk_hits={self.stats.disk_hits}, "
                f"misses={self.stats.misses})")
