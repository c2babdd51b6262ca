"""Structure-keyed schedule cache — cross-run inspector amortisation.

The paper's economic argument (Section 5.2, Table 5) is that the
inspector pays off only when its cost is amortised over many executions
of the same loop structure: PCGPAK performs one topological sort and
reuses it for every Krylov iteration.  :class:`ScheduleCache` makes
that amortisation first-class and extends it across *call sites* and,
optionally, across *program runs*:

* in memory — an LRU map from a structural fingerprint of
  ``(dependence graph, nproc, scheduler, assignment, balance, cost
  model)`` to the full :class:`~repro.core.inspector.InspectionResult`,
  so a repeated :meth:`Runtime.compile <repro.runtime.Runtime.compile>`
  of identical structure skips the wavefront sweep and the scheduling.
  The Table 5 price is no part of either compile: the entry's
  ``costs`` are computed on their first read and memoised on the
  cached entry, so they are paid at most once per entry, and only when
  something reads them;
* on disk — optional persistence, one uncompressed ``.npz`` per entry
  in the :func:`~repro.core.schedule.save_schedule_npz` layout (the
  PARTI-style "save the communication schedule" pattern).  A put never
  prices: it writes the price if something already paid it, and the
  pricing inputs otherwise, so a warm start prices on first read
  exactly as a cold inspection does.  A disk hit is one read, no stat
  (an absent entry is a plain miss); a malformed entry heals as a miss.

The fingerprint is the graph's memoized :meth:`structure digest
<repro.core.dependence.DependenceGraph.digest>` plus the strategy
parameters, so two structurally identical graphs hit the same entry no
matter which arrays they were built from.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..errors import ValidationError
from ..util.digest import structure_digest
from ..util.locking import FileLock

__all__ = ["ScheduleCache", "CacheStats", "LruStoreBase"]

#: Deterministic junk written by an injected ``store`` fault — short
#: enough to read as a truncated write, never a valid npz/JSON prefix.
_CORRUPT_BYTES = b"\x00repro-partial-write\x00"


@dataclass
class CacheStats:
    """Counters of one cache's lifetime (amortisation evidence)."""

    #: In-memory lookups that found a ready inspection.
    hits: int = 0
    #: Lookups satisfied by neither memory nor disk — the only ones
    #: that force a cold inspection.
    misses: int = 0
    #: Entries dropped by the LRU bound.
    evictions: int = 0
    #: In-memory misses satisfied from the persistence directory.
    #: These are *not* counted in ``misses``: no re-inspection happened.
    disk_hits: int = 0
    #: Inspections written through to the persistence directory.
    disk_stores: int = 0
    #: Corrupt/foreign disk entries quarantined as misses (the store's
    #: self-healing path: the cold path overwrites the bad entry).
    disk_heals: int = 0
    #: Contended acquisitions of the persistence-directory lock
    #: (another process was mid-write), and the seconds spent waiting.
    lock_waits: int = 0
    lock_wait_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that skipped a cold inspection.

        Disk-satisfied lookups count as hits — the amortisation the
        paper's Table 5 argues for is about avoided inspections,
        wherever the schedule came from.
        """
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0

    @property
    def memory_hit_rate(self) -> float:
        """Fraction of lookups served without touching the disk tier."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        # Built positionally (attributes are set in field order): every
        # observed store call and every RunReport takes one, and
        # ``dataclasses.replace`` costs four times as much.
        return CacheStats(*vars(self).values())


class LruStoreBase:
    """The one store discipline behind the verdict and schedule stores:
    a bounded LRU map with :class:`CacheStats` accounting over an
    optional persistence directory.  :meth:`get` (memory → disk →
    miss), :meth:`put` and the locked, crash-safe disk write live here,
    so a fix to one store cannot be forgotten in the other; a subclass
    supplies ``key_for``, the ``suffix`` of the one file an entry is,
    and three format hooks — :meth:`_dump` (how to write one),
    :meth:`_load` (how to read one back) and :meth:`_served` (what a
    hit hands out).

    A store holds no session state: sessions sharing one go through
    :meth:`session_get` / :meth:`session_put`, which pass the session's
    fault plan with the write and :meth:`mirror` its own share of the
    counters onto its observer.
    """

    #: Used in validation error messages ("cache", "tuning store", …).
    kind = "cache"
    #: Dotted prefix of the metrics :meth:`mirror` writes
    #: (``schedule_cache.hits``, ``tuning_store.misses``, …).
    metric_prefix = "cache"
    #: Which ``store`` faults target this store ("schedule"/"tuning").
    store_kind = "schedule"
    #: An entry is the file ``<key><suffix>``; an injected partial
    #: write leaves about ``junk_size`` junk bytes there.
    suffix = ".npz"
    junk_size = 4096

    def __init__(self, maxsize: int, persist_dir=None):
        if maxsize <= 0:
            raise ValidationError(f"{self.kind} maxsize must be positive")
        self.maxsize = int(maxsize)
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.stats = CacheStats()
        #: Process-unique temp-name sequence: two writers racing on the
        #: same key must never share a temp file.
        self._tmp_seq = itertools.count()

    def mirror(self, observer, since: CacheStats) -> None:
        """Add what :attr:`stats` counted since the ``since`` snapshot
        to ``observer``'s ``<metric_prefix>.*`` metrics.

        :meth:`session_get` / :meth:`session_put` bracket an observed
        session's own calls with ``stats.snapshot()`` and this, so a
        shared store's traffic lands on the session that caused it; an
        un-observed session takes no snapshot at all.
        """
        for (name, before), now in zip(vars(since).items(),
                                       vars(self.stats).values()):
            if now != before:
                record = (observer.observe if name == "lock_wait_seconds"
                          else observer.inc)
                record(f"{self.metric_prefix}.{name}", now - before)

    def session_get(self, key: str, dep=None, *, observer):
        """:meth:`get` on behalf of one session: what the lookup counted
        is mirrored onto its observer (``None`` takes no snapshot)."""
        if observer is None:
            return self.get(key, dep)
        since = self.stats.snapshot()
        entry = self.get(key, dep)
        self.mirror(observer, since)
        return entry

    def session_put(self, key: str, value, *, faults, observer) -> None:
        """:meth:`put` on behalf of one session: under its fault plan,
        and with what the call counted — here and on the plan, which
        may be shared like the store — mirrored onto its observer.
        Either may be ``None``."""
        if observer is None:
            self.put(key, value, faults=faults)
            return
        since = self.stats.snapshot()
        fired = len(faults.fired) if faults is not None else 0
        self.put(key, value, faults=faults)
        self.mirror(observer, since)
        if faults is not None:
            faults.mirror(observer, fired)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str, dep=None):
        """Fetch an entry, or ``None`` on a full miss.

        ``dep`` is the graph a disk entry is resurrected against, for
        stores whose persisted form does not carry it (a persisted
        schedule has the wavefronts but not the graph itself).
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._served(entry)
        if self.persist_dir is not None:
            entry = self._load_disk(key, dep)
            if entry is not None:
                # A disk-served lookup is a hit, not a miss: the caller
                # skips the cold path exactly as on a memory hit.
                self.stats.disk_hits += 1
                self._install(key, entry)
                return self._served(entry)
        self.stats.misses += 1
        return None

    def put(self, key: str, value, *, faults=None) -> None:
        """Store one entry (write-through when persisting).

        ``faults`` is the calling session's
        :class:`~repro.resilience.FaultPlan`, consulted on this disk
        write only (``None`` keeps it fault-free).
        """
        self._install(key, value)
        if self.persist_dir is not None:
            self._store_disk(key, value, faults)

    # ------------------------------------------------------------------
    # Format hooks
    # ------------------------------------------------------------------
    def _dump(self, value, tmp: Path) -> None:
        """Write one entry to ``tmp``."""
        raise NotImplementedError

    def _load(self, path: Path, dep):
        """The entry persisted at ``path``, or ``None`` for a stale or
        foreign-format one; :class:`FileNotFoundError` means there is
        none, any other exception marks it corrupt."""
        raise NotImplementedError

    def _served(self, entry):
        """What a hit hands the caller."""
        return entry

    # ------------------------------------------------------------------
    # Multi-writer persistence discipline
    # ------------------------------------------------------------------
    def _store_disk(self, key: str, value, faults) -> None:
        path = self.persist_dir / f"{key}{self.suffix}"
        # An advisory lock over the directory, held across this one
        # store + index update.  Readers stay lock-free: every write
        # lands by atomic rename, so a concurrent read sees the old
        # entry or the new one, never a torn one.
        with FileLock(self.persist_dir / ".lock") as lock:
            if lock.waited > 0.0005:        # another writer held it
                self.stats.lock_waits += 1
                self.stats.lock_wait_seconds += lock.waited
            if self._store_fault(faults, path):
                return  # simulated crash mid-write; reads self-heal
            # Write-then-rename, so a crash mid-store never leaves a
            # truncated entry for a future run to trip on.
            tmp = self._tmp_path(path)
            self._dump(value, tmp)
            tmp.replace(path)
            self._index_bump(key)
        self.stats.disk_stores += 1

    def _load_disk(self, key: str, dep):
        try:
            return self._load(self.persist_dir / f"{key}{self.suffix}", dep)
        except FileNotFoundError:
            return None     # no entry: a plain miss, found without a stat
        except Exception:
            # A corrupt or foreign file is a miss, not a crash — the
            # cold path recomputes and overwrites the bad entry.
            self.stats.disk_heals += 1
            return None

    def _tmp_path(self, final: Path) -> Path:
        """A collision-free temp neighbour of ``final``: same dir, so
        the replace stays atomic on every filesystem; process-unique,
        so two writers racing on one key never share one; same suffix,
        because numpy appends ``.npz`` to a name that lacks it."""
        return final.with_name(f"{final.name}.{os.getpid()}."
                               f"{next(self._tmp_seq)}.tmp{final.suffix}")

    def _store_fault(self, faults, path: Path) -> bool:
        """Fire the writing session's armed partial write, if any.

        Simulates a crash *mid-write before the rename discipline
        existed*: junk bytes land directly at the final path.  A later
        read heals them as misses.  Returns True when a fault consumed
        this store (the caller skips the real write).
        """
        if faults is None:
            return False
        spec = faults.store_fault(self.store_kind)
        if spec is None:
            return False
        path.write_bytes(
            _CORRUPT_BYTES[: len(_CORRUPT_BYTES) // 2] if spec.mode == "truncate"
            else _CORRUPT_BYTES * max(1, self.junk_size // len(_CORRUPT_BYTES)))
        return True

    def _index_path(self) -> Path:
        return self.persist_dir / "index.json"

    def _index_bump(self, key: str) -> None:
        """Read-modify-write the on-disk store index (lock held).

        The index records per-key store counts and a global sequence —
        the lost-update detector for the multi-writer stress tests: N
        racing writers must land exactly N increments.
        """
        path = self._index_path()
        try:
            index = json.loads(path.read_text()) if path.exists() else {}
            if not isinstance(index, dict):
                raise ValueError("index is not an object")
        except Exception:
            # A corrupt index heals like any other entry: restart it.
            index = {"_seq": 0}
            self.stats.disk_heals += 1
        index["_seq"] = int(index.get("_seq", 0)) + 1
        entry = index.get(key)
        if not isinstance(entry, dict):
            entry = {"stores": 0}
        entry["stores"] = int(entry.get("stores", 0)) + 1
        index[key] = entry
        tmp = self._tmp_path(path)
        tmp.write_text(json.dumps(index))
        tmp.replace(path)

    def disk_index(self) -> dict:
        """The on-disk store index (empty when absent or corrupt)."""
        if self.persist_dir is None:
            return {}
        try:
            index = json.loads(self._index_path().read_text())
            return index if isinstance(index, dict) else {}
        except Exception:
            return {}

    def _install(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory entries (disk entries are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(entries={len(self)}/{self.maxsize}, "
                f"hits={self.stats.hits}, disk_hits={self.stats.disk_hits}, "
                f"misses={self.stats.misses})")


class ScheduleCache(LruStoreBase):
    """LRU cache of :class:`~repro.core.inspector.InspectionResult`.

    Parameters
    ----------
    maxsize:
        In-memory entry bound; least-recently-used entries are evicted
        beyond it.
    persist_dir:
        Optional directory for ``.npz`` write-through persistence.
        Misses consult it before re-inspecting, and every stored entry
        is written to it, so the amortisation survives process restarts.
    """

    metric_prefix = "schedule_cache"

    def __init__(self, maxsize: int = 128, persist_dir=None):
        super().__init__(maxsize, persist_dir)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def key_for(dep, nproc: int, strategy: str, assignment: str,
                balance: str, costs,
                versions: tuple = ()) -> str:
        """Structural fingerprint of one compile request.

        ``versions`` carries the registry fingerprints of the resolved
        strategies (see :meth:`Registry.fingerprint
        <repro.runtime.registry.Registry.fingerprint>`), so shadowing
        a registered name — in this process or a different run sharing
        a persistence directory — never serves schedules another
        implementation built.
        """
        return structure_digest(params=(
            "schedule", dep.digest, int(nproc), strategy, assignment,
            balance, costs.astuple(), tuple(versions)))

    # ------------------------------------------------------------------
    # Format: one ``<key>.npz`` in the save_schedule_npz layout, whose
    # header adds the scheduler, the cost model and the price (or null,
    # with the initial assignment in the payload to price from)
    # ------------------------------------------------------------------
    def _dump(self, inspection, tmp: Path) -> None:
        from ..core.schedule import save_schedule_npz  # deferred: import cycle

        # The price if something already paid it, else what pays it later.
        priced = vars(inspection).get("costs")
        save_schedule_npz(
            tmp, inspection.schedule,
            {"scheduler": inspection.strategy,
             "machine_costs": vars(inspection.machine_costs),
             "costs": None if priced is None else vars(priced)},
            **({} if priced is not None else {"assignment": inspection.owner}))

    def _load(self, path: Path, dep):
        from ..core.inspector import InspectionResult, InspectorCosts
        from ..core.schedule import read_schedule_npz  # deferred: import cycle
        from ..machine import MachineCosts

        if dep is None:
            return None
        schedule, meta, arrays = read_schedule_npz(path)
        if schedule.n != dep.n:
            return None  # stale entry for a different structure
        priced = meta["costs"]
        return InspectionResult(
            dep, schedule.wavefronts, schedule, meta["scheduler"],
            None if priced is None else InspectorCosts(**priced),
            nproc=schedule.nproc,
            owner=None if priced is not None else arrays["assignment"],
            machine_costs=MachineCosts(**meta["machine_costs"]))
