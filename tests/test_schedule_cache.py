"""Tests for the :class:`~repro.runtime.ScheduleCache`.

Hit/miss accounting, LRU eviction, cross-run ``.npz`` persistence, and
the amortisation counters surfaced through ``RunReport``.
"""

import ast
import dataclasses
import hashlib
import io
import json
import tempfile
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LoopProgram, TuningStore
from repro.core.dependence import DependenceGraph
from repro.core.executor import SerialExecutor, SimpleLoopKernel
from repro.core.schedule import (load_schedule_npz, read_schedule_npz,
                                 save_schedule_npz)
from repro.errors import ScheduleError, ValidationError
from repro.machine.costs import MULTIMAX_320, MachineCosts
from repro.runtime import Runtime, ScheduleCache
from repro.runtime.cache import CacheStats
from repro.speculate import AccessLog
from repro.speculate.loop import speculation_key
from repro.tuning.measure import prefix_graph
from repro.util.digest import structure_digest
from repro.workload.generator import generate_workload
from strategies import loop_programs, program_of


@pytest.fixture()
def case():
    rng = np.random.default_rng(99)
    n = 80
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = rng.integers(0, n, size=n)
    return x0, b, ia


def graph_of(ia):
    return DependenceGraph.from_indirection(np.asarray(ia))


def keys_of(ia, *, nproc=4, strategy="local", assignment="wrapped",
            balance="wrapped", costs=MULTIMAX_320, versions=(),
            space="space-a", mode="sim") -> dict:
    """The structure digest of ``ia``'s graph and the three store keys
    built on it, from freshly built graph and log objects."""
    dep = graph_of(ia)
    return {
        "digest": dep.digest,
        "schedule": ScheduleCache.key_for(dep, nproc, strategy, assignment,
                                          balance, costs, versions=versions),
        "tuning": TuningStore.key_for(dep, nproc, costs, space, mode=mode),
        "speculation": speculation_key(AccessLog.from_source(dep), nproc,
                                       costs),
    }


class TestKeys:
    """Equal structure ⇒ equal key; any edit ⇒ a new one — for the
    digest and all three key functions."""

    def test_keys_are_pinned(self):
        # Persisted stores are found by these digests; every part of a
        # key — the cost model's field tuple included — must hash as it
        # always has.
        ia = np.random.default_rng(1989).integers(0, 2000, size=2000)
        keys = keys_of(ia, strategy="self", space="abc")
        assert keys["schedule"] == "094cf565bcd050d47c6136c4bf1b78305fde2c1e"
        assert keys["tuning"] == "ca178e1b29451b7209665d2780f57f8f5f631475"
        assert keys["speculation"] == \
            "e483efedd2c5e37ef3500b759dacb516c861079e"
        # ... and the layout the digest documents: the first 40 hex
        # digits of a SHA-256 over each array's "<count>:" and int64
        # bytes, then repr(params).
        def sha(*parts):
            return hashlib.sha256(b"".join(parts)).hexdigest()[:40]

        dep = graph_of(ia)
        digest = sha(*(b"%d:" % a.size + a.astype(np.int64).tobytes()
                       for a in (dep.indptr, dep.indices)),
                     repr((dep.n,)).encode())
        assert keys["digest"] == digest
        assert keys["schedule"] == sha(repr((
            "schedule", digest, 4, "self", "wrapped", "wrapped",
            MULTIMAX_320.astuple(), ())).encode())
        # The keys hash the cost model's shallow field tuple, which
        # reads as the deep-copying dataclasses.astuple always did.
        for costs in (MULTIMAX_320, MachineCosts(t_work_base=1)):
            assert repr(costs.astuple()) == repr(dataclasses.astuple(costs))

    def test_builtin_fingerprints_are_pinned(self):
        # Every schedule key and (through the space fingerprint) every
        # tuning key carries these; a moved definition line renames a
        # persisted cache_dir / tuning_dir entry without failing
        # anything else.  The "#v" generation is 1 in a fresh process;
        # other tests re-register built-ins to bump it.
        from repro.runtime.registry import (executor_registry,
                                            partitioner_registry,
                                            scheduler_registry)

        pinned = {
            executor_registry: {
                "doacross": "repro.core.doacross._build_doacross@27",
                "preschedule":
                    "repro.core.prescheduled._build_prescheduled@26",
                "self": "repro.core.self_executing._build_self_executing@24",
                "speculative":
                    "repro.speculate.executor._build_speculative@313"},
            scheduler_registry: {
                "global": "repro.core.schedule._global_adapter@543",
                "identity": "repro.core.schedule._identity_adapter@569",
                "local": "repro.core.schedule._local_adapter@564"},
            partitioner_registry: {
                name: f"repro.core.partition.{name}_partition@{line}"
                for name, line in (("blocked", 67), ("chunked", 85),
                                   ("factored", 144), ("guided", 119),
                                   ("trapezoid", 171), ("wrapped", 57))},
        }
        for registry, names in pinned.items():
            for name, where in names.items():
                assert registry.fingerprint(name).rsplit("#v", 1)[0] \
                    == where, name

    def test_same_structure_same_key(self, case):
        _, _, ia = case
        base = keys_of(ia)
        assert keys_of(ia.copy()) == base
        assert keys_of(ia.astype(np.int32)) == base
        assert {len(key) for key in base.values()} == {40}
        assert len(set(base.values())) == 4

    @pytest.mark.parametrize("variant", [
        (dict(nproc=8), {"schedule", "tuning", "speculation"}),
        (dict(strategy="global"), {"schedule"}),
        (dict(assignment="blocked"), {"schedule"}),
        (dict(balance="greedy"), {"schedule"}),
        (dict(costs=MachineCosts(t_work_base=1.0)),
         {"schedule", "tuning", "speculation"}),
        (dict(versions=(("local", 2), ("wrapped", 1))), {"schedule"}),
        (dict(space="space-b"), {"tuning"}),
        (dict(mode="sim:amort=4"), {"tuning"}),
    ])
    def test_any_parameter_changes_the_key(self, case, variant):
        _, _, ia = case
        edit, changed = variant
        base, varied = keys_of(ia), keys_of(ia, **edit)
        assert {k for k in base if base[k] != varied[k]} == changed

    def test_different_structure_different_key(self, case):
        _, _, ia = case
        ia2 = ia.copy()
        ia2[-1] = 0 if ia[-1] else 1     # one edge moved
        base, edited = keys_of(ia), keys_of(ia2)
        assert all(base[k] != edited[k] for k in base)

    def test_a_prefix_is_another_structure(self, case):
        _, _, ia = case
        dep = graph_of(ia)
        assert prefix_graph(dep, dep.n // 2).digest != dep.digest
        assert prefix_graph(dep, dep.n) is dep

    def test_auto_compile_digests_each_graph_once(self, monkeypatch):
        # One graph per pruning rung plus the full graph, however many
        # candidates, stores and stages ask for a key.
        from repro.core import dependence

        digested = []

        def counting(arrays=(), params=()):
            digested.append(params)
            return structure_digest(arrays, params)

        monkeypatch.setattr(dependence, "structure_digest", counting)
        matrix = generate_workload("65-4-3", seed=5).matrix
        prog = LoopProgram.from_csr(matrix, np.ones(matrix.nrows))
        rt = Runtime(nproc=8)
        loop = rt.compile(prog, strategy="auto")
        assert loop.verdict.searched and loop.verdict.sims > 30
        rungs = rt._tuner._rung_sizes(matrix.nrows)
        assert len(rungs) == 2
        assert sorted(n for (n,) in digested) == rungs + [matrix.nrows]

    @staticmethod
    def spec_log(ia, kind):
        """An access log of ``ia``'s Figure 3 loop, built three ways."""
        if kind == "program":
            return AccessLog.from_source(LoopProgram.from_indirection(ia))
        log = AccessLog.from_source(graph_of(ia))
        if kind == "graph":
            return log
        return AccessLog(n=log.n, n_elements=log.n_elements,      # by hand
                         read_it=log.read_it.copy(), read_el=log.read_el,
                         write_it=log.write_it, write_el=log.write_el)

    @pytest.mark.parametrize("kind", ["program", "graph", "hand-built"])
    def test_speculation_key_follows_the_structure(self, case, kind):
        _, _, ia = case
        key = speculation_key(self.spec_log(ia, kind), 4, MULTIMAX_320)
        assert len(key) == 40
        assert speculation_key(self.spec_log(ia.copy(), kind), 4,
                               MULTIMAX_320) == key
        moved = ia.copy()
        moved[-1] = 0 if ia[-1] else 1
        others = [
            speculation_key(self.spec_log(moved, kind), 4, MULTIMAX_320),
            speculation_key(self.spec_log(ia, kind), 8, MULTIMAX_320),
            speculation_key(self.spec_log(ia, kind), 4,
                            MachineCosts(t_check=9.0)),
        ]
        assert len({key, *others}) == 4

    def test_a_speculative_compile_and_call_digest_nothing(
            self, case, monkeypatch):
        # Nothing keys a speculative compile: no store is consulted and
        # no counter is bumped, so neither the compile nor its call
        # hashes the index — every module that imports the digest spied.
        from repro.core import dependence, schedule
        from repro.program import binding
        from repro.runtime import cache
        from repro.speculate import loop as spec_loop, shadow
        from repro.tuning import space, store, tuner

        x0, b, ia = case
        digested = []

        def counting(arrays=(), params=()):
            digested.extend(np.asarray(a).size for a in arrays)
            return structure_digest(arrays, params)

        for module in (dependence, schedule, binding, cache, spec_loop,
                       shadow, space, store, tuner):
            monkeypatch.setattr(module, "structure_digest", counting)
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b),
                          strategy="speculative")
        loop()
        assert digested == []
        assert rt.cache_stats.lookups == 0

    def test_program_structure_hash_layout_is_pinned(self, case):
        # A Figure 3 program's hash: SHA-256 over ia's "<count>:" and
        # int64 bytes, then repr of the shape — n, and per access its
        # kind, array, identity flag and width.  No row pointer.
        _, _, ia = case
        shape = (ia.size, ("r", "x", False, 1), ("r", "b", True, 1),
                 ("w", "x", True, 1))
        h = hashlib.sha256(b"%d:" % ia.size + ia.astype(np.int64).tobytes()
                           + repr(shape).encode())
        for index in (ia, ia.astype(np.int32)):
            prog = LoopProgram.from_indirection(index)
            assert prog.structure_hash() == h.hexdigest()[:40]


class TestHitMiss:
    def test_second_compile_hits(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4)
        first = rt.compile(ia)
        second = rt.compile(ia.copy())  # same structure, new arrays
        assert not first.cache_hit
        assert second.cache_hit
        assert second.inspection is first.inspection
        assert rt.cache_stats.hits == 1
        assert rt.cache_stats.misses == 1

    def test_run_report_carries_the_counters(self, case):
        x0, b, ia = case
        rt = Runtime(nproc=4)
        rt.compile(ia)
        rep = rt.compile(ia)(SimpleLoopKernel(x0, b, ia))
        assert rep.cache_hit
        assert (rep.cache_stats.hits, rep.cache_stats.misses) == (1, 1)

    def test_different_strategies_do_not_collide(self, case):
        x0, b, ia = case
        oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))
        rt = Runtime(nproc=4)
        for scheduler in ("local", "global"):
            for assignment in ("wrapped", "blocked"):
                loop = rt.compile(ia, scheduler=scheduler,
                                  assignment=assignment)
                assert not loop.cache_hit
                rep = loop(SimpleLoopKernel(x0, b, ia))
                np.testing.assert_allclose(rep.x, oracle)
        assert rt.cache_stats.misses == 4
        assert rt.cache_stats.hits == 0

    def test_cache_disabled(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4, cache=None)
        assert rt.cache_stats is None
        assert not rt.compile(ia).cache_hit
        assert not rt.compile(ia).cache_hit

    def test_cached_schedule_executes_correctly(self, case):
        x0, b, ia = case
        oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))
        rt = Runtime(nproc=4)
        rt.compile(ia)
        rep = rt.compile(ia)(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_allclose(rep.x, oracle)


class TestStats:
    """Hit-rate accounting across the memory and disk tiers."""

    def test_disk_hits_count_toward_hit_rate(self, case, tmp_path):
        _, _, ia = case
        rt1 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        rt1.compile(ia)  # cold miss + disk store
        assert rt1.cache_stats.misses == 1
        assert rt1.cache_stats.hit_rate == 0.0

        rt2 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        rt2.compile(ia)            # disk hit
        rt2.compile(ia)            # memory hit
        stats = rt2.cache_stats
        assert (stats.hits, stats.disk_hits, stats.misses) == (1, 1, 0)
        assert stats.lookups == 2
        assert stats.hit_rate == 1.0
        assert stats.memory_hit_rate == 0.5

    def test_memory_only_rates_agree(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4)
        rt.compile(ia)
        rt.compile(ia)
        stats = rt.cache_stats
        assert (stats.hits, stats.disk_hits, stats.misses) == (1, 0, 1)
        assert stats.hit_rate == 0.5
        assert stats.memory_hit_rate == 0.5

    def test_true_miss_still_counts(self, case, tmp_path):
        _, _, ia = case
        rt = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        rt.compile(ia)
        assert rt.cache_stats.misses == 1
        assert rt.cache_stats.disk_hits == 0


class TestBalanceKeyNormalization:
    """Satellite bug: ``balance`` polluted the key for schedulers that
    ignore it, forcing cold re-inspections of identical structure."""

    def test_local_compiles_share_entry_across_balance(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4)
        first = rt.compile(ia, scheduler="local", balance="greedy")
        second = rt.compile(ia, scheduler="local", balance="wrapped")
        assert not first.cache_hit
        assert second.cache_hit
        assert second.inspection is first.inspection

    def test_identity_compiles_share_entry_across_balance(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4)
        rt.compile(ia, scheduler="identity", balance="greedy")
        assert rt.compile(ia, scheduler="identity", balance="wrapped").cache_hit

    def test_global_still_keys_on_balance(self, case):
        _, _, ia = case
        rt = Runtime(nproc=4)
        first = rt.compile(ia, scheduler="global", balance="greedy")
        second = rt.compile(ia, scheduler="global", balance="wrapped")
        assert not second.cache_hit
        assert first.schedule.strategy == "global/greedy"
        assert second.schedule.strategy == "global/wrapped"
        # ... and the default balance is "wrapped".
        assert rt.compile(ia, scheduler="global").inspection is second.inspection

    def test_custom_scheduler_conservatively_keys_on_balance(self, case):
        _, _, ia = case
        from repro.core.schedule import local_schedule
        from repro.runtime import register_scheduler, scheduler_registry

        @register_scheduler("test-balance-blind")
        def blind(wf, owner, nproc, *, balance="wrapped", weights=None):
            return local_schedule(wf, owner, nproc)

        try:
            rt = Runtime(nproc=4)
            rt.compile(ia, scheduler="test-balance-blind", balance="a")
            # No consumes_balance metadata: assume it matters.
            assert not rt.compile(ia, scheduler="test-balance-blind",
                                  balance="b").cache_hit
        finally:
            scheduler_registry.unregister("test-balance-blind")


class TestEviction:
    def test_lru_evicts_oldest(self, case):
        _, _, ia = case
        cache = ScheduleCache(maxsize=2)
        rt = Runtime(nproc=4, cache=cache)
        rt.compile(ia, scheduler="local")    # A
        rt.compile(ia, scheduler="global")   # B
        rt.compile(ia, assignment="blocked")  # C evicts A
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert not rt.compile(ia, scheduler="local").cache_hit   # A gone
        # B was evicted by A's re-insert; C is still resident.
        assert rt.compile(ia, assignment="blocked").cache_hit

    def test_hit_refreshes_recency(self, case):
        _, _, ia = case
        cache = ScheduleCache(maxsize=2)
        rt = Runtime(nproc=4, cache=cache)
        rt.compile(ia, scheduler="local")    # A
        rt.compile(ia, scheduler="global")   # B
        rt.compile(ia, scheduler="local")    # touch A
        rt.compile(ia, assignment="blocked")  # C evicts B, not A
        assert rt.compile(ia, scheduler="local").cache_hit

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValidationError):
            ScheduleCache(maxsize=0)


class TestPersistence:
    def test_npz_roundtrip_across_sessions(self, case, tmp_path):
        x0, b, ia = case
        oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))

        rt1 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        loop1 = rt1.compile(ia, scheduler="global")
        assert rt1.cache_stats.disk_stores == 1
        assert list(tmp_path.glob("*.npz"))

        # A fresh session (cold memory) warm-starts from disk.
        rt2 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        loop2 = rt2.compile(ia.copy(), scheduler="global")
        assert loop2.cache_hit
        assert rt2.cache_stats.disk_hits == 1
        # A disk-served lookup skipped the cold inspection, so it is a
        # hit — not a miss (regression: it used to be double-counted).
        assert rt2.cache_stats.misses == 0
        assert rt2.cache_stats.hit_rate == 1.0

        # The resurrected schedule is the same object, field by field.
        s1, s2 = loop1.schedule, loop2.schedule
        assert s1.nproc == s2.nproc
        assert s1.strategy == s2.strategy
        assert np.array_equal(s1.owner, s2.owner)
        assert np.array_equal(s1.wavefronts, s2.wavefronts)
        for l1, l2 in zip(s1.local_order, s2.local_order):
            assert np.array_equal(l1, l2)
        # And the priced inspection costs survived the roundtrip.
        assert loop1.inspection.costs == loop2.inspection.costs

        rep = loop2(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_allclose(rep.x, oracle)

    def test_disk_entries_are_structure_checked(self, case, tmp_path):
        _, _, ia = case
        cache = ScheduleCache(maxsize=4, persist_dir=tmp_path)
        rt = Runtime(nproc=4, cache=cache)
        loop = rt.compile(ia)
        key = ScheduleCache.key_for(loop.dep, 4, "local", "wrapped",
                                    "wrapped", rt.costs)
        # Simulate a (hash-colliding / stale) entry for another n.
        other = DependenceGraph.from_indirection(np.array([0, 0, 1]))
        assert cache._load_disk(key, other) is None

    def test_corrupt_disk_entry_is_a_miss_not_a_crash(self, case, tmp_path):
        _, _, ia = case
        rt1 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        rt1.compile(ia)
        for npz in tmp_path.glob("*.npz"):
            npz.write_text("garbage")  # truncated / corrupted store
        rt2 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        loop = rt2.compile(ia)  # must fall back to a cold inspection
        assert not loop.cache_hit
        assert rt2.cache_stats.disk_hits == 0
        # The cold path overwrote the bad entry; next session hits.
        rt3 = Runtime(nproc=4, cache=8, cache_dir=tmp_path)
        assert rt3.compile(ia).cache_hit

    def test_clear_keeps_disk(self, case, tmp_path):
        _, _, ia = case
        cache = ScheduleCache(maxsize=8, persist_dir=tmp_path)
        rt = Runtime(nproc=4, cache=cache)
        rt.compile(ia)
        cache.clear()
        assert len(cache) == 0
        assert rt.compile(ia).cache_hit          # served from disk
        assert cache.stats.disk_hits == 1


class TestSharedStoreSessions:
    """Sessions sharing one store object: each one's metrics are the
    counter deltas of its own calls, whoever else observes."""

    @staticmethod
    def metrics(rt, prefix):
        return {name.split(".", 1)[1]: metric["value"]
                for name, metric in rt.observer.metrics.as_dict().items()
                if name.startswith(prefix + ".")}

    def test_schedule_cache_metrics_follow_the_caller(self, case, tmp_path):
        _, _, ia = case
        cache = ScheduleCache(8, persist_dir=tmp_path)
        a = Runtime(4, cache=cache, observe=True)
        b = Runtime(4, cache=cache)
        b.compile(ia)                     # b's miss and store, unobserved
        assert self.metrics(a, "schedule_cache") == {}
        a.compile(ia)
        c = Runtime(4, cache=cache, observe=True)   # a later adopter
        c.compile(ia)
        a.compile(ia, scheduler="global")
        assert self.metrics(a, "schedule_cache") == {
            "hits": 1, "misses": 1, "disk_stores": 1}
        assert self.metrics(c, "schedule_cache") == {"hits": 1}
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.disk_stores) == (2, 2, 2)

    def test_tuning_store_metrics_follow_the_caller(self, case):
        _, _, ia = case
        store = TuningStore(8)
        a = Runtime(4, tuning=store, observe=True)
        b = Runtime(4, tuning=store)
        b.compile(ia, strategy="auto")
        assert self.metrics(a, "tuning_store") == {}
        assert a.compile(ia, strategy="auto").verdict.searched is False
        c = Runtime(4, tuning=store, observe=True)
        c.compile(ia, strategy="auto")
        assert self.metrics(a, "tuning_store") == {"hits": 1}
        assert self.metrics(c, "tuning_store") == {"hits": 1}
        assert (store.stats.hits, store.stats.misses) == (2, 1)

    def test_an_unobserved_session_takes_no_snapshot(self, case, monkeypatch):
        _, _, ia = case
        monkeypatch.setattr(CacheStats, "snapshot",
                            lambda self: pytest.fail("snapshot taken"))
        rt = Runtime(4)
        for options in ({}, {"strategy": "auto"}, {"strategy": "speculative"}):
            rt.compile(ia, **options)      # cold: get, put
            rt.compile(ia, **options)      # warm: get

    def test_a_sole_session_mirrors_every_counter(self, case, tmp_path):
        _, _, ia = case
        rt = Runtime(4, cache=1, cache_dir=tmp_path, observe=True)
        rt.compile(ia)
        rt.compile(ia, scheduler="global")     # evicts the first entry
        rt.compile(ia)                         # ... which disk serves
        rt.compile(ia)
        stats = rt.cache_stats
        assert (stats.hits, stats.disk_hits, stats.misses, stats.evictions,
                stats.disk_stores) == (1, 1, 2, 2, 2)
        assert self.metrics(rt, "schedule_cache") == {
            name: count for name, count in vars(stats).items() if count}

    def test_session_get_mirrors_only_the_callers_lookups(self):
        cache = ScheduleCache(8)
        observed = Runtime(4, cache=cache, observe=True)
        assert cache.session_get("k", observer=None) is None
        cache.put("k", "entry")
        assert cache.session_get("k", observer=observed.observer) == "entry"
        assert cache.session_get("k", observer=None) == "entry"
        assert self.metrics(observed, "schedule_cache") == {"hits": 1}
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)


def _arrays_of(inspection) -> dict:
    """Every array a loop can reach through an inspection."""
    schedule = inspection.schedule
    arrays = {"wavefronts": inspection.wavefronts, "owner": schedule.owner,
              "schedule.wavefronts": schedule.wavefronts}
    arrays.update((f"local_order[{p}]", lst)
                  for p, lst in enumerate(schedule.local_order))
    return arrays


def _cold_and_loaded(directory, program, nproc, **how):
    """The inspection a cold compile persists, and a fresh session's
    disk-served load of it."""
    cold = Runtime(nproc=nproc, cache_dir=directory).compile(program, **how)
    loaded = Runtime(nproc=nproc, cache_dir=directory).compile(program, **how)
    assert (cold.cache_hit, loaded.cache_hit) == (False, True)
    return cold.inspection, loaded.inspection


class TestEntryLayout:
    """An entry is one narrow, uncompressed ``.npz``, and what a load
    hands out is what the cold inspection did: the same ``int64``
    arrays under the same write flags, none a view of the file."""

    def test_an_entry_is_one_uncompressed_npz(self, tmp_path):
        Runtime(nproc=8, cache_dir=tmp_path).compile(program_of("simple", 500, 1))
        entry, = (p for p in tmp_path.iterdir()
                  if p.name not in ("index.json", ".lock"))
        assert entry.suffix == ".npz"
        with zipfile.ZipFile(entry) as z:
            assert {info.compress_type for info in z.infolist()} == {
                zipfile.ZIP_STORED}
        with np.load(entry) as z:
            assert sorted(z.files) == ["meta", "payload"]
            assert z["payload"].dtype == np.uint8
            # flat + wavefronts + the pricing inputs' assignment, narrow
            assert z["payload"].nbytes < 500 * (2 + 2 + 1) + 8 * 8
            assert json.loads(z["meta"].tobytes())["costs"] is None

    @pytest.mark.parametrize("n,nproc", [(0, 4), (70_000, 4), (600, 300)])
    def test_loaded_arrays_are_the_cold_int64_arrays(self, tmp_path, n, nproc):
        cold, loaded = _cold_and_loaded(tmp_path, program_of("simple", n, 7),
                                        nproc)
        assert loaded.wavefronts is loaded.schedule.wavefronts
        assert (loaded.schedule.nproc, loaded.schedule.strategy,
                loaded.strategy) == (cold.schedule.nproc,
                                     cold.schedule.strategy, cold.strategy)
        expected = _arrays_of(cold)
        for name, array in _arrays_of(loaded).items():
            assert array.dtype == np.int64, name
            assert np.array_equal(array, expected[name]), name
            assert array.flags.writeable == expected[name].flags.writeable, name
        with pytest.raises(ValueError):       # a stray write cannot land
            loaded.wavefronts[:1] = 0
        assert np.array_equal(loaded.owner, cold.owner)

    @settings(max_examples=30, deadline=None)
    @given(loop_programs(), st.integers(1, 9), st.sampled_from(
        ({}, {"scheduler": "global"}, {"executor": "doacross"})))
    def test_a_loaded_entry_holds_no_view_of_the_payload(self, program,
                                                         nproc, how):
        with tempfile.TemporaryDirectory() as directory:
            cold, loaded = _cold_and_loaded(directory, program, nproc, **how)
        arrays = _arrays_of(loaded)
        arrays["assignment"] = loaded.owner
        for name, array in arrays.items():
            root = array
            while isinstance(root.base, np.ndarray):
                root = root.base
            # A view into the file would have its uint8 blob at the root.
            assert root is array or root.dtype != np.uint8, name
        assert loaded.costs == cold.costs

    def test_a_parent_layout_entry_heals_to_the_cold_result(self, tmp_path):
        program = program_of("simple", 400, 3)
        cold = Runtime(nproc=4, cache=None).compile(program)
        Runtime(nproc=4, cache_dir=tmp_path).compile(program)
        entry, = tmp_path.glob("*.npz")
        schedule = cold.schedule
        # The layout this store wrote before: a compressed zip of int64
        # arrays beside a JSON sidecar holding the price.
        np.savez_compressed(
            entry, nproc=np.int64(schedule.nproc), owner=schedule.owner,
            flat=schedule.flattened,
            lengths=np.array([lst.size for lst in schedule.local_order]),
            wavefronts=schedule.wavefronts,
            strategy=np.bytes_(schedule.strategy.encode()))
        entry.with_suffix(".json").write_text(json.dumps({
            "strategy": "local",
            "costs": dataclasses.asdict(cold.inspection.costs)}))
        rt = Runtime(nproc=4, cache_dir=tmp_path)
        healed = rt.compile(program)
        assert not healed.cache_hit
        assert (rt.cache_stats.disk_heals, rt.cache_stats.disk_stores) == (1, 1)
        for name, array in _arrays_of(healed.inspection).items():
            assert array.tobytes() == _arrays_of(cold.inspection)[name].tobytes()
        assert healed().x.tobytes() == cold().x.tobytes()
        assert Runtime(nproc=4, cache_dir=tmp_path).compile(program).cache_hit


def _npy(array=None, *, data=b"", **header) -> bytes:
    """An ``.npy`` member: ``np.save``'s bytes of ``array``, or
    ``data`` under a hand-written version 1.0 ``header``."""
    out = io.BytesIO()
    if array is not None:
        np.save(out, array)
    else:
        np.lib.format.write_array_header_1_0(out, header)
        out.write(data)
    return out.getvalue()


class TestEntryReads:
    """A disk hit reads its entry in one go and trusts nothing in it:
    the members' headers are compared byte for byte, the lists are
    split by checked lengths, and anything malformed is a library error
    that the store heals as a miss."""

    N, NPROC = 400, 4

    @pytest.fixture()
    def entry(self, tmp_path):
        """``(program, cold loop, entry path)`` of one persisted compile."""
        program = program_of("simple", self.N, 3)
        cold = Runtime(nproc=self.NPROC, cache_dir=tmp_path).compile(program)
        path, = tmp_path.glob("*.npz")
        return program, cold, path

    def heals_to_cold(self, entry):
        program, cold, path = entry
        rt = Runtime(nproc=self.NPROC, cache_dir=path.parent)
        healed = rt.compile(program)
        assert not healed.cache_hit
        assert (rt.cache_stats.disk_heals, rt.cache_stats.misses) == (1, 1)
        assert healed().x.tobytes() == cold().x.tobytes()

    @staticmethod
    def rewrite(path, **members):
        """Replace ``path``'s named ``.npy`` members, keeping the rest."""
        with zipfile.ZipFile(path) as z:
            kept = {info.filename: z.read(info) for info in z.infolist()}
        kept.update((f"{name}.npy", data) for name, data in members.items())
        with zipfile.ZipFile(path, "w") as z:
            for name, data in kept.items():
                z.writestr(name, data)

    @pytest.mark.parametrize("edit, error", [
        (lambda flat, lengths: (flat, lengths[:-1]), ValidationError),
        (lambda flat, lengths: (flat, lengths + (lengths[1] + 1) *
                                np.array([1, -1, 0, 0])), ValidationError),
        (lambda flat, lengths: (flat, lengths - [0, 0, 0, 1]),
         ValidationError),
        (lambda flat, lengths: (np.where(flat == 0, flat.size, flat),
                                lengths), ScheduleError),
    ], ids=["list-count", "negative-length", "undercount", "index-past-n"])
    def test_a_malformed_entry_is_a_library_error(self, entry, edit, error):
        path = entry[2]
        schedule, header, arrays = read_schedule_npz(path)
        flat, lengths = edit(schedule.flattened, schedule.lengths)
        header.pop("format")
        save_schedule_npz(path, SimpleNamespace(
            flattened=flat, lengths=lengths, wavefronts=schedule.wavefronts,
            n=schedule.n, nproc=schedule.nproc, strategy=schedule.strategy),
            header, **arrays)
        with pytest.raises(error):
            load_schedule_npz(path)
        self.heals_to_cold(entry)

    @pytest.mark.parametrize("member", [
        lambda payload: _npy(payload.astype(np.int64)),
        lambda payload: _npy(payload.reshape(1, -1)),
        lambda payload: _npy(data=payload.tobytes(), descr="|u1",
                             fortran_order=True, shape=payload.shape),
    ], ids=["int64", "2-d", "fortran"])
    def test_a_member_that_is_not_a_uint8_vector_heals(self, entry, member):
        path = entry[2]
        with np.load(path) as z:
            payload = z["payload"]
        self.rewrite(path, payload=member(payload))
        with pytest.raises(ValidationError, match="not a uint8 vector"):
            load_schedule_npz(path)
        self.heals_to_cold(entry)

    def test_a_rewritten_entry_with_numpys_bytes_still_hits(self, entry):
        program, cold, path = entry
        with np.load(path) as z:
            members = {name: _npy(z[name]) for name in z.files}
        self.rewrite(path, **members)
        assert Runtime(nproc=self.NPROC,
                       cache_dir=path.parent).compile(program).cache_hit

    def test_a_disk_hit_parses_no_literal(self, entry, monkeypatch):
        program, cold, path = entry
        calls = []
        literal_eval = ast.literal_eval
        monkeypatch.setattr(ast, "literal_eval",
                            lambda *a: calls.append(a) or literal_eval(*a))
        loaded = Runtime(nproc=self.NPROC,
                         cache_dir=path.parent).compile(program)
        assert loaded.cache_hit and calls == []
        with np.load(path) as z:        # the spy sees what np.load parses
            z["meta"]
        assert len(calls) == 1


@pytest.mark.parametrize("store_cls", [ScheduleCache, TuningStore])
def test_both_stores_run_the_one_get_and_put(store_cls, case, tmp_path):
    """Miss → put → memory hit → disk hit in a fresh instance → a
    corrupt file heals as a miss → a deleted one is a plain miss: the
    base class's steps, so the same counters whichever format hooks sit
    under them."""
    dep = graph_of(case[2])
    value = (Runtime(4).compile(dep).inspection
             if store_cls is ScheduleCache else Runtime(4).tune(dep))
    assert not {"get", "put", "_store_disk", "_load_disk"} & set(
        vars(store_cls))

    def counts(store):
        stats = store.stats
        return (stats.hits, stats.disk_hits, stats.misses,
                stats.disk_stores, stats.disk_heals)

    store = store_cls(4, persist_dir=tmp_path)
    assert store.get("k", dep) is None and counts(store) == (0, 0, 1, 0, 0)
    store.put("k", value)
    assert counts(store) == (0, 0, 1, 1, 0)
    assert store.get("k", dep) is not None
    assert counts(store) == (1, 0, 1, 1, 0)
    fresh = store_cls(4, persist_dir=tmp_path)
    assert fresh.get("k", dep) is not None
    assert counts(fresh) == (0, 1, 0, 0, 0)
    assert fresh.get("k", dep) is not None      # installed by the disk hit
    assert counts(fresh) == (1, 1, 0, 0, 0)
    for path in tmp_path.glob("k.*"):
        path.write_bytes(b"junk")
    healed = store_cls(4, persist_dir=tmp_path)
    assert healed.get("k", dep) is None and counts(healed) == (0, 0, 1, 0, 1)
    for path in tmp_path.glob("k.*"):
        path.unlink()           # a missing entry is a plain miss
    gone = store_cls(4, persist_dir=tmp_path)
    assert gone.get("k", dep) is None and counts(gone) == (0, 0, 1, 0, 0)
