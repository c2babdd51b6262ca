"""Tests for the :mod:`repro.tuning` autotuning subsystem.

Feature extraction, space enumeration, prefix fidelities, the
successive-halving tuner (determinism + quality), the persistent
:class:`~repro.tuning.TuningStore` (self-healing, invalidation), and
the ``Runtime.compile(strategy="auto")`` integration.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import LoopProgram
from repro.core import executor as executor_module, wavefront
from repro.core.dependence import DependenceGraph
from repro.core.executor import SerialExecutor, SimpleLoopKernel
from repro.core.inspector import Inspector
from repro.core.schedule import identity_schedule
from repro.errors import ValidationError
from repro.runtime import CompiledLoop, Runtime, register_partitioner
from repro.runtime.registry import partitioner_registry
from repro.tuning import (
    CandidateSpec,
    Tuner,
    TuningStore,
    TuningVerdict,
    enumerate_space,
    extract_features,
    prefix_graph,
    space_fingerprint,
)
from repro.tuning import measure, tuner as tuner_module
from repro.workload.generator import generate_workload
from strategies import (general_dags, loop_programs, program_of, rung_graphs,
                        tuner_graphs)


@pytest.fixture()
def fig3():
    rng = np.random.default_rng(1989)
    ia = rng.integers(0, 2000, size=2000)
    return ia, DependenceGraph.from_indirection(ia)


@pytest.fixture()
def mesh():
    return DependenceGraph.from_lower_csr(generate_workload("33mesh").matrix)


def chain_graph(n):
    edges = np.stack([np.arange(1, n), np.arange(n - 1)], axis=1)
    return DependenceGraph.from_edges(edges, n)


class TestFeatures:
    def test_chain_features(self):
        f = extract_features(chain_graph(64))
        assert f.n == 64
        assert f.critical_path == 64
        assert f.mean_width == 1.0
        assert f.mean_deps == 63 / 64
        assert f.width_cv == 0.0

    def test_independent_features(self):
        dep = DependenceGraph.from_indirection(np.arange(50))  # no deps
        f = extract_features(dep)
        assert f.critical_path == 1
        assert f.mean_width == 50.0
        assert f.mean_deps == 0.0
        assert f.work_cv == 0.0

    def test_signature_pinned(self, fig3):
        # Verdicts record this string; trimming the unread fields must
        # not change what it renders.
        _, dep = fig3
        assert extract_features(dep).signature() == \
            "n11-d0.5-cp3-w9-wc1.1-kc0.3"

    def test_signature_separates_shapes(self):
        wide = extract_features(DependenceGraph.from_indirection(np.arange(512)))
        deep = extract_features(chain_graph(512))
        assert wide.signature() != deep.signature()

    def test_signature_stable_across_copies(self, fig3):
        ia, dep = fig3
        dep2 = DependenceGraph.from_indirection(ia.copy())
        assert extract_features(dep).signature() == extract_features(dep2).signature()

    def test_searched_signature_is_the_graphs_own(self, fig3):
        # The search hands extract_features the winner's wavefronts
        # instead of sweeping again; the signature must not notice.
        _, dep = fig3
        assert Tuner(4).search(dep).signature == \
            extract_features(dep).signature()

    def test_roundtrip_dict(self, fig3):
        _, dep = fig3
        f = extract_features(dep)
        assert type(f).from_dict(f.to_dict()) == f


class TestSpace:
    def test_contains_chunk_profiles(self, fig3):
        _, dep = fig3
        specs = enumerate_space(dep.n, 8)
        assignments = {s.assignment for s in specs}
        assert {"wrapped", "blocked", "guided", "factored", "trapezoid"} <= assignments
        assert any(a.startswith("chunked:") for a in assignments)
        # Workload-scaled parameterized profile variants join the space.
        assert any(a.startswith("guided:min=") for a in assignments)
        assert any(a.startswith("trapezoid:first=") for a in assignments)

    def test_global_pins_assignment(self, fig3):
        _, dep = fig3
        for s in enumerate_space(dep.n, 8):
            if s.scheduler.startswith("global"):
                assert s.assignment == "wrapped"

    def test_no_duplicates(self, fig3):
        _, dep = fig3
        specs = enumerate_space(dep.n, 8)
        assert len(specs) == len(set(specs))

    def test_new_registration_grows_space_and_changes_fingerprint(self, fig3):
        _, dep = fig3
        before = enumerate_space(dep.n, 8)
        fp_before = space_fingerprint(before)

        @register_partitioner("test-tuning-alt")
        def alt(n, nproc):
            return np.zeros(n, dtype=np.int64)

        try:
            after = enumerate_space(dep.n, 8)
            assert len(after) > len(before)
            assert space_fingerprint(after) != fp_before
        finally:
            partitioner_registry.unregister("test-tuning-alt")

    def test_shadowing_changes_fingerprint(self, fig3):
        _, dep = fig3
        specs = enumerate_space(dep.n, 8)
        fp_before = space_fingerprint(specs)
        # Re-register the same implementation: the generation bump alone
        # must invalidate (the verdict may have ranked the old one).
        fn = partitioner_registry.get("guided")
        partitioner_registry.register("guided", fn,
                                      **partitioner_registry.metadata("guided"))
        assert space_fingerprint(enumerate_space(dep.n, 8)) != fp_before


class TestPrefixGraph:
    def test_backward_slice(self, fig3):
        _, dep = fig3
        sub = prefix_graph(dep, 500)
        assert sub.n == 500
        np.testing.assert_array_equal(sub.indptr, dep.indptr[:501])
        np.testing.assert_array_equal(sub.indices, dep.indices[: dep.indptr[500]])

    def test_full_size_returns_same_graph(self, fig3):
        _, dep = fig3
        assert prefix_graph(dep, dep.n) is dep
        assert prefix_graph(dep, dep.n + 10) is dep

    def test_general_graph_drops_forward_edges(self):
        # 0→2 (backward from 2), plus 1 depends on 3 (forward ref).
        dep = DependenceGraph.from_edges([(2, 0), (1, 3)], 4)
        sub = prefix_graph(dep, 3)
        assert sub.n == 3
        assert sub.num_edges == 1
        np.testing.assert_array_equal(sub.deps(2), [0])


class TestTunerDeterminism:
    def test_same_seed_same_verdict(self, mesh):
        v1 = Tuner(8).search(mesh)
        v2 = Tuner(8).search(mesh)
        assert v1 == v2

    def test_verdict_through_fresh_processless_tuners(self, fig3):
        _, dep = fig3
        v1 = Tuner(4).tune(dep)
        v2 = Tuner(4).tune(dep)
        assert v1 == v2

    def test_seed_recorded(self, mesh):
        # Nothing is seeded, so a verdict records no seed: its fields
        # are the search's outcome alone, and they round-trip.
        verdict = Tuner(8).search(mesh)
        assert "seed" not in verdict.to_dict()
        assert TuningVerdict.from_dict(verdict.to_dict()) == verdict

    @given(tuner_graphs(), st.sampled_from((None, 1, 64)), st.booleans(),
           st.integers(0, 99))
    @settings(max_examples=12, deadline=None)
    def test_bars_and_shared_sims_change_no_verdict(self, dep, horizon,
                                                    weighted, seed):
        """Every verdict field equals the search's with each candidate's
        bar and the rung's shared simulations taken away — makespan
        only or amortised, default or overridden work."""
        unit_work = (np.random.default_rng(seed).uniform(0.5, 4.0, dep.n)
                     if weighted else None)

        def search():
            return Tuner(8, expected_executions=horizon).search(
                dep, unit_work=unit_work)

        def unbounded(*args, bound=None, shared=None, **kwargs):
            return measure.simulate_spec(*args, **kwargs)

        barred = search()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tuner_module, "simulate_spec", unbounded)
            assert search() == barred

    def test_a_cut_answers_only_bounds_below_it(self, mesh):
        executor = Runtime(nproc=8).compile(mesh).executor
        full = executor.simulate().total_time
        sims = measure.SharedSims()
        assert sims.simulate(executor, None, full / 2) is None
        assert (sims.cut, sims.shared) == (1, 0)
        assert sims.simulate(executor, None, full / 4) is None
        assert (sims.cut, sims.shared) == (1, 1)
        # Reaching the bound is not exceeding it: simulated in full.
        sim = sims.simulate(executor, None, full)
        assert sim.total_time == full
        assert sims.simulate(executor, None, 0.0) is sim
        assert (sims.cut, sims.shared) == (1, 2)

    def test_no_search_shape_keywords(self):
        # Rung fractions, keep, minimum rung, finalists and repeats are
        # module constants: no caller ever set them.
        import inspect

        assert list(inspect.signature(Tuner.__init__).parameters)[1:] == [
            "nproc", "costs", "store", "observer", "expected_executions"]
        # ... and the horizon is the tuner's, set once: no entry takes it.
        for entry in (Tuner.tune, Tuner.search, Tuner.tune_program):
            assert "expected_executions" not in inspect.signature(
                entry).parameters
        # ... and the machine model is the one scorer: no entry takes
        # a kernel or backend to time, or ready-made features.
        for entry in (Tuner.tune, Tuner.search, Runtime.tune):
            assert not {"kernel", "backend", "features"} & set(
                inspect.signature(entry).parameters)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_speculative_arm_is_scored_under_the_session_seed(self, seed):
        # The search scores the speculative arm as the session's own
        # speculative loop prices itself: chunks dealt in index order.
        # ``seed`` draws the input.
        from repro.tuning.measure import simulate_spec

        n = 4000
        rng = np.random.default_rng(seed)
        ia = np.arange(n)
        for i in rng.choice(np.arange(1, n), size=n // 100, replace=False):
            ia[i] = rng.integers(0, i)
        rt = Runtime(nproc=8)
        score, err, *_ = simulate_spec(
            rt._ensure_tuner()._runtime, ia,
            CandidateSpec("speculative", "identity", "wrapped"))
        built = rt.compile(ia, strategy="speculative").simulate().total_time
        assert err is None and score == built


class TestTunerQuality:
    """Regression for the acceptance criterion: the sim-pruned
    search lands within 10% of the exhaustive simulated best."""

    @pytest.mark.parametrize("nproc", [4, 16])
    def test_fig3_within_tolerance(self, fig3, nproc):
        _, dep = fig3
        tuner = Tuner(nproc)
        verdict = tuner.search(dep)
        best, _ = tuner.exhaustive(dep)[0]
        assert verdict.sim_makespan <= 1.10 * best

    def test_mesh_within_tolerance(self, mesh):
        tuner = Tuner(8)
        verdict = tuner.search(mesh)
        best, _ = tuner.exhaustive(mesh)[0]
        assert verdict.sim_makespan <= 1.10 * best

    def test_verdict_beats_the_naive_default(self, mesh, fig3):
        """The tuned pick is at least as good as compile()'s defaults."""
        rt = Runtime(nproc=8)
        default = rt.compile(mesh).simulate().total_time
        verdict = Tuner(8).search(mesh)
        assert verdict.sim_makespan <= default * (1 + 1e-9)
        # The paper's point — no one strategy bundle wins everywhere:
        # the Figure 3 loop's verdict is another.
        assert verdict.label() != Tuner(8).search(fig3[1]).label()

    def test_tiny_workload_is_searched_exhaustively(self):
        # Below min_rung there are no pruning rungs: every candidate is
        # simulated at full size, so the verdict IS the exhaustive best.
        dep = chain_graph(64)
        tuner = Tuner(4)
        verdict = tuner.search(dep)
        best, _ = tuner.exhaustive(dep)[0]
        assert verdict.sim_makespan == best

    @pytest.mark.parametrize("entry", ["tune", "search"])
    @pytest.mark.parametrize(
        "bad", [np.ones(2), np.ones((2, 2)), np.array([1, 1, np.nan, 1])],
        ids=["short", "2-D", "nan"])
    def test_bad_unit_work_is_named(self, entry, bad):
        # Every candidate's simulation rejects it (or scores nan),
        # which the search used to report as "no candidate produced a
        # legal schedule".
        with pytest.raises(ValidationError, match="unit_work"):
            getattr(Tuner(4), entry)(chain_graph(4), unit_work=bad)

    @pytest.mark.parametrize("entry", ["tune", "search", "tune_program"])
    @pytest.mark.parametrize("bad", [0, -3, float("nan"), float("inf")])
    def test_bad_horizon_is_named_and_nothing_is_stored(self, entry, bad):
        # These used to score as horizon 1 and persist under keys of
        # their own ("amort=0", "amort=-3", "amort=nan").
        from repro.workload.multisweep import sweep_program

        store = TuningStore(8)
        source = (sweep_program(np.ones(8), np.ones(8))
                  if entry == "tune_program" else chain_graph(8))
        with pytest.raises(ValidationError, match="expected_executions"):
            getattr(Tuner(4, store=store, expected_executions=bad),
                    entry)(source)
        assert len(store) == 0 and store.stats.lookups == 0

    def test_a_horizon_below_one_is_one(self):
        # Scored as 1 all along — and now stored as 1 too.
        dep = chain_graph(300)
        store = TuningStore(8)
        one = Tuner(4, store=store, expected_executions=1).tune(dep)
        half = Tuner(4, store=store, expected_executions=0.5).tune(dep)
        assert not half.searched
        assert dataclasses.replace(half, searched=True) == one
        assert len(store) == 1


class TestStore:
    def key(self, dep, nproc=4, mode="sim"):
        specs = enumerate_space(dep.n, nproc)
        from repro.machine.costs import MULTIMAX_320
        return TuningStore.key_for(dep, nproc, MULTIMAX_320,
                                   space_fingerprint(specs), mode=mode)

    def verdict(self, **over):
        base = dict(executor="self", scheduler="local", assignment="wrapped",
                    balance="wrapped", sim_makespan=10.0, seq_time=40.0,
                    candidates=5, sims=9, signature="sig")
        base.update(over)
        return TuningVerdict(**base)

    def test_hit_marks_unsearched(self, fig3):
        _, dep = fig3
        store = TuningStore(maxsize=4)
        key = self.key(dep)
        store.put(key, self.verdict())
        got = store.get(key)
        assert got is not None and not got.searched
        assert store.stats.hits == 1

    def test_miss_counts(self, fig3):
        _, dep = fig3
        store = TuningStore(maxsize=4)
        assert store.get(self.key(dep)) is None
        assert store.stats.misses == 1

    def test_lru_eviction(self):
        store = TuningStore(maxsize=2)
        for i in range(3):
            store.put(f"k{i}", self.verdict(sims=i))
        assert store.stats.evictions == 1
        assert store.get("k0") is None
        assert store.get("k2") is not None

    def test_maxsize_validated(self):
        with pytest.raises(ValidationError):
            TuningStore(maxsize=0)

    def test_disk_roundtrip(self, fig3, tmp_path):
        _, dep = fig3
        key = self.key(dep)
        v = self.verdict(sim_makespan=123.5)
        TuningStore(maxsize=4, persist_dir=tmp_path).put(key, v)
        fresh = TuningStore(maxsize=4, persist_dir=tmp_path)
        got = fresh.get(key)
        assert got is not None
        assert dataclasses.replace(got, searched=True) == v
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.misses == 0

    def test_corrupt_entry_is_a_miss_then_self_heals(self, fig3, tmp_path):
        _, dep = fig3
        key = self.key(dep)
        store = TuningStore(maxsize=4, persist_dir=tmp_path)
        store.put(key, self.verdict())
        for p in tmp_path.glob("*.tuning.json"):
            p.write_text('{"format": 1, "verdict": {"executor": "se')  # truncated
        fresh = TuningStore(maxsize=4, persist_dir=tmp_path)
        assert fresh.get(key) is None  # miss, not a crash
        fresh.put(key, self.verdict(sims=99))  # re-search overwrites
        healed = TuningStore(maxsize=4, persist_dir=tmp_path)
        assert healed.get(key).sims == 99

    def test_foreign_format_is_a_miss(self, fig3, tmp_path):
        _, dep = fig3
        key = self.key(dep)
        store = TuningStore(maxsize=4, persist_dir=tmp_path)
        store.put(key, self.verdict())
        for p in tmp_path.glob("*.tuning.json"):
            p.write_text('{"format": 999, "verdict": {}}')
        assert TuningStore(maxsize=4, persist_dir=tmp_path).get(key) is None

    def test_registry_generation_bump_invalidates_key(self, fig3):
        _, dep = fig3
        k1 = self.key(dep)
        fn = partitioner_registry.get("trapezoid")
        partitioner_registry.register(
            "trapezoid", fn, **partitioner_registry.metadata("trapezoid"))
        assert self.key(dep) != k1

    def test_arbitration_mode_keys_separately(self, fig3):
        _, dep = fig3
        assert self.key(dep, mode="sim") != self.key(dep, mode="sim:amort=4")


class TestRuntimeAuto:
    def test_auto_attaches_verdict_and_executes(self, fig3):
        ia, _ = fig3
        rng = np.random.default_rng(3)
        x0, b = rng.standard_normal(ia.size), rng.standard_normal(ia.size)
        oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))
        rt = Runtime(nproc=4)
        loop = rt.compile(ia, strategy="auto")
        assert loop.verdict is not None and loop.verdict.searched
        assert loop.report()["tuned"]
        rep = loop(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_allclose(rep.x, oracle)

    def test_warm_store_skips_the_search(self, fig3):
        ia, _ = fig3
        rt = Runtime(nproc=4)
        first = rt.compile(ia, strategy="auto")
        second = rt.compile(ia.copy(), strategy="auto")
        assert first.verdict.searched
        assert not second.verdict.searched
        assert second.verdict.compile_kwargs() == first.verdict.compile_kwargs()
        assert second.cache_hit  # the schedule is reused too
        assert rt.tuning_stats.hits == 1
        assert rt.tuning_stats.misses == 1

    def test_explicit_compile_has_no_verdict(self, fig3):
        ia, _ = fig3
        loop = Runtime(nproc=4).compile(ia)
        assert loop.verdict is None
        assert not loop.report()["tuned"]

    def test_unknown_strategy_rejected(self, fig3):
        ia, _ = fig3
        with pytest.raises(ValidationError, match="auto"):
            Runtime(nproc=4).compile(ia, strategy="best-effort")

    def test_tuning_disabled_still_searches(self, fig3):
        ia, _ = fig3
        rt = Runtime(nproc=4, tuning=None)
        assert rt.tuning_stats is None
        assert rt.compile(ia, strategy="auto").verdict.searched
        # No store: every auto compile searches again.
        assert rt.compile(ia, strategy="auto").verdict.searched

    def test_verdict_persists_across_sessions(self, fig3, tmp_path):
        ia, _ = fig3
        rt1 = Runtime(nproc=4, tuning_dir=tmp_path)
        v1 = rt1.compile(ia, strategy="auto").verdict
        assert rt1.tuning_stats.disk_stores == 1

        rt2 = Runtime(nproc=4, tuning_dir=tmp_path)
        v2 = rt2.compile(ia, strategy="auto").verdict
        assert not v2.searched
        assert rt2.tuning_stats.disk_hits == 1
        assert v2.compile_kwargs() == v1.compile_kwargs()

    def test_registration_invalidates_cached_verdict(self, fig3):
        ia, _ = fig3
        rt = Runtime(nproc=4)
        assert rt.compile(ia, strategy="auto").verdict.searched

        @register_partitioner("test-auto-extra")
        def extra(n, nproc):
            return np.arange(n, dtype=np.int64) % nproc

        try:
            # The space changed under the store's key: a re-search, and
            # the new strategy was part of it.
            again = rt.compile(ia, strategy="auto").verdict
            assert again.searched
        finally:
            partitioner_registry.unregister("test-auto-extra")

    def test_same_seed_sessions_agree(self, fig3):
        ia, _ = fig3
        v1 = Runtime(nproc=4).compile(ia, strategy="auto").verdict
        v2 = Runtime(nproc=4).compile(ia, strategy="auto").verdict
        assert v1 == v2

    def test_cold_auto_compile_sweeps_once(self, fig3, monkeypatch):
        # One structure pass per search: every candidate, rung prefix
        # and the winner's compile read the full graph's memo.
        ia, _ = fig3
        sweeps = []
        sweep = wavefront._frontier_wavefronts
        monkeypatch.setattr(wavefront, "_frontier_wavefronts",
                            lambda d: sweeps.append(d.n) or sweep(d))
        prog = LoopProgram.from_indirection(ia, x=np.zeros(ia.size),
                                            b=np.ones(ia.size))
        loop = Runtime(nproc=4).compile(prog, strategy="auto")
        loop()
        assert loop.verdict.searched
        assert sweeps == [ia.size]

    @pytest.mark.parametrize("horizon", [None, 1])
    def test_a_verdict_names_the_assignment_its_plan_runs(self, fig3,
                                                         horizon):
        # A doacross winner runs the wrapped identity whichever of its
        # alias assignments ranked first: the verdict names that one,
        # as the plan recompiled from it does.
        graphs = [fig3[1], chain_graph(300)] + [
            DependenceGraph.from_lower_csr(generate_workload(name).matrix)
            for name in ("33mesh", "65-4-3")]
        for dep in graphs:
            rt = Runtime(nproc=8, expected_executions=horizon)
            verdict = rt.tune(dep)
            loop = rt.compile(dep, **verdict.compile_kwargs())
            assert loop.assignment == verdict.assignment, verdict.label()

    def test_runtime_tune_is_public(self, mesh):
        rt = Runtime(nproc=8)
        verdict = rt.tune(mesh)
        loop = rt.compile(mesh, **verdict.compile_kwargs())
        assert loop.simulate().total_time == pytest.approx(verdict.sim_makespan)


def assert_same_sim(a, b):
    """Two :class:`SimResult` objects, field for field."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert (np.array_equal(x, y) if isinstance(x, np.ndarray)
                else x == y), field.name


@contextlib.contextmanager
def counted_sims():
    """Within the block, the yielded list grows by one per simulation
    an executor starts."""
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("simulate_self_executing", "simulate_prescheduled"):
            real = getattr(executor_module, name)
            mp.setattr(executor_module, name, lambda *a, _real=real, **k:
                       ran.append(1) or _real(*a, **k))
        yield ran


class TestHandOver:
    """A fresh search hands its scheduled winner's inspection and exact
    simulation to the compile that asked for it, and nothing else."""

    @given(dep=tuner_graphs(), horizon=st.sampled_from((None, 1, 64)))
    @settings(max_examples=10, deadline=None)
    def test_the_winners_sim_is_the_calls_sim(self, dep, horizon):
        rt = Runtime(nproc=8, expected_executions=horizon)
        loop = rt.compile(dep, strategy="auto")
        with counted_sims() as sims:
            sim = loop.simulate()
        assert sim is loop.simulate()
        if loop.plan.kind == "scheduled":
            assert sims == []
            assert_same_sim(sim, loop.executor.simulate())
            if horizon is None:
                assert sim.total_time == loop.verdict.sim_makespan

    def test_only_a_fresh_scheduled_default_work_search_hands_over(
            self, mesh):
        tuner = Tuner(8, store=TuningStore())
        verdict, winner = tuner._tune(mesh)
        assert verdict.searched and winner.plan.inspection.dep is mesh
        assert winner.sim.total_time == verdict.sim_makespan
        again, none = tuner._tune(mesh)          # a store hit
        assert not again.searched and none is None
        # A search pricing other work, and a speculative winner.
        assert tuner._tune(mesh, unit_work=np.full(mesh.n, 2.0))[1] is None
        spec, = [s for s in enumerate_space(mesh.n, 8)
                 if s.executor == "speculative"]
        assert tuner._search(mesh, [spec], unit_work=None)[1] is None

    def test_a_store_hit_inspects_and_simulates_for_itself(self, mesh,
                                                           monkeypatch):
        first = Runtime(nproc=8)
        first.compile(mesh, strategy="auto")
        inspected = []
        inspect = Inspector.inspect
        monkeypatch.setattr(Inspector, "inspect", lambda *a, **k:
                            inspected.append(1) or inspect(*a, **k))
        loop = Runtime(nproc=8, tuning=first.tuning_store).compile(
            mesh, strategy="auto")
        assert not loop.verdict.searched and inspected == [1]
        with counted_sims() as sims:
            loop.simulate()
        assert sims == [1]

    @given(prog=loop_programs(), dep=tuner_graphs())
    @example(prog=program_of("simple", 1, 0),
             dep=DependenceGraph.from_edges([], 1))
    @settings(max_examples=8, deadline=None)
    def test_a_program_search_hands_nothing_to_the_next_compile(self, prog,
                                                                dep):
        rt = Runtime(nproc=4)
        first = rt.compile(prog, strategy="auto")
        hits = rt.tuning_stats.hits
        loop = rt.compile(dep, strategy="auto")
        if first.program_verdict is None and first.dep.digest == dep.digest:
            # A one-statement program is tuned on its dependence graph,
            # so a graph of the same structure (any n = 1 program and
            # an edgeless n = 1 graph) shares its tuning key: the second
            # compile is a correct store hit on the first's verdict.
            assert rt.tuning_stats.hits == hits + 1
            assert loop.verdict == dataclasses.replace(first.verdict,
                                                       searched=False)
            return
        assert loop.verdict.searched
        if loop.plan.kind == "scheduled":
            assert loop.dep is dep and loop.schedule.n == dep.n
            assert_same_sim(loop.simulate(), loop.executor.simulate())

    def test_the_handed_inspection_is_cached(self, mesh):
        rt = Runtime(nproc=8)
        loop = rt.compile(mesh, strategy="auto")
        assert not loop.cache_hit
        assert (rt.cache_stats.misses, rt.cache_stats.hits) == (1, 0)
        again = rt.compile(mesh, **loop.verdict.compile_kwargs())
        assert again.cache_hit and again.inspection is loop.inspection


class TestHeldRung:
    """A rung holds what its candidates share — each bundle's
    resolution, each inspection, the graph's CSR lists, one work vector
    per mode and the crossing test — and scores every candidate bit for
    bit as a fresh session scores it alone."""

    @given(dep=rung_graphs(), fraction=st.sampled_from((1 / 16, 1 / 4, 1)),
           weighted=st.booleans(), horizon=st.sampled_from((None, 1, 4)),
           nproc=st.integers(1, 8), seed=st.integers(0, 99))
    @example(dep=DependenceGraph.from_lower_csr(
        generate_workload("33-4-3").matrix), fraction=1, weighted=True,
        horizon=4, nproc=8, seed=0)
    @example(dep=DependenceGraph.from_indirection(
        np.random.default_rng(3).integers(0, 600, size=600)), fraction=1 / 4,
        weighted=False, horizon=None, nproc=5, seed=7)
    @settings(max_examples=20, deadline=None)
    def test_a_held_rung_scores_each_candidate_as_alone(
            self, dep, fraction, weighted, horizon, nproc, seed):
        graph = prefix_graph(dep, max(1, int(dep.n * fraction)))
        unit_work = (np.random.default_rng(seed).uniform(0.5, 4.0, graph.n)
                     if weighted else None)
        specs = enumerate_space(graph.n, nproc)
        tuner = Tuner(nproc, expected_executions=horizon)
        scored = []

        def recorded(*args, **kwargs):
            assert graph._held is not None     # held for the rung ...
            scored.append(measure.simulate_spec(*args, **kwargs))
            return scored[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tuner_module, "simulate_spec", recorded)
            # Every bar is inf: a rung keeping all its specs cuts none.
            ranked, _, _ = tuner._score(graph, specs, unit_work=unit_work,
                                        resolved={}, kept=len(specs))
        assert graph._held is None             # ... and for no longer
        alone = []
        for spec, got in zip(specs, scored):
            fresh = DependenceGraph(graph.indptr.copy(), graph.indices.copy(),
                                    graph.n)
            want = measure.simulate_spec(
                Runtime(nproc), fresh, spec,
                unit_work=None if unit_work is None else unit_work.copy(),
                expected_executions=tuner.expected_executions)
            assert (got.score, got.error) == (want.score, want.error), spec
            assert (got.sim is None) == (want.sim is None), spec
            if got.sim is not None:
                assert_same_sim(got.sim, want.sim)
            alone.append((want.score, spec))
        alone.sort(key=lambda t: t[0])
        assert ranked == alone
        if unit_work is None and horizon is None:   # what it scores
            assert tuner.exhaustive(graph) == alone

    @given(dep=general_dags(), nproc=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_a_held_crossing_test_answers_for_its_wavefronts(self, dep,
                                                             nproc):
        """Schedules over other wavefront arrays — a correct one, and
        all-zero ones that every edge fails to cross — get their own
        answer in a held block, the unheld one."""
        right = wavefront.compute_wavefronts_general(dep)
        schedules = [identity_schedule(wf, nproc) for wf in (
            right, np.zeros(dep.n, dtype=np.int64), right.copy())]
        want = [s.deps_cross_wavefronts(dep) for s in schedules]
        assert want[0] and want[1] == (dep.num_edges == 0)
        with dep.holding():
            assert [s.deps_cross_wavefronts(dep)
                    for s in schedules * 2] == want * 2
        assert dep._held is None


def observed(rt):
    """What a session's observer holds: each span's name and attribute
    names, and each instrument's count."""
    obs = rt.observer
    return ([(ev.name, sorted(ev.attrs)) for ev in obs.tracer.events],
            {name: m.get("value", m.get("count"))
             for name, m in obs.metrics.as_dict().items()})


class TestOnePlanBuilder:
    """A search candidate is a plan: scoring one builds it through the
    session's plan builder and nothing else — no compiled loop, no
    ``compile`` span, no second trip through ``Runtime.compile``."""

    def test_a_cold_auto_compile_builds_one_loop(self, monkeypatch):
        mesh = generate_workload("65-4-3").matrix
        prog = LoopProgram.from_csr(mesh, np.ones(mesh.nrows))
        built = []
        init = CompiledLoop.__init__
        monkeypatch.setattr(CompiledLoop, "__init__", lambda *a, **k:
                            built.append(1) or init(*a, **k))
        rt = Runtime(nproc=8, observe=True)
        loop = rt.compile(prog, strategy="auto")
        loop()
        names = [ev.name for ev in rt.observer.tracer.events]
        assert built == [1]
        assert names.count("compile") == 1
        assert names.count("inspect") == 33
        other = Runtime(nproc=8).compile(prog, strategy="auto").verdict
        assert loop.verdict.label() == other.label()
        assert loop.verdict.sims == other.sims == 65

    @pytest.mark.parametrize("spec", [
        CandidateSpec("self", "global", "wrapped", "greedy"),
        CandidateSpec("preschedule", "local", "blocked"),
        CandidateSpec("speculative", "identity", "wrapped"),
    ], ids=lambda spec: spec.label())
    def test_scoring_builds_a_plan_and_nothing_else(self, mesh, spec):
        scored = Runtime(nproc=8, observe=True)
        score, err, plan, sim = measure.simulate_spec(scored, mesh, spec)
        planned = Runtime(nproc=8, observe=True)
        # A direct build, and the simulation its score reads.
        direct = planned._plan(mesh, **spec.compile_kwargs())
        assert err is None and score == direct.simulate().total_time
        assert plan.kind == direct.kind
        assert scored.cache_stats == planned.cache_stats
        assert observed(scored) == observed(planned)
