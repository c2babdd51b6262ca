"""Tests for the ``repro.runtime`` API: session, registries, backends.

``Runtime`` is *bit-identical* to the direct construction (``Inspector``
plus executor classes) for every executor × scheduler × assignment
combination — same numeric result, same simulated timings — so the
registry indirection costs nothing in fidelity.  That every route
equals the serial loop is tests/test_contract.py's property.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.core.doacross import DoacrossExecutor
from repro.core.executor import (
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
)
from repro.core.inspector import Inspector
from repro.core.prescheduled import PreScheduledExecutor
from repro.core.self_executing import SelfExecutingExecutor
from repro.errors import ValidationError
from repro.machine.costs import MULTIMAX_320
from repro.program.transform import StagedPlan, fission
from repro.runtime import (
    CompiledLoop,
    Runtime,
    executor_registry,
    partitioner_registry,
    register_partitioner,
    register_scheduler,
    scheduler_registry,
)
from repro.sparse.build import random_lower_triangular
from repro.sparse.triangular import solve_lower_sequential
from repro.tuning import CandidateSpec
from repro.workload import sweep_program
from strategies import program_of
from test_contract import assert_contract, same_sim

EXECUTORS = ("self", "preschedule", "doacross")
SCHEDULERS = ("local", "global")
ASSIGNMENTS = ("wrapped", "blocked", "chunked")


@pytest.fixture(scope="module")
def case():
    rng = np.random.default_rng(77)
    n = 120
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = rng.integers(0, n, size=n)
    oracle = SerialExecutor().run(SimpleLoopKernel(x0, b, ia))
    return x0, b, ia, oracle


def legacy_path(ia, nproc, executor, scheduler, assignment, kernel):
    """The pre-registry construction, reproduced verbatim."""
    inspector = Inspector(MULTIMAX_320)
    strategy = "identity" if executor == "doacross" else scheduler
    insp = inspector.inspect(ia, nproc, strategy=strategy,
                             assignment=assignment)
    if executor == "self":
        ex = SelfExecutingExecutor(insp.schedule, insp.dep, MULTIMAX_320)
    elif executor == "preschedule":
        ex = PreScheduledExecutor(insp.schedule, insp.dep, MULTIMAX_320)
    else:
        ex = DoacrossExecutor(insp.dep, nproc, MULTIMAX_320,
                              wavefronts=insp.wavefronts)
    return ex.run(kernel), ex.simulate()


class TestRegistryEquivalence:
    """Runtime path ≡ legacy path, bit for bit, every combination."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("assignment", ASSIGNMENTS)
    def test_bit_identical(self, case, executor, scheduler, assignment):
        x0, b, ia, oracle = case
        nproc = 4
        x_old, sim_old = legacy_path(
            ia, nproc, executor, scheduler, assignment,
            SimpleLoopKernel(x0, b, ia),
        )
        rt = Runtime(nproc=nproc, costs=MULTIMAX_320)
        rep = rt.compile(ia, executor=executor, scheduler=scheduler,
                         assignment=assignment)(SimpleLoopKernel(x0, b, ia))
        # Bit-identical numerics and timings, field by field.
        assert np.array_equal(rep.x, x_old) and np.array_equal(rep.x, oracle)
        assert same_sim(rep.sim, sim_old)

    @pytest.mark.parametrize("executor", executor_registry.names())
    def test_loop_reports_the_schedule_it_runs(self, case, executor):
        """Under a non-default assignment, ``loop.schedule`` is the
        schedule the executor runs, and ``report()["assignment"]`` the
        partition that schedule's owners follow — doacross included,
        which runs the wrapped identity whatever was requested."""
        _, _, ia, _ = case
        nproc = 4
        loop = Runtime(nproc=nproc).compile(ia, executor=executor,
                                            assignment="blocked")
        assert loop.schedule is loop.executor.schedule
        owner = getattr(loop.schedule, "owner", None)   # speculative: none
        if owner is not None:
            partition = partitioner_registry.get(loop.report()["assignment"])
            assert np.array_equal(owner, partition(ia.shape[0], nproc))
        if executor == "doacross":
            assert loop.report()["assignment"] == "wrapped"
            assert same_sim(loop.simulate(),
                            DoacrossExecutor(loop.dep, nproc).simulate())


class TestBackends:
    def test_sim_backend_is_kernel_free(self, case):
        # Timing is no backend: loop.simulate() runs kernel-free.
        _, _, ia, _ = case
        with pytest.raises(ValidationError,
                           match="'processes', 'serial', 'threads'$"):
            Runtime(nproc=4, backend="sim")
        assert Runtime(nproc=4).compile(ia).simulate().total_time > 0

    def test_serial_backend_requires_kernel(self, case):
        _, _, ia, _ = case
        with pytest.raises(ValidationError, match="kernel"):
            Runtime(nproc=4).compile(ia)()

    def test_threads_backend_matches_serial(self):
        assert_contract(program_of("simple", 120, 77),
                        CandidateSpec("self", "local", "wrapped"), nproc=3,
                        raw=True, tier=("threads", None))

    def test_all_backends_agree_on_triangular_solve(self):
        l = random_lower_triangular(120, avg_off_diag=2.0, max_band=24, seed=5)
        b = np.random.default_rng(6).standard_normal(120)
        expected = solve_lower_sequential(l, b)
        dep = DependenceGraph.from_lower_csr(l)
        rt = Runtime(nproc=2)
        backends = ["serial", "threads"]
        if "fork" in mp.get_all_start_methods():
            backends.append("processes")
        for executor in ("self", "preschedule"):
            loop = rt.compile(dep, executor=executor, scheduler="global")
            for backend in backends:
                kernel = TriangularSolveKernel(l, b)
                rep = loop(kernel, backend=backend)
                np.testing.assert_array_equal(rep.x, expected,
                                              err_msg=f"{executor}/{backend}")

    def test_processes_backend_rejects_non_triangular_kernels(self, case):
        x0, b, ia, _ = case
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("process backend requires POSIX fork")
        loop = Runtime(nproc=2).compile(ia)
        with pytest.raises(ValidationError, match="TriangularSolveKernel"):
            loop(SimpleLoopKernel(x0, b, ia), backend="processes")

    def test_unknown_backend_enumerates_options(self, case):
        _, _, ia, _ = case
        message = ("unknown backend 'gpu'; valid options are: "
                   "'processes', 'serial', 'threads'")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Runtime(nproc=2, backend="gpu")
        loop = Runtime(nproc=2).compile(ia)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            loop(None, backend="gpu")


class TestEagerValidation:
    """Unknown strategy names fail up front, options enumerated."""

    @pytest.mark.parametrize("kwargs", [
        {"executor": "warp"},
        {"scheduler": "cosmic"},
        {"assignment": "randomly"},
    ])
    def test_compile_validates_up_front(self, case, kwargs):
        _, _, ia, _ = case
        with pytest.raises(ValidationError, match="valid options are"):
            Runtime(nproc=2).compile(ia, **kwargs)

    def test_message_lists_registered_names(self, case):
        _, _, ia, _ = case
        with pytest.raises(ValidationError, match="'global', 'identity', 'local'"):
            Runtime(nproc=2).compile(ia, scheduler="nope")

    def test_inspector_validates_before_working(self):
        # A huge bogus-strategy inspect must fail fast, not after the
        # wavefront sweep — we can only check it fails with the
        # enumerating message.
        with pytest.raises(ValidationError, match="valid options are"):
            Inspector().inspect(np.array([0, 0, 1]), 2, strategy="nope")
        with pytest.raises(ValidationError, match="valid options are"):
            Inspector().inspect(np.array([0, 0, 1]), 2, assignment="nope")

    @pytest.mark.parametrize("name", ["cache", "tuning"])
    @pytest.mark.parametrize("value", ["x", True, 0, 2.5, None])
    def test_store_keywords_validated(self, name, value, tmp_path):
        # A str used to be adopted (tuning) or die in int() (cache),
        # True to build a one-entry store, and a directory beside a
        # disabled store to be dropped without a word.
        kwargs, match = {name: value}, f"{name} must be .*instance.*int.*None"
        if value is None:
            kwargs[f"{name}_dir"], match = tmp_path, f"{name}_dir"
        with pytest.raises(ValidationError, match=match):
            Runtime(**kwargs)

    @pytest.mark.parametrize("seed", [-1, "a", 1.7, True])
    def test_tune_seed_validated(self, seed):
        # Nothing is seeded: the removed keywords are unknown whatever
        # their value, and the two pinned names read by the ledger's
        # replica are inert.
        from repro.speculate import AccessLog, SpeculativeExecutor
        from repro.tuning import Tuner

        with pytest.raises(TypeError, match="tune_seed"):
            Runtime(tune_seed=seed)
        with pytest.raises(TypeError, match="seed"):
            Tuner(2, seed=seed)
        log = AccessLog.from_dependences(
            DependenceGraph.from_indirection(np.arange(4)))
        assert SpeculativeExecutor(log, 2, seed=seed).plan().chunk_bounds \
            == SpeculativeExecutor(log, 2).plan().chunk_bounds
        assert Runtime().tune_seed == 0


class TestPluggability:
    def test_custom_partitioner_usable_by_name(self, case):
        x0, b, ia, oracle = case

        @register_partitioner("test-reversed")
        def reversed_partition(n, nproc):
            return (np.int64(n) - 1 - np.arange(n, dtype=np.int64)) % nproc

        try:
            assert "test-reversed" in partitioner_registry
            rep = Runtime(nproc=3).compile(
                ia, scheduler="local", assignment="test-reversed",
            )(SimpleLoopKernel(x0, b, ia))
            np.testing.assert_array_equal(rep.x, oracle)
        finally:
            partitioner_registry.unregister("test-reversed")

    def test_custom_scheduler_usable_by_name(self, case):
        x0, b, ia, oracle = case
        from repro.core.schedule import local_schedule

        @register_scheduler("test-local-too")
        def local_too(wf, owner, nproc, *, balance="wrapped", weights=None):
            return local_schedule(wf, owner, nproc)

        try:
            rep = Runtime(nproc=3).compile(
                ia, scheduler="test-local-too",
            )(SimpleLoopKernel(x0, b, ia))
            np.testing.assert_array_equal(rep.x, oracle)
            assert rep.scheduler == "test-local-too"
        finally:
            scheduler_registry.unregister("test-local-too")

    def test_builtin_registrations_present(self):
        assert set(EXECUTORS) <= set(executor_registry.names())
        assert {"local", "global", "identity"} <= set(scheduler_registry.names())
        assert {"wrapped", "blocked", "chunked"} <= set(partitioner_registry.names())
        assert Runtime.available()["backends"] == (
            "processes", "serial", "threads")

    def test_an_unregistered_name_fails_again(self, case):
        from repro.core.schedule import local_schedule

        _, _, ia, _ = case
        rt = Runtime(nproc=4)
        rt.compile(ia, scheduler="local")

        @register_scheduler("test-gone", consumes_balance=False)
        def gone(wf, owner, nproc, *, balance="wrapped", weights=None):
            return local_schedule(wf, owner, nproc)

        try:
            assert rt.compile(ia, scheduler="test-gone").inspection.strategy \
                == "test-gone"
        finally:
            scheduler_registry.unregister("test-gone")
        # Nothing of the session remembers a resolved name.
        with pytest.raises(ValidationError, match="unknown scheduler"):
            rt.compile(ia, scheduler="test-gone")

    def test_doacross_forces_identity_schedule(self, case):
        _, _, ia, _ = case
        loop = Runtime(nproc=4).compile(ia, executor="doacross",
                                        scheduler="global")
        assert loop.inspection.strategy == "identity"

    def test_shadowing_a_strategy_invalidates_cached_schedules(self, case):
        _, _, ia, _ = case
        rt = Runtime(nproc=2)

        def by_blocks(n, nproc):
            return np.repeat(np.arange(nproc), -(-n // nproc))[:n]

        register_partitioner("test-shadow")(by_blocks)
        try:
            first = rt.compile(ia, scheduler="local", assignment="test-shadow")
            # Shadow with a different implementation: a recompile must
            # NOT serve the stale schedule of the old one.
            register_partitioner("test-shadow")(
                lambda n, nproc: np.arange(n, dtype=np.int64) % nproc)
            second = rt.compile(ia, scheduler="local",
                                assignment="test-shadow")
            assert not second.cache_hit
            assert not np.array_equal(second.schedule.owner,
                                      first.schedule.owner)
        finally:
            partitioner_registry.unregister("test-shadow")

    def test_custom_scheduler_inspect_cost_not_zero(self, case):
        x0, b, ia, _ = case
        from repro.core.schedule import local_schedule

        @register_scheduler("test-priced")
        def priced(wf, owner, nproc, *, balance="wrapped", weights=None):
            return local_schedule(wf, owner, nproc)

        try:
            rep = Runtime(nproc=3).compile(ia, scheduler="test-priced")(
                SimpleLoopKernel(x0, b, ia))
            # Priced at the mandatory parallel sort, not "free".
            assert rep.inspect_cost == rep.inspection.costs.par_sort
            assert rep.inspect_cost > 0
        finally:
            scheduler_registry.unregister("test-priced")

    def test_balance_validated_eagerly_for_global(self, case):
        _, _, ia, _ = case
        with pytest.raises(ValidationError,
                           match="valid options are: 'greedy', 'wrapped'"):
            Runtime(nproc=2).compile(ia, scheduler="global", balance="bogus")
        # Schedulers that do not consume balance receive it verbatim
        # (legacy behavior: silently unused).
        assert Runtime(nproc=2).compile(ia, scheduler="local",
                                        balance="bogus") is not None


class TestRuntimeSession:
    def test_one_shot_run_derives_deps_from_kernel(self, case):
        x0, b, ia, oracle = case
        rep = Runtime(nproc=4).run(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_array_equal(rep.x, oracle)

    def test_run_without_deps_requires_kernel_graph(self):
        with pytest.raises(ValidationError, match="dependence_graph"):
            Runtime(nproc=2).run(object())

    def test_execution_counter_increments(self, case):
        x0, b, ia, _ = case
        loop = Runtime(nproc=4).compile(ia)
        r1 = loop(SimpleLoopKernel(x0, b, ia))
        r2 = loop(SimpleLoopKernel(x0, b, ia))
        assert (r1.executions, r2.executions) == (1, 2)
        assert r2.amortised_inspect_cost <= r1.amortised_inspect_cost

    def test_report_contents(self, case):
        _, _, ia, _ = case
        loop = Runtime(nproc=4).compile(ia, scheduler="global")
        rep = loop.report()
        assert rep["scheduler"] == "global"
        assert rep["nproc"] == 4
        assert rep["inspect_cost"] > 0
        assert rep["break_even_executions"] > 0

    def test_amortisation_is_priced_exactly(self, case):
        # One model prices every report: the inspection over the
        # per-execution saving, and over the executions so far.
        x0, b, ia, _ = case
        rt = Runtime(nproc=4)
        rep = rt.compile(ia, scheduler="global").report()
        assert rep["inspect_cost"] > 0.0
        assert rep["break_even_executions"] == rep["inspect_cost"] / (
            rep["seq_time"] - rep["parallel_time"])
        chain = np.maximum(np.arange(120) - 1, 0)   # nothing saves
        rep = rt.compile(chain, scheduler="global").report()
        assert rep["parallel_time"] >= rep["seq_time"]
        assert rep["break_even_executions"] == float("inf")
        own = np.arange(600)                 # ia[i] = i: all parallel
        for free in (rt.compile(own, executor="doacross"),
                     rt.compile(own, strategy="speculative")):
            rep = free.report()
            assert rep["inspect_cost"] == 0.0
            assert rep["seq_time"] > rep["parallel_time"]
            assert rep["break_even_executions"] == 0.0
        loop = rt.compile(ia, scheduler="local")
        cost = loop.inspection.pipeline_cost
        one = loop(SimpleLoopKernel(x0, b, ia))
        loop(SimpleLoopKernel(x0, b, ia))
        three = loop(SimpleLoopKernel(x0, b, ia))
        assert one.amortised_inspect_cost == cost / 1
        assert three.amortised_inspect_cost == cost / 3

    def test_a_staged_report_prices_its_stages_summed(self):
        rng = np.random.default_rng(40)
        prog = sweep_program(rng.normal(size=400), rng.normal(size=400))
        rt = Runtime(nproc=8)
        variant = fission(prog)
        stages = [rt.compile(stage.program, scheduler="global")
                  for stage in variant.stages]
        rep = CompiledLoop(rt, StagedPlan(variant, stages),
                           program=prog).report()
        summed = sum(s.inspection.pipeline_cost for s in stages)
        assert rep["inspect_cost"] == summed > 0.0
        assert rep["break_even_executions"] == summed / (
            rep["seq_time"] - rep["parallel_time"]) > 1.0

    def test_available_lists_all_registries(self):
        avail = Runtime.available()
        assert set(avail) == {"executors", "schedulers", "assignments",
                              "backends"}

    def test_with_sim_false_skips_the_timing(self, case):
        x0, b, ia, oracle = case
        loop = Runtime(nproc=4).compile(ia)
        rep = loop(SimpleLoopKernel(x0, b, ia), with_sim=False)
        assert rep.sim is None
        np.testing.assert_array_equal(rep.x, oracle)
        # The flag skips the report's copy only: the loop still times.
        assert loop.simulate().total_time > 0

    def test_default_simulation_is_memoized(self, case):
        _, _, ia, _ = case
        loop = Runtime(nproc=4).compile(ia)
        assert loop.simulate() is loop.simulate()
        assert loop.simulate(unit_work=np.ones(len(ia))) is not loop.simulate()

    def test_parallel_solver_rejects_conflicting_costs(self):
        from repro.krylov.parallel import ParallelSolver
        from repro.machine.costs import MachineCosts
        from repro.mesh.problems import get_problem
        prob = get_problem("5-PT", scale=0.2)
        rt = Runtime(nproc=4)
        with pytest.raises(ValidationError, match="conflicting cost"):
            ParallelSolver(prob.a, 4, costs=MachineCosts(t_work_base=1.0),
                           runtime=rt)
        with pytest.raises(ValidationError, match="nproc"):
            ParallelSolver(prob.a, 8, runtime=rt)
        # Matching or omitted costs are fine, and the session cache
        # amortises the second solver's inspections entirely.
        ParallelSolver(prob.a, 4, costs=MULTIMAX_320, runtime=rt)
        hits_before = rt.cache_stats.hits
        ParallelSolver(prob.a, 4, runtime=rt)
        assert rt.cache_stats.hits >= hits_before + 2

    def test_experiment_sweeps_accept_iterators(self):
        from repro.experiments.figure12 import run_figure12
        from repro.experiments.runner import ExperimentContext
        ctx = ExperimentContext(nproc=4, scale=0.2)
        points, _ = run_figure12(ctx, mesh=17, nprocs=iter([2, 4]))
        assert [pt.nproc for pt in points] == [2, 4]

    def test_chunked_assignment_correct(self, case):
        x0, b, ia, oracle = case
        rep = Runtime(nproc=4).compile(
            ia, scheduler="local", assignment="chunked",
        )(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_array_equal(rep.x, oracle)


class TestParameterizedAssignments:
    """Satellite bug: ``chunked``'s chunk size used to be unreachable —
    the registry adapter always called ``fn(n, nproc)``, so every user
    got the default of 16.  ``"chunked:<size>"`` now reaches it."""

    def test_spec_binds_the_chunk_size(self):
        from repro.core.partition import chunked_partition
        fn = partitioner_registry.get("chunked:4")
        np.testing.assert_array_equal(
            fn(20, 2), chunked_partition(20, 2, chunk=4))
        # The plain name keeps the default.
        np.testing.assert_array_equal(
            partitioner_registry.get("chunked")(64, 2),
            chunked_partition(64, 2, chunk=16))

    def test_compile_uses_the_parameter(self, case):
        x0, b, ia, oracle = case
        loop = Runtime(nproc=2).compile(
            ia, scheduler="identity", assignment="chunked:1",
        )
        # chunk=1 degenerates to the wrapped assignment.
        np.testing.assert_array_equal(
            loop.schedule.owner, np.arange(len(ia)) % 2)
        rep = loop(SimpleLoopKernel(x0, b, ia))
        np.testing.assert_array_equal(rep.x, oracle)

    def test_chunk_size_is_in_the_cache_key(self, case):
        _, _, ia, _ = case
        rt = Runtime(nproc=4)
        rt.compile(ia, scheduler="local", assignment="chunked:8")
        assert rt.compile(ia, scheduler="local",
                          assignment="chunked:8").cache_hit
        assert not rt.compile(ia, scheduler="local",
                              assignment="chunked:32").cache_hit
        assert not rt.compile(ia, scheduler="local",
                              assignment="chunked").cache_hit

    def test_bad_specs_fail_eagerly(self, case):
        _, _, ia, _ = case
        with pytest.raises(ValidationError, match="does not accept a parameter"):
            Runtime(nproc=2).compile(ia, assignment="wrapped:4")
        with pytest.raises(ValidationError, match="must be an integer"):
            Runtime(nproc=2).compile(ia, assignment="chunked:huge")
        with pytest.raises(ValidationError, match="valid options are"):
            Runtime(nproc=2).compile(ia, assignment="nope:4")

    def test_chunk_must_be_positive(self, case):
        _, _, ia, _ = case
        with pytest.raises(ValidationError, match="positive"):
            Runtime(nproc=2).compile(ia, assignment="chunked:0")
