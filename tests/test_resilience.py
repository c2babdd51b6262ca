"""Tests for :mod:`repro.resilience` — faults, recovery, watchdog.

The contract under test: every injected fault class ends in a
successful run whose numbers are **bitwise identical** to the no-fault
serial oracle, with the tier walk recorded in ``report.recovery``;
exhausted recovery re-raises the last error with the record attached;
``faults=None`` / ``recovery=None`` sessions behave exactly as before
(``report.recovery is None`` on clean runs).

``REPRO_FAULT_SEED`` (set by the CI chaos matrix) seeds every plan so
the same suite exercises different injection points per CI leg.
"""

import json
import os

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    LoopProgram,
    RetryPolicy,
    Runtime,
    ScheduleCache,
    TuningStore,
)
from repro.errors import (
    DeadlockError,
    ExecutionError,
    ExecutionTimeout,
    InjectedFault,
    ValidationError,
)
from repro.resilience import SEAMS
from repro.resilience.recovery import RecoveryRecord
from repro.util.locking import FileLock, LockTimeout

N = 60
NPROC = 4

#: CI chaos matrix entry point: each leg runs the whole file under a
#: different injection seed.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def program(n=N, seed=7):
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, n, size=n)
    return LoopProgram.from_indirection(ia, x=rng.random(n),
                                        b=rng.random(n))


@pytest.fixture(scope="module")
def oracle():
    """The no-fault serial result every recovered run must equal."""
    return Runtime(nproc=NPROC).compile(program())().x.copy()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
class TestValidation:
    def test_non_positive_timeout_rejected_on_loop_call(self):
        loop = Runtime(nproc=NPROC).compile(program())
        for bad in (0, -1, -0.5, float("nan")):
            with pytest.raises(ValidationError, match="timeout"):
                loop(timeout=bad)

    def test_non_positive_timeout_rejected_on_runtime_run(self):
        rt = Runtime(nproc=NPROC)
        with pytest.raises(ValidationError, match="timeout"):
            rt.run(program(), timeout=0)

    def test_faults_must_be_a_plan(self):
        with pytest.raises(ValidationError, match="FaultPlan"):
            Runtime(nproc=NPROC, faults="kernel")

    def test_recovery_must_be_policy_or_bool(self):
        with pytest.raises(ValidationError, match="RetryPolicy"):
            Runtime(nproc=NPROC, recovery=3)

    def test_recovery_true_builds_default_policy(self):
        rt = Runtime(nproc=NPROC, recovery=True)
        assert isinstance(rt.recovery, RetryPolicy)
        assert Runtime(nproc=NPROC, recovery=False).recovery is None

    def test_fault_spec_validation(self):
        with pytest.raises(ValidationError, match="seam"):
            FaultSpec("gpu-fire")
        with pytest.raises(ValidationError, match="times"):
            FaultSpec("kernel", times=0)
        with pytest.raises(ValidationError, match="seconds"):
            FaultSpec("stall", seconds=0.0)
        with pytest.raises(ValidationError, match="store"):
            FaultSpec("store", store="redis")
        with pytest.raises(ValidationError, match="mode"):
            FaultSpec("store", mode="bitflip")
        with pytest.raises(ValidationError, match="FaultSpec"):
            FaultPlan(["kernel"])

    def test_retry_policy_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(deadline=0.0)

    def test_error_taxonomy(self):
        # Old call sites catch RuntimeError / DeadlockError; the typed
        # errors must keep satisfying both.
        assert issubclass(ExecutionError, RuntimeError)
        assert issubclass(ExecutionTimeout, ExecutionError)
        assert issubclass(ExecutionTimeout, DeadlockError)
        assert issubclass(InjectedFault, RuntimeError)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_seeded_target_is_deterministic(self):
        choices = set()
        for _ in range(3):
            plan = FaultPlan.kernel_exception(seed=SEED + 13)
            plan.wrap_kernel(program().make_kernel())
            choices.add(plan._chosen[0])
        assert len(choices) == 1

    def test_different_seeds_move_the_target(self):
        targets = set()
        for s in range(8):
            plan = FaultPlan.kernel_exception(seed=s)
            plan.wrap_kernel(program(n=500).make_kernel())
            targets.add(plan._chosen[0])
        assert len(targets) > 1

    def test_spent_plan_wraps_nothing(self):
        plan = FaultPlan.kernel_exception(iteration=3)
        kernel = program().make_kernel()
        wrapped = plan.wrap_kernel(kernel)
        assert wrapped is not kernel
        with pytest.raises(InjectedFault):
            wrapped.execute_index(3)
        assert plan.remaining() == 0
        # Budget spent: the next attempt gets the raw kernel back.
        assert plan.wrap_kernel(kernel) is kernel

    def test_fired_record(self):
        plan = FaultPlan.kernel_exception(iteration=3)
        wrapped = plan.wrap_kernel(program().make_kernel())
        with pytest.raises(InjectedFault) as info:
            wrapped.execute_index(3)
        assert info.value.seam == "kernel"
        assert info.value.iteration == 3
        assert plan.fired == [{"seam": "kernel", "iteration": 3}]

    def test_empty_plan_is_inert(self, oracle):
        rt = Runtime(nproc=NPROC, faults=FaultPlan(), recovery=True)
        report = rt.compile(program())()
        assert report.recovery is None
        np.testing.assert_array_equal(report.x, oracle)


# ---------------------------------------------------------------------------
# Recovery, seam by seam — each result bitwise equal to the oracle
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_clean_run_has_no_recovery_record(self, oracle):
        report = Runtime(nproc=NPROC, recovery=True).compile(program())()
        assert report.recovery is None
        np.testing.assert_array_equal(report.x, oracle)

    def test_kernel_exception_retries_on_serial(self, oracle):
        rt = Runtime(nproc=NPROC,
                     faults=FaultPlan.kernel_exception(seed=SEED),
                     recovery=True)
        report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        rec = report.recovery
        assert rec.recovered is True
        assert rec.cause == "InjectedFault"
        assert rec.final_tier == "serial"
        assert len(rec.attempts) == 1
        assert rec.attempts[0].iteration == rt.faults.fired[0]["iteration"]

    @pytest.mark.parametrize("executor", ["preschedule", "self", "doacross"])
    def test_kernel_fault_fires_on_the_level_path(self, executor):
        # A triangular program runs a batch per level through
        # execute_levels; the wrapper must route that entry point too,
        # or an armed fault is silently skipped.
        from repro.core.executor import SerialExecutor
        from repro.sparse.build import random_lower_triangular

        l = random_lower_triangular(N, avg_off_diag=2.5, max_band=12, seed=5)
        prog = LoopProgram.from_csr(l, np.random.default_rng(5).random(N))
        expected = SerialExecutor().run(prog.make_kernel()).copy()
        plan = FaultPlan.kernel_exception(seed=SEED)
        rt = Runtime(nproc=NPROC, faults=plan, recovery=True)
        loop = rt.compile(prog, executor=executor)
        report = loop()
        assert loop.executor.kernel_path == "vectorized"
        assert [f["seam"] for f in plan.fired] == ["kernel"]
        np.testing.assert_array_equal(report.x, expected)
        rec = report.recovery
        assert rec.recovered and rec.cause == "InjectedFault"
        assert rec.attempts[0].iteration == plan.fired[0]["iteration"]
        # Without recovery the same fault surfaces, typed.
        rt = Runtime(nproc=NPROC, faults=FaultPlan.kernel_exception(
            iteration=plan.fired[0]["iteration"]))
        with pytest.raises(InjectedFault):
            rt.compile(prog, executor=executor)()

    def test_worker_death_wraps_into_typed_execution_error(self):
        # No recovery: the raw failure must carry the iteration index.
        rt = Runtime(nproc=NPROC, backend="threads",
                     faults=FaultPlan.worker_death(iteration=7))
        with pytest.raises(ExecutionError) as info:
            rt.compile(program())()
        assert info.value.iteration == 7
        assert "iteration 7" in str(info.value)

    def test_worker_death_recovers_on_threads(self, oracle):
        rt = Runtime(nproc=NPROC, backend="threads",
                     faults=FaultPlan.worker_death(seed=SEED),
                     recovery=True)
        report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.recovered
        assert report.recovery.attempts[0].error == "ExecutionError"

    def test_stall_watchdog_degrades_to_serial(self, oracle):
        # Stall budget outlasts the per-tier retries, so the run must
        # walk threads -> serial; the watchdog converts each stalled
        # attempt into a typed timeout instead of hanging.
        rt = Runtime(nproc=NPROC, backend="threads",
                     faults=FaultPlan.worker_stall(seconds=30.0, times=2,
                                                   seed=SEED),
                     recovery=True)
        report = rt.compile(program())(timeout=0.5)
        np.testing.assert_array_equal(report.x, oracle)
        rec = report.recovery
        assert rec.tiers == ["threads", "serial"]
        assert rec.final_tier == "serial"
        assert all(a.error == "ExecutionTimeout" for a in rec.attempts)

    def test_forced_timeout_seam(self, oracle):
        rt = Runtime(nproc=NPROC, backend="threads",
                     faults=FaultPlan.forced_timeout(), recovery=True)
        report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.attempts[0].error == "ExecutionTimeout"
        assert "injected timeout" in report.recovery.attempts[0].message

    def test_stall_without_recovery_raises_typed_timeout(self):
        rt = Runtime(nproc=NPROC, backend="threads",
                     faults=FaultPlan.worker_stall(seconds=30.0, seed=SEED))
        with pytest.raises(ExecutionTimeout):
            rt.compile(program())(timeout=0.5)

    def test_speculative_degrades_to_classic_transiently(self, oracle):
        # Budget of 3 fails both speculative attempts and the first
        # classic one; the classic retry succeeds.  The speculative
        # loop must NOT be permanently demoted by the transient fault.
        rt = Runtime(nproc=NPROC, tuning=None,
                     faults=FaultPlan.kernel_exception(times=3, seed=SEED),
                     recovery=True)
        loop = rt.compile(program(), strategy="speculative")
        report = loop()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.tiers == ["speculative", "classic"]
        assert report.recovery.final_tier == "classic"
        assert loop.plan.kind == "speculative"
        clean = loop()
        assert clean.recovery is None
        np.testing.assert_array_equal(clean.x, oracle)

    def test_exhausted_recovery_reraises_with_record(self):
        rt = Runtime(nproc=NPROC,
                     faults=FaultPlan.kernel_exception(times=99, seed=SEED),
                     recovery=True)
        with pytest.raises(InjectedFault) as info:
            rt.compile(program())()
        rec = info.value.recovery
        assert isinstance(rec, RecoveryRecord)
        assert rec.recovered is False
        assert rec.cause == "InjectedFault"
        assert len(rec.attempts) == 2  # max_attempts on the only tier

    def test_non_recoverable_errors_propagate_unretried(self):
        loop = Runtime(nproc=NPROC, recovery=True).compile(program())
        with pytest.raises(ValidationError):
            loop(backend="no-such-backend")

    def test_retry_deadline_bounds_the_effort(self):
        rt = Runtime(nproc=NPROC,
                     faults=FaultPlan.kernel_exception(times=99, seed=SEED),
                     recovery=RetryPolicy(max_attempts=50, backoff=0.05,
                                          deadline=0.2))
        with pytest.raises(InjectedFault) as info:
            rt.compile(program())()
        rec = info.value.recovery
        assert rec.cause == "deadline"
        assert len(rec.attempts) < 50

    def test_every_iteration_seam_matches_oracle(self, oracle):
        # The acceptance loop: every fault class ends in a successful
        # run bitwise identical to the no-fault serial oracle.
        plans = {
            "kernel": FaultPlan.kernel_exception(seed=SEED),
            "death": FaultPlan.worker_death(seed=SEED),
            "stall": FaultPlan.worker_stall(seconds=30.0, times=2,
                                            seed=SEED),
            "timeout": FaultPlan.forced_timeout(),
        }
        assert set(plans) | {"store"} == set(SEAMS)
        for seam, plan in plans.items():
            rt = Runtime(nproc=NPROC, backend="threads", faults=plan,
                         recovery=True)
            report = rt.compile(program())(timeout=0.75)
            np.testing.assert_array_equal(
                report.x, oracle, err_msg=f"seam {seam!r} diverged")
            assert report.recovery is not None, seam
            assert report.recovery.recovered, seam
            assert plan.fired, seam


# ---------------------------------------------------------------------------
# Store seam (the per-process concurrency stress lives in
# test_store_concurrency.py; this is the single-process contract)
# ---------------------------------------------------------------------------
class TestStoreSeam:
    def test_partial_write_heals_on_next_read(self, tmp_path, oracle):
        rt = Runtime(nproc=NPROC, cache_dir=str(tmp_path),
                     faults=FaultPlan.store_partial_write(), recovery=True)
        report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert rt.faults.fired[0]["seam"] == "store"
        # The corrupted entry reads as a miss, heals, and is rewritten.
        rt2 = Runtime(nproc=NPROC, cache_dir=str(tmp_path))
        report2 = rt2.compile(program())()
        np.testing.assert_array_equal(report2.x, oracle)
        assert rt2.cache.stats.disk_heals >= 1
        assert rt2.cache.stats.disk_stores >= 1
        # Third session: the healed entry serves a clean disk hit.
        rt3 = Runtime(nproc=NPROC, cache_dir=str(tmp_path))
        rt3.compile(program())
        assert rt3.cache.stats.disk_hits == 1
        assert rt3.cache.stats.disk_heals == 0

    def test_garbage_mode_also_heals(self, tmp_path):
        plan = FaultPlan.store_partial_write(mode="garbage")
        rt = Runtime(nproc=NPROC, cache_dir=str(tmp_path), faults=plan)
        rt.compile(program())
        rt2 = Runtime(nproc=NPROC, cache_dir=str(tmp_path))
        rt2.compile(program())
        assert rt2.cache.stats.disk_heals >= 1

    @pytest.mark.parametrize("kind", ["schedule", "tuning"])
    def test_a_plan_corrupts_only_its_own_sessions_writes(self, tmp_path,
                                                          kind):
        # Two sessions on one store object; only one is armed.
        if kind == "schedule":
            shared = {"cache": ScheduleCache(8, persist_dir=tmp_path)}
            reopened, compile_opts, stats = "cache_dir", {}, "cache_stats"
        else:
            shared = {"tuning": TuningStore(8, persist_dir=tmp_path)}
            reopened, stats = "tuning_dir", "tuning_stats"
            compile_opts = {"strategy": "auto"}
        armed = Runtime(nproc=NPROC, **shared,
                        faults=FaultPlan([FaultSpec("store", store=kind)]))
        Runtime(nproc=NPROC, **shared).compile(program(), **compile_opts)
        assert armed.faults.fired == []
        # The fault-free session's entry is whole: a fresh process-style
        # session is served from disk with nothing to heal.
        fresh = Runtime(nproc=NPROC, **{reopened: tmp_path})
        fresh.compile(program(), **compile_opts)
        assert getattr(fresh, stats).disk_hits == 1
        assert getattr(fresh, stats).disk_heals == 0
        # ... and the plan still fires on the armed session's own write.
        armed.compile(program(seed=8), **compile_opts)
        assert [f["store"] for f in armed.faults.fired] == [kind]

    def test_index_counts_stores(self, tmp_path):
        rt = Runtime(nproc=NPROC, cache_dir=str(tmp_path))
        rt.compile(program())
        index = rt.cache.disk_index()
        assert index["_seq"] == 1
        (key,) = [k for k in index if k != "_seq"]
        assert index[key]["stores"] == 1


# ---------------------------------------------------------------------------
# File locks
# ---------------------------------------------------------------------------
class TestFileLock:
    def test_reentrant_processes_exclude_each_other(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            other = FileLock(path, timeout=0.1, poll=0.01)
            with pytest.raises(LockTimeout):
                other.acquire()

    def test_release_reopens(self, tmp_path):
        path = tmp_path / "x.lock"
        lock = FileLock(path)
        lock.acquire()
        lock.release()
        with FileLock(path, timeout=0.5):
            pass

    def test_an_uncontended_acquire_waited_nothing(self, tmp_path,
                                                   monkeypatch):
        # ``waited`` used to time the first try too, so a slow
        # open()/flock() on a busy host counted as a ``lock_waits``.
        import time

        lock = FileLock(tmp_path / "x.lock")
        try_once = lock._try_once
        monkeypatch.setattr(
            lock, "_try_once", lambda: (time.sleep(0.002), try_once())[1])
        with lock:
            assert lock.waited == 0.0

    def test_contention_is_measured(self, tmp_path):
        path = tmp_path / "x.lock"
        first = FileLock(path)
        first.acquire()
        try:
            second = FileLock(path, timeout=0.5, poll=0.01)
            import threading
            timer = threading.Timer(0.1, first.release)
            timer.start()
            with second:
                assert second.waited > 0.0
            timer.join()
        finally:
            try:
                first.release()
            except Exception:
                pass


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
class TestResilienceMetrics:
    def test_counters_and_jsonl_export(self, tmp_path):
        rt = Runtime(nproc=NPROC, backend="threads", observe=True,
                     faults=FaultPlan.worker_death(seed=SEED),
                     recovery=True)
        rt.compile(program())()
        metrics = rt.observer.metrics.as_dict()
        assert metrics["faults.injected"]["value"] == 1
        assert metrics["faults.death"]["value"] == 1
        assert metrics["resilience.retries"]["value"] >= 1
        assert metrics["resilience.recovered_runs"]["value"] == 1
        path = tmp_path / "metrics.jsonl"
        count = rt.observer.write_metrics_jsonl(path, label="chaos")
        assert count == len(metrics)
        line = json.loads(path.read_text().splitlines()[0])
        assert line["label"] == "chaos"
        assert line["metrics"]["resilience.recovered_runs"]["value"] == 1

    def test_failed_run_counter(self):
        rt = Runtime(nproc=NPROC, observe=True,
                     faults=FaultPlan.kernel_exception(times=99, seed=SEED),
                     recovery=True)
        with pytest.raises(InjectedFault):
            rt.compile(program())()
        metrics = rt.observer.metrics.as_dict()
        assert metrics["resilience.failed_runs"]["value"] == 1

    def test_tier_fallback_counter(self):
        rt = Runtime(nproc=NPROC, backend="threads", observe=True,
                     faults=FaultPlan.worker_stall(seconds=30.0, times=2,
                                                   seed=SEED),
                     recovery=True)
        rt.compile(program())(timeout=0.5)
        metrics = rt.observer.metrics.as_dict()
        assert metrics["resilience.tier_fallbacks"]["value"] == 1
        assert metrics["resilience.watchdog_fires"]["value"] >= 1

    def test_fault_free_session_has_no_resilience_metrics(self):
        rt = Runtime(nproc=NPROC, observe=True, recovery=True)
        rt.compile(program())()
        names = set(rt.observer.metrics.as_dict())
        assert not any(n.startswith(("resilience.", "faults."))
                       for n in names)


class TestSharedFaultPlan:
    """A plan shared by sessions holds none of them: each observed
    session counts the injections it ran into itself."""

    @staticmethod
    def injected(rt):
        return rt.observer.metrics.value("faults.injected") or 0

    def test_an_unobserved_sessions_faults_are_not_counted_elsewhere(self):
        plan = FaultPlan([FaultSpec("kernel")])
        a = Runtime(2, observe=True, faults=plan, recovery=True)
        b = Runtime(2, faults=plan, recovery=True)
        b.compile(program())()
        assert [f["seam"] for f in plan.fired] == ["kernel"]
        assert self.injected(a) == 0      # a executed nothing

    def test_a_later_session_does_not_steal_the_counts(self):
        plan = FaultPlan([FaultSpec("kernel")])
        a = Runtime(2, observe=True, faults=plan, recovery=True)
        c = Runtime(2, observe=True, faults=plan, recovery=True)
        a.compile(program())()
        c.compile(program())()            # the budget is spent
        assert (self.injected(a), self.injected(c)) == (1, 0)
        assert a.observer.metrics.value("faults.kernel") == 1

    def test_every_seam_is_counted_by_the_session_that_hit_it(self,
                                                              tmp_path):
        # Store writes and failing attempts are both bracketed: a store
        # fault at compile, then a kernel fault no retry absorbs.
        plan = FaultPlan([FaultSpec("store"), FaultSpec("kernel", times=9)])
        rt = Runtime(2, observe=True, faults=plan, cache_dir=tmp_path)
        loop = rt.compile(program())
        assert self.injected(rt) == 1
        with pytest.raises(InjectedFault):
            loop()
        assert self.injected(rt) == 2
        assert rt.observer.metrics.value("faults.store") == 1
        assert not hasattr(plan, "observer")
