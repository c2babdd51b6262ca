"""Tests for :mod:`repro.resilience` — recovery and the watchdog,
under the faults of ``tests/faults.py``.

The contract under test: every injected fault class ends in a
successful run whose numbers are **bitwise identical** to the no-fault
serial oracle, with the tier walk recorded in ``report.recovery``;
exhausted recovery re-raises the last error with the record attached;
``recovery=None`` sessions propagate the first failure, and clean runs
carry ``report.recovery is None``.

``REPRO_FAULT_SEED`` seeds every plan, so one suite exercises
different injection points per seed (CI sweeps it over this file and
tests/test_contract.py's property, which arms the kernel and store
seams under every strategy).
"""

import json
import os
import threading

import numpy as np
import pytest

from faults import SEAMS, FaultPlan, FaultSpec, InjectedFault, armed
from repro import LoopProgram, RetryPolicy, Runtime, ScheduleCache, TuningStore
from repro.errors import (
    DeadlockError,
    ExecutionError,
    ExecutionTimeout,
    ValidationError,
)
from repro.resilience.recovery import RecoveryRecord
from repro.util.locking import FileLock, LockTimeout

N = 60
NPROC = 4

#: Injection seed of every plan in this file.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Timeouts every entry point refuses: not positive, not finite, or
#: past what a thread join accepts once the watchdog's margin is added.
BAD_TIMEOUTS = (0, -1, -0.5, float("nan"), float("inf"), 1e12,
                threading.TIMEOUT_MAX)


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
        threads = threading.active_count()
        # A huge timeout used to raise OverflowError from the real
        # backends after their workers had started, and leave each
        # threaded run's watchdog polling forever.
        for backend in ("serial", "sim", "threads", "processes"):
            if backend == "sim":  # no backend: the model takes no timeout
                with pytest.raises(ValidationError, match="'threads'$"):
                    loop(backend=backend)
                continue
            for bad in BAD_TIMEOUTS:
                with pytest.raises(ValidationError, match="timeout"):
                    loop(timeout=bad, backend=backend)
        assert threading.active_count() == threads

    def test_non_positive_timeout_rejected_on_runtime_run(self):
        rt = Runtime(nproc=NPROC)
        for bad in BAD_TIMEOUTS:
            with pytest.raises(ValidationError, match="timeout"):
                rt.run(program(), timeout=bad)

    def test_faults_must_be_a_plan(self):
        # Fault injection is no Runtime knob: the keyword is gone.
        with pytest.raises(TypeError, match="faults"):
            Runtime(nproc=NPROC, faults=FaultPlan())

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
        # times=1.5 used to fire twice and leave remaining() at -0.5;
        # a nan / inf stall to sleep until the watchdog killed it; a
        # negative or fractional iteration never to fire at all.
        for times in (0, 1.5):
            with pytest.raises(ValidationError, match="times"):
                FaultSpec("kernel", times=times)
        for seconds in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="seconds"):
                FaultSpec("stall", seconds=seconds)
        for iteration in (-3, 2.5):
            with pytest.raises(ValidationError, match="iteration"):
                FaultSpec("kernel", iteration=iteration)
        with pytest.raises(ValidationError, match="store"):
            FaultSpec("store", store="redis")
        with pytest.raises(ValidationError, match="mode"):
            FaultSpec("store", mode="bitflip")
        with pytest.raises(ValidationError, match="FaultSpec"):
            FaultPlan(["kernel"])

    def test_retry_policy_validation(self):
        # 1.5 attempts used to be a TypeError at the first failure, and
        # a nan deadline or backoff to be accepted.
        for bad in ({"max_attempts": 0}, {"max_attempts": 1.5},
                    {"backoff": -1.0}, {"backoff": float("nan")},
                    {"deadline": 0.0}, {"deadline": float("nan")}):
            (name,) = bad
            with pytest.raises(ValidationError, match=name):
                RetryPolicy(**bad)
        assert RetryPolicy(backoff=0).backoff == 0

    def test_error_taxonomy(self):
        # Old call sites catch RuntimeError / DeadlockError; the typed
        # errors must keep satisfying both.
        assert issubclass(ExecutionError, RuntimeError)
        assert issubclass(ExecutionTimeout, ExecutionError)
        assert issubclass(ExecutionTimeout, DeadlockError)
        assert issubclass(InjectedFault, ExecutionError)


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_seeded_target_is_deterministic(self):
        choices = set()
        for _ in range(3):
            plan = FaultPlan("kernel", seed=SEED + 13)
            plan.wrap_kernel(program().make_kernel())
            choices.add(plan._chosen[0])
        assert len(choices) == 1

    def test_different_seeds_move_the_target(self):
        targets = set()
        for s in range(8):
            plan = FaultPlan("kernel", seed=s)
            plan.wrap_kernel(program(n=500).make_kernel())
            targets.add(plan._chosen[0])
        assert len(targets) > 1

    def test_spent_plan_wraps_nothing(self):
        plan = FaultPlan("kernel", iteration=3)
        kernel = program().make_kernel()
        wrapped = plan.wrap_kernel(kernel)
        assert wrapped is not kernel
        with pytest.raises(InjectedFault):
            wrapped.execute_index(3)
        assert plan._remaining == [0]
        # Budget spent: the next attempt gets the raw kernel back.
        assert plan.wrap_kernel(kernel) is kernel

    def test_fired_record(self):
        plan = FaultPlan("kernel", iteration=3)
        wrapped = plan.wrap_kernel(program().make_kernel())
        with pytest.raises(InjectedFault) as info:
            wrapped.execute_index(3)
        assert info.value.seam == "kernel"
        assert info.value.iteration == 3
        assert plan.fired == [{"seam": "kernel", "iteration": 3}]

    def test_empty_plan_is_inert(self, oracle):
        with armed(FaultPlan()):
            report = Runtime(nproc=NPROC, recovery=True).compile(program())()
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
        with armed(FaultPlan("kernel", seed=SEED)) as plan:
            report = Runtime(nproc=NPROC, recovery=True).compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        rec = report.recovery
        assert rec.recovered is True
        assert rec.cause == "InjectedFault"
        assert rec.final_tier == "serial"
        assert len(rec.attempts) == 1
        assert rec.attempts[0].iteration == plan.fired[0]["iteration"]

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
        loop = Runtime(nproc=NPROC, recovery=True).compile(
            prog, executor=executor)
        with armed(FaultPlan("kernel", seed=SEED)) as plan:
            report = loop()
        assert loop.executor.kernel_path == "vectorized"
        assert [f["seam"] for f in plan.fired] == ["kernel"]
        np.testing.assert_array_equal(report.x, expected)
        rec = report.recovery
        assert rec.recovered and rec.cause == "InjectedFault"
        assert rec.attempts[0].iteration == plan.fired[0]["iteration"]
        # Without recovery the same fault surfaces, typed.
        loop = Runtime(nproc=NPROC).compile(prog, executor=executor)
        again = FaultPlan("kernel", iteration=plan.fired[0]["iteration"])
        with armed(again), pytest.raises(InjectedFault):
            loop()

    def test_worker_death_wraps_into_typed_execution_error(self):
        # No recovery: the raw failure must carry the iteration index.
        loop = Runtime(nproc=NPROC, backend="threads").compile(program())
        with armed(FaultPlan("death", iteration=7)), \
                pytest.raises(ExecutionError) as info:
            loop()
        assert info.value.iteration == 7
        assert "iteration 7" in str(info.value)

    def test_worker_death_recovers_on_threads(self, oracle):
        rt = Runtime(nproc=NPROC, backend="threads", recovery=True)
        with armed(FaultPlan("death", seed=SEED)):
            report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.recovered
        assert report.recovery.attempts[0].error == "ExecutionError"

    def test_worker_death_recovers_on_processes(self):
        # A dead worker process never finishes its task: the pool
        # deadline turns it into a typed timeout, and the retry runs
        # clean (the budget was spent in the parent).
        from repro.core.executor import SerialExecutor
        from repro.sparse.build import random_lower_triangular

        l = random_lower_triangular(N, avg_off_diag=2.5, max_band=12, seed=5)
        prog = LoopProgram.from_csr(l, np.random.default_rng(5).random(N))
        expected = SerialExecutor().run(prog.make_kernel()).copy()
        loop = Runtime(nproc=2, backend="processes",
                       recovery=True).compile(prog)
        with armed(FaultPlan("death", seed=SEED)) as plan:
            report = loop(timeout=1.0)
        np.testing.assert_array_equal(report.x, expected)
        assert [f["seam"] for f in plan.fired] == ["death"]
        assert report.recovery.tiers == ["processes"]
        assert report.recovery.attempts[0].error == "ExecutionTimeout"

    def test_stall_watchdog_degrades_to_serial(self, oracle):
        # Stall budget outlasts the per-tier retries, so the run must
        # walk threads -> serial; the watchdog converts each stalled
        # attempt into a typed timeout instead of hanging.
        rt = Runtime(nproc=NPROC, backend="threads", recovery=True)
        with armed(FaultPlan("stall", seconds=30.0, times=2, seed=SEED)):
            report = rt.compile(program())(timeout=0.5)
        np.testing.assert_array_equal(report.x, oracle)
        rec = report.recovery
        assert rec.tiers == ["threads", "serial"]
        assert rec.final_tier == "serial"
        assert all(a.error == "ExecutionTimeout" for a in rec.attempts)

    def test_forced_timeout_seam(self, oracle):
        rt = Runtime(nproc=NPROC, backend="threads", recovery=True)
        with armed(FaultPlan("timeout")) as plan:
            report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.attempts[0].error == "ExecutionTimeout"
        assert "watchdog" in report.recovery.attempts[0].message
        assert plan.fired == [{"seam": "timeout"}]

    def test_stall_without_recovery_raises_typed_timeout(self):
        loop = Runtime(nproc=NPROC, backend="threads").compile(program())
        with armed(FaultPlan("stall", seconds=30.0, seed=SEED)), \
                pytest.raises(ExecutionTimeout):
            loop(timeout=0.5)

    def test_speculative_degrades_to_classic_transiently(self, oracle):
        # Budget of 3 fails both speculative attempts and the first
        # classic one; the classic retry succeeds.  The speculative
        # loop must NOT be permanently demoted by the transient fault.
        rt = Runtime(nproc=NPROC, tuning=None, recovery=True)
        loop = rt.compile(program(), strategy="speculative")
        with armed(FaultPlan("kernel", times=3, seed=SEED)):
            report = loop()
        np.testing.assert_array_equal(report.x, oracle)
        assert report.recovery.tiers == ["serial", "classic"]
        assert report.recovery.final_tier == "classic"
        assert loop.plan.kind == "speculative"
        clean = loop()
        assert clean.recovery is None
        np.testing.assert_array_equal(clean.x, oracle)

    def test_exhausted_recovery_reraises_with_record(self):
        loop = Runtime(nproc=NPROC, recovery=True).compile(program())
        with armed(FaultPlan("kernel", times=99, seed=SEED)), \
                pytest.raises(InjectedFault) as info:
            loop()
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
        loop = Runtime(nproc=NPROC, recovery=RetryPolicy(
            max_attempts=50, backoff=0.05, deadline=0.2)).compile(program())
        with armed(FaultPlan("kernel", times=99, seed=SEED)), \
                pytest.raises(InjectedFault) as info:
            loop()
        rec = info.value.recovery
        assert rec.cause == "deadline"
        assert len(rec.attempts) < 50

    def test_every_iteration_seam_matches_oracle(self, oracle):
        # The acceptance loop: every fault class ends in a successful
        # run bitwise identical to the no-fault serial oracle.
        plans = {
            "kernel": FaultPlan("kernel", seed=SEED),
            "death": FaultPlan("death", seed=SEED),
            "stall": FaultPlan("stall", seconds=30.0, times=2,
                                            seed=SEED),
            "timeout": FaultPlan("timeout"),
        }
        assert set(plans) | {"store"} == set(SEAMS)
        for seam, plan in plans.items():
            rt = Runtime(nproc=NPROC, backend="threads", recovery=True)
            with armed(plan):
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
        rt = Runtime(nproc=NPROC, cache_dir=str(tmp_path), recovery=True)
        with armed(FaultPlan("store")) as plan:
            report = rt.compile(program())()
        np.testing.assert_array_equal(report.x, oracle)
        assert plan.fired[0]["seam"] == "store"
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
        with armed(FaultPlan("store", mode="garbage")):
            Runtime(nproc=NPROC, cache_dir=str(tmp_path)).compile(program())
        rt2 = Runtime(nproc=NPROC, cache_dir=str(tmp_path))
        rt2.compile(program())
        assert rt2.cache.stats.disk_heals >= 1

    @pytest.mark.parametrize("kind", ["schedule", "tuning"])
    def test_a_plan_corrupts_only_its_own_sessions_writes(self, tmp_path,
                                                          kind):
        # Two sessions on one store object; only the writes made inside
        # the armed scope are corrupted, and only in the named store.
        if kind == "schedule":
            shared = {"cache": ScheduleCache(8, persist_dir=tmp_path)}
            reopened, compile_opts, stats = "cache_dir", {}, "cache_stats"
        else:
            shared = {"tuning": TuningStore(8, persist_dir=tmp_path)}
            reopened, stats = "tuning_dir", "tuning_stats"
            compile_opts = {"strategy": "auto"}
        plan = FaultPlan([FaultSpec("store", store=kind)])
        Runtime(nproc=NPROC, **shared).compile(program(), **compile_opts)
        assert plan.fired == []
        # The fault-free session's entry is whole: a fresh process-style
        # session is served from disk with nothing to heal.
        fresh = Runtime(nproc=NPROC, **{reopened: tmp_path})
        fresh.compile(program(), **compile_opts)
        assert getattr(fresh, stats).disk_hits == 1
        assert getattr(fresh, stats).disk_heals == 0
        # ... and the plan fires on a write inside its scope.
        with armed(plan):
            Runtime(nproc=NPROC, **shared).compile(program(seed=8),
                                                   **compile_opts)
        assert [f["store"] for f in plan.fired] == [kind]

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
                     recovery=True)
        with armed(FaultPlan("death", seed=SEED)) as plan:
            rt.compile(program())()
        assert [f["seam"] for f in plan.fired] == ["death"]
        metrics = rt.observer.metrics.as_dict()
        assert not any(name.startswith("faults.") for name in metrics)
        assert metrics["resilience.retries"]["value"] >= 1
        assert metrics["resilience.recovered_runs"]["value"] == 1
        path = tmp_path / "metrics.jsonl"
        count = rt.observer.write_metrics_jsonl(path, label="chaos")
        assert count == len(metrics)
        line = json.loads(path.read_text().splitlines()[0])
        assert line["label"] == "chaos"
        assert line["metrics"]["resilience.recovered_runs"]["value"] == 1

    def test_failed_run_counter(self):
        rt = Runtime(nproc=NPROC, observe=True, recovery=True)
        with armed(FaultPlan("kernel", times=99, seed=SEED)), \
                pytest.raises(InjectedFault):
            rt.compile(program())()
        metrics = rt.observer.metrics.as_dict()
        assert metrics["resilience.failed_runs"]["value"] == 1

    def test_tier_fallback_counter(self):
        rt = Runtime(nproc=NPROC, backend="threads", observe=True,
                     recovery=True)
        with armed(FaultPlan("stall", seconds=30.0, times=2, seed=SEED)):
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
    """An armed scope fires for every session inside it, and the plan
    is the one record of what fired: sessions count only what their
    own recovery did."""

    @staticmethod
    def recovered(rt):
        return rt.observer.metrics.value("resilience.recovered_runs")

    def test_an_unobserved_sessions_faults_are_not_counted_elsewhere(self):
        a = Runtime(2, observe=True, recovery=True)
        b = Runtime(2, recovery=True)
        with armed(FaultPlan([FaultSpec("kernel")])) as plan:
            assert b.compile(program())().recovery.recovered
        assert [f["seam"] for f in plan.fired] == ["kernel"]
        assert a.observer.metrics.as_dict() == {}   # a executed nothing

    def test_a_later_session_does_not_steal_the_counts(self):
        a = Runtime(2, observe=True, recovery=True)
        c = Runtime(2, observe=True, recovery=True)
        with armed(FaultPlan([FaultSpec("kernel")])) as plan:
            assert a.compile(program())().recovery is not None
            assert c.compile(program())().recovery is None  # budget spent
        assert (self.recovered(a), self.recovered(c)) == (1, 0)
        assert [f["seam"] for f in plan.fired] == ["kernel"]

    def test_every_seam_is_counted_by_the_session_that_hit_it(self,
                                                              tmp_path):
        # A store fault at compile, then a kernel fault no retry absorbs.
        plan = FaultPlan([FaultSpec("store"), FaultSpec("kernel", times=9)])
        rt = Runtime(2, observe=True, cache_dir=tmp_path)
        with armed(plan):
            loop = rt.compile(program())
            assert [f["seam"] for f in plan.fired] == ["store"]
            with pytest.raises(InjectedFault):
                loop()
        assert [f["seam"] for f in plan.fired] == ["store", "kernel"]
        # The corrupted write is no store; nothing counts the faults.
        assert rt.cache_stats.disk_stores == 0
        assert not any(name.startswith(("faults.", "resilience."))
                       for name in rt.observer.metrics.as_dict())
        assert not hasattr(plan, "observer")
