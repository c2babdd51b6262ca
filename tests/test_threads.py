"""Unit tests for the real-thread execution backend."""

import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import Runtime
from repro.core.dependence import DependenceGraph
from repro.core.executor import SimpleLoopKernel, SerialExecutor
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.wavefront import compute_wavefronts
from repro.errors import DeadlockError, ValidationError
from repro.machine.threads import ThreadedMachine


@pytest.fixture(scope="module")
def chain_kernel():
    n = 64
    rng = np.random.default_rng(61)
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = np.maximum(np.arange(n) - 1, 0)  # chain: i depends on i-1
    kernel_factory = lambda: SimpleLoopKernel(x0, b, ia)  # noqa: E731
    dep = DependenceGraph.from_indirection(ia)
    oracle = SerialExecutor().run(kernel_factory())
    return kernel_factory, dep, oracle


class TestValidation:
    def test_positive_nproc(self):
        # 2.7 used to run on two threads without a word.
        for bad in (0, 2.7):
            with pytest.raises(ValidationError, match="nproc"):
                ThreadedMachine(bad)

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf"),
                                     threading.TIMEOUT_MAX])
    def test_timeout_validated(self, bad):
        # nan used to be a watchdog that never fires, -1 one that fires
        # at once, inf an OverflowError after the lanes had started.
        with pytest.raises(ValidationError, match="timeout"):
            ThreadedMachine(2, timeout=bad)


class TestSelfExecuting:
    def test_chain(self, chain_kernel):
        factory, dep, oracle = chain_kernel
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 4)
        kernel = factory()
        kernel.start()
        ThreadedMachine(4).run_self_executing(kernel, sched, dep)
        np.testing.assert_allclose(kernel.result(), oracle)

    def test_identity_schedule(self, chain_kernel):
        factory, dep, oracle = chain_kernel
        wf = compute_wavefronts(dep)
        sched = identity_schedule(wf, 3)
        kernel = factory()
        kernel.start()
        ThreadedMachine(3).run_self_executing(kernel, sched, dep)
        np.testing.assert_allclose(kernel.result(), oracle)

    def test_deadlock_times_out(self, chain_kernel):
        """An illegal schedule (dep after dependent on same proc) must
        raise DeadlockError, not hang."""
        factory, dep, _ = chain_kernel
        wf = compute_wavefronts(dep)
        sched = replace(identity_schedule(wf, 1),  # 63,0,1,..
                        local_order=[np.roll(np.arange(dep.n), 1)])
        kernel = factory()
        kernel.start()
        with pytest.raises(DeadlockError):
            ThreadedMachine(1, timeout=1.0).run_self_executing(kernel, sched, dep)


class TestPrescheduled:
    def test_chain(self, chain_kernel):
        factory, dep, oracle = chain_kernel
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 4)
        kernel = factory()
        kernel.start()
        ThreadedMachine(4).run_prescheduled(kernel, sched.phases())
        np.testing.assert_allclose(kernel.result(), oracle)

    def test_worker_exception_propagates(self, chain_kernel):
        factory, dep, _ = chain_kernel
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 2)

        class Exploding:
            n = 64

            def execute_index(self, i):
                raise RuntimeError("boom")

        with pytest.raises((RuntimeError, DeadlockError)):
            ThreadedMachine(2, timeout=2.0).run_prescheduled(
                Exploding(), sched.phases()
            )


class TestCallersErrstate:
    """Every lane runs under the caller's ``np.errstate`` (numpy keeps
    it per context, and a new thread would start at the defaults): a
    Figure 3 loop whose iteration 5 multiplies ``0.0`` by ``inf``
    warns, raises or keeps quiet on ``threads`` exactly as on
    ``serial``."""

    @pytest.fixture
    def flagged(self):
        n = 50
        rng = np.random.default_rng(53)
        ia = rng.integers(0, n, size=n)
        x, b = rng.standard_normal(n), rng.standard_normal(n)
        ia[5], x[3], b[5], x[9] = 3, np.inf, 0.0, np.nan
        loop = Runtime(nproc=3).compile(ia)
        return loop, lambda: SimpleLoopKernel(x, b, ia)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_an_ignored_flag_warns_on_no_backend(self, flagged, backend):
        loop, kernel = flagged
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            x = loop(kernel(), backend=backend, with_sim=False).x
        assert np.isnan(x[5])

    def test_a_raised_flag_is_the_same_exception_on_every_backend(
            self, flagged):
        loop, kernel = flagged
        raised = []
        for backend in ("serial", "threads"):
            with np.errstate(all="raise"), pytest.raises(Exception) as exc:
                loop(kernel(), backend=backend, with_sim=False)
            raised.append(exc.type)
        assert raised == [FloatingPointError, FloatingPointError]
