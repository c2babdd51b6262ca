"""Unit tests for the real-thread execution backend."""

import threading
from dataclasses import replace

import numpy as np
import pytest

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
