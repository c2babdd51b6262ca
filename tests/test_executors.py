"""Executor correctness: every engine must reproduce the serial oracle."""

import numpy as np
import pytest

from repro.core.doacross import DoacrossExecutor
from repro.core.executor import (
    GenericLoopKernel,
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
)
from repro.core.inspector import Inspector
from repro.core.prescheduled import PreScheduledExecutor
from repro.core.self_executing import SelfExecutingExecutor
from repro.core.schedule import global_schedule, local_schedule
from repro.core.partition import wrapped_partition
from repro.core.wavefront import compute_wavefronts
from repro.errors import ScheduleError, ValidationError


@pytest.fixture(scope="module")
def simple_case():
    rng = np.random.default_rng(31)
    n = 150
    x0 = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ia = rng.integers(0, n, size=n)
    kernel = SimpleLoopKernel(x0, b, ia)
    dep = kernel.dependence_graph()
    oracle = SerialExecutor(dep).run(SimpleLoopKernel(x0, b, ia))
    return x0, b, ia, dep, oracle


def fresh_kernel(case):
    x0, b, ia, _, _ = case
    return SimpleLoopKernel(x0, b, ia)


class TestSimpleLoopKernel:
    def test_forward_reference_reads_old_value(self):
        # x[0] reads x[2] (forward): must use the ORIGINAL x[2].
        x0 = np.array([1.0, 1.0, 1.0])
        b = np.ones(3)
        ia = np.array([2, 0, 1])
        k = SimpleLoopKernel(x0, b, ia)
        out = SerialExecutor().run(k)
        # i=0: x0=1+1*old(x2)=2; i=1: 1+new(x0)=3; i=2: 1+new(x1)=4
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0])

    def test_matches_naive_python_loop(self, simple_case):
        x0, b, ia, _, oracle = simple_case
        x = x0.copy()
        for i in range(len(x)):
            x[i] = x[i] + b[i] * x[ia[i]]
        np.testing.assert_allclose(oracle, x)

    def test_batch_matches_scalar(self, simple_case):
        x0, b, ia, dep, _ = simple_case
        wf = compute_wavefronts(dep)
        k1 = SimpleLoopKernel(x0, b, ia)
        k1.start()
        k2 = SimpleLoopKernel(x0, b, ia)
        k2.start()
        from repro.core.wavefront import wavefront_members
        for members in wavefront_members(wf):
            k1.execute_batch(members)
            for i in members:
                k2.execute_index(int(i))
        np.testing.assert_array_equal(k1.result(), k2.result())

    def test_validation(self):
        with pytest.raises(ValidationError):
            SimpleLoopKernel(np.ones(3), np.ones(2), np.zeros(3, dtype=int))
        with pytest.raises(ValidationError):
            SimpleLoopKernel(np.ones(3), np.ones(3), np.array([0, 1, 9]))


class TestSelfExecuting:
    @pytest.mark.parametrize("nproc", [1, 2, 4, 7])
    def test_global_schedule(self, simple_case, nproc):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, nproc), dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_local_schedule(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        sched = local_schedule(wf, wrapped_partition(dep.n, 3), 3)
        ex = SelfExecutingExecutor(sched, dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, 4), dep)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_simulate_consistent_with_run(self, simple_case):
        _, _, _, dep, _ = simple_case
        wf = compute_wavefronts(dep)
        ex = SelfExecutingExecutor(global_schedule(wf, 4), dep)
        sim = ex.simulate()
        assert sim.mode == "self"
        assert sim.nproc == 4
        assert 0.0 < sim.efficiency <= 1.0


class TestPreScheduled:
    @pytest.mark.parametrize("nproc", [1, 3, 5])
    def test_global_schedule(self, simple_case, nproc):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = PreScheduledExecutor(global_schedule(wf, nproc), dep)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        wf = compute_wavefronts(dep)
        ex = PreScheduledExecutor(global_schedule(wf, 3), dep)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_rejects_identity_schedule(self, simple_case):
        """Identity order is not wavefront-sorted -> phases() fails."""
        _, _, _, dep, _ = simple_case
        from repro.core.schedule import identity_schedule
        wf = compute_wavefronts(dep)
        sched = identity_schedule(wf, 2)
        if np.any(np.diff(wf[sched.local_order[0]]) < 0):
            with pytest.raises(ScheduleError):
                PreScheduledExecutor(sched, dep)


class TestDoacross:
    def test_matches_oracle(self, simple_case):
        _, _, _, dep, oracle = simple_case
        ex = DoacrossExecutor(dep, 4)
        np.testing.assert_allclose(ex.run(fresh_kernel(simple_case)), oracle)

    def test_threaded(self, simple_case):
        _, _, _, dep, oracle = simple_case
        ex = DoacrossExecutor(dep, 3)
        np.testing.assert_allclose(
            ex.run_threaded(fresh_kernel(simple_case)), oracle,
        )

    def test_no_sched_access_overhead(self, simple_case):
        _, _, _, dep, _ = simple_case
        sim = DoacrossExecutor(dep, 4).simulate()
        assert sim.sched_time == 0.0


class TestTriangularKernel:
    def test_all_executors_match_levelsolver(self, mesh_lower):
        from repro.core.dependence import DependenceGraph
        from repro.sparse.triangular import solve_lower_sequential

        l, d = mesh_lower
        b = np.linspace(-1.0, 1.0, l.nrows)
        expected = solve_lower_sequential(l, b, diag=d)
        dep = DependenceGraph.from_lower_csr(l)
        wf = compute_wavefronts(dep)
        for make in (
            lambda: SelfExecutingExecutor(global_schedule(wf, 4), dep),
            lambda: PreScheduledExecutor(global_schedule(wf, 4), dep),
            lambda: DoacrossExecutor(dep, 4),
        ):
            kernel = TriangularSolveKernel(l, b, diag=d)
            out = make().run(kernel)
            # Batched and per-row paths share the serial summation
            # order, so the agreement is exact.
            np.testing.assert_array_equal(out, expected)
            np.testing.assert_array_equal(
                out, SerialExecutor().run(TriangularSolveKernel(l, b, diag=d)))

    def test_zero_diag_rejected(self, mesh_lower):
        l, _ = mesh_lower
        with pytest.raises(ValidationError):
            TriangularSolveKernel(l, np.zeros(l.nrows), diag=np.zeros(l.nrows))


class TestGenericKernel:
    def test_body_and_setup(self):
        acc = []
        k = GenericLoopKernel(5, lambda i: acc.append(i), setup=lambda: acc.clear())
        SerialExecutor().run(k)
        assert acc == [0, 1, 2, 3, 4]

    def test_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            GenericLoopKernel(-1, lambda i: None)


class TestSerialExecutor:
    def test_rejects_forward_dependences(self):
        from repro.core.dependence import DependenceGraph
        dep = DependenceGraph.from_edges([(0, 2)], 3)
        k = GenericLoopKernel(3, lambda i: None)
        with pytest.raises(ScheduleError):
            SerialExecutor(dep).run(k)


# ---------------------------------------------------------------------------
# The one contract of the three classic executors
# ---------------------------------------------------------------------------
MODES = ("self", "preschedule", "doacross")


def build_executor(mode, dep, nproc=3):
    """The executor the registry would build, from its constructor."""
    if mode == "doacross":
        return DoacrossExecutor(dep, nproc)
    cls = {"self": SelfExecutingExecutor,
           "preschedule": PreScheduledExecutor}[mode]
    return cls(global_schedule(compute_wavefronts(dep), nproc), dep)


@pytest.mark.parametrize("mode", MODES)
class TestClassicContract:
    def test_one_base_owns_the_shared_engines(self, simple_case, mode):
        from repro.core.executor import ClassicExecutor

        ex = build_executor(mode, simple_case[3])
        assert isinstance(ex, ClassicExecutor) and ex.mode == mode
        for shared in ("run", "simulate", "run_threaded", "level_plan"):
            assert shared not in vars(type(ex))

    def test_hasattr_truth_table(self, simple_case, mode):
        # The ledger's staged replicas branch on exactly these.
        ex = build_executor(mode, simple_case[3])
        assert hasattr(ex, "execution_order") == (mode == "self")
        assert hasattr(ex, "num_phases") == (mode == "preschedule")

    def test_run_and_run_threaded_equal_the_serial_oracle(self, simple_case,
                                                          mode):
        oracle = simple_case[4]
        ex = build_executor(mode, simple_case[3])
        ran = ex.run(fresh_kernel(simple_case))
        assert np.array_equal(ran, oracle)
        assert np.array_equal(ex.run_threaded(fresh_kernel(simple_case)), ran)

    @pytest.mark.parametrize("after_run", [False, True])
    def test_simulate_equals_the_direct_model(self, simple_case, mode,
                                              after_run):
        import dataclasses

        from repro.core import reference
        from repro.machine.simulator import simulate_prescheduled

        dep = simple_case[3]
        ex = build_executor(mode, dep)
        if after_run:  # a built level plan must not change the timing
            ex.run(fresh_kernel(simple_case))
        work = np.linspace(1.0, 2.0, dep.n)
        if mode == "preschedule":
            want = simulate_prescheduled(ex.schedule, dep, ex.costs,
                                         unit_work=work)
        else:
            want = reference.simulate_self_executing(
                ex.schedule, dep, ex.costs, mode=mode, unit_work=work,
                keep_finish_times=True)
        got = ex.simulate(unit_work=work, keep_finish_times=True)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.array_equal(a, b), f.name

    def test_size_mismatch_is_rejected(self, simple_case, mode):
        from repro.core.dependence import DependenceGraph

        ex = build_executor(mode, simple_case[3])
        ex.dep = DependenceGraph.from_edges([], ex.schedule.n + 1)
        with pytest.raises(ValidationError):
            ex.simulate()


class TestPreScheduledConstruction:
    def unsorted_schedule(self, dep):
        from repro.core.schedule import Schedule

        wf = compute_wavefronts(dep)
        order = np.argsort(-wf, kind="stable")  # deepest wavefront first
        assert wf[order[0]] > wf[order[-1]]
        return Schedule(nproc=1, owner=np.zeros(dep.n, dtype=np.int64),
                        local_order=[order], wavefronts=wf)

    def test_unsorted_list_fails_at_construction(self, simple_case):
        dep = simple_case[3]
        sched = self.unsorted_schedule(dep)
        with pytest.raises(ScheduleError, match="processor 0's list is not "
                                                "sorted by wavefront"):
            PreScheduledExecutor(sched, dep)
        # ... while the busy-wait executor takes (and survives) it only
        # if the order happens to be deadlock-free; here it is not.
        from repro.errors import DeadlockError
        with pytest.raises(DeadlockError):
            SelfExecutingExecutor(sched, dep).run(fresh_kernel(simple_case))

    def test_construction_builds_no_phase_lists(self, simple_case,
                                                monkeypatch):
        from repro.core.schedule import Schedule

        dep = simple_case[3]
        sched = global_schedule(compute_wavefronts(dep), 3)
        built = []
        phases = Schedule.phases
        monkeypatch.setattr(
            Schedule, "phases",
            lambda self: built.append(1) or phases(self))
        ex = PreScheduledExecutor(sched, dep)
        assert ex.num_phases == sched.num_wavefronts
        ex.run(fresh_kernel(simple_case))
        ex.simulate()
        assert built == []
        ex.run_threaded(fresh_kernel(simple_case))
        assert built == [1]
