"""Simulator ≡ per-iteration oracle — exact-equality property tests.

Both walks of the simulator — the per-iteration event loop and the
level walk it takes on plans of wide levels — must reproduce
:func:`repro.core.reference.simulate_self_executing` *bit for bit*:
``total_time``, ``busy``, ``idle`` and ``finish`` are compared with
exact float equality (no tolerances) across randomized
backward/general graphs, schedules, processor counts, poll quanta and
modes — mirroring the PR 2 inspector-oracle pattern.  The oracle
properties run twice: under the plan's own choice of walk, and with
the crossover at one iteration, so that every plan is walked a level
at a time.  (File and class names date from a batched engine that once
stood beside the loop; they stay so the test IDs do.)
"""

import dataclasses
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.wavefront import compute_wavefronts
from repro.errors import DeadlockError
from repro.machine import simulator
from repro.machine.costs import MULTIMAX_320
from repro.machine.simulator import simulate_self_executing, work_vector
from repro.util.frontier import rows_from_indptr
from strategies import (
    backward_dags,
    bounds_near,
    general_dags,
    poll_costs,
    schedule_for,
    simulations,
    waiting_level,
    wide_case,
    wide_simulations,
)
from test_contract import same_sim


def assert_bit_identical(a, b):
    """Exact float equality on every timing field (no tolerances)."""
    assert a.total_time == b.total_time
    assert np.array_equal(a.busy, b.busy)
    assert np.array_equal(a.idle, b.idle)
    if a.finish is None or b.finish is None:
        assert a.finish is None and b.finish is None
    else:
        assert np.array_equal(a.finish, b.finish)


def same_bits(got, want) -> bool:
    """Every ``SimResult`` field equal in its bytes: stricter than
    ``==``, which takes -0.0 for 0.0."""
    def bits(v):
        if v is None or isinstance(v, str):
            return v
        v = np.asarray(v)
        return v.dtype.str, v.tobytes()
    return all(bits(getattr(got, f.name)) == bits(getattr(want, f.name))
               for f in dataclasses.fields(want))


@contextmanager
def level_walk():
    """Every plan walked a level at a time: the crossover at one
    iteration, and the event loop out of reach."""
    def refuse(*args):
        raise AssertionError("the per-iteration event loop ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_WIDE_LEVEL", 1)
        mp.setattr(simulator, "_run_scalar", refuse)
        yield


@contextmanager
def event_loop():
    """Every plan walked an iteration at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_WIDE_LEVEL", np.inf)
        yield


@contextmanager
def walks_taken():
    """The names of the walks simulations run, in call order."""
    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_run_scalar", "_run_levels"):
            def spy(*args, _real=getattr(simulator, name), _name=name):
                ran.append(_name)
                return _real(*args)
            mp.setattr(simulator, name, spy)
        yield ran


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

sched_kinds = st.sampled_from(["global", "local", "identity"])
procs = st.integers(min_value=1, max_value=8)
polls = st.sampled_from([0.0, 0.7, 3.0])
modes = st.sampled_from(["self", "doacross"])


# ----------------------------------------------------------------------
# Engine ≡ oracle properties
# ----------------------------------------------------------------------

def oracle_properties(walk):
    """The simulator-oracle properties, each simulation taken under
    ``walk`` — one class per walk, so that hypothesis sees distinct
    test functions."""

    class OracleProperties:
        @given(backward_dags(unique=False), sched_kinds, procs, polls, modes,
               st.data())
        @settings(max_examples=60, deadline=None)
        def test_backward_graphs(self, dep, kind, p, t_poll, mode, data):
            sched = schedule_for(data.draw, dep, kind, p)
            costs = poll_costs(t_poll)
            ref = reference.simulate_self_executing(
                sched, dep, costs, mode=mode, keep_finish_times=True)
            with walk():
                sim = simulate_self_executing(
                    sched, dep, costs, mode=mode, keep_finish_times=True)
            assert_bit_identical(sim, ref)

        @given(general_dags(max_n=40, unique=False), sched_kinds, procs,
               polls, st.data())
        @settings(max_examples=40, deadline=None)
        def test_general_graphs(self, dep, kind, p, t_poll, data):
            sched = schedule_for(data.draw, dep, kind, p)
            costs = poll_costs(t_poll)
            try:
                ref = reference.simulate_self_executing(
                    sched, dep, costs, keep_finish_times=True)
            except DeadlockError:
                # identity lists over a renumbered DAG can order an index
                # before its dependence on the same processor; the
                # simulator must agree it deadlocks.
                with pytest.raises(DeadlockError), walk():
                    simulate_self_executing(sched, dep, costs)
                return
            with walk():
                sim = simulate_self_executing(
                    sched, dep, costs, keep_finish_times=True)
            assert_bit_identical(sim, ref)

        @given(backward_dags(max_n=30, unique=False), procs, st.data())
        @settings(max_examples=30, deadline=None)
        def test_random_unit_work(self, dep, p, data):
            """Arbitrary (even negative) work vectors stay bit-identical."""
            seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
            w = np.random.default_rng(seed).uniform(-2.0, 5.0, dep.n)
            sched = global_schedule(compute_wavefronts(dep), p)
            ref = reference.simulate_self_executing(
                sched, dep, MULTIMAX_320, unit_work=w, keep_finish_times=True)
            with walk():
                sim = simulate_self_executing(
                    sched, dep, MULTIMAX_320, unit_work=w,
                    keep_finish_times=True)
            assert_bit_identical(sim, ref)

    return OracleProperties


#: Each plan walked as its mean level width chooses.
TestEnginesMatchOracle = oracle_properties(nullcontext)
#: Every plan walked a level at a time: whole wavefronts, the sweep's
#: levels, and identity orders one iteration a level.
TestLevelWalkMatchesOracle = oracle_properties(level_walk)


class TestBound:
    """``bound=`` abandons a simulation only when its makespan exceeds
    the bound, and changes nothing about one it finishes."""

    @given(simulations(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exceeds_only_above_the_bound(self, case, data):
        schedule, dep, costs, mode, unit_work = case
        full = simulate_self_executing(schedule, dep, costs, mode=mode,
                                       unit_work=unit_work,
                                       keep_finish_times=True)
        total = full.total_time
        bound = data.draw(bounds_near(total))
        got = simulate_self_executing(schedule, dep, costs, mode=mode,
                                      unit_work=unit_work,
                                      keep_finish_times=True, bound=bound)
        if got is None:
            assert total > bound
            return
        assert same_sim(got, full)
        # ... and when the makespan is some processor's last finish (no
        # processor idles throughout), it does abandon what is over by
        # more than rounding.
        if np.bincount(schedule.owner, minlength=schedule.nproc).all():
            w = work_vector(dep, costs, mode, schedule.nproc, unit_work)
            assert total - bound <= 1e-9 * (1 + abs(bound)
                                             + np.abs(w).sum())


@contextmanager
def chosen_level_walk():
    """The plan's own choice, which must be the level walk."""
    with walks_taken() as ran:
        yield
    assert ran == ["_run_levels"]


class TestLevelWalk:
    """Plans wide enough to choose the level walk themselves, and the
    shapes at its edges: each result the event loop's and the oracle's,
    in every bit."""

    @staticmethod
    def check(case, walk):
        schedule, dep, costs, mode, unit_work = case
        kw = dict(mode=mode, unit_work=unit_work, keep_finish_times=True)
        with walk():
            got = simulate_self_executing(schedule, dep, costs, **kw)
        with event_loop():
            loop = simulate_self_executing(schedule, dep, costs, **kw)
        assert same_bits(got, loop)
        assert same_bits(got, reference.simulate_self_executing(
            schedule, dep, costs, **kw))
        return got

    @given(wide_simulations())
    @settings(max_examples=25, deadline=None)
    def test_wide_plans(self, case):
        self.check(case, chosen_level_walk)

    @pytest.mark.parametrize("kind,t_poll,signed_work", [
        ("wrapped", 7.0, False),   # every wait rounded up to a poll quantum
        ("local", 0.0, True),      # negative work: operands finish late
        ("one", 0.7, True),        # all the work on one processor
        ("greedy", 0.7, False),
        ("drawn", 7.0, True),
    ])
    def test_dedicated_wide_cases(self, kind, t_poll, signed_work):
        self.check(wide_case(3_000, 8, kind, t_poll, signed_work, "self",
                             1989), chosen_level_walk)

    @given(backward_dags(max_n=6, min_n=0, unique=False), sched_kinds,
           st.integers(7, 16), polls, st.data())
    @settings(max_examples=40, deadline=None)
    def test_fewer_iterations_than_processors(self, dep, kind, p, t_poll,
                                              data):
        """Empty loops and n < nproc: idle processors, empty lists."""
        sched = schedule_for(data.draw, dep, kind, p)
        self.check((sched, dep, poll_costs(t_poll), "self", None), level_walk)

    @pytest.mark.parametrize("t_poll", [0.0, 0.7])
    def test_every_item_waits(self, t_poll):
        """The per-item chain from the first wait to the end of a run."""
        width = 2_000
        schedule, dep, unit_work = waiting_level(width)
        costs = poll_costs(t_poll)
        got = self.check((schedule, dep, costs, "self", unit_work),
                         chosen_level_walk)
        w = work_vector(dep, costs, "self", 2, unit_work)[width:]
        second = got.finish[width:]
        assert np.all(second - w > np.concatenate(([0.0], second[:-1])))

    def test_negative_zero_work(self):
        """Work of -0.0 (overheads of -0.0 on top of it): the loop's
        running sums start from 0.0, so its busy times are +0.0."""
        schedule, dep, costs, _, _ = wide_case(3_000, 4, "local", 0.0,
                                               False, "self", 7)
        costs = dataclasses.replace(costs, t_check=-0.0, t_inc=-0.0,
                                    t_sched_access=-0.0)
        case = (schedule, dep, costs, "self", np.full(dep.n, -0.0))
        got = self.check(case, chosen_level_walk)
        assert not np.signbit(got.busy).any()

    @given(st.one_of(simulations(), wide_simulations()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bound_decides_as_the_loop_does(self, case, data):
        """``None`` exactly when the event loop says ``None``."""
        schedule, dep, costs, mode, unit_work = case
        kw = dict(mode=mode, unit_work=unit_work, keep_finish_times=True)
        with event_loop():
            total = simulate_self_executing(schedule, dep, costs,
                                            **kw).total_time
        bound = data.draw(bounds_near(total))
        with event_loop():
            loop = simulate_self_executing(schedule, dep, costs, **kw,
                                           bound=bound)
        with level_walk():
            got = simulate_self_executing(schedule, dep, costs, **kw,
                                          bound=bound)
        assert (got is None) == (loop is None)
        assert got is None or same_bits(got, loop)


class TestVectorLevelBody:
    """Machines wider than any the ledger simulates: both walks must
    match the oracle there too."""

    def test_wide_machine_levels(self):
        """nproc = 64 (Table 4's widest projection): genuinely wide
        levels on a wavefront-sorted schedule (the level walk) and an
        identity one (the event loop)."""
        rng = np.random.default_rng(42)
        n, p = 4000, 64
        dep = DependenceGraph.from_indirection(rng.integers(0, n, n))
        wf = compute_wavefronts(dep)
        for sched in (global_schedule(wf, p), identity_schedule(wf, p)):
            for t_poll in (0.0, 0.7):
                costs = poll_costs(t_poll)
                ref = reference.simulate_self_executing(
                    sched, dep, costs, keep_finish_times=True)
                sim = simulate_self_executing(
                    sched, dep, costs, keep_finish_times=True)
                assert_bit_identical(sim, ref)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------

class TestEdgeCases:
    def _diamond(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 0), (3, 1), (3, 2)], 4)
        return dep, compute_wavefronts(dep)

    def test_poll_zero_vs_quantized(self):
        dep, wf = self._diamond()
        sched = global_schedule(wf, 2)
        exact = poll_costs(0.0)
        quant = poll_costs(0.7)
        for costs in (exact, quant):
            ref = reference.simulate_self_executing(sched, dep, costs)
            sim = simulate_self_executing(sched, dep, costs)
            assert_bit_identical(sim, ref)
        # the quantum can only lengthen busy-waits
        t_exact = simulate_self_executing(sched, dep, exact).total_time
        t_quant = simulate_self_executing(sched, dep, quant).total_time
        assert t_quant >= t_exact

    def test_empty_graph(self):
        dep = DependenceGraph(np.zeros(1, dtype=np.int64),
                              np.empty(0, dtype=np.int64), 0)
        wf = np.empty(0, dtype=np.int64)
        for p in (1, 3):
            sched = identity_schedule(wf, p)
            sim = simulate_self_executing(
                sched, dep, MULTIMAX_320, keep_finish_times=True)
            assert sim.total_time == 0.0
            assert sim.finish.shape == (0,)
            assert np.array_equal(sim.busy, np.zeros(p))
            assert np.array_equal(sim.idle, np.zeros(p))

    def test_edgeless_graph(self):
        dep = DependenceGraph(np.zeros(6, dtype=np.int64),
                              np.empty(0, dtype=np.int64), 5)
        sched = identity_schedule(np.zeros(5, dtype=np.int64), 2)
        ref = reference.simulate_self_executing(
            sched, dep, MULTIMAX_320, keep_finish_times=True)
        sim = simulate_self_executing(
            sched, dep, MULTIMAX_320, keep_finish_times=True)
        assert_bit_identical(sim, ref)

    def test_single_processor_closed_form(self, small_lower_dep):
        """p=1 is a running sum of the work along a legal order: no
        busy-wait can trigger, so the finish times are its cumsum."""
        wf = compute_wavefronts(small_lower_dep)
        sched = global_schedule(wf, 1)
        ref = reference.simulate_self_executing(
            sched, small_lower_dep, MULTIMAX_320, keep_finish_times=True)
        sim = simulate_self_executing(
            sched, small_lower_dep, MULTIMAX_320, keep_finish_times=True)
        assert_bit_identical(sim, ref)
        assert sim.total_idle == 0.0
        order, _ = sched.simulation_levels(small_lower_dep)
        w = work_vector(small_lower_dep, MULTIMAX_320, "self", 1)
        assert np.array_equal(sim.finish[order], np.cumsum(w[order]))

    def test_single_processor_negative_work(self, small_lower_dep):
        """Negative work defeats the no-wait argument (an operand can
        finish after its consumer's processor frees up), even at p=1."""
        wf = compute_wavefronts(small_lower_dep)
        sched = global_schedule(wf, 1)
        w = np.where(np.arange(small_lower_dep.n) % 3 == 0, -1.0, 2.0)
        ref = reference.simulate_self_executing(
            sched, small_lower_dep, MULTIMAX_320, unit_work=w,
            keep_finish_times=True)
        sim = simulate_self_executing(
            sched, small_lower_dep, MULTIMAX_320, unit_work=w,
            keep_finish_times=True)
        assert_bit_identical(sim, ref)

    def test_keep_finish_times_flag(self):
        dep, wf = self._diamond()
        sched = global_schedule(wf, 2)
        assert simulate_self_executing(sched, dep, MULTIMAX_320).finish is None
        kept = simulate_self_executing(
            sched, dep, MULTIMAX_320, keep_finish_times=True).finish
        assert kept is not None and kept.shape == (4,)

    def test_doacross_mode(self):
        dep, wf = self._diamond()
        sched = identity_schedule(wf, 2)
        ref = reference.simulate_self_executing(
            sched, dep, MULTIMAX_320, mode="doacross", keep_finish_times=True)
        sim = simulate_self_executing(
            sched, dep, MULTIMAX_320, mode="doacross", keep_finish_times=True)
        assert sim.mode == "doacross"
        assert sim.sched_time == 0.0
        assert_bit_identical(sim, ref)

    def test_deadlock_all_engines(self):
        dep, wf = self._diamond()
        sched = identity_schedule(wf, 1)
        sched.local_order[0] = np.array([3, 0, 1, 2])
        with pytest.raises(DeadlockError):
            simulate_self_executing(sched, dep, MULTIMAX_320)


# ----------------------------------------------------------------------
# Helpers: rows_from_indptr / edge_rows / successors
# ----------------------------------------------------------------------

class TestHelpers:
    def test_rows_from_indptr(self):
        indptr = np.array([0, 2, 2, 5])
        np.testing.assert_array_equal(rows_from_indptr(indptr),
                                      [0, 0, 2, 2, 2])

    @given(backward_dags(unique=False))
    @settings(max_examples=30, deadline=None)
    def test_edge_rows_cached_and_correct(self, dep):
        rows = dep.edge_rows()
        assert rows is dep.edge_rows()  # cached
        np.testing.assert_array_equal(rows, rows_from_indptr(dep.indptr))

    @given(general_dags(max_n=40, unique=False))
    @settings(max_examples=40, deadline=None)
    def test_successors_pack_sort_matches_reference(self, dep):
        si, ss = dep.successors()
        ri, rs = reference.successors(dep)
        np.testing.assert_array_equal(si, ri)
        np.testing.assert_array_equal(ss, rs)

    def test_successors_duplicate_edges(self):
        dep = DependenceGraph.from_edges(
            [(2, 0), (2, 0), (3, 0), (1, 0), (3, 1)], 4)
        si, ss = dep.successors()
        ri, rs = reference.successors(dep)
        np.testing.assert_array_equal(si, ri)
        np.testing.assert_array_equal(ss, rs)
