"""Simulator ≡ per-iteration oracle — exact-equality property tests.

The production event loop must reproduce
:func:`repro.core.reference.simulate_self_executing` *bit for bit*:
``total_time``, ``busy``, ``idle`` and ``finish`` are compared with
exact float equality (no tolerances) across randomized
backward/general graphs, schedules, processor counts, poll quanta and
modes — mirroring the PR 2 inspector-oracle pattern.  (File and class
names date from a batched engine that once stood beside the loop; they
stay so the test IDs do.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.wavefront import compute_wavefronts
from repro.errors import DeadlockError
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

class TestEnginesMatchOracle:
    @given(backward_dags(unique=False), sched_kinds, procs, polls, modes,
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_backward_graphs(self, dep, kind, p, t_poll, mode, data):
        sched = schedule_for(data.draw, dep, kind, p)
        costs = poll_costs(t_poll)
        ref = reference.simulate_self_executing(
            sched, dep, costs, mode=mode, keep_finish_times=True)
        sim = simulate_self_executing(
            sched, dep, costs, mode=mode, keep_finish_times=True)
        assert_bit_identical(sim, ref)

    @given(general_dags(max_n=40, unique=False), sched_kinds, procs, polls,
           st.data())
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
            with pytest.raises(DeadlockError):
                simulate_self_executing(sched, dep, costs)
            return
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
        sim = simulate_self_executing(
            sched, dep, MULTIMAX_320, unit_work=w, keep_finish_times=True)
        assert_bit_identical(sim, ref)


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


class TestVectorLevelBody:
    """Machines wider than any the ledger simulates: the event loop
    must match the oracle there too."""

    def test_wide_machine_levels(self):
        """nproc = 64 (Table 4's widest projection): genuinely wide
        levels on both a wavefront-sorted and an identity schedule."""
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
        order = sched.simulation_order(small_lower_dep)
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
