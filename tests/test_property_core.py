"""Property-based tests (hypothesis) for the core data structures.

These pin the library's key invariants on *arbitrary* inputs:
wavefront recurrence, schedule permutation, executor/oracle
equivalence, simulator bounds, and CSR round-trips.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LoopProgram
from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.schedule import (
    global_schedule,
    identity_schedule,
    local_schedule,
)
from repro.core.partition import blocked_partition, wrapped_partition
from repro.core.wavefront import (
    compute_wavefronts,
    compute_wavefronts_general,
    wavefront_members,
)
from repro.machine.costs import ZERO_OVERHEAD, MULTIMAX_320
from repro.machine.simulator import simulate, work_vector
from repro.sparse.build import coo_to_csr, csr_from_dense
from repro.tuning import CandidateSpec
from repro.tuning.measure import prefix_graph
from strategies import (
    backward_dags,
    general_dags,
    indirection_arrays,
    nested_indirections,
    sparse_dense_pairs,
)
from test_contract import assert_contract


# ----------------------------------------------------------------------
# CSR properties
# ----------------------------------------------------------------------

class TestCSRProperties:
    @given(sparse_dense_pairs())
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, dense):
        a = csr_from_dense(dense)
        np.testing.assert_allclose(a.to_dense(), dense)

    @given(sparse_dense_pairs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matvec_matches_dense(self, dense, seed):
        a = csr_from_dense(dense)
        x = np.random.default_rng(seed).standard_normal(dense.shape[1])
        np.testing.assert_allclose(a.matvec(x), dense @ x, rtol=1e-10, atol=1e-10)

    @given(sparse_dense_pairs())
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution(self, dense):
        a = csr_from_dense(dense)
        np.testing.assert_allclose(a.transpose().transpose().to_dense(), dense)

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7),
                      st.floats(-5, 5, allow_nan=False)),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_coo_duplicate_summing(self, triples):
        dense = np.zeros((8, 8))
        for r, c, v in triples:
            dense[r, c] += v
        rows = [t[0] for t in triples]
        cols = [t[1] for t in triples]
        vals = [t[2] for t in triples]
        a = coo_to_csr(rows, cols, vals, (8, 8))
        np.testing.assert_allclose(a.to_dense(), dense, atol=1e-12)


# ----------------------------------------------------------------------
# Wavefront properties
# ----------------------------------------------------------------------

class TestWavefrontProperties:
    @given(backward_dags())
    @settings(max_examples=60, deadline=None)
    def test_recurrence_invariant(self, dep):
        wf = compute_wavefronts(dep)
        for i in range(dep.n):
            deps = dep.deps(i)
            expected = wf[deps].max() + 1 if deps.size else 0
            assert wf[i] == expected

    @given(backward_dags(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_inherits_the_parents_sweep(self, dep, data):
        m = data.draw(st.integers(min_value=1, max_value=dep.n))
        swept_first = data.draw(st.booleans())
        if swept_first:
            compute_wavefronts(dep)
        end = int(dep.indptr[m])
        fresh = DependenceGraph(dep.indptr[: m + 1].copy(),
                                dep.indices[:end].copy(), m)
        prefix = prefix_graph(dep, m)
        np.testing.assert_array_equal(compute_wavefronts(prefix),
                                      compute_wavefronts(fresh))
        if swept_first:
            # Handed down, not re-swept: a view of the parent's memo.
            assert np.shares_memory(compute_wavefronts(prefix),
                                    compute_wavefronts(dep))

    @given(backward_dags())
    @settings(max_examples=60, deadline=None)
    def test_members_partition_and_independent(self, dep):
        wf = compute_wavefronts(dep)
        members = wavefront_members(wf)
        flat = np.concatenate(members)
        assert sorted(flat.tolist()) == list(range(dep.n))
        # no dependence stays within one wavefront
        for m in members:
            mset = set(m.tolist())
            for i in m:
                assert not (set(dep.deps(int(i)).tolist()) & mset)


# ----------------------------------------------------------------------
# Vectorized engine == pure-Python reference oracles
# ----------------------------------------------------------------------

class TestVectorizedMatchesReference:
    """The fast inspector paths may never drift from the paper-faithful
    per-index/per-edge implementations in ``repro.core.reference``."""

    @given(backward_dags())
    @settings(max_examples=60, deadline=None)
    def test_wavefronts_backward(self, dep):
        np.testing.assert_array_equal(
            compute_wavefronts(dep), reference.compute_wavefronts(dep))

    @given(general_dags())
    @settings(max_examples=60, deadline=None)
    def test_wavefronts_general(self, dep):
        np.testing.assert_array_equal(
            compute_wavefronts_general(dep),
            reference.compute_wavefronts_general(dep))

    @given(st.one_of(backward_dags(), general_dags()))
    @settings(max_examples=60, deadline=None)
    def test_successors(self, dep):
        succ_indptr, succ_indices = dep.successors
        ref_indptr, ref_indices = reference.successors(dep)
        np.testing.assert_array_equal(succ_indptr, ref_indptr)
        np.testing.assert_array_equal(succ_indices, ref_indices)

    @given(nested_indirections())
    @settings(max_examples=60, deadline=None)
    def test_nested_indirection_construction(self, g):
        fast = DependenceGraph.from_indirection_nested(g)
        ref = reference.nested_dependences(g)
        np.testing.assert_array_equal(fast.indptr, ref.indptr)
        np.testing.assert_array_equal(fast.indices, ref.indices)

    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_greedy_balance_unit_weights(self, dep, p):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, p, balance="greedy")
        np.testing.assert_array_equal(
            sched.owner, reference.greedy_owner(wf, None, p))

    @given(backward_dags(max_n=80), st.integers(min_value=1, max_value=16))
    @settings(max_examples=80, deadline=None)
    def test_unit_weight_greedy_is_the_wrapped_deal(self, dep, p):
        # After c picks the least-loaded, lowest-numbered processor is
        # c mod p, so the greedy picks continue the round-robin.
        wf = compute_wavefronts(dep)
        greedy = global_schedule(wf, p, balance="greedy")
        assert greedy.digest == global_schedule(wf, p).digest
        np.testing.assert_array_equal(
            greedy.owner, reference.greedy_owner(wf, None, p))

    @given(backward_dags(), st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([None, 1, 3, 100]))
    @settings(max_examples=80, deadline=None)
    def test_greedy_balance_weighted(self, dep, p, seed, top):
        # top=None: distinct real weights; otherwise integers in
        # 1..top, so tied weights and tied processor loads are common.
        wf = compute_wavefronts(dep)
        rng = np.random.default_rng(seed)
        weights = (rng.random(dep.n) + 0.1 if top is None
                   else rng.integers(1, top + 1, dep.n))
        sched = global_schedule(wf, p, balance="greedy", weights=weights)
        np.testing.assert_array_equal(
            sched.owner, reference.greedy_owner(wf, weights, p))

    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_schedule_internals(self, dep, p):
        wf = compute_wavefronts(dep)
        for sched in (global_schedule(wf, p),
                      local_schedule(wf, wrapped_partition(dep.n, p), p)):
            reference.validate_schedule(sched)   # oracle also accepts
            np.testing.assert_array_equal(
                sched.position(), reference.schedule_position(sched))
            ref_phases = reference.schedule_phases(sched)
            phases = sched.phases()
            assert len(phases) == len(ref_phases)
            for cells, ref_cells in zip(phases, ref_phases):
                for cell, ref_cell in zip(cells, ref_cells):
                    np.testing.assert_array_equal(cell, ref_cell)

    @given(st.one_of(backward_dags(), general_dags()),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_toposort_plan(self, dep, p):
        wf = compute_wavefronts_general(dep)
        sched = global_schedule(wf, p)
        order = sched.toposort_plan(dep)
        ref_order = reference.toposort_plan(sched, dep)
        # Both must be valid topological orders of the same combined
        # DAG (the exact order differs: frontier vs stack traversal).
        for got in (order, ref_order):
            posn = np.empty(dep.n, dtype=np.int64)
            posn[got] = np.arange(dep.n)
            rows = np.repeat(np.arange(dep.n, dtype=np.int64),
                             dep.dep_counts())
            assert np.all(posn[dep.indices] < posn[rows])
            for lst in sched.local_order:
                if lst.size > 1:
                    assert np.all(np.diff(posn[lst]) > 0)
            np.testing.assert_array_equal(np.sort(got), np.arange(dep.n))

    @given(general_dags())
    @settings(max_examples=40, deadline=None)
    def test_schedule_rejection_matches(self, dep):
        """Both paths agree on *rejecting* a broken schedule."""
        from repro.errors import ScheduleError
        wf = compute_wavefronts_general(dep)
        sched = global_schedule(wf, 3)
        if dep.n < 2:
            return
        # Swap two indices between processors without fixing ``owner``.
        lists = [lst.copy() for lst in sched.local_order]
        donors = [p for p, lst in enumerate(lists) if lst.size]
        if len(donors) < 2:
            return
        a, b = donors[0], donors[1]
        lists[a][0], lists[b][0] = lists[b][0], lists[a][0]
        with pytest.raises(ScheduleError):
            replace(sched, local_order=lists)     # validates
        with pytest.raises(ScheduleError):
            reference.validate_schedule(SimpleNamespace(
                n=dep.n, owner=sched.owner, local_order=lists))


# ----------------------------------------------------------------------
# Schedule properties
# ----------------------------------------------------------------------

class TestScheduleProperties:
    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_global_schedule_is_permutation(self, dep, p):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, p)
        flat = sorted(np.concatenate(sched.local_order).tolist())
        assert flat == list(range(dep.n))

    @given(backward_dags(), st.integers(min_value=1, max_value=8),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_all_schedules_legal_for_self_execution(self, dep, p, blocked):
        wf = compute_wavefronts(dep)
        owner = (blocked_partition if blocked else wrapped_partition)(dep.n, p)
        for sched in (
            global_schedule(wf, p),
            local_schedule(wf, owner, p),
            identity_schedule(wf, p, owner=owner),
        ):
            assert sched.is_legal_self_executing(dep)


# ----------------------------------------------------------------------
# Executor equivalence
# ----------------------------------------------------------------------

class TestExecutorEquivalence:
    """Named cases of the bitwise contract (tests/test_contract.py) on
    Figure 3 loops drawn element by element."""

    @given(indirection_arrays(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_self_executing_matches_oracle(self, arrays, p):
        x0, b, ia = arrays
        assert_contract(LoopProgram.from_indirection(ia, x=x0, b=b),
                        CandidateSpec("self", "global", "wrapped"), nproc=p)

    @given(indirection_arrays(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_prescheduled_matches_oracle(self, arrays, p):
        x0, b, ia = arrays
        assert_contract(LoopProgram.from_indirection(ia, x=x0, b=b),
                        CandidateSpec("preschedule", "global", "wrapped"),
                        nproc=p)


# ----------------------------------------------------------------------
# Simulator properties
# ----------------------------------------------------------------------

class TestSimulatorProperties:
    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds(self, dep, p):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, p)
        for mode in ("preschedule", "self"):
            sim = simulate(sched, dep, ZERO_OVERHEAD, mode=mode)
            w = work_vector(dep, ZERO_OVERHEAD, mode, p)
            assert sim.total_time >= w.sum() / p - 1e-9
            assert sim.total_time <= w.sum() + 1e-9

    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_self_no_worse_than_preschedule_zero_overhead(self, dep, p):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, p)
        pre = simulate(sched, dep, ZERO_OVERHEAD, mode="preschedule")
        slf = simulate(sched, dep, ZERO_OVERHEAD, mode="self")
        assert slf.total_time <= pre.total_time + 1e-9

    @given(backward_dags(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_efficiency_in_unit_interval(self, dep, p):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, p)
        sim = simulate(sched, dep, MULTIMAX_320, mode="self")
        assert 0.0 < sim.efficiency <= 1.0 + 1e-9

    @given(backward_dags())
    @settings(max_examples=40, deadline=None)
    def test_finish_respects_dependences(self, dep):
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 4)
        from repro.machine.simulator import simulate_self_executing
        sim = simulate_self_executing(
            sched, dep, MULTIMAX_320, keep_finish_times=True,
        )
        for i in range(dep.n):
            deps = dep.deps(i)
            if deps.size:
                assert sim.finish[i] > sim.finish[deps].max() - 1e-9
