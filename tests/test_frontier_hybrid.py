"""Tests for the frontier engine's scalar fallback on tiny frontiers.

The hybrid drops deep, narrow (near-chain) levels into a per-index
Python loop; these tests pin its equivalence with the pure vector
path and with the paper-faithful reference sweeps, across the shapes
that exercise every transition: chain-only, narrow→wide→narrow, cycles
detected mid-scalar-run, and random DAGs.
"""

import numpy as np
import pytest

import repro.util.frontier as frontier
from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.wavefront import compute_wavefronts, compute_wavefronts_general
from repro.errors import StructureError
from repro.util.frontier import counts_to_indptr, frontier_sweep


def sweep_of(dep):
    """Run the shared engine exactly as the wavefront computation does."""
    succ_indptr, succ_indices = dep.successors
    return frontier_sweep(succ_indptr, succ_indices,
                          dep.dep_counts().astype(np.int64), dep.n)


def vector_only_sweep(dep, monkeypatch):
    monkeypatch.setattr(frontier, "SCALAR_ENTER", -1)
    try:
        return sweep_of(dep)
    finally:
        monkeypatch.undo()


def chain2(n):
    """In-degree-2 chain: i depends on i-1 and i-2 (no pointer doubling)."""
    i = np.arange(2, n)
    edges = np.concatenate([np.stack([i, i - 1], 1), np.stack([i, i - 2], 1)])
    return DependenceGraph.from_edges(edges, n)


class TestEquivalence:
    @pytest.mark.parametrize("n", [3, 10, 300, 3000])
    def test_chain_matches_reference(self, n):
        dep = chain2(n)
        wf = compute_wavefronts(dep)
        np.testing.assert_array_equal(wf, reference.compute_wavefronts(dep))
        assert wf.max() == n - 2 if n > 2 else True

    @pytest.mark.parametrize("n", [64, 1000])
    def test_chain_matches_vector_path(self, n, monkeypatch):
        dep = chain2(n)
        levels, order, visited = sweep_of(dep)
        vl, vo, vv = vector_only_sweep(dep, monkeypatch)
        np.testing.assert_array_equal(levels, vl)
        np.testing.assert_array_equal(order, vo)
        assert visited == vv == n

    def test_narrow_wide_narrow(self, monkeypatch):
        # A chain feeding a wide fan (forces a scalar→vector exit above
        # SCALAR_EXIT) that funnels back into a chain (re-entry).
        width = frontier.SCALAR_EXIT * 2
        edges = [(i, i - 1) for i in range(1, 10)]
        fan = range(10, 10 + width)
        edges += [(j, 9) for j in fan]
        collect = 10 + width
        edges += [(collect, j) for j in fan]
        edges += [(i, i - 1) for i in range(collect + 1, collect + 10)]
        dep = DependenceGraph.from_edges(edges, collect + 10)
        levels, order, visited = sweep_of(dep)
        vl, vo, vv = vector_only_sweep(dep, monkeypatch)
        np.testing.assert_array_equal(levels, vl)
        np.testing.assert_array_equal(order, vo)
        assert visited == vv == dep.n
        np.testing.assert_array_equal(
            levels, reference.compute_wavefronts_general(dep))

    def test_duplicate_edges_decrement_correctly(self):
        # Node 1 depends on node 0 twice (duplicate edge, in-degree 2),
        # node 2 on node 1 once; tiny frontiers → the scalar engine.
        succ_indptr = counts_to_indptr(np.array([2, 1, 0]))  # 0→{1,1}, 1→{2}
        succ_indices = np.array([1, 1, 2], dtype=np.int64)
        indeg = np.array([0, 2, 1], dtype=np.int64)
        levels, order, visited = frontier_sweep(succ_indptr, succ_indices,
                                                indeg, 3)
        assert visited == 3
        np.testing.assert_array_equal(levels, [0, 1, 2])
        np.testing.assert_array_equal(order, [0, 1, 2])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        # Sparse random backward graph with narrow stretches.
        num = rng.integers(0, 3, size=n)
        num[0] = 0
        edges = []
        for i in range(1, n):
            for j in rng.integers(0, i, size=num[i]):
                edges.append((i, int(j)))
        dep = DependenceGraph.from_edges(edges, n) if edges else \
            DependenceGraph.from_indirection(np.arange(n))
        np.testing.assert_array_equal(
            compute_wavefronts_general(dep),
            reference.compute_wavefronts_general(dep))


class TestCycles:
    def test_cycle_reached_in_scalar_mode_is_detected(self):
        # 0→1→2→…→5 then a 2-cycle 6⇄7 fed by 5: the scalar engine
        # stalls there and visited < n reports the cycle.
        n = 8
        succ = {0: [1], 1: [2], 2: [3], 3: [4], 4: [5], 5: [6],
                6: [7], 7: [6]}
        counts = np.zeros(n, dtype=np.int64)
        rows = []
        for j, targets in succ.items():
            counts[j] = len(targets)
            rows.extend(targets)
        indeg = np.zeros(n, dtype=np.int64)
        for t in rows:
            indeg[t] += 1
        _, _, visited = frontier_sweep(
            counts_to_indptr(counts), np.array(rows, dtype=np.int64),
            indeg, n)
        assert visited == n - 2  # the cycle pair is never released

    def test_general_wavefronts_raise_on_cycle(self):
        with pytest.raises(StructureError, match="cycle"):
            DependenceGraph.from_edges([(0, 1), (1, 0)], 2,)


class TestSimulatorPlans:
    def test_toposort_plan_rides_the_hybrid(self):
        # Deep narrow schedule: toposort_plan merges program order and
        # dependences; equivalence with the reference plan evaluator.
        from repro.core.schedule import local_schedule

        dep = chain2(300)
        wf = compute_wavefronts(dep)
        sched = local_schedule(wf, np.arange(300) % 4, 4)
        order = sched.toposort_plan(dep)
        ref = reference.toposort_plan(sched, dep)
        pos = np.empty(300, dtype=np.int64)
        pos[order] = np.arange(300)
        # Both must be valid topological orders of the same DAG.
        rows = np.repeat(np.arange(dep.n), dep.dep_counts())
        assert np.all(pos[dep.indices] < pos[rows])
        assert sorted(order) == sorted(ref)
