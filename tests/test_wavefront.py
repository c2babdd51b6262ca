"""Unit tests for wavefront computation (the Figure 7 sweep)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core import wavefront
from repro.core.dependence import DependenceGraph
from repro.core.wavefront import (
    compute_wavefronts,
    compute_wavefronts_general,
    critical_path_length,
    wavefront_counts,
    wavefront_members,
)
from repro.errors import StructureError


def empty_graph() -> DependenceGraph:
    return DependenceGraph(np.zeros(1, dtype=np.int64),
                           np.empty(0, dtype=np.int64), 0)


class TestSweep:
    def test_chain(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 1), (3, 2)], 4)
        np.testing.assert_array_equal(compute_wavefronts(dep), [0, 1, 2, 3])

    def test_independent(self):
        dep = DependenceGraph.from_edges([], 4)
        np.testing.assert_array_equal(compute_wavefronts(dep), [0, 0, 0, 0])

    def test_diamond(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 0), (3, 1), (3, 2)], 4)
        np.testing.assert_array_equal(compute_wavefronts(dep), [0, 1, 1, 2])

    def test_invariant_on_random(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        for i in range(small_lower_dep.n):
            deps = small_lower_dep.deps(i)
            expected = wf[deps].max() + 1 if deps.size else 0
            assert wf[i] == expected

    def test_rejects_forward_deps(self):
        dep = DependenceGraph.from_edges([(0, 2)], 3)
        with pytest.raises(StructureError):
            compute_wavefronts(dep)

    def test_second_call_returns_the_memo_without_a_sweep(self, monkeypatch):
        dep = DependenceGraph.from_edges([(1, 0), (2, 1), (3, 0)], 4)
        sweeps = []
        sweep = wavefront._frontier_wavefronts
        monkeypatch.setattr(wavefront, "_frontier_wavefronts",
                            lambda d: sweeps.append(d) or sweep(d))
        first = compute_wavefronts(dep)
        assert compute_wavefronts(dep) is first
        assert len(sweeps) == 1
        np.testing.assert_array_equal(first, [0, 1, 2, 1])

    def test_memo_is_read_only(self):
        dep = DependenceGraph.from_edges([(1, 0), (2, 1)], 3)
        wf = compute_wavefronts(dep)
        with pytest.raises(ValueError):
            wf[0] = 7
        np.testing.assert_array_equal(compute_wavefronts(dep), [0, 1, 2])

    def test_general_matches_sweep(self, small_lower_dep):
        np.testing.assert_array_equal(
            compute_wavefronts(small_lower_dep),
            compute_wavefronts_general(small_lower_dep),
        )

    def test_general_handles_forward(self):
        dep = DependenceGraph.from_edges([(0, 2), (1, 0)], 3)
        wf = compute_wavefronts_general(dep)
        np.testing.assert_array_equal(wf, [1, 2, 0])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_doubling_over_the_edges_is_the_reference(self, data):
        """In-degree ≤ 1 graphs take the pointer doubling: a backward
        forest (Figure 3's) matches the per-index sweep, and the same
        forest relabelled — forward edges, in-degree still ≤ 1 — the
        reference Kahn propagation."""
        n = data.draw(st.integers(1, 60))
        ia = np.asarray(data.draw(st.lists(
            st.integers(0, n - 1), min_size=n, max_size=n)), dtype=np.int64)
        dep = DependenceGraph.from_indirection(ia)
        if not dep.num_edges:
            return
        np.testing.assert_array_equal(compute_wavefronts(dep),
                                      reference.compute_wavefronts(dep))
        perm = np.random.default_rng(data.draw(st.integers(0, 99))
                                     ).permutation(n)
        mixed = DependenceGraph.from_edges(
            np.column_stack((perm[dep.edge_rows], perm[dep.indices])), n)
        assert mixed.dep_counts().max() <= 1
        np.testing.assert_array_equal(
            compute_wavefronts_general(mixed),
            reference.compute_wavefronts_general(mixed))

    def test_general_detects_cycle(self, monkeypatch):
        # In-degree 1 everywhere: the pointer doubling's round cap
        # reports the two-node cycle.
        dep = DependenceGraph(np.array([0, 1, 2]), np.array([1, 0]), 2,
                              check_acyclic=False)
        doubled = []
        real = wavefront._single_pred_wavefronts
        monkeypatch.setattr(wavefront, "_single_pred_wavefronts",
                            lambda d: doubled.append(d) or real(d))
        with pytest.raises(StructureError, match="cycle"):
            compute_wavefronts_general(dep)
        assert doubled == [dep]


class TestReferenceOracle:
    """Edge cases where vectorized and reference sweeps must agree."""

    def test_empty_graph(self):
        dep = empty_graph()
        for fn in (compute_wavefronts, compute_wavefronts_general,
                   reference.compute_wavefronts,
                   reference.compute_wavefronts_general):
            wf = fn(dep)
            assert wf.shape == (0,)
        assert critical_path_length(compute_wavefronts(dep)) == 0

    def test_single_index(self):
        dep = DependenceGraph.from_edges([], 1)
        for fn in (compute_wavefronts, reference.compute_wavefronts):
            np.testing.assert_array_equal(fn(dep), [0])

    def test_single_index_self_free_chain(self):
        dep = DependenceGraph.from_edges([(1, 0)], 2)
        np.testing.assert_array_equal(compute_wavefronts(dep),
                                      reference.compute_wavefronts(dep))

    def test_duplicate_edges(self):
        dep = DependenceGraph.from_edges([(1, 0), (1, 0), (2, 1)], 3)
        np.testing.assert_array_equal(compute_wavefronts(dep),
                                      reference.compute_wavefronts(dep))
        si, ss = dep.successors
        ri, rs = reference.successors(dep)
        np.testing.assert_array_equal(si, ri)
        np.testing.assert_array_equal(ss, rs)

    def test_all_backward_chain_matches(self):
        n = 400  # deep narrow graph: one index per wavefront
        dep = DependenceGraph.from_edges([(i, i - 1) for i in range(1, n)], n)
        np.testing.assert_array_equal(compute_wavefronts(dep),
                                      reference.compute_wavefronts(dep))

    def test_general_dag_matches(self):
        rng = np.random.default_rng(3)
        perm = rng.permutation(60)
        edges = [(perm[i], perm[rng.integers(0, i)]) for i in range(1, 60)]
        dep = DependenceGraph.from_edges(edges, 60)
        np.testing.assert_array_equal(
            compute_wavefronts_general(dep),
            reference.compute_wavefronts_general(dep))

    def test_reference_rejects_forward_deps_too(self):
        dep = DependenceGraph.from_edges([(0, 2)], 3)
        with pytest.raises(StructureError):
            reference.compute_wavefronts(dep)


class TestModelProblemWavefronts:
    def test_antidiagonals(self):
        """On the 5-pt mesh factor, wavefront == anti-diagonal (Figure 9)."""
        from repro.analysis.model import ModelProblem

        mp = ModelProblem(5, 7)
        dep = mp.dependence_graph()
        wf = compute_wavefronts(dep)
        np.testing.assert_array_equal(wf, mp.wavefronts())
        assert critical_path_length(wf) == 5 + 7 - 1

    def test_figure9_first_wavefronts(self):
        """Figure 9's sorted list starts (1,2,8,3,9,15,...) in 1-based
        numbering for a 5-wide domain — check the 0-based equivalent."""
        from repro.analysis.model import ModelProblem

        mp = ModelProblem(7, 5)  # m=7 columns? Figure 9 is 5 by 7.
        # Use a 7-wide domain: index = iy*7 + ix, wavefront = ix+iy.
        dep = mp.dependence_graph()
        wf = compute_wavefronts(dep)
        members = wavefront_members(wf)
        assert list(members[0]) == [0]
        assert list(members[1]) == [1, 7]
        assert list(members[2]) == [2, 8, 14]


class TestHelpers:
    def test_counts(self):
        wf = np.array([0, 0, 1, 2, 2, 2])
        np.testing.assert_array_equal(wavefront_counts(wf), [2, 1, 3])

    def test_counts_empty(self):
        assert wavefront_counts(np.array([], dtype=np.int64)).size == 0

    def test_members_are_partition(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        members = wavefront_members(wf)
        flat = np.concatenate(members)
        assert sorted(flat.tolist()) == list(range(small_lower_dep.n))

    def test_members_sorted_within_wavefront(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        for m in wavefront_members(wf):
            assert np.all(np.diff(m) > 0)

    def test_critical_path(self):
        assert critical_path_length(np.array([0, 1, 2])) == 3
        assert critical_path_length(np.array([], dtype=np.int64)) == 0
