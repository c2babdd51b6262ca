"""Unit tests for dependence graphs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.dependence import DependenceGraph
from repro.errors import StructureError
from repro.sparse.build import csr_from_dense
from repro.util.frontier import counts_to_indptr, rows_from_indptr


class TestFromIndirection:
    def test_backward_refs_are_deps(self):
        ia = np.array([0, 0, 1, 0])
        dep = DependenceGraph.from_indirection(ia)
        assert list(dep.deps(1)) == [0]
        assert list(dep.deps(2)) == [1]
        assert list(dep.deps(3)) == [0]

    def test_forward_refs_are_not_deps(self):
        ia = np.array([3, 3, 3, 3])
        dep = DependenceGraph.from_indirection(ia)
        assert dep.num_edges == 0

    def test_self_ref_is_not_dep(self):
        ia = np.arange(5)
        dep = DependenceGraph.from_indirection(ia)
        assert dep.num_edges == 0

    def test_dep_counts(self):
        ia = np.array([0, 0, 0, 5, 1])
        dep = DependenceGraph.from_indirection(ia, n=5)
        assert list(dep.dep_counts()) == [0, 1, 1, 0, 1]

    def test_n_beyond_ia_is_a_structure_error(self):
        with pytest.raises(StructureError,
                           match="n=5 exceeds the 3 entries of ia"):
            DependenceGraph.from_indirection(np.array([0, 0, 1]), 5)


class TestFromIndirectionNested:
    def test_collects_and_dedupes(self):
        g = np.array([[0, 0], [0, 0], [1, 0], [2, 2]])
        dep = DependenceGraph.from_indirection_nested(g)
        assert list(dep.deps(1)) == [0]
        assert list(dep.deps(2)) == [0, 1]
        assert list(dep.deps(3)) == [2]

    def test_rejects_1d(self):
        with pytest.raises(StructureError):
            DependenceGraph.from_indirection_nested(np.arange(4))


class TestFromCsr:
    def test_lower(self):
        dense = np.array([
            [2.0, 0.0, 0.0],
            [1.0, 2.0, 0.0],
            [0.0, 1.0, 2.0],
        ])
        dep = DependenceGraph.from_lower_csr(csr_from_dense(dense))
        assert list(dep.deps(0)) == []
        assert list(dep.deps(1)) == [0]
        assert list(dep.deps(2)) == [1]

    def test_upper_renumbered(self):
        dense = np.array([
            [2.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [0.0, 0.0, 2.0],
        ])
        dep = DependenceGraph.from_upper_csr(csr_from_dense(dense))
        # Renumbered i -> n-1-i: new index 1 (old row 1) depends on
        # new index 0 (old row 2); new index 2 (old row 0) on new 1.
        assert list(dep.deps(0)) == []
        assert list(dep.deps(1)) == [0]
        assert list(dep.deps(2)) == [1]

    def test_lower_ignores_diag_and_upper(self):
        dense = np.array([[2.0, 5.0], [1.0, 2.0]])
        dep = DependenceGraph.from_lower_csr(csr_from_dense(dense))
        assert dep.num_edges == 1


class TestFromEdges:
    def test_basic(self):
        dep = DependenceGraph.from_edges([(2, 0), (2, 1), (1, 0)], 3)
        assert list(dep.deps(2)) == [0, 1]
        assert dep.all_backward

    def test_forward_edges_allowed_if_acyclic(self):
        dep = DependenceGraph.from_edges([(0, 2)], 3)
        assert not dep.all_backward
        assert list(dep.deps(0)) == [2]

    def test_cycle_detected(self):
        with pytest.raises(StructureError):
            DependenceGraph.from_edges([(0, 1), (1, 0)], 2)

    def test_self_loop_detected(self):
        with pytest.raises(StructureError):
            DependenceGraph.from_edges([(0, 0)], 1)

    def test_empty(self):
        dep = DependenceGraph.from_edges([], 4)
        assert dep.num_edges == 0


class TestEdgeRows:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=40), st.booleans())
    @example([], True)
    @example([0, 0, 1], True)
    @example([1, 0, 0], True)
    @example([2, 0, 1], False)
    def test_rows_from_indptr_is_the_repeat(self, counts, forest):
        """Row tags by ``flatnonzero`` where no row holds two entries,
        by ``repeat`` otherwise: the same array either way, empty rows
        leading, trailing or throughout, and n = 0."""
        counts = np.asarray(counts, dtype=np.int64)
        if forest:
            counts = np.minimum(counts, 1)
        indptr = counts_to_indptr(counts)
        got = rows_from_indptr(indptr)
        want = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        assert got.dtype == np.int64 and np.array_equal(got, want)


class TestSuccessors:
    def test_successors_invert_deps(self, small_lower_dep):
        succ_indptr, succ_indices = small_lower_dep.successors
        # Rebuild dependence pairs from both directions and compare.
        fwd = set()
        for i in range(small_lower_dep.n):
            for j in small_lower_dep.deps(i):
                fwd.add((int(j), int(i)))
        bwd = set()
        for j in range(small_lower_dep.n):
            for i in succ_indices[succ_indptr[j]:succ_indptr[j + 1]]:
                bwd.add((int(j), int(i)))
        assert fwd == bwd

    def test_cached(self, small_lower_dep):
        a = small_lower_dep.successors
        b = small_lower_dep.successors
        assert a[0] is b[0]


class TestValidation:
    def test_bad_indptr(self):
        with pytest.raises(StructureError):
            DependenceGraph([0, 2], [0], 1)

    def test_out_of_range_indices(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            DependenceGraph([0, 1], [3], 1)
