"""Iteration-level dependence graphs.

A :class:`DependenceGraph` records, for each outer-loop index ``i``,
the set of indices whose results ``i`` consumes.  In the paper these
dependences come from run-time data — the contents of an indirection
array (``ia`` in Figure 3), or the column structure of a sparse
triangular factor (``ija`` in Figure 8) — which is exactly why
compile-time analysis fails and a run-time inspector is needed.

The canonical storage is CSR-like: ``indptr``/``indices`` where row
``i`` lists the *predecessors* (dependences) of index ``i``.  All
predecessors must be earlier indices (``j < i``) for "lower" problems;
the class also supports general DAGs for reordered/upper problems.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import StructureError
from ..sparse.csr import CSRMatrix
from ..util.digest import structure_digest
from ..util.frontier import counts_to_indptr, frontier_sweep, rows_from_indptr
from ..util.validation import as_int_array, check_index_array, check_positive

__all__ = ["DependenceGraph"]


class DependenceGraph:
    """Predecessor lists for every loop index, in CSR layout.

    Parameters
    ----------
    indptr, indices:
        ``indices[indptr[i]:indptr[i+1]]`` are the indices that
        iteration ``i`` depends on.
    n:
        Number of loop indices.
    check_acyclic:
        When true, verify the graph is a DAG (cheap when dependences
        all point backwards, which is also verified).

    Derived structure is memoised on the graph — the successor CSR,
    the edge row tags, the digest, and the wavefront numbers
    :func:`~repro.core.wavefront.compute_wavefronts` sweeps — so one
    graph is swept once however many candidates, rungs and compiles
    ask.  Every memo relies on the arrays not being mutated after
    construction; the wavefront memo is handed out read-only, so an
    in-place write raises instead of corrupting every later schedule.
    The simulator's Python view of the CSR is held only for the span of
    a :meth:`holding_lists` block.
    """

    __slots__ = ("indptr", "indices", "n", "_succ_indptr", "_succ_indices",
                 "_edge_rows", "_all_backward", "_digest", "_wavefronts",
                 "_held_lists")

    def __init__(self, indptr, indices, n: int, *, check_acyclic: bool = True):
        self.n = check_positive(n, "n") if n else 0
        self.indptr = as_int_array(indptr, "indptr")
        self.indices = check_index_array(indices, self.n, "indices")
        if self.indptr.shape[0] != self.n + 1:
            raise StructureError(
                f"indptr must have length n+1={self.n + 1}, got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise StructureError("indptr must start at 0 and be non-decreasing")
        if int(self.indptr[-1]) != self.indices.shape[0]:
            raise StructureError("indices length must equal indptr[-1]")
        self._succ_indptr: np.ndarray | None = None
        self._succ_indices: np.ndarray | None = None
        self._edge_rows: np.ndarray | None = None
        self._all_backward: bool | None = None
        self._digest: str | None = None
        #: Filled by :func:`repro.core.wavefront.compute_wavefronts`
        #: (or seeded by :func:`repro.tuning.measure.prefix_graph`).
        self._wavefronts: np.ndarray | None = None
        self._held_lists: tuple[tuple, tuple] | None = None
        if check_acyclic and not self.all_backward():
            self._check_dag()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_indirection(cls, ia, n: int | None = None) -> "DependenceGraph":
        """Dependences of the Figure 3 loop ``x[i] += b[i] * x[ia[i]]``.

        Iteration ``i`` depends on iteration ``ia[i]`` when
        ``ia[i] < i`` — a *forward* reference (``ia[i] >= i``) reads the
        old value ``xold`` and carries no dependence, exactly as the
        transformed loop of Figure 4 distinguishes.
        """
        ia = as_int_array(ia, "ia")
        if n is None:
            n = ia.shape[0]
        n = int(n)
        dep_exists = ia[:n] < np.arange(n)
        indptr = counts_to_indptr(dep_exists.astype(np.int64))
        indices = ia[:n][dep_exists]
        return cls(indptr, indices, n, check_acyclic=False)

    @classmethod
    def from_indirection_nested(cls, g, n: int | None = None) -> "DependenceGraph":
        """Dependences of the Figure 6 nested loop ``y[i] += t * y[g[i, j]]``.

        ``g`` is an ``(n, m)`` array; iteration ``i`` depends on every
        ``g[i, j] < i`` (duplicates collapsed).
        """
        g = as_int_array(g, "g")
        if g.ndim != 2:
            raise StructureError(f"g must be 2-D, got shape {g.shape}")
        if n is None:
            n = g.shape[0]
        n = int(n)
        if n > g.shape[0]:
            raise StructureError(
                f"n={n} exceeds the {g.shape[0]} rows of g"
            )
        rows = np.repeat(np.arange(n, dtype=np.int64), g.shape[1])
        cols = g[:n].ravel()
        mask = cols < rows
        rows, cols = rows[mask], cols[mask]
        # Negative references would corrupt the pair encoding below;
        # surface the same error the constructor would have raised.
        check_index_array(cols, n, "indices")
        # Collapse duplicate (i, j) pairs; sorting the encoded pairs
        # also yields ascending dependences within each row, matching
        # the reference per-row np.unique construction.
        if cols.size:
            uniq = np.unique(rows * n + cols)
            rows, cols = uniq // n, uniq % n
        indptr = counts_to_indptr(np.bincount(rows, minlength=n))
        return cls(indptr, cols, n, check_acyclic=False)

    @classmethod
    def from_lower_csr(cls, l: CSRMatrix) -> "DependenceGraph":
        """Dependences of a forward substitution with matrix ``l``.

        Row ``i`` of the solve needs ``x[j]`` for every stored strictly
        lower entry ``(i, j)`` — the Figure 8 loop.
        """
        n = l.nrows
        rows = l.row_of_nnz()
        strict = l.indices < rows
        indptr = counts_to_indptr(np.bincount(rows[strict], minlength=n))
        return cls(indptr, l.indices[strict], n, check_acyclic=False)

    @classmethod
    def from_upper_csr(cls, u: CSRMatrix) -> "DependenceGraph":
        """Dependences of a backward substitution, *renumbered*.

        The backward solve visits rows ``n-1 .. 0``; renumbering
        ``i -> n-1-i`` turns it into a forward problem so all the
        scheduling machinery applies unchanged.  Use
        :func:`numpy.flip` conventions to map results back.
        """
        n = u.nrows
        rows = u.row_of_nnz()
        strict = u.indices > rows
        # Renumber: iteration (n-1-i) depends on (n-1-j) for j > i.
        new_rows = n - 1 - rows[strict]
        new_cols = n - 1 - u.indices[strict]
        order = np.argsort(new_rows, kind="stable")
        indptr = counts_to_indptr(np.bincount(new_rows, minlength=n))
        return cls(indptr, new_cols[order], n, check_acyclic=False)

    @classmethod
    def from_edges(cls, edges, n: int) -> "DependenceGraph":
        """Build from ``(dependent, dependence)`` pairs (i depends on j)."""
        n = check_positive(n, "n")
        if len(edges):
            e = np.asarray(edges, dtype=np.int64)
            if e.ndim != 2 or e.shape[1] != 2:
                raise StructureError("edges must be (k, 2)-shaped")
            rows, cols = e[:, 0], e[:, 1]
        else:
            rows = cols = np.empty(0, dtype=np.int64)
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        indptr = counts_to_indptr(np.bincount(rows, minlength=n))
        return cls(indptr, cols, n)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def deps(self, i: int) -> np.ndarray:
        """Predecessors of index ``i`` (view)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def dep_counts(self) -> np.ndarray:
        """In-degree (number of dependences) of each index."""
        return np.diff(self.indptr)

    def edge_rows(self) -> np.ndarray:
        """Row (dependent index) of every edge, in edge order (cached).

        The ragged counterpart of ``indices``: ``edge_rows()[k]`` is the
        iteration whose dependence list contains edge ``k``.  Non-
        decreasing by construction.  Built once and shared by
        :meth:`all_backward`, :meth:`successors`, the simulator's
        schedule-shape checks and the tuner's prefix slicing.
        """
        if self._edge_rows is None:
            self._edge_rows = rows_from_indptr(self.indptr)
        return self._edge_rows

    def all_backward(self) -> bool:
        """True when every dependence points to a smaller index (memoized).

        Such graphs are trivially acyclic — the start-time schedulable
        case the paper restricts itself to.  Only the boolean is
        cached: the constructor's acyclicity check calls this on every
        graph, and pinning an edge-sized row array for graphs that are
        merely validated would defeat the memory economy of
        :meth:`successors`.  The row tags are therefore taken from the
        :meth:`edge_rows` cache when a consumer has already built it,
        and recomputed transiently otherwise.
        """
        if self._all_backward is None:
            if self.num_edges == 0:
                self._all_backward = True
            else:
                rows = self._edge_rows
                if rows is None:
                    rows = rows_from_indptr(self.indptr)
                self._all_backward = bool(np.all(self.indices < rows))
        return self._all_backward

    def digest(self) -> str:
        """The structure's identity (memoized): graphs with equal ``n``,
        ``indptr`` and ``indices`` — whatever objects hold them — share
        it, and any edge edit changes it.  Every store key
        (:meth:`ScheduleCache.key_for
        <repro.runtime.cache.ScheduleCache.key_for>`,
        :meth:`TuningStore.key_for
        <repro.tuning.store.TuningStore.key_for>`) is this digest plus
        parameters, so one graph object is hashed once however many
        compiles, candidates and stores ask.  Like the other caches
        here it relies on the arrays not being mutated after
        construction.
        """
        if self._digest is None:
            self._digest = structure_digest((self.indptr, self.indices),
                                            (self.n,))
        return self._digest

    def csr_lists(self) -> tuple:
        """``(indptr, indices)`` as sequences of Python ints — what the
        simulator's per-iteration event loop indexes, at a fraction of
        the cost of numpy scalar access.  Fresh lists, or the tuples a
        :meth:`holding_lists` block holds."""
        held = self._held_lists
        if held is not None:
            return held
        return self.indptr.tolist(), self.indices.tolist()

    @contextmanager
    def holding_lists(self):
        """Convert :meth:`csr_lists` once and hold them (read-only
        tuples) for the block: a tuner rung simulates dozens of
        schedules on one graph.  Nothing outlives the block — a graph
        kept in a cache does not carry several times its CSR in Python
        ints.  The values are the arrays' either way, so a simulation
        that finds nothing held only pays for its own conversion."""
        self._held_lists = (tuple(self.indptr.tolist()),
                            tuple(self.indices.tolist()))
        try:
            yield
        finally:
            self._held_lists = None

    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed edges: who depends on me (cached).

        The successor list of target ``t`` is exactly the edge rows with
        ``indices[k] == t``, in ascending row order (``edge_rows()`` is
        non-decreasing, so a stable grouping by target keeps rows
        sorted).  Because only the *values* are needed — equal
        ``(target, row)`` duplicates are interchangeable — the grouping
        is one in-place ``sort`` of packed ``(target << shift) | row``
        keys: no composite-key temporary and no argsort permutation
        array, which cuts both time (~4× at 10^7 edges) and peak memory
        (~3× fewer edge-sized temporaries) against the previous
        composite-key argsort.  The packed path needs
        ``2 * bit_length(n-1) <= 63``; graphs beyond 2^31 indices fall
        back to a stable argsort.  Either way the per-edge fill order of
        :func:`repro.core.reference.successors` is reproduced exactly.
        """
        if self._succ_indptr is None:
            indptr = counts_to_indptr(np.bincount(self.indices, minlength=self.n))
            rows = self.edge_rows()
            shift = int(self.n - 1).bit_length() if self.n > 1 else 1
            if self.num_edges == 0:
                succ = np.empty(0, dtype=np.int64)
            elif 2 * shift <= 63:
                key = self.indices << np.int64(shift)
                key |= rows
                key.sort()
                key &= np.int64((1 << shift) - 1)
                succ = key
            else:  # pragma: no cover - graphs beyond 2^31 indices
                succ = rows[np.argsort(self.indices, kind="stable")]
            self._succ_indptr, self._succ_indices = indptr, succ
        return self._succ_indptr, self._succ_indices

    def _check_dag(self) -> None:
        """Frontier Kahn sweep; raises :class:`StructureError` on a cycle."""
        succ_indptr, succ_indices = self.successors()
        _, _, visited = frontier_sweep(
            succ_indptr, succ_indices, self.dep_counts().astype(np.int64), self.n
        )
        if visited != self.n:
            raise StructureError("dependence graph contains a cycle")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependenceGraph(n={self.n}, edges={self.num_edges})"
