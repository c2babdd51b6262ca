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
from functools import cached_property

import numpy as np

from ..errors import StructureError
from ..sparse.csr import CSRMatrix
from ..util.digest import structure_digest
from ..util.frontier import counts_to_indptr, frontier_sweep, rows_from_indptr
from ..util.validation import (as_int_array, check_index_array,
                               check_positive, read_only)

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

    A graph is a value: ``indptr`` and ``indices`` are read-only (a
    caller's writable array is copied once; the factories below hand
    over frozen ones), and so is every view memoised on it as a cached
    property — successor CSR, edge rows, digest, wavefronts — so one
    graph is swept once however many candidates, rungs and compiles
    ask, and no later write can change what a cached schedule was built
    from.  What a tuner rung reads per candidate — the simulator's
    Python view of the CSR, its work vectors, the crossing test — is
    held only for the span of a :meth:`holding` block.
    """

    def __init__(self, indptr, indices, n: int, *, check_acyclic: bool = True):
        self.n = check_positive(n, "n") if n else 0
        self.indptr = read_only(as_int_array(indptr, "indptr"), indptr)
        self.indices = read_only(
            check_index_array(indices, self.n, "indices"), indices)
        if self.indptr.shape[0] != self.n + 1:
            raise StructureError(
                f"indptr must have length n+1={self.n + 1}, got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise StructureError("indptr must start at 0 and be non-decreasing")
        if int(self.indptr[-1]) != self.indices.shape[0]:
            raise StructureError("indices length must equal indptr[-1]")
        self._held: dict | None = None
        if check_acyclic and not self.all_backward:
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
        if n > ia.shape[0]:
            raise StructureError(
                f"n={n} exceeds the {ia.shape[0]} entries of ia")
        dep_exists = ia[:n] < np.arange(n)
        indptr = counts_to_indptr(dep_exists)  # bools sum into int64
        return cls(read_only(indptr), read_only(ia[:n][dep_exists]), n,
                   check_acyclic=False)

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
        return cls(read_only(indptr), read_only(cols), n, check_acyclic=False)

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
        return cls(read_only(indptr), read_only(l.indices[strict]), n,
                   check_acyclic=False)

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
        return cls(read_only(indptr), read_only(new_cols[order]), n,
                   check_acyclic=False)

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
        return cls(read_only(indptr), read_only(cols), n)

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

    @cached_property
    def edge_rows(self) -> np.ndarray:
        """Row (dependent index) of every edge, in edge order.

        The ragged counterpart of ``indices``: ``edge_rows[k]`` is the
        iteration whose dependence list contains edge ``k``.  Non-
        decreasing by construction.  Built once and shared by
        :attr:`all_backward`, :attr:`successors`, both wavefront sweeps
        of :attr:`wavefronts`, the simulator and the tuner's prefixes.
        """
        return read_only(rows_from_indptr(self.indptr))

    @cached_property
    def all_backward(self) -> bool:
        """True when every dependence points to a smaller index — the
        trivially acyclic, start-time schedulable case the paper
        restricts itself to.  The constructor asks this of every graph,
        so it borrows :attr:`edge_rows` only when a consumer has built
        them, and otherwise tags the rows transiently rather than pin an
        edge-sized array on a graph that is merely validated."""
        if self.num_edges == 0:
            return True
        rows = self.__dict__.get("edge_rows")
        if rows is None:
            rows = rows_from_indptr(self.indptr)
        return bool(np.all(self.indices < rows))

    @cached_property
    def digest(self) -> str:
        """The structure's identity: graphs with equal ``n``, ``indptr``
        and ``indices`` — whatever objects hold them — share it, and any
        edge edit changes it.  Every store key
        (:meth:`ScheduleCache.key_for
        <repro.runtime.cache.ScheduleCache.key_for>`,
        :meth:`TuningStore.key_for
        <repro.tuning.store.TuningStore.key_for>`) is this digest plus
        parameters, so one graph object is hashed once however many
        compiles, candidates and stores ask.
        """
        return structure_digest((self.indptr, self.indices), (self.n,))

    @cached_property
    def wavefronts(self) -> np.ndarray:
        """Wavefront numbers of a backward-only graph (Figure 7), swept on
        first read: :func:`~repro.core.wavefront.compute_wavefronts`."""
        self.edge_rows  # both sweeps read it: all_backward borrows it
        if not self.all_backward:
            raise StructureError(
                "sequential sweep requires backward-only dependences; "
                "use compute_wavefronts_general"
            )
        from . import wavefront  # deferred: it imports this module
        return read_only(wavefront._backward_wavefronts(self))

    def csr_lists(self) -> tuple:
        """``(indptr, indices)`` as lists of Python ints — what the
        simulator's per-iteration event loop indexes, at a fraction of
        the cost of numpy scalar access; once per :meth:`holding`."""
        return self._hold("lists", (),
                         lambda: (self.indptr.tolist(), self.indices.tolist()))

    def _hold(self, slot, key: tuple, build):
        """``build()`` — or, in a :meth:`holding` block, what it built for
        ``slot`` last with the same ``key`` objects (by identity)."""
        memo = self._held
        if memo is None:
            return build()
        known = memo.get(slot)
        if known is None or any(a is not b for a, b in zip(known[0], key)):
            known = memo[slot] = (key, build())
        return known[1]

    @contextmanager
    def holding(self):
        """Hold what :meth:`_hold` builds, one fact per slot, for the
        block: a tuner rung simulates dozens of schedules on one graph.
        Nothing outlives the block — a graph kept in a cache does not
        carry several times its CSR in Python ints."""
        self._held = {}
        try:
            yield
        finally:
            self._held = None

    @cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of the reversed edges: who depends on me — read by the
        general-DAG sweeps alone (:meth:`_check_dag`,
        ``Schedule._sweep_levels``).  Target ``t``'s list is the edge
        rows with ``indices[k] == t``, ascending (the per-edge fill order
        of :func:`repro.core.reference.successors`): one in-place sort of
        packed ``(target << shift) | row`` keys, since equal pairs are
        interchangeable — a stable argsort past 2^31 indices."""
        indptr = counts_to_indptr(np.bincount(self.indices, minlength=self.n))
        rows = self.edge_rows
        shift = int(self.n - 1).bit_length() if self.n > 1 else 1
        if 2 * shift <= 63:
            succ = self.indices << np.int64(shift)
            succ |= rows
            succ.sort()
            succ &= np.int64((1 << shift) - 1)
        else:  # pragma: no cover - graphs beyond 2^31 indices
            succ = rows[np.argsort(self.indices, kind="stable")]
        return read_only(indptr), read_only(succ)

    def _check_dag(self) -> np.ndarray:
        """Frontier Kahn sweep: any DAG's wavefronts (a cycle raises)."""
        succ_indptr, succ_indices = self.successors
        wf, _, visited = frontier_sweep(
            succ_indptr, succ_indices, self.dep_counts().astype(np.int64), self.n
        )
        if visited != self.n:
            raise StructureError("dependence graph contains a cycle")
        return wf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DependenceGraph(n={self.n}, edges={self.num_edges})"
