"""Vectorized frontier (level-set) machinery for DAG sweeps.

Kahn propagation one *wavefront per step*: gather all successors of
the current frontier with one CSR fan-out, decrement in-degrees in
bulk, and emit the next frontier.  It sorts what no in-order pass can:
a general DAG (:meth:`DependenceGraph._check_dag
<repro.core.dependence.DependenceGraph._check_dag>`) and the combined
(program-order ∪ dependence) DAG of :meth:`Schedule.toposort_plan
<repro.core.schedule.Schedule.toposort_plan>`.  A backward-only graph
needs neither it nor a successor CSR: Figure 7's own pass
(:mod:`repro.core.wavefront`) sweeps 3 × 10^6 edges in 0.1–0.35 s on a
2-vCPU host, faster than this engine.

The pure-Python originals are retained as oracles in
:mod:`repro.core.reference`; the property-based tests assert the two
implementations agree on random DAGs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "counts_to_indptr",
    "expand_csr_ranges",
    "frontier_sweep",
    "rows_from_indptr",
]


def counts_to_indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row-pointer array from per-row counts (exclusive prefix sum)."""
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def rows_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Row tag of every CSR entry: ``rows[k] = r`` for ``indptr[r] <= k <
    indptr[r+1]`` — the non-empty rows where no row holds two entries."""
    counts = np.diff(indptr)
    if counts.max(initial=0) <= 1:
        return np.flatnonzero(counts)
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)


def expand_csr_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[k], starts[k] + counts[k])`` for every ``k``.

    The vectorized equivalent of
    ``np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])``:
    one ``arange`` over the total length plus a per-block offset
    correction.  Used to gather all CSR rows of a frontier in one shot.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    offsets = np.cumsum(counts) - counts  # exclusive prefix sum
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)


#: Frontier size at or below which a level is handed to the scalar
#: (pure-Python) engine, provided the *mean* width so far is also small
#: (so one narrow tail of a wide graph never pays the list conversion).
SCALAR_ENTER = 24
#: Frontier size at which the scalar engine hands control back.
SCALAR_EXIT = 96


def frontier_sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    indeg: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Level-set Kahn propagation over a successor CSR.

    Parameters
    ----------
    indptr, indices:
        Successor CSR: ``indices[indptr[j]:indptr[j+1]]`` are the nodes
        that depend on ``j``.  Duplicate edges are allowed (each one
        counts toward the in-degree).
    indeg:
        In-degree of every node, **consumed** — pass a copy (its final
        contents are undefined).
    n:
        Node count.

    Returns
    -------
    (levels, order, visited):
        ``levels[i]`` is the wavefront of node ``i`` — one plus the
        maximum level of its predecessors, zero for sources.  ``order``
        lists the nodes level by level (ascending within each level) —
        a valid topological order of the first ``visited`` entries.
        ``visited < n`` signals a cycle; the caller decides what to
        raise (``levels``/``order`` entries of unvisited nodes are
        undefined).

    The engine is a hybrid: wide frontiers are processed with bulk
    numpy gathers/scatters (one interpreter entry per *wavefront*),
    while runs of tiny frontiers — deep, narrow, near-chain DAGs, where
    ~15 whole-array numpy calls per 2-element level used to cost more
    than visiting the elements — drop into a tight per-index Python
    loop (:func:`_scalar_levels`) until the frontier widens again.
    """
    levels = np.zeros(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    mask = np.zeros(n, dtype=bool)  # scratch for large-frontier dedup
    frontier = np.nonzero(indeg == 0)[0]
    visited = 0
    level = 0
    lists = None  # (indptr, indices) as Python lists, built on demand
    entries = 0  # each scalar entry/exit pair costs O(n) conversions
    while frontier.size:
        if (frontier.size <= SCALAR_ENTER and entries < 8
                and visited <= (level + 1) * 2 * SCALAR_EXIT):
            entries += 1
            if lists is None:
                lists = (indptr.tolist(), indices.tolist())
            indeg_l = indeg.tolist()
            frontier, visited, level = _scalar_levels(
                lists[0], lists[1], indeg_l, frontier.tolist(),
                levels, order, visited, level,
            )
            if not frontier:
                break
            # The frontier outgrew the scalar engine: rejoin the
            # vector path with the scalar loop's in-degree state.
            frontier = np.asarray(frontier, dtype=np.int64)
            indeg = np.asarray(indeg_l, dtype=np.int64)
        order[visited : visited + frontier.size] = frontier
        levels[frontier] = level
        visited += frontier.size
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        targets = indices[expand_csr_ranges(starts, counts)]
        if not targets.size:
            break
        # Bulk in-degree decrement, then collect the nodes whose last
        # predecessor was in this frontier.  Duplicates (several
        # frontier members targeting one node, or duplicate edges) are
        # handled by the counting decrement and deduplicated into an
        # ascending frontier — matching the reference sweep's order.
        # Both steps touch all n slots (``bincount``, scratch mask), so
        # they only win on large frontiers; moderately small frontiers
        # use scatter + sort-based unique instead.
        if targets.size * 8 >= n:
            indeg -= np.bincount(targets, minlength=n)
            hits = targets[indeg[targets] == 0]
            mask[hits] = True
            frontier = np.nonzero(mask)[0]
            mask[frontier] = False  # cheap reset: only touched slots
        else:
            np.subtract.at(indeg, targets, 1)
            frontier = np.unique(targets[indeg[targets] == 0])
    return levels, order, visited


def _scalar_levels(
    indptr: list,
    indices: list,
    indeg: list,
    frontier: list,
    levels: np.ndarray,
    order: np.ndarray,
    visited: int,
    level: int,
) -> tuple[list, int, int]:
    """Per-index Kahn over a run of tiny frontiers (all-Python inner loop).

    Processes complete levels — identical node order and level numbers
    to the vector path — until the frontier empties or outgrows
    :data:`SCALAR_EXIT`.  Results are buffered in Python lists and
    written back to ``levels``/``order`` in one shot; ``indeg`` is the
    caller's in-degree state as a mutable list.  Returns the frontier
    it stopped on (sorted, possibly empty) plus the updated counters.
    """
    buf: list = []
    widths: list = []
    while frontier:
        nxt: list = []
        for j in frontier:
            for k in range(indptr[j], indptr[j + 1]):
                t = indices[k]
                d = indeg[t] - 1
                indeg[t] = d
                if d == 0:
                    nxt.append(t)
        buf.extend(frontier)
        widths.append(len(frontier))
        nxt.sort()
        frontier = nxt
        if len(frontier) > SCALAR_EXIT:
            break
    if buf:
        nodes = np.asarray(buf, dtype=np.int64)
        order[visited : visited + nodes.size] = nodes
        levels[nodes] = np.repeat(
            np.arange(level, level + len(widths), dtype=np.int64), widths
        )
        visited += nodes.size
        level += len(widths)
    return frontier, visited, level
