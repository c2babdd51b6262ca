"""Wavefront computation — the topological sort of Figure 7.

The wavefront number of an index is one plus the maximum wavefront
number of the indices it depends on (zero for indices with no
dependences).  Indices sharing a wavefront are mutually independent, so
"work pertaining to all indices in a wavefront may be carried out in
parallel" (Section 2.3 of the paper).

Two evaluation strategies are provided:

* :func:`compute_wavefronts` — the Figure 7 computation, valid
  whenever all dependences point backwards (the start-time schedulable
  case): Figure 7's own forward pass, with no successor CSR;
* :func:`compute_wavefronts_general` — Kahn propagation for arbitrary
  DAGs (used after renumbering), by :mod:`repro.util.frontier`.

The paper computes the wavefront numbers once per structure and
amortises them; so does :func:`compute_wavefronts`, which returns the
graph's cached, read-only
:attr:`~repro.core.dependence.DependenceGraph.wavefronts`: every tuner
candidate and every compile of the winner reads one sweep, and a tuner
prefix is seeded with its slice of the parent's
(:func:`repro.tuning.measure.prefix_graph`).
:func:`compute_wavefronts_general` is not memoised: it runs after
renumbering, on graphs nothing asks twice, off the hot path.

Both take pointer doubling when no index has two dependences.  The
per-index originals are oracles in :mod:`repro.core.reference`; the
property tests assert the engines agree on random DAGs.

The paper notes the sort itself can be parallelized "by striping
consecutive indices across the processors and by using busy waits";
the sort has exactly the loop's own dependence graph, so
:meth:`Inspector.price_inspection
<repro.core.inspector.Inspector.price_inspection>` prices that strategy
(Table 5's parallel-sort column) as a doacross over it.
"""

from __future__ import annotations

import numpy as np

from ..errors import StructureError
from .dependence import DependenceGraph

__all__ = [
    "compute_wavefronts",
    "compute_wavefronts_general",
    "wavefront_counts",
    "wavefront_members",
    "critical_path_length",
]


def compute_wavefronts(dep: DependenceGraph) -> np.ndarray:
    """Wavefront numbers of a backward-only dependence graph (Figure 7).

    Requires every dependence to point to a smaller index (the
    start-time schedulable case); raises :class:`StructureError`
    otherwise.  Identical to the per-index sweep of
    :func:`repro.core.reference.compute_wavefronts`.

    Memoised on ``dep`` (:attr:`DependenceGraph.wavefronts`): the first
    call sweeps, later calls return the same read-only array.
    """
    return dep.wavefronts


def compute_wavefronts_general(dep: DependenceGraph) -> np.ndarray:
    """Wavefronts of any DAG: a forest's doubling, else Kahn's sweep."""
    return _forest_or(dep, DependenceGraph._check_dag)


def _backward_wavefronts(dep: DependenceGraph) -> np.ndarray:
    """The sweep :attr:`DependenceGraph.wavefronts` memoises."""
    return _forest_or(dep, _forward_wavefronts)


def _forest_or(dep: DependenceGraph, sweep) -> np.ndarray:
    """Pointer doubling when no index has two dependences, else ``sweep``."""
    if dep.num_edges and dep.dep_counts().max() <= 1:
        return _single_pred_wavefronts(dep)
    return sweep(dep)


#: Edges per chunk of the forward pass: it holds no edge-sized list.
_CHUNK = 1 << 12


def _forward_wavefronts(dep: DependenceGraph) -> np.ndarray:
    """Figure 7 in CSR edge order, exact on a backward-only graph: rows
    never decrease and every ``c < r``, so each ``wf[c]`` read is final.
    A chunk's edges below its first row read finished values (one
    ``maximum.at``); only those among its own rows walk in order."""
    wf = np.zeros(dep.n, dtype=np.int64)
    rows, cols = dep.edge_rows, dep.indices
    for k in range(0, dep.num_edges, _CHUNK):
        r, c = rows[k:k + _CHUNK], cols[k:k + _CHUNK]
        lo, hi = int(r[0]), int(r[-1]) + 1
        inner = c >= lo
        np.maximum.at(wf, r[~inner], wf[c[~inner]] + 1)
        local = wf[lo:hi].tolist()
        for i, j in zip((r[inner] - lo).tolist(), (c[inner] - lo).tolist()):
            if local[j] >= local[i]:
                local[i] = local[j] + 1
        wf[lo:hi] = local
    return wf


def _single_pred_wavefronts(dep: DependenceGraph) -> np.ndarray:
    """Pointer-doubling wavefronts for in-degree ≤ 1 graphs.

    The Figure 3 loop ``x[i] += b[i] * x[ia[i]]`` gives every iteration
    at most *one* dependence, so the dependence graph is a forest and
    the wavefront number is just each node's depth — computable by
    ancestor doubling in ⌈log₂ depth⌉ rounds over the edges' ``(row,
    ancestor)`` pairs, with no successor CSR and no n-length mask or
    gather.  Also covers forests with forward edges; a cycle
    (impossible in the backward-only case) would keep pairs live past
    ⌈log₂ n⌉ + 2 rounds and is reported.
    """
    n = dep.n
    rows, anc = dep.edge_rows, dep.indices
    wf = np.zeros(n, dtype=np.int64)
    wf[rows] = 1
    f = np.full(n, -1, dtype=np.int64)
    f[rows] = anc
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 2):
        # Invariant: depth(r) = wf[r] + depth(f[r]) while f[r] >= 0,
        # and ``anc`` is ``f[rows]``.  Each update gathers before it
        # scatters, so the whole round reads a consistent snapshot.
        wf[rows] += wf[anc]
        anc = f[anc]
        f[rows] = anc
        live = anc >= 0
        rows, anc = rows[live], anc[live]
        if not rows.size:
            return wf
    raise StructureError("dependence graph contains a cycle")


def wavefront_counts(wf: np.ndarray) -> np.ndarray:
    """Number of indices in each wavefront."""
    if wf.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.bincount(wf, minlength=int(wf.max()) + 1)


def wavefront_members(wf: np.ndarray) -> list[np.ndarray]:
    """Index lists per wavefront, each in increasing index order.

    For the naturally ordered model problem this reproduces the paper's
    Figure 9 sorted list (anti-diagonal strips, upper-right to
    lower-left).
    """
    order = np.argsort(wf, kind="stable")
    nw = int(wf.max()) + 1 if wf.size else 0
    bounds = np.searchsorted(wf[order], np.arange(nw + 1))
    return [order[bounds[k] : bounds[k + 1]] for k in range(nw)]


def critical_path_length(wf: np.ndarray) -> int:
    """Number of wavefronts — the dependence-height lower bound on phases."""
    return int(wf.max()) + 1 if wf.size else 0
