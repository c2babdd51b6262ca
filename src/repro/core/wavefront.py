"""Wavefront computation — the topological sort of Figure 7.

The wavefront number of an index is one plus the maximum wavefront
number of the indices it depends on (zero for indices with no
dependences).  Indices sharing a wavefront are mutually independent, so
"work pertaining to all indices in a wavefront may be carried out in
parallel" (Section 2.3 of the paper).

Two evaluation strategies are provided:

* :func:`compute_wavefronts` — the Figure 7 computation, valid
  whenever all dependences point backwards (the start-time schedulable
  case);
* :func:`compute_wavefronts_general` — Kahn propagation for arbitrary
  DAGs (used after renumbering).

The paper computes the wavefront numbers once per structure and
amortises them; so does :func:`compute_wavefronts`, which returns the
graph's cached, read-only
:attr:`~repro.core.dependence.DependenceGraph.wavefronts`: every tuner
candidate and every compile of the winner reads one sweep, and a tuner
prefix is seeded with its slice of the parent's
(:func:`repro.tuning.measure.prefix_graph`).
:func:`compute_wavefronts_general` is not memoised: it runs after
renumbering, on graphs nothing asks twice, off the hot path.

Both are evaluated with the vectorized frontier engine of
:mod:`repro.util.frontier`: one numpy gather/scatter pass per
*wavefront* instead of a Python-level visit per *index*, which is what
makes inspection cheap enough for the paper's amortisation argument
(Table 5) to carry at n ≈ 10^6.  The per-index originals are retained
as oracles in :mod:`repro.core.reference` and the property-based tests
assert the two agree on random DAGs.

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
from ..util.frontier import frontier_sweep
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
    otherwise.  Evaluated as a frontier sweep — each step emits one
    complete wavefront — which is semantically identical to the
    per-index sweep of :func:`repro.core.reference.compute_wavefronts`.

    Memoised on ``dep`` (:attr:`DependenceGraph.wavefronts`): the first
    call sweeps, later calls return the same read-only array.
    """
    return dep.wavefronts


def compute_wavefronts_general(dep: DependenceGraph) -> np.ndarray:
    """Wavefronts of an arbitrary DAG via frontier Kahn propagation."""
    return _frontier_wavefronts(dep)


def _frontier_wavefronts(dep: DependenceGraph) -> np.ndarray:
    if dep.num_edges and dep.dep_counts().max() <= 1:
        return _single_pred_wavefronts(dep)
    succ_indptr, succ_indices = dep.successors
    wf, _, visited = frontier_sweep(
        succ_indptr, succ_indices, dep.dep_counts().astype(np.int64), dep.n
    )
    if visited != dep.n:
        raise StructureError("dependence graph contains a cycle")
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
