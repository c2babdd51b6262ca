"""Cheap workload signatures — what the tuner keys its verdicts on.

The paper's Tables 2–5 show the best executor/scheduler choice pivots
on a handful of structural quantities: how deep the dependence chains
run (critical path), how wide the wavefronts are (available
parallelism), how uneven the per-index work is (balance pressure).
:class:`WorkloadFeatures` measures exactly those from data the
inspector already computes — the :class:`~repro.core.dependence
.DependenceGraph` and its wavefront array — so feature extraction
costs one ``bincount`` and a few reductions, never a second sweep.

:meth:`WorkloadFeatures.signature` coarsens the measurements into
log-scaled buckets.  Two workloads with the same signature are "the
same kind of loop" to the tuner: every
:class:`~repro.tuning.store.TuningVerdict` records the signature of
the workload it was searched on, so verdicts remain auditable and
comparable across workloads even though the store keys on the exact
structure digest (which subsumes the signature).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..core.dependence import DependenceGraph
from ..core.wavefront import compute_wavefronts_general, wavefront_counts
from ..machine.costs import MULTIMAX_320, MachineCosts

__all__ = ["WorkloadFeatures", "extract_features"]


@dataclass(frozen=True)
class WorkloadFeatures:
    """Structural measurements of one dependence workload.

    Widths are in indices; the variation measures are unitless.
    Only what :meth:`signature` renders is measured.
    """

    #: Loop index count.
    n: int
    #: Mean dependences per index (edge density).
    mean_deps: float
    #: Number of wavefronts — the critical-path length.
    critical_path: int
    #: Mean wavefront (frontier) width: ``n / critical_path``.
    mean_width: float
    #: Coefficient of variation of the wavefront widths.
    width_cv: float
    #: Coefficient of variation of per-index work (imbalance pressure).
    work_cv: float

    def signature(self) -> str:
        """Coarse, log-bucketed rendering for verdict-cache keys.

        Buckets: ``⌈log2⌉`` of size, depth and widths; one decimal of
        the density and variation measures.  Chosen so workloads whose
        best strategies plausibly agree collapse to one signature while
        chain-like, mesh-like and embarrassingly parallel loops never
        do.
        """

        def lg(v: float) -> int:
            return int(math.ceil(math.log2(v))) if v >= 1.0 else 0

        return (
            f"n{lg(self.n)}"
            f"-d{self.mean_deps:.1f}"
            f"-cp{lg(self.critical_path)}"
            f"-w{lg(self.mean_width)}"
            f"-wc{self.width_cv:.1f}"
            f"-kc{self.work_cv:.1f}"
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadFeatures":
        return cls(**d)


def extract_features(
    dep: DependenceGraph,
    wf: np.ndarray | None = None,
    costs: MachineCosts = MULTIMAX_320,
) -> WorkloadFeatures:
    """Measure ``dep``; reuses ``wf`` when the caller already has it."""
    if wf is None:
        wf = compute_wavefronts_general(dep)
    n = dep.n
    nd = dep.dep_counts()
    widths = wavefront_counts(wf).astype(np.float64)
    nw = widths.shape[0]
    work = costs.base_work(nd)

    def cv(a: np.ndarray) -> float:
        if a.size == 0:
            return 0.0
        mean = float(a.mean())
        return float(a.std() / mean) if mean > 0 else 0.0

    return WorkloadFeatures(
        n=n,
        mean_deps=float(nd.mean()) if n else 0.0,
        critical_path=nw,
        mean_width=n / nw if nw else 0.0,
        width_cv=cv(widths),
        work_cv=cv(work),
    )
