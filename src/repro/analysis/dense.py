"""The dense-triangular extreme case (end of Section 4.2).

"To illustrate this, we present the rather extreme example of solving a
n by n dense triangular matrix having unit diagonals using n - 1
processors."  Every row depends on *all* previous rows, so each row is
its own wavefront: pre-scheduling obtains no parallelism at all, while
self-execution pipelines the row substitutions and finishes in
``T_saxpy (n - 1)``.

Closed forms implemented here, plus a builder for the actual dense
lower-triangular structure so the machine simulator can confirm them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..util.frontier import counts_to_indptr

__all__ = ["DenseTriangularModel"]


@dataclass(frozen=True)
class DenseTriangularModel:
    """``n×n`` dense unit-diagonal lower triangular solve on ``n-1`` procs."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("the dense model needs n >= 2")

    @property
    def nproc(self) -> int:
        return self.n - 1

    # ------------------------------------------------------------------
    def sequential_saxpys(self) -> int:
        """Total multiply–add pairs: ``n(n-1)/2``."""
        return self.n * (self.n - 1) // 2

    def self_executing_time(self, t_saxpy: float = 1.0) -> float:
        """Pipelined completion time: ``T_saxpy (n - 1)``.

        Row ``i`` (0-based) needs ``x_0 .. x_{i-1}``; with one row per
        processor, ``x_j`` arrives at time ``(j + 1) T_saxpy``, exactly
        when row ``i`` finishes consuming ``x_{j-1}`` — a perfect
        pipeline, so the last row finishes at ``(n - 1) T_saxpy``.
        """
        return t_saxpy * (self.n - 1)

    def prescheduled_time(self, t_saxpy: float = 1.0) -> float:
        """No parallelism: every row is its own wavefront."""
        return t_saxpy * self.sequential_saxpys()

    def eopt_self(self) -> float:
        """``n / (2 (n - 1))`` — slightly above one half."""
        return self.sequential_saxpys() / (self.nproc * self.self_executing_time())

    def eopt_prescheduled(self) -> float:
        """``1 / (n - 1)``."""
        return self.sequential_saxpys() / (self.nproc * self.prescheduled_time())

    # ------------------------------------------------------------------
    def dependence_graph(self):
        """The actual dense strictly-lower dependence structure."""
        from ..core.dependence import DependenceGraph

        n = self.n
        indptr = counts_to_indptr(np.arange(n, dtype=np.int64))
        indices = np.concatenate(  # n >= 2, so never an empty list
            [np.arange(i, dtype=np.int64) for i in range(n)])
        return DependenceGraph(indptr, indices, n, check_acyclic=False)

    def simulate_fine_grained(self, t_saxpy: float = 1.0) -> float:
        """Exact completion time under *operand-level* busy waiting.

        The paper's dense example assumes the Figure 8 executor shape:
        the busy wait sits inside the inner loop, so row ``i`` consumes
        ``x_0, x_1, ...`` as they arrive instead of waiting for all of
        them (the coarse-grained machine simulator of
        :mod:`repro.machine.simulator` charges the whole iteration
        atomically, which is the right model for the sparse workloads
        but pessimistic here).  With one row per processor::

            op_finish(i, j) = max(op_finish(i, j-1), finish(j)) + T

        and ``finish(i) = op_finish(i, i-1)``.
        """
        finish = np.zeros(self.n)
        for i in range(1, self.n):
            t = 0.0
            for j in range(i):
                t = max(t, finish[j]) + t_saxpy
            finish[i] = t
        return float(finish[-1])
