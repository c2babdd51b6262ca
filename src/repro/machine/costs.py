"""Machine cost model.

All times are in microseconds.  The absolute values are calibrated to
the magnitude of a late-1980s shared-memory minicomputer (the paper's
Encore Multimax/320: ~13 MHz NS32332 processors, FORTRAN, shared bus);
what the experiments actually depend on are the *ratios* the paper's
Section 4.2 model names:

* ``R_sync = T_sync / T_point`` — barrier vs. per-point work,
* ``R_inc  = T_inc  / T_point`` — shared-array increment vs. work,
* ``R_check = T_check / T_point`` — shared-array check vs. work,

with ``T_point`` the time to compute one model-problem point (a couple
of multiply–adds).  The ablation benchmark sweeps these ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["MachineCosts", "MULTIMAX_320", "ZERO_OVERHEAD"]


@dataclass(frozen=True)
class MachineCosts:
    """Per-operation costs (microseconds) of the simulated machine.

    Attributes
    ----------
    t_work_base:
        Fixed cost of one outer-loop iteration (loop bookkeeping, the
        right-hand-side load, the divide).
    t_work_per_dep:
        Cost per dependence — one multiply–add plus the gather load.
    t_sync_base, t_sync_per_proc:
        Global barrier cost ``t_sync_base + t_sync_per_proc * p``; the
        Multimax barrier was software, roughly linear in ``p``.
    t_check:
        One busy-wait check of a shared ``ready`` flag (charged once
        per dependence; waiting itself is idle time, tracked
        separately).
    t_inc:
        One increment of a shared ``ready`` flag (charged once per
        iteration by the self-executing executor).
    t_sched_access:
        Fetching ``schedule(i)`` from the reordered index array — the
        overhead the paper notes the plain ``doacross`` avoids.
    t_sort_base, t_sort_per_dep:
        Per-index cost of the Figure 7 wavefront sweep (a max-reduce
        over the dependences plus a store).
    t_rearrange:
        Per-index cost of building the globally sorted list and dealing
        it across processors (global scheduling's extra, sequential
        step).
    t_local_sort:
        Per-index cost of locally sorting a processor's own indices by
        wavefront (runs in parallel on all processors).
    t_poll:
        Busy-wait wake-up granularity; 0 means a waiter resumes at the
        exact instant its operand is produced.
    contention_alpha:
        Shared-memory contention: shared-access costs are inflated by
        ``1 + contention_alpha * (p - 1)``.
    """

    # Calibration note: these values reproduce the paper's Table 1
    # crossover — self-execution wins every test problem except the
    # large regular 7-point operator (L7-PT), where the few cheap
    # barriers of pre-scheduling beat the per-iteration shared-array
    # overhead of self-execution (Section 5.1.2's 7-PT discussion).
    t_work_base: float = 12.0
    t_work_per_dep: float = 9.0
    t_sync_base: float = 180.0
    t_sync_per_proc: float = 14.0
    t_check: float = 5.0
    t_inc: float = 8.0
    t_sched_access: float = 3.0
    t_poll: float = 0.0
    contention_alpha: float = 0.02
    # Inspector costs (Section 2.3 / Table 5).  Calibrated so that one
    # sequential sort plus the global rearrangement costs slightly less
    # than one sequential triangular solve on the same matrix, as the
    # paper reports for the Multimax.
    t_sort_base: float = 6.0
    t_sort_per_dep: float = 5.0
    t_rearrange: float = 5.0
    t_local_sort: float = 7.0

    # ------------------------------------------------------------------
    def astuple(self) -> tuple:
        """The field values the store keys hash: ``dataclasses.astuple``
        (same ``repr``, every field a number) without its deep copy."""
        return tuple(vars(self).values())

    def sync_cost(self, nproc: int) -> float:
        """Cost of one global barrier among ``nproc`` processors."""
        return self.t_sync_base + self.t_sync_per_proc * nproc

    def shared_factor(self, nproc: int) -> float:
        """Contention inflation on shared-memory accesses."""
        return 1.0 + self.contention_alpha * max(0, nproc - 1)

    def base_work(self, dep_counts: np.ndarray) -> np.ndarray:
        """Pure computational work per index (no parallel overheads)."""
        return self.t_work_base + self.t_work_per_dep * np.asarray(
            dep_counts, dtype=np.float64
        )

    # Ratios of the Section 4.2 analytical model.  T_point is the work
    # of one interior model-problem point: two dependences.
    @property
    def t_point(self) -> float:
        return self.t_work_base + 2.0 * self.t_work_per_dep

    def r_sync(self, nproc: int) -> float:
        return self.sync_cost(nproc) / self.t_point

    @property
    def r_inc(self) -> float:
        return self.t_inc / self.t_point

    @property
    def r_check(self) -> float:
        return self.t_check / self.t_point

    def with_overheads_zeroed(self) -> "MachineCosts":
        """Copy with every non-work cost zeroed.

        Simulating with these costs yields the paper's *symbolically
        estimated efficiency* — load balance of the floating-point
        operations alone (Section 5.1.2).
        """
        return replace(
            self,
            t_sync_base=0.0,
            t_sync_per_proc=0.0,
            t_check=0.0,
            t_inc=0.0,
            t_sched_access=0.0,
            t_poll=0.0,
            contention_alpha=0.0,
        )


#: Default cost preset; see module docstring for the calibration rationale.
MULTIMAX_320 = MachineCosts()

#: All overheads zero — used to compute symbolically estimated efficiencies.
ZERO_OVERHEAD = MULTIMAX_320.with_overheads_zeroed()
