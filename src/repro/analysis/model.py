"""The Section 4.2 model problem: closed-form efficiency analysis.

The model problem is the lower triangular system from the zero-fill
factorization of the 5-point operator on an ``m × n`` rectangular mesh,
solved on ``p <= min(m, n)`` processors.  Wavefronts are the
anti-diagonals of the mesh; the globally sorted index list is dealt to
processors in a wrapped manner (Figures 9 and 10 of the paper).

Implemented quantities (paper equation numbers):

* ``MC(j)`` — work units (strips) per processor in phase ``j``
  (equations 1–2 region);
* :func:`eopt_prescheduled_exact` — the exact load-balance-only
  efficiency (equation 3);
* :func:`eopt_prescheduled_approx` — the closed-form approximation
  (equation 4);
* :func:`eopt_self_executing` — ``mn / (mn + p(p-1))`` (equation 5);
* :func:`time_ratio` — pre-scheduled time / self-executing time with
  synchronization and shared-array cost ratios (equation 6);
* :func:`ratio_limit_fixed_n` / :func:`ratio_limit_square` — the two
  limits the paper analyses (discussion around equations 6–7).

The test-suite cross-checks every closed form against the event-driven
machine simulator on actual model-problem dependence graphs — the
strongest internal-consistency check the library has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320

__all__ = [
    "ModelProblem",
    "mc_prescheduled",
    "eopt_prescheduled_exact",
    "eopt_prescheduled_approx",
    "eopt_self_executing",
    "time_ratio",
    "ratio_limit_fixed_n",
    "ratio_limit_square",
]


def _check(m: int, n: int, p: int) -> tuple[int, int, int]:
    m, n, p = int(m), int(n), int(p)
    if m <= 0 or n <= 0:
        raise ValidationError("mesh dimensions must be positive")
    if p <= 0:
        raise ValidationError("processor count must be positive")
    if p > min(m, n):
        raise ValidationError(
            f"the model assumes p <= min(m, n); got p={p}, min={min(m, n)}"
        )
    return m, n, p


def mc_prescheduled(j: int, m: int, n: int, p: int) -> int:
    """Strips computed per processor during phase ``j`` (1-based).

    Phase ``j`` holds ``min(j, m, n, n + m - j)`` anti-diagonal strips;
    with wrapped assignment the busiest processor computes the ceiling
    of that count over ``p``.
    """
    m, n, p = _check(m, n, p)
    if not 1 <= j <= n + m - 1:
        raise ValidationError(f"phase j must lie in [1, {n + m - 1}]")
    strips = min(j, m, n, n + m - j)
    return -(-strips // p)  # ceil


def eopt_prescheduled_exact(m: int, n: int, p: int) -> float:
    """Equation (3): exact load-balance efficiency of pre-scheduling.

    ``E = S / (p · T_c)`` with ``T_c = T_p · Σ_j MC(j)`` and
    ``S = m·n·T_p``.
    """
    m, n, p = _check(m, n, p)
    total = sum(mc_prescheduled(j, m, n, p) for j in range(1, n + m))
    return (m * n) / (p * total)


def eopt_prescheduled_approx(m: int, n: int, p: int) -> float:
    """Equation (4): closed-form approximation of the exact efficiency.

    Derived by counting idle processors: the first and last
    ``min(m̂, n̂)`` ramp phases waste ``p(p-1)/2`` processor-phases each
    (``m̂, n̂`` are the largest multiples of ``p`` not exceeding ``m,
    n``); each full-width middle phase wastes
    ``(p - min(m, n) mod p) mod p``.
    """
    m, n, p = _check(m, n, p)
    mh = (m // p) * p
    nh = (n // p) * p
    k = min(mh, nh)
    # Ramp waste: for j = 1 .. k-1, (p - j mod p) mod p idle processors;
    # summing over each block of p phases gives p(p-1)/2 per block.
    ramp_waste = (k // p) * (p * (p - 1) // 2)
    middle_phases = m + n + 1 - 2 * min(m, n)
    middle_waste = middle_phases * ((p - (min(m, n) % p)) % p)
    return m * n / (m * n + 2 * ramp_waste + middle_waste)


def eopt_self_executing(m: int, n: int, p: int) -> float:
    """Equation (5): ``E = mn / (mn + p(p-1))``.

    Under self-execution only the pipeline fill/drain (the first and
    last ``p - 1`` wavefronts) contributes idle time, totalling
    ``p(p-1)`` processor-point-times.
    """
    m, n, p = _check(m, n, p)
    return (m * n) / (m * n + p * (p - 1))


# ----------------------------------------------------------------------
# Time ratio with synchronization overheads (equation 6)
# ----------------------------------------------------------------------

def time_ratio(
    m: int,
    n: int,
    p: int,
    *,
    r_sync: float,
    r_inc: float,
    r_check: float,
) -> float:
    """Equation (6): pre-scheduled time / self-executing time.

    All costs are expressed as ratios to ``T_p`` (one point's work):

    * pre-scheduled: ``T_p Σ MC(j) + (n + m - 1) T_sync``;
    * self-executing: computation spread over ``p`` processors with
      pipeline end-effects, every point paying one shared increment and
      two shared checks: ``T_p (1 + R_inc + 2 R_check)(mn/p + p - 1)``.

    Ratios > 1 mean self-execution wins.
    """
    m, n, p = _check(m, n, p)
    presched = sum(mc_prescheduled(j, m, n, p) for j in range(1, n + m))
    presched += (n + m - 1) * r_sync
    self_exec = (1.0 + r_inc + 2.0 * r_check) * (m * n / p + (p - 1))
    return presched / self_exec


def ratio_limit_fixed_n(p: int, *, r_sync: float, r_inc: float,
                        r_check: float) -> float:
    """Large-``m`` limit with ``n = p + 1`` (the skinny-domain case).

    With ``n = p + 1`` every middle phase leaves ``p - 1`` processors
    one strip short, so half the machine idles under pre-scheduling
    while self-execution pipelines freely.  Per middle phase,
    pre-scheduling costs ``2 T_p + T_sync`` against self-execution's
    ``(p+1)/p · T_p (1 + R_inc + 2 R_check)``:

    ``ratio → p (2 + R_sync) / ((p + 1)(1 + R_inc + 2 R_check))``

    (the paper prints the numerator as ``2p + R_sync``; the derivation
    above follows its own phase accounting, and the two agree to within
    the ``O(1/p)`` terms the limit drops).
    """
    if p <= 0:
        raise ValidationError("p must be positive")
    return p * (2.0 + r_sync) / ((p + 1) * (1.0 + r_inc + 2.0 * r_check))


def ratio_limit_square(*, r_inc: float, r_check: float) -> float:
    """Equation (7): ``m = n → ∞`` limit, ``1 / (1 + R_inc + 2 R_check)``.

    Work grows as ``mn`` while synchronizations grow as ``n + m - 1``,
    so pre-scheduling amortises its barriers and wins by exactly the
    shared-array overhead factor.
    """
    return 1.0 / (1.0 + r_inc + 2.0 * r_check)


# ----------------------------------------------------------------------
# Convenience wrapper tying the model to a cost preset
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModelProblem:
    """The m×n model problem bound to a machine cost model.

    Provides the paper's analytical quantities with the ratios taken
    from ``costs``, plus builders for the *actual* dependence graph so
    the simulator can cross-check the closed forms.
    """

    m: int
    n: int
    costs: MachineCosts = MULTIMAX_320

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0:
            raise ValidationError("mesh dimensions must be positive")

    # --- closed forms --------------------------------------------------
    def eopt_prescheduled(self, p: int) -> float:
        return eopt_prescheduled_exact(self.m, self.n, p)

    def eopt_self(self, p: int) -> float:
        return eopt_self_executing(self.m, self.n, p)

    def ratio(self, p: int) -> float:
        return time_ratio(
            self.m, self.n, p,
            r_sync=self.costs.r_sync(p),
            r_inc=self.costs.r_inc,
            r_check=self.costs.r_check,
        )

    # --- structural builders -------------------------------------------
    def dependence_graph(self):
        """Dependences of the model problem's lower triangular solve:
        the strictly-lower entries of the 5-point operator on the grid
        with ``m`` points along x (the fastest index) and ``n`` along y
        — each point waits for its west and south neighbours, and the
        zero-fill factor adds nothing to that.
        """
        from ..core.dependence import DependenceGraph
        from ..mesh import Grid2D, five_point_laplacian

        return DependenceGraph.from_lower_csr(
            five_point_laplacian(Grid2D(self.m, self.n)))

    def uniform_work(self) -> np.ndarray:
        """Equal per-point work ``T_p``, as the model assumes.

        The analytical model charges every point the same cost even
        though boundary points have fewer dependences ("this ignores
        the relatively minor disparities caused by the matrix rows
        represented by points on the lower and the left boundary").
        """
        return np.full(self.m * self.n, self.costs.t_point)

    def wavefronts(self) -> np.ndarray:
        """Anti-diagonal wavefronts, ``wf = ix + iy``."""
        idx = np.arange(self.m * self.n)
        return (idx % self.m) + (idx // self.m)
