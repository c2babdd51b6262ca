"""Shared experiment infrastructure.

:class:`ExperimentContext` fixes the knobs every experiment shares —
processor count, machine cost model, problem scale — so that a single
object configures a full reproduction run.  ``scale < 1`` shrinks the
mesh problems proportionally, which the test-suite uses to keep CI
fast; ``benchmarks/paper_scale.py`` runs at the paper's full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.costs import MachineCosts, MULTIMAX_320
from ..mesh.problems import TestProblem, get_problem
from ..util.validation import check_positive_finite

__all__ = ["ExperimentContext", "DEFAULT_PROBLEMS", "ACCOUNTING_PROBLEMS"]

#: Problems of the paper's Table 1 (the large L5/L9 variants are opt-in;
#: L7-PT is included because the paper calls it out explicitly).
DEFAULT_PROBLEMS = (
    "SPE1", "SPE2", "SPE3", "SPE4", "SPE5", "5-PT", "9-PT", "7-PT",
)

#: Problems of Tables 2/3 (the "where does the time go" analysis).
ACCOUNTING_PROBLEMS = ("SPE2", "SPE5", "5-PT", "9-PT", "7-PT")


@dataclass
class ExperimentContext:
    """Configuration shared by all experiment drivers."""

    nproc: int = 16
    costs: MachineCosts = field(default_factory=lambda: MULTIMAX_320)
    #: Linear scale on mesh dimensions (1.0 = the paper's sizes).
    scale: float = 1.0
    #: Krylov settings used by Table 1.
    method: str = "gmres"
    tol: float = 1e-8
    maxiter: int = 600
    restart: int = 30

    def __post_init__(self):
        # Refused here, not at the first table that builds a problem.
        check_positive_finite(self.scale, "scale")

    def problem(self, name: str) -> TestProblem:
        return get_problem(name, scale=self.scale)

    def problems(self, names=DEFAULT_PROBLEMS):
        for name in names:
            yield self.problem(name)
