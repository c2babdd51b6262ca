"""Experiment drivers — one module per table/figure of the paper.

Each driver returns both structured rows (dataclasses) and a rendered
:class:`~repro.util.tables.TextTable`, so ``benchmarks/paper_scale.py``
can assert the paper's shape on the rows and the report writer can
serialise the tables (``python -m repro.experiments -o report.md``).

=================  ====================================================
Module             Reproduces
=================  ====================================================
``table1``         Table 1 — PCGPAK self-execution vs pre-scheduling
``table23``        Tables 2 & 3 — triangular-solve time accounting
``table4``         Table 4 — projections to 32 and 64 processors
``table5``         Table 5 — local vs global index-set scheduling
``figure12``       Figures 12/13 — local ordering without repartition
``figure1``        Figure 1 — the 2×2 summary quadrant
``model_check``    Section 4.2 — analytic model vs simulation
``ablations``      Cost-model and scheduling ablations (ours)
=================  ====================================================
"""

from .runner import ExperimentContext, DEFAULT_PROBLEMS, ACCOUNTING_PROBLEMS
from .table1 import run_table1, Table1Row
from .table23 import run_table23, SolveAccountingRow
from .table4 import run_table4, Table4Row
from .table5 import run_table5, Table5Row
from .figure12 import run_figure12, Figure12Point
from .figure1 import run_figure1
from .model_check import run_model_check
from .ablations import run_barrier_sweep, run_shared_cost_sweep, run_balance_ablation

__all__ = [
    "ExperimentContext",
    "DEFAULT_PROBLEMS",
    "ACCOUNTING_PROBLEMS",
    "run_table1",
    "Table1Row",
    "run_table23",
    "SolveAccountingRow",
    "run_table4",
    "Table4Row",
    "run_table5",
    "Table5Row",
    "run_figure12",
    "Figure12Point",
    "run_figure1",
    "run_model_check",
    "run_barrier_sweep",
    "run_shared_cost_sweep",
    "run_balance_ablation",
]
