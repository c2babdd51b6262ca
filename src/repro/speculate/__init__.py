"""repro.speculate — optimistic DOALL execution (the LRPD-style tier).

The classic pipeline *inspects then executes*; this package *executes
then checks*: run the loop optimistically in chunks, log element
accesses into vectorized shadow arrays, detect violations with a
single numpy pass, and repair exactly the violated closure.

Entry points: ``Runtime.compile(deps, strategy="speculative")``,
``Runtime.run(program, strategy="speculative")``, the ``speculative``
executor registry entry, and the tuner's ``strategy="auto"``
arbitration, which weighs the no-inspection arm against every
scheduled candidate.  An explicit ``"speculative"`` always speculates;
only ``"auto"`` decides whether inspecting would pay better.
"""

from .shadow import AccessLog, ShadowScan, clean_cut, repair_set, scan_accesses
from .executor import ConflictReport, SpeculationPlan, SpeculativeExecutor
from .loop import SpeculativePlan, speculation_key, speculative_plan

__all__ = [
    "AccessLog",
    "ShadowScan",
    "scan_accesses",
    "repair_set",
    "clean_cut",
    "ConflictReport",
    "SpeculationPlan",
    "SpeculativeExecutor",
    "SpeculativePlan",
    "speculative_plan",
    "speculation_key",
]
