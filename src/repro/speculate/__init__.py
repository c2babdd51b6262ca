"""repro.speculate — optimistic DOALL execution (the LRPD-style tier).

The classic pipeline *inspects then executes*; this package *executes
then checks*: run the loop optimistically in chunks, log element
accesses into vectorized shadow arrays, detect violations with a
single numpy pass, and run exactly the violated iterations afterwards,
by their own wavefronts.  The plan is a scheduled plan like any
other, so it runs on every backend.

Entry points: ``Runtime.compile(deps, strategy="speculative")``,
``Runtime.run(program, strategy="speculative")``, the ``speculative``
executor registry entry, and the tuner's ``strategy="auto"``
arbitration, which weighs the no-inspection arm against every
scheduled candidate.  An explicit ``"speculative"`` always speculates;
only ``"auto"`` decides whether inspecting would pay better.
"""

from .shadow import AccessLog, ShadowScan, scan_accesses
from .executor import ConflictReport, SpeculationPlan, SpeculativeExecutor
from .loop import speculation_key, speculative_plan

__all__ = [
    "AccessLog",
    "ShadowScan",
    "scan_accesses",
    "ConflictReport",
    "SpeculationPlan",
    "SpeculativeExecutor",
    "speculative_plan",
    "speculation_key",
]
