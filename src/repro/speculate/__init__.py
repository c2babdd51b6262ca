"""repro.speculate — optimistic DOALL execution (the LRPD-style tier).

The classic pipeline *inspects then executes*; this package *executes
then checks*: run the loop optimistically in chunks, log element
accesses into vectorized shadow arrays, detect violations with a
single numpy pass, and repair exactly the violated closure — with an
adaptive guard that falls back to the inspector/executor pipeline
(and remembers the decision in the session's ``TuningStore``) when
the measured conflict rate says speculation cannot win.

Entry points: ``Runtime.compile(deps, strategy="speculative")``,
``Runtime.run(program, strategy="speculative")``, the ``speculative``
executor registry entry, and the tuner's ``strategy="auto"``
arbitration, which weighs the no-inspection arm against every
scheduled candidate.
"""

from .shadow import AccessLog, ShadowScan, clean_cut, repair_set, scan_accesses
from .executor import (
    DEFAULT_EXPECTED_EXECUTIONS,
    FALLBACK_THRESHOLD,
    MIN_FALLBACK_RATE,
    ConflictReport,
    SpeculationPlan,
    SpeculativeExecutor,
)
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
    "FALLBACK_THRESHOLD",
    "MIN_FALLBACK_RATE",
    "DEFAULT_EXPECTED_EXECUTIONS",
    "SpeculativePlan",
    "speculative_plan",
    "speculation_key",
]
