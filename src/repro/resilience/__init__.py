"""repro.resilience — retry, fallback and crash safety.

The paper's premise is deciding *at run time* whether a parallel
execution is safe; this package extends that discipline to the
runtime's own machinery.  :class:`RetryPolicy` and the
graceful-degradation chain (threads/processes → serial, then a
speculative plan → classic pipeline) are wired into ``Runtime.run`` via
``Runtime(recovery=...)``, reporting what happened in
``report.recovery``.  The stores' crash-safe writes and self-healing
reads live with the stores (:mod:`repro.runtime.cache`).

It is free when disabled: a ``recovery=None`` session pays one
``is None`` test per call, the same contract as :mod:`repro.observe`.
Tests inject failures from outside the library (``tests/faults.py``).
"""

from .recovery import (
    RECOVERABLE,
    RecoveryAttempt,
    RecoveryRecord,
    RetryPolicy,
    run_with_recovery,
)

__all__ = [
    "RECOVERABLE",
    "RecoveryAttempt",
    "RecoveryRecord",
    "RetryPolicy",
    "run_with_recovery",
]
