"""Retry, backoff and graceful degradation for failed executions.

``Runtime(recovery=...)`` arms this module: a failed or timed-out
execution — a worker crash (:class:`~repro.errors.ExecutionError`), a
watchdog cancellation (:class:`~repro.errors.ExecutionTimeout`), a
deadlocked schedule (:class:`~repro.errors.DeadlockError`) — is
retried on the same tier up to
``RetryPolicy.max_attempts`` times, then walks the plan's
**degradation chain** (:meth:`LoopPlan.degraded
<repro.runtime.session.LoopPlan.degraded>`) down-tier:

* ``threads``   → ``serial``
* ``processes`` → ``serial``
* speculative   → then ``"classic"``: the classic plan on ``serial``
  (compiled once, on first need, and installed only while it runs — a
  transient fault should not cost future calls their fast path)
* staged        → no tier of its own: each stage loop recovers
  individually, and the staged report concatenates their records

Every tier re-runs the kernel from ``start()``, so the surviving
result is bitwise identical to the no-fault serial oracle.  The
successful :class:`~repro.runtime.session.RunReport` carries a
:class:`RecoveryRecord` under ``report.recovery`` (``None`` on clean
first-attempt successes); when every tier is exhausted the last error
propagates with the record attached as ``exc.recovery``.

Validation errors (bad arguments, illegal kernels) are **not**
retried: they would fail identically on every tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import DeadlockError, ExecutionError, ExecutionTimeout
from ..util.validation import check_positive, check_positive_finite

__all__ = ["RetryPolicy", "RecoveryAttempt", "RecoveryRecord",
           "run_with_recovery", "RECOVERABLE"]

#: Error classes the degradation chain retries.  Everything else —
#: validation failures, structural errors, kernel bugs that surface as
#: non-Repro exceptions on the serial tier — propagates immediately.
RECOVERABLE = (ExecutionError, DeadlockError)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard recovery tries before giving up.

    ``max_attempts`` bounds attempts *per tier*; ``backoff`` seconds
    are slept before each re-attempt (doubling per failure, capped at
    2 s); ``deadline`` bounds the whole recovery effort in wall
    seconds (``None`` = unbounded).
    """

    max_attempts: int = 2
    backoff: float = 0.0
    deadline: float | None = None

    def __post_init__(self):
        check_positive(self.max_attempts, "max_attempts")
        if self.backoff != 0:  # zero: retry at once
            check_positive_finite(self.backoff, "backoff")
        if self.deadline is not None:
            check_positive_finite(self.deadline, "deadline")


@dataclass
class RecoveryAttempt:
    """One failed attempt: which tier, what broke, and where."""

    tier: str
    error: str
    message: str
    iteration: int | None
    seconds: float

    def to_dict(self) -> dict:
        return {"tier": self.tier, "error": self.error,
                "message": self.message, "iteration": self.iteration,
                "seconds": self.seconds}


@dataclass
class RecoveryRecord:
    """What recovery did to produce (or fail to produce) a result."""

    #: Every failed attempt, in order.
    attempts: list[RecoveryAttempt] = field(default_factory=list)
    #: Tier labels walked, in order: backend names, then ``"classic"``.
    tiers: list[str] = field(default_factory=list)
    #: Tier that finally succeeded (or the last one tried).
    final_tier: str = ""
    #: True when a later attempt produced a correct result.
    recovered: bool = False
    #: Error class of the first failure (the root cause).
    cause: str | None = None

    def to_dict(self) -> dict:
        return {"attempts": [a.to_dict() for a in self.attempts],
                "tiers": list(self.tiers), "final_tier": self.final_tier,
                "recovered": self.recovered, "cause": self.cause}


def run_with_recovery(loop, kernel, backend_name: str, policy: RetryPolicy,
                      *, unit_work, timeout, with_sim):
    """Execute ``loop`` with retries and graceful degradation.

    Walks ``loop.plan.degraded(backend_name)`` — the requested tier
    first, each attempted ``policy.max_attempts`` times before moving
    down.  A lower tier's plan is installed as ``loop.plan`` only for
    the duration of its attempts; the loop leaves as it entered.
    """
    observer = loop.runtime.observer
    started = time.monotonic()
    failures: list[RecoveryAttempt] = []
    tiers_walked: list[str] = []
    last_exc: BaseException | None = None

    installed = loop.plan
    chain = installed.degraded(backend_name)
    try:
        while True:
            try:
                label, plan, tier_backend = next(chain)
            except StopIteration:
                break
            except RECOVERABLE as exc:  # the lower tier failed to compile
                last_exc = exc
                break
            loop.plan = plan
            tiers_walked.append(label)
            if len(tiers_walked) > 1 and observer is not None:
                observer.inc("resilience.tier_fallbacks")
            for attempt in range(policy.max_attempts):
                if failures:
                    if (policy.deadline is not None
                            and time.monotonic() - started > policy.deadline):
                        return _give_up(last_exc, failures, tiers_walked,
                                        observer, cause="deadline")
                    if policy.backoff > 0:
                        time.sleep(min(
                            policy.backoff * 2 ** (len(failures) - 1), 2.0))
                    if observer is not None:
                        observer.inc("resilience.retries")
                t0 = time.monotonic()
                try:
                    report = loop._attempt(kernel, tier_backend,
                                           unit_work=unit_work,
                                           timeout=timeout, with_sim=with_sim)
                except RECOVERABLE as exc:
                    if getattr(exc, "recovery", None) is not None:
                        # A stage loop already exhausted its own chain;
                        # retrying around it would re-run finished stages.
                        raise
                    last_exc = exc
                    failures.append(RecoveryAttempt(
                        tier=label, error=type(exc).__name__,
                        message=str(exc),
                        iteration=getattr(exc, "iteration", None),
                        seconds=time.monotonic() - t0))
                    if (observer is not None
                            and isinstance(exc, ExecutionTimeout)):
                        observer.inc("resilience.watchdog_fires")
                    continue
                if failures:
                    report.recovery = RecoveryRecord(
                        attempts=failures, tiers=tiers_walked,
                        final_tier=label, recovered=True,
                        cause=failures[0].error)
                    if observer is not None:
                        observer.inc("resilience.recovered_runs")
                return report
    finally:
        loop.plan = installed
    return _give_up(last_exc, failures, tiers_walked, observer)


def _give_up(last_exc, failures, tiers_walked, observer, *, cause=None):
    """Attach the record to the final error and re-raise it."""
    if observer is not None:
        observer.inc("resilience.failed_runs")
    record = RecoveryRecord(
        attempts=failures,
        tiers=tiers_walked,
        final_tier=tiers_walked[-1] if tiers_walked else "",
        recovered=False,
        cause=cause or (failures[0].error if failures else None))
    last_exc.recovery = record
    raise last_exc
