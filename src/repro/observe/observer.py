"""The :class:`Observer` — one handle over a tracer and a registry.

``Runtime(observe=True)`` owns exactly one of these and threads it
through every subsystem it builds (inspector, tuner, stores, the
speculative executor, backends).  Call sites hold a reference that is
either an ``Observer`` or ``None``; the ``None`` test *is* the entire
disabled-path cost, which is what keeps observability free by default.
"""

from __future__ import annotations

import json

from .export import write_chrome_trace
from .metrics import MetricsRegistry
from .tracer import PhaseBreakdown, Tracer, now

__all__ = ["Observer"]


class Observer:
    """Tracer + metrics + export, bundled for one session."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """``with observer.span("inspect", n=n): ...``"""
        return self.tracer.span(name, **attrs)

    def mark(self) -> int:
        return self.tracer.mark()

    def phase_breakdown(self, mark: int, wall_seconds: float
                        ) -> PhaseBreakdown:
        return self.tracer.phase_breakdown(mark, wall_seconds)

    # ------------------------------------------------------------------
    # Metrics shorthand (hot call sites go straight to the registry)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # ------------------------------------------------------------------
    # Seam-specific recorders
    # ------------------------------------------------------------------
    def record_execution(self, backend: str, seconds: float,
                         sim=None, timeline=None) -> None:
        """Per-backend run accounting, called once per execution.

        ``sim`` contributes the machine model's busy/idle split
        (model µs); ``timeline`` contributes the measured per-lane
        busy/idle split of a real threaded run (host seconds).
        """
        m = self.metrics
        prefix = f"backend.{backend}"
        m.inc(f"{prefix}.runs")
        m.observe(f"{prefix}.seconds", seconds)
        if sim is not None:
            m.inc(f"{prefix}.busy_us", sim.total_busy)
            m.inc(f"{prefix}.idle_us", sim.total_idle)
        if timeline is not None:
            m.inc(f"{prefix}.lane_busy_s", sum(timeline.busy_per_lane()))
            m.inc(f"{prefix}.lane_idle_s", sum(timeline.idle_per_lane()))

    def record_speculation(self, conflicts) -> None:
        """Fold one :class:`~repro.speculate.ConflictReport` in."""
        m = self.metrics
        m.inc("speculation.runs")
        m.inc("speculation.attempts", conflicts.attempts)
        m.inc("speculation.violated", conflicts.violated)
        m.inc("speculation.re_executed", conflicts.re_executed)
        m.observe("speculation.conflict_rate", conflicts.conflict_rate)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Plain-text metrics table (see ``PhaseBreakdown.render`` for
        the per-call phase table)."""
        return self.metrics.render()

    def write_metrics_jsonl(self, path, *, append: bool = True,
                            label: str | None = None) -> int:
        """Append one JSON line snapshotting every metric to ``path``.

        Designed for periodic (call it from a loop) or final (call it
        once at exit) export, so retry/fallback/contention rates are
        visible without a debugger — each line carries a monotonic
        ``t`` stamp, an optional ``label``, and the full
        :meth:`MetricsRegistry.as_dict` payload.  ``append=False``
        truncates first.  Returns the number of instruments exported.
        """
        snapshot = self.metrics.as_dict()
        line = {"t": now(), "metrics": snapshot}
        if label is not None:
            line["label"] = label
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        return len(snapshot)

    def export_chrome_trace(self, path, timelines=()) -> dict:
        return write_chrome_trace(path, observer=self, timelines=timelines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Observer(spans={len(self.tracer.events)}, "
                f"metrics={len(self.metrics)})")
