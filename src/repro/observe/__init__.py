"""``repro.observe`` — tracing, metrics and trace export.

The observability layer behind ``Runtime(observe=True)``: nestable
spans on one shared clock (:mod:`~repro.observe.tracer`), a registry
of counters and histograms wired into the runtime's hot seams
(:mod:`~repro.observe.metrics`), and exporters that turn a run into a
Perfetto-loadable ``trace.json``, a JSONL event log, or plain-text
summary tables (:mod:`~repro.observe.export`).

Everything here is stdlib-only at import time and free when disabled:
an un-observed session carries ``observer = None`` and every
instrumented call site guards with a single ``is not None`` test
(both paths' costs are gated by ``benchmarks/gates.py``).
"""

from .export import (
    Timeline,
    TimelineRecorder,
    chrome_trace_events,
    simulated_timeline,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .observer import Observer
from .tracer import (
    NULL_SPAN,
    PHASE_NAMES,
    PhaseBreakdown,
    Span,
    SpanEvent,
    Tracer,
    maybe_span,
    now,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observer",
    "PHASE_NAMES",
    "PhaseBreakdown",
    "Span",
    "SpanEvent",
    "Timeline",
    "TimelineRecorder",
    "Tracer",
    "chrome_trace_events",
    "maybe_span",
    "now",
    "simulated_timeline",
    "write_chrome_trace",
    "write_jsonl",
]
