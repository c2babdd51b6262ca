"""Structured tracing: nestable spans over one process-wide clock.

The tracer is the observability layer's time source.  Everything that
self-reports a duration — :class:`~repro.util.timing.Stopwatch`,
span events, the real-thread execution timelines — reads the same
:func:`now` clock, so a span and the stopwatch it encloses can never
disagree about what happened when.

Design constraints (the hot seams run millions of times):

* **zero dependencies** — stdlib only;
* **disabled means free** — an un-observed ``Runtime`` carries
  ``observer = None``, so every instrumentation site guards with one
  ``is not None`` test.  :data:`NULL_SPAN` is a shared,
  allocation-free no-op context manager for call sites that want a
  ``with`` block either way (a whole disabled span measures about ten
  dict lookups; gated by ``benchmarks/gates.py``);
* **exception safe** — a span records its interval even when the body
  raises, tagging the event with the exception type.

Span names double as *phase* labels: events named in
:data:`PHASE_NAMES` feed the ``RunReport.phases`` breakdown.  Only the
*outermost* phase-classified span on the stack counts toward the
breakdown (``phase_root``) — an ``inspect`` span nested inside a
``tune`` span is the tuner's time, not a second helping of inspection
— which is what makes the per-phase sums add up to wall time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "now",
    "NULL_SPAN",
    "PHASE_NAMES",
    "PhaseBreakdown",
    "Span",
    "SpanEvent",
    "Tracer",
    "maybe_span",
]

#: The process-wide monotonic clock every self-reported timing uses.
now = time.perf_counter

#: Span names that feed the ``RunReport.phases`` breakdown.
PHASE_NAMES = ("inspect", "schedule", "tune", "execute")
_PHASE_SET = frozenset(PHASE_NAMES)


class _NullSpan:
    """Shared no-op span: disabled call sites enter/exit for free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


#: The one instance every disabled call site shares (no allocation).
NULL_SPAN = _NullSpan()


def maybe_span(observer, name: str, **attrs):
    """A span when ``observer`` is set, :data:`NULL_SPAN` otherwise.

    The canonical instrumentation guard: the disabled path costs one
    ``is None`` test and returns a shared object.
    """
    if observer is None:
        return NULL_SPAN
    return observer.tracer.span(name, **attrs)


@dataclass
class SpanEvent:
    """One finished span."""

    name: str
    #: Interval on the :func:`now` clock (seconds).
    t0: float
    t1: float
    #: Nesting depth at entry (0 = top level) within its thread.
    depth: int
    #: True when this is the outermost phase-classified span on its
    #: stack — the only events the phase breakdown sums.
    phase_root: bool
    #: Identity of the recording thread (``threading.get_ident``).
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Span:
    """A live span; use as a context manager (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "attrs", "_t0", "_depth", "_phase_root")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. a computed n)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        tl = self._tracer._tl
        depth = getattr(tl, "depth", 0)
        phase_depth = getattr(tl, "phase_depth", 0)
        is_phase = self.name in _PHASE_SET
        self._depth = depth
        self._phase_root = is_phase and phase_depth == 0
        tl.depth = depth + 1
        if is_phase:
            tl.phase_depth = phase_depth + 1
        self._t0 = now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = now()
        tl = self._tracer._tl
        tl.depth -= 1
        if self.name in _PHASE_SET:
            tl.phase_depth -= 1
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer.events.append(SpanEvent(
            name=self.name, t0=self._t0, t1=t1, depth=self._depth,
            phase_root=self._phase_root, thread=threading.get_ident(),
            attrs=self.attrs,
        ))
        return False


class Tracer:
    """Collects :class:`SpanEvent` records on the shared clock.

    >>> tracer = Tracer()
    >>> with tracer.span("inspect", n=4):
    ...     pass
    >>> tracer.events[0].name
    'inspect'
    """

    def __init__(self):
        #: Clock origin of this tracer (for export-relative timestamps).
        self.origin = now()
        #: Finished spans, in completion order (inner before outer).
        self.events: list[SpanEvent] = []
        self._tl = threading.local()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """Open a nestable span: ``with tracer.span("inspect", n=n):``."""
        return Span(self, name, attrs)

    def mark(self) -> int:
        """A cursor into the event list (pass to :meth:`events_since`)."""
        return len(self.events)

    def events_since(self, mark: int) -> list[SpanEvent]:
        return self.events[mark:]

    def clear(self) -> None:
        self.events.clear()

    # ------------------------------------------------------------------
    def phase_breakdown(self, mark: int, wall_seconds: float
                        ) -> "PhaseBreakdown":
        """Sum phase-root span durations recorded since ``mark``.

        ``wall_seconds`` is the caller's wall-clock for the same
        interval; the residual lands in ``other`` so the breakdown
        always totals the wall time exactly.
        """
        seconds = dict.fromkeys(PHASE_NAMES, 0.0)
        for ev in self.events[mark:]:
            if ev.phase_root:
                seconds[ev.name] += ev.seconds
        return PhaseBreakdown(seconds=seconds, wall_seconds=float(wall_seconds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(events={len(self.events)})"


@dataclass
class PhaseBreakdown:
    """Where one call's wall time went, phase by phase.

    Attached to :class:`~repro.runtime.session.RunReport` as
    ``report.phases`` when the session observes.  ``other`` is the
    untracked residual, so ``sum(named) + other == wall_seconds``.
    """

    #: Seconds per phase name (every :data:`PHASE_NAMES` key present).
    seconds: dict
    #: Wall-clock seconds of the interval the breakdown covers.
    wall_seconds: float

    @property
    def tracked(self) -> float:
        """Total seconds attributed to named phases."""
        return float(sum(self.seconds.values()))

    @property
    def other(self) -> float:
        """Untracked residual (wall minus the named phases)."""
        return self.wall_seconds - self.tracked

    # Mapping conveniences -------------------------------------------------
    def __getitem__(self, name: str) -> float:
        if name == "other":
            return self.other
        return self.seconds[name]

    def get(self, name: str, default: float = 0.0) -> float:
        try:
            return self[name]
        except KeyError:
            return default

    def items(self):
        return self.seconds.items()

    def as_dict(self) -> dict:
        d = dict(self.seconds)
        d["other"] = self.other
        d["wall"] = self.wall_seconds
        return d

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Plain-text summary table (phase, seconds, share of wall)."""
        from ..util.tables import TextTable  # local: keep observe stdlib-only

        table = TextTable(
            headers=["phase", "seconds", "% of wall"],
            formats=[None, ".6f", ".1f"],
            title=f"Phase breakdown (wall {self.wall_seconds:.6f} s)",
        )
        for name in PHASE_NAMES:
            table.add_row(name, self.seconds[name],
                          100.0 * self.seconds[name] / self.wall_seconds
                          if self.wall_seconds > 0 else 0.0)
        table.add_row("other", self.other,
                      100.0 * self.other / self.wall_seconds
                      if self.wall_seconds > 0 else 0.0)
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3g}" for k, v in self.seconds.items())
        return f"PhaseBreakdown({parts}, other={self.other:.3g})"
