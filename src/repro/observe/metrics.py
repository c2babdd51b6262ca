"""Counters and histograms for the runtime's hot seams.

A :class:`MetricsRegistry` is a flat, name-keyed map of two
instrument kinds.  Names are dotted paths chosen by the call sites —
``schedule_cache.hits``, ``tuner.rung0.pruned``,
``speculation.conflict_rate`` — so exports group naturally without the
registry knowing anything about the runtime.

Like the tracer, this module is stdlib-only and every instrument is a
plain Python object: incrementing a counter is one dict lookup plus an
add, and a disabled runtime never reaches the registry at all (the
``observer is None`` guard happens at the call site).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


@dataclass
class Counter:
    """A monotonically increasing count (float-friendly for seconds)."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming summary of a distribution (no buckets, just moments).

    Tracks count/total/min/max — enough for means and ranges in the
    summary table without committing to a bucket layout.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    >>> m = MetricsRegistry()
    >>> m.inc("schedule_cache.hits")
    >>> m.counter("schedule_cache.hits").value
    1.0
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # ------------------------------------------------------------------
    # Shorthand for the hot call sites
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Counter value or histogram total by name (0 when never
        touched)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.total
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.items()))

    def as_dict(self) -> dict:
        """JSON-ready snapshot, one entry per instrument."""
        out = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = {"kind": "counter", "value": metric.value}
            else:
                out[name] = {
                    "kind": "histogram", "count": metric.count,
                    "total": metric.total, "mean": metric.mean,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                }
        return out

    def render(self) -> str:
        """Plain-text summary table of every instrument."""
        from ..util.tables import TextTable  # local: keep observe stdlib-only

        table = TextTable(
            headers=["metric", "kind", "value", "count", "mean"],
            title="Metrics",
        )
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                table.add_row(name, "histogram", f"{metric.total:g}",
                              metric.count, f"{metric.mean:g}")
            else:
                table.add_row(name, "counter", f"{metric.value:g}", "-", "-")
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"
