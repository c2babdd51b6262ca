"""Plain-text table rendering for the experiment harness.

Every experiment in :mod:`repro.experiments` produces a
:class:`TextTable`; ``benchmarks/paper_scale.py`` prints these to mimic
the tables in the paper, and the report writer serialises them to
Markdown (``python -m repro.experiments -o report.md``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["TextTable"]


def _fmt(value, spec: str | None) -> str:
    if value is None:
        return "-"
    if spec is None:
        return str(value)
    try:
        return format(value, spec)
    except (TypeError, ValueError):
        return str(value)


class TextTable:
    """A small fixed-column table with ASCII and Markdown renderers.

    Parameters
    ----------
    headers:
        Column titles.
    formats:
        Optional per-column format specs (``"8.3f"``, ``"d"``, ...).
        ``None`` entries fall back to ``str``.
    title:
        Optional caption printed above the table.
    """

    def __init__(
        self,
        headers: Sequence[str],
        formats: Sequence[str | None] | None = None,
        title: str = "",
    ):
        self.headers = list(headers)
        self.formats = list(formats) if formats is not None else [None] * len(self.headers)
        if len(self.formats) != len(self.headers):
            raise ValueError("formats must match headers in length")
        self.title = title
        self.rows: list[list[str]] = []

    def add_row(self, *values) -> None:
        """Append a row; values are formatted immediately."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} values, got {len(values)}"
            )
        self.rows.append([_fmt(v, f) for v, f in zip(values, self.formats)])

    def extend(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.add_row(*row)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _widths(self) -> list[int]:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for k, cell in enumerate(row):
                widths[k] = max(widths[k], len(cell))
        return widths

    def render(self) -> str:
        """Render as an ASCII table with a ruled header."""
        widths = self._widths()
        sep = "  "
        header = sep.join(h.rjust(w) for h, w in zip(self.headers, widths))
        rule = sep.join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(header)
        lines.append(rule)
        for row in self.rows:
            lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """Render as a GitHub-flavoured Markdown table."""
        lines = []
        if self.title:
            lines.append(f"**{self.title}**")
            lines.append("")
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
