"""In-memory spans recorded by the benchmark, around calls into each layer.

One :class:`SpanRecorder` lives for one workload run.  A span is
``(name, part, op, parent, start, end)``: ``name`` is ``layer.call``
(``inspector.price``), ``part`` says which half of the op the call
belongs to (``"compile"``, ``"call"`` or ``None``), ``op`` is the id
shared by every span of one operation and ``parent`` the index of the
enclosing span (``-1`` for a root).  Counts of the work a call did
(:meth:`SpanRecorder.count`) are kept per op beside the spans.  Nothing
is written while the benchmark runs; :meth:`SpanRecorder.as_records` is
dumped once at exit when the caller asked for it.

A layer's *self time* is its span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Nestable spans on ``time.perf_counter``."""

    def __init__(self):
        self.spans: list[list] = []
        #: ``counts[op][name]``: work counted at the same boundaries.
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        #: Id stamped on every span and count recorded from now on.
        self.op = -1

    @contextmanager
    def span(self, name: str, part: str | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, part, self.op, parent, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        record[4] = perf_counter()
        try:
            yield index
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[self.op][name] += amount

    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.spans[index][5] - self.spans[index][4]

    def self_times(self, root: int) -> dict:
        """``{(name, part): self seconds}`` over the subtree under
        ``root``, the root itself excluded."""
        children = defaultdict(list)
        for i in range(root + 1, len(self.spans)):
            parent = self.spans[i][3]
            if parent < root:
                break  # spans are appended in open order: subtree ended
            children[parent].append(i)
        out: dict = defaultdict(float)
        todo = list(children[root])
        while todo:
            i = todo.pop()
            kids = children.get(i, ())
            name, part = self.spans[i][0], self.spans[i][1]
            out[(name, part)] += self.duration(i) - sum(
                self.duration(k) for k in kids)
            todo.extend(kids)
        return dict(out)

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "layer": s[0].split(".", 1)[0],
             "part": s[1], "op": s[2], "parent": s[3],
             "start": s[4], "end": s[5]}
            for i, s in enumerate(self.spans)
        ]
