"""Exporters: execution timelines, Chrome-trace JSON, JSONL event logs.

Two timeline sources, one shape:

* :func:`simulated_timeline` replays the machine model with
  ``keep_finish_times`` and lays the per-iteration intervals out on
  the schedule's owner lanes — what the simulator *predicts* each
  processor does, in model microseconds;
* :class:`TimelineRecorder` wraps a kernel's ``execute_index`` inside
  the real ``threads`` backend, stamping every iteration on the shared
  tracer clock — what each processor *actually* did, in host seconds.

Both produce a :class:`Timeline`, which :func:`write_chrome_trace`
renders as one Perfetto/``chrome://tracing`` process per timeline with
one thread lane per processor (plus a lane group for the tracer's
spans), and :func:`write_jsonl` flattens into a line-per-event log.

Module-level imports here are stdlib-only (this package loads before
most of :mod:`repro`); the simulator and table helpers are imported
inside the functions that need them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .tracer import now

__all__ = [
    "Timeline",
    "TimelineRecorder",
    "simulated_timeline",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
]


@dataclass
class Timeline:
    """Lane-per-processor execution intervals, whatever the source.

    ``lanes[p]`` is a list of ``(start, end, iteration)`` tuples.
    ``unit`` is ``"model_us"`` for simulator output (timestamps are
    already microseconds on the model clock, origin 0) or
    ``"seconds"`` for host recordings (timestamps on the tracer clock;
    ``origin`` anchors them).
    """

    kind: str
    nproc: int
    lanes: list = field(repr=False)
    unit: str = "model_us"
    origin: float = 0.0

    @property
    def num_events(self) -> int:
        return sum(len(lane) for lane in self.lanes)

    def span(self) -> float:
        """Wall extent (first start to last end) in this unit."""
        starts = [ev[0] for lane in self.lanes for ev in lane]
        ends = [ev[1] for lane in self.lanes for ev in lane]
        if not starts:
            return 0.0
        return max(ends) - min(starts)

    def busy_per_lane(self) -> list:
        """Total in-interval time per processor, in this unit."""
        return [sum(ev[1] - ev[0] for ev in lane) for lane in self.lanes]

    def idle_per_lane(self) -> list:
        """Per-processor idle time against the shared wall extent."""
        extent = self.span()
        return [max(0.0, extent - busy) for busy in self.busy_per_lane()]


class TimelineRecorder:
    """Records real-thread execution intervals on the tracer clock.

    The ``threads`` backend wraps each processor's kernel calls with
    :meth:`recording`; every lane is appended by exactly one thread, so
    no locking is needed.  The per-iteration overhead is two clock
    reads and one tuple append.
    """

    def __init__(self, nproc: int):
        self.nproc = int(nproc)
        self.origin = now()
        self.lanes: list[list] = [[] for _ in range(self.nproc)]

    def recording(self, fn, lane: int):
        """Wrap ``fn(i)`` so each call stamps an interval on ``lane``."""
        events = self.lanes[lane]
        clock = now

        def run(i):
            t0 = clock()
            fn(i)
            events.append((t0, clock(), i))

        return run

    def timeline(self) -> Timeline:
        return Timeline(kind="threads", nproc=self.nproc, lanes=self.lanes,
                        unit="seconds", origin=self.origin)


def simulated_timeline(loop, *, unit_work=None, max_events: int = 200_000
                       ) -> Timeline:
    """The machine model's per-processor schedule as a :class:`Timeline`.

    Replays the compiled loop's simulation with ``keep_finish_times``
    and derives each iteration's start as finish minus its work-vector
    cost, on the lane ``schedule.owner`` assigns it.  Only the
    self-executing and doacross modes keep per-iteration finish times
    (the pre-scheduled simulator works phase-at-a-time), and a
    speculative or staged loop has no one schedule to render — all
    raise, naming the loop's ``executor_name``.
    """
    from ..errors import ValidationError
    from ..machine.simulator import work_vector

    executor = loop.executor
    mode = getattr(executor, "mode", None)
    if mode not in ("self", "doacross"):
        raise ValidationError(
            "simulated timelines need per-iteration finish times, which "
            "only the 'self' and 'doacross' executors keep "
            f"(this loop uses {loop.executor_name!r})"
        )
    schedule, dep = loop.schedule, loop.dep
    if schedule.n > max_events:
        raise ValidationError(
            f"refusing to render {schedule.n} events (max_events="
            f"{max_events}); raise max_events for a bigger trace"
        )
    sim = executor.simulate(unit_work=unit_work, keep_finish_times=True)
    w = work_vector(dep, loop.costs, mode, schedule.nproc, unit_work)
    finish = sim.finish
    owner = schedule.owner
    lanes: list[list] = [[] for _ in range(schedule.nproc)]
    for i in range(schedule.n):
        t1 = float(finish[i])
        lanes[int(owner[i])].append((t1 - float(w[i]), t1, i))
    for lane in lanes:
        lane.sort()
    return Timeline(kind="sim", nproc=schedule.nproc, lanes=lanes,
                    unit="model_us")


# ----------------------------------------------------------------------
# Chrome trace (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------

def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _meta(pid: int, name: str, tid: int = 0, *, kind: str = "process_name"):
    return {"name": kind, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def chrome_trace_events(observer=None, timelines=()) -> list:
    """The ``traceEvents`` list for one trace file.

    Process 0 holds the tracer's spans (one thread lane per recording
    host thread); each timeline gets its own process with one thread
    lane per simulated/real processor.  All timestamps are rebased to
    their source's origin and expressed in microseconds, the format's
    native unit ("X" complete events with ``ts``/``dur``).
    """
    events: list = []
    if observer is not None and observer.tracer.events:
        tracer = observer.tracer
        events.append(_meta(0, "spans"))
        tids = {}
        for ev in tracer.events:
            tid = tids.setdefault(ev.thread, len(tids))
            events.append({
                "name": ev.name, "ph": "X", "pid": 0, "tid": tid,
                "ts": (ev.t0 - tracer.origin) * 1e6,
                "dur": ev.seconds * 1e6,
                "args": {k: _jsonable(v) for k, v in ev.attrs.items()},
            })
        for thread, tid in tids.items():
            events.append(_meta(0, f"thread {thread}", tid,
                                kind="thread_name"))
    for k, timeline in enumerate(timelines):
        pid = k + 1
        scale = 1.0 if timeline.unit == "model_us" else 1e6
        unit_label = ("model µs" if timeline.unit == "model_us"
                      else "host time")
        events.append(_meta(pid, f"{timeline.kind} timeline ({unit_label})"))
        for p, lane in enumerate(timeline.lanes):
            events.append(_meta(pid, f"proc {p}", p, kind="thread_name"))
            for t0, t1, i in lane:
                events.append({
                    "name": f"i{i}", "ph": "X", "pid": pid, "tid": p,
                    "ts": (t0 - timeline.origin) * scale,
                    "dur": (t1 - t0) * scale,
                    "args": {"iteration": int(i)},
                })
    return events


def write_chrome_trace(path, *, observer=None, timelines=()) -> dict:
    """Write a Perfetto-loadable ``trace.json``; returns the document."""
    doc = {
        "traceEvents": chrome_trace_events(observer, timelines),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------

def write_jsonl(path, observer) -> int:
    """Flatten an observer into line-per-event JSON; returns the count.

    Span events come first (completion order), then one ``metric`` line
    per instrument — a shape log collectors ingest directly.
    """
    tracer = observer.tracer
    count = 0
    with open(path, "w") as fh:
        for ev in tracer.events:
            fh.write(json.dumps({
                "type": "span", "name": ev.name,
                "t0": ev.t0 - tracer.origin, "t1": ev.t1 - tracer.origin,
                "seconds": ev.seconds, "depth": ev.depth,
                "phase_root": ev.phase_root,
                "attrs": {k: _jsonable(v) for k, v in ev.attrs.items()},
            }) + "\n")
            count += 1
        for name, payload in observer.metrics.as_dict().items():
            fh.write(json.dumps({"type": "metric", "name": name,
                                 **payload}) + "\n")
            count += 1
    return count
