"""Tests for :mod:`repro.observe` — tracer, metrics, exporters, wiring.

Covers the observability contract end to end: span nesting and
exception safety, the disabled path being a true no-op (compile
results bitwise-identical with ``observe`` on and off), metric counts
against known cache-hit and all-conflict speculation scenarios, and
Chrome-trace schema validity for both the simulated and the real
``threads`` timelines.
"""

import json

import numpy as np
import pytest

from repro import LoopProgram, Runtime
from repro.errors import ValidationError
from repro.observe import (
    NULL_SPAN,
    PHASE_NAMES,
    MetricsRegistry,
    Observer,
    Timeline,
    Tracer,
    chrome_trace_events,
    maybe_span,
    simulated_timeline,
    write_chrome_trace,
    write_jsonl,
)

N = 300
NPROC = 4


def figure3_program(n=N, seed=7):
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, n, size=n)
    return LoopProgram.from_indirection(ia, x=rng.random(n),
                                        b=rng.random(n))


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_span_records_interval(self):
        tracer = Tracer()
        with tracer.span("inspect", n=5):
            pass
        (ev,) = tracer.events
        assert ev.name == "inspect"
        assert ev.t1 >= ev.t0
        assert ev.attrs == {"n": 5}
        assert ev.depth == 0 and ev.phase_root

    def test_nesting_depths_and_completion_order(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("inspect"):
                pass
            with tracer.span("execute"):
                pass
        names = [ev.name for ev in tracer.events]
        assert names == ["inspect", "execute", "run"]  # inner first
        depths = {ev.name: ev.depth for ev in tracer.events}
        assert depths == {"run": 0, "inspect": 1, "execute": 1}

    def test_phase_root_only_outermost_phase(self):
        tracer = Tracer()
        with tracer.span("tune"):          # phase root
            with tracer.span("inspect"):   # nested phase: not a root
                with tracer.span("schedule"):
                    pass
        roots = {ev.name: ev.phase_root for ev in tracer.events}
        assert roots == {"tune": True, "inspect": False, "schedule": False}
        # Non-phase wrappers do not eat the root.
        with tracer.span("compile"):
            with tracer.span("inspect"):
                pass
        assert tracer.events[-2].name == "inspect"
        assert tracer.events[-2].phase_root

    def test_exception_safety(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("execute"):
                raise ValueError("boom")
        (ev,) = tracer.events
        assert ev.attrs["error"] == "ValueError"
        # Depth counters unwound: a fresh span is a root again.
        with tracer.span("execute"):
            pass
        assert tracer.events[-1].depth == 0
        assert tracer.events[-1].phase_root

    def test_annotate_mid_span(self):
        tracer = Tracer()
        with tracer.span("inspect") as sp:
            sp.annotate(edges=42)
        assert tracer.events[0].attrs == {"edges": 42}

    def test_phase_breakdown_sums_to_wall(self):
        tracer = Tracer()
        mark = tracer.mark()
        with tracer.span("inspect"):
            pass
        with tracer.span("execute"):
            pass
        wall = sum(ev.seconds for ev in tracer.events) + 1e-3
        phases = tracer.phase_breakdown(mark, wall)
        assert set(phases.seconds) == set(PHASE_NAMES)
        assert phases.tracked + phases.other == pytest.approx(wall)
        assert phases["other"] == pytest.approx(phases.other)
        assert "inspect" in phases.render()

    def test_disabled_guard_is_shared_noop(self):
        assert maybe_span(None, "execute") is NULL_SPAN
        assert maybe_span(None, "inspect", n=4) is NULL_SPAN
        with maybe_span(None, "execute") as sp:
            sp.annotate(anything=1)  # silently ignored
        obs = Observer()
        assert maybe_span(obs, "execute") is not NULL_SPAN


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.inc("c")
        m.inc("c", 2.5)
        m.observe("h", 1.0)
        m.observe("h", 3.0)
        assert m.value("c") == 3.5
        h = m.get("h")
        assert h.count == 2 and h.mean == 2.0
        assert h.min == 1.0 and h.max == 3.0

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.inc("x")
        with pytest.raises(TypeError):
            m.observe("x", 1.0)

    def test_missing_metric_value_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_render_and_as_dict(self):
        m = MetricsRegistry()
        m.inc("cache.hits", 3)
        d = m.as_dict()
        assert d["cache.hits"]["value"] == 3.0
        assert "cache.hits" in m.render()


# ----------------------------------------------------------------------
# Disabled path: bitwise identity with today
# ----------------------------------------------------------------------

class TestDisabledIdentity:
    def test_compile_and_run_bitwise_equal(self):
        prog = figure3_program()
        loop_off = Runtime(nproc=NPROC).compile(prog)
        loop_on = Runtime(nproc=NPROC, observe=True).compile(prog)
        assert np.array_equal(loop_off.schedule.owner, loop_on.schedule.owner)
        assert np.array_equal(loop_off.schedule.wavefronts,
                              loop_on.schedule.wavefronts)
        for p in range(NPROC):
            assert np.array_equal(loop_off.schedule.local_order[p],
                                  loop_on.schedule.local_order[p])
        r_off, r_on = loop_off(), loop_on()
        assert np.array_equal(r_off.x, r_on.x)
        # Disabled runs carry no observability payload at all.
        assert r_off.phases is None and r_off.timeline is None
        assert r_on.phases is not None

    def test_observe_flag_validation(self):
        assert Runtime(nproc=2).observer is None
        assert isinstance(Runtime(nproc=2, observe=True).observer, Observer)
        shared = Observer()
        assert Runtime(nproc=2, observe=shared).observer is shared
        with pytest.raises(ValidationError):
            Runtime(nproc=2, observe="yes")


# ----------------------------------------------------------------------
# Metric counts on known scenarios
# ----------------------------------------------------------------------

class TestScenarioMetrics:
    def test_cache_hit_counts(self):
        prog = figure3_program()
        rt = Runtime(nproc=NPROC, cache=8, observe=True)
        rt.compile(prog)
        rt.compile(prog)
        rt.compile(prog)
        m = rt.observer.metrics
        assert m.value("schedule_cache.misses") == 1
        assert m.value("schedule_cache.hits") == 2
        assert m.value("schedule_cache.hits") == rt.cache_stats.hits

    def test_speculation_counts_every_run(self):
        n = 50
        ia = np.maximum(np.arange(n) - 1, 0)  # serial chain: all conflict
        rng = np.random.default_rng(3)
        prog = LoopProgram.from_indirection(ia, x=rng.random(n),
                                            b=rng.random(n))
        rt = Runtime(nproc=NPROC, observe=True)
        loop = rt.compile(prog, strategy="speculative")
        reports = [loop(), loop()]
        m = rt.observer.metrics
        assert m.value("speculation.runs") == 2
        assert m.value("speculation.attempts") == 4
        assert m.value("speculation.re_executed") == 2 * (n - 1)
        rate = m.get("speculation.conflict_rate")
        assert rate.count == 2
        assert rate.max == pytest.approx(reports[1].speculation.conflict_rate)

    def test_tuner_counts(self):
        prog = figure3_program(n=120, seed=2)
        rt = Runtime(nproc=NPROC, observe=True)
        loop = rt.compile(prog, strategy="auto")
        m = rt.observer.metrics
        assert m.value("tuner.searches") == 1
        assert m.value("tuner.candidates") > 0
        # Candidate scorings, however many simulations they took.
        assert m.value("tuner.sims") == loop.verdict.sims
        # n = 120 has no pruning rung: the final rung scores all 28
        # candidates.  The seven doacross aliases run one schedule, and
        # global deals one list under wrapped, greedy and weighted
        # greedy balance (for self and for preschedule alike), so ten
        # scorings reuse an earlier one's simulation; eight simulations
        # stop at the incumbent's score.
        assert m.value("tuner.sims_shared") == 10
        assert m.value("tuner.sims_cut") == 8
        # The tune phase shows up as spans, annotated with the same.
        tune, = (ev for ev in rt.observer.tracer.events
                 if ev.name == "tune" and "sims" in ev.attrs)
        assert tune.attrs["sims"] == loop.verdict.sims == 28
        assert tune.attrs["sims_shared"] == 10
        assert tune.attrs["sims_cut"] == tune.attrs["final_cut"] == 8

    def test_phases_sum_to_wall_on_run(self):
        prog = figure3_program()
        rt = Runtime(nproc=NPROC, observe=True)
        report = rt.run(prog)
        phases = report.phases
        assert phases is not None
        assert phases.tracked + phases.other == pytest.approx(
            phases.wall_seconds)
        assert phases["inspect"] > 0
        assert phases["execute"] > 0


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------

def _check_chrome_schema(doc, *, nproc):
    assert set(doc) >= {"traceEvents"}
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    pids = set()
    for ev in events:
        assert ev["ph"] in ("X", "M")
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        pids.add(ev["pid"])
        if ev["ph"] == "X":
            assert ev["ts"] >= 0
            assert ev["dur"] >= 0
            json.dumps(ev["args"])  # JSON-safe attributes
        else:
            assert ev["name"] in ("process_name", "thread_name")
    # One thread-name lane per processor on each timeline process.
    for pid in pids - {0}:
        lanes = {ev["tid"] for ev in events
                 if ev["pid"] == pid and ev["ph"] == "M"
                 and ev["name"] == "thread_name"}
        assert lanes == set(range(nproc))


class TestTraceExport:
    def test_simulated_timeline_shape(self):
        prog = figure3_program()
        loop = Runtime(nproc=NPROC).compile(prog, executor="self")
        tl = simulated_timeline(loop)
        assert isinstance(tl, Timeline)
        assert tl.kind == "sim" and tl.unit == "model_us"
        assert len(tl.lanes) == NPROC
        assert tl.num_events == N
        assert tl.span() > 0
        assert len(tl.busy_per_lane()) == NPROC
        # Every iteration appears exactly once, on its owner's lane.
        seen = sorted(i for lane in tl.lanes for (_, _, i) in lane)
        assert seen == list(range(N))

    def test_simulated_timeline_rejects_prescheduled(self):
        from repro.workload import sweep_program

        rt = Runtime(nproc=NPROC)
        rng = np.random.default_rng(0)
        sweep = sweep_program(rng.normal(size=N), rng.normal(size=N))
        for loop in (rt.compile(figure3_program(), executor="preschedule"),
                     rt.compile(figure3_program(), strategy="speculative"),
                     rt.compile(sweep, strategy="auto")):
            assert loop.executor_name not in ("self", "doacross")
            # A staged loop has no executor to read a mode from.
            with pytest.raises(
                    ValidationError,
                    match=f"finish times.*uses '{loop.executor_name}'"):
                simulated_timeline(loop)

    def test_chrome_trace_simulated(self, tmp_path):
        prog = figure3_program()
        rt = Runtime(nproc=NPROC, observe=True)
        loop = rt.compile(prog, executor="self")
        loop()
        tl = simulated_timeline(loop)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, observer=rt.observer, timelines=[tl])
        doc = json.loads(path.read_text())
        _check_chrome_schema(doc, nproc=NPROC)
        # Span process present alongside the timeline process.
        assert {ev["pid"] for ev in doc["traceEvents"]} == {0, 1}

    def test_chrome_trace_threads_timeline(self, tmp_path):
        prog = figure3_program()
        rt = Runtime(nproc=NPROC, observe=True)
        loop = rt.compile(prog, executor="self")
        report = loop(backend="threads")
        tl = report.timeline
        assert tl is not None and tl.kind == "threads"
        assert tl.unit == "seconds"
        assert tl.num_events == N
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(path, observer=rt.observer, timelines=[tl])
        _check_chrome_schema(doc, nproc=NPROC)
        m = rt.observer.metrics
        assert m.value("backend.threads.runs") == 1
        assert m.value("backend.threads.lane_busy_s") > 0

    def test_threads_timeline_not_recorded_when_disabled(self):
        prog = figure3_program()
        loop = Runtime(nproc=NPROC).compile(prog, executor="self")
        report = loop(backend="threads")
        assert report.timeline is None

    def test_jsonl_export(self, tmp_path):
        prog = figure3_program()
        rt = Runtime(nproc=NPROC, cache=8, observe=True)
        rt.run(prog)
        path = tmp_path / "events.jsonl"
        count = write_jsonl(path, rt.observer)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        kinds = {line["type"] for line in lines}
        assert kinds == {"span", "metric"}
        span_names = {l["name"] for l in lines if l["type"] == "span"}
        assert "inspect" in span_names and "execute" in span_names

    def test_chrome_trace_events_empty_observer(self):
        assert chrome_trace_events(Observer(), ()) == []


# ----------------------------------------------------------------------
# Stopwatch routes through the tracer clock
# ----------------------------------------------------------------------

def test_stopwatch_uses_tracer_clock():
    from repro.observe.tracer import now
    from repro.util import timing

    assert timing.now is now
    sw = timing.Stopwatch().start()
    sw.stop()
    assert sw.elapsed >= 0.0
