"""Runs one workload and turns what it saw into named metrics.

A run is: set-up (repeated, so ``setup_s`` is a median), the timed pass
with tracing off — a closed loop, one client, the next op only after the
previous one returned and was checked — and, when asked, the traced
pass: every op performed for real and then *staged* (one spanned public
call per layer), an observed replica, and the workload's diagnostics.

An op that raises, or whose result is not ``np.array_equal`` to its
oracle, counts as failed and the run goes on.  The end-to-end numbers
never come from the traced pass.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

from ledger_metrics import END_TO_END, PER_LAYER
from ledger_spans import SpanRecorder

__all__ = ["run_workload", "HostClock", "TRACED_OPS"]

#: Ops of the traced pass (fixed, so counts repeat exactly for a seed).
TRACED_OPS = 20
#: Ops run in a ``Runtime(observe=True)`` session for the phase check.
REPLICA_OPS = 3
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: The staged op must account for this share of its own wall time.
MIN_COVERAGE = 0.90
#: ``report.phases`` entries below this share of the op are too small
#: to compare against outside spans on a noisy host.
PHASE_FLOOR = 0.05

#: Outside spans behind each per-layer ``_s`` metric, where the metric
#: is not simply the span of the same name.
_SPANS_OF = {
    "inspector.schedule_s": ("inspector.partition", "inspector.schedule"),
}
#: Outside spans matching each ``report.phases`` entry.
_PHASE_SPANS = {
    "inspect": ("inspector.wavefront", "inspector.partition",
                "inspector.price"),
    "schedule": ("inspector.schedule",),
    "tune": ("tuning.search", "tuning.warm_lookup"),
    "execute": ("executor.order", "executor.run", "speculate.plan",
                "speculate.run"),
}


def _same(a, b) -> bool:
    if isinstance(b, dict):
        return (isinstance(a, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in b))
    return isinstance(a, np.ndarray) and np.array_equal(a, b)


def _right(outputs, expected) -> bool:
    """Every output equals one of the oracle results allowed for it."""
    return len(outputs) == len(expected) and all(
        any(_same(out, alt) for alt in alts)
        for out, alts in zip(outputs, expected))


def _same_schedule(a, b) -> bool:
    if not hasattr(a, "local_order"):
        return a == b  # the speculative tier's identity stand-in
    return (hasattr(b, "local_order")
            and np.array_equal(a.owner, b.owner)
            and len(a.local_order) == len(b.local_order)
            and all(np.array_equal(p, q)
                    for p, q in zip(a.local_order, b.local_order)))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 < q <= 1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


class HostClock:
    """How much slower than its quiet self the host is right now.

    The build host's speed wanders by tens of percent over seconds and
    at times halves for a minute (README, "host drift"), which no
    statistic of wall times inside one run can undo.  So every time the
    ledger reports is divided by the slowdown measured next to it: a
    fixed kernel — an interpreter-bound loop plus a numpy gather, scan
    and sort, the mix the library itself is made of — timed right
    before and right after, over :data:`REFERENCE_S`, what that kernel
    takes on the quiet build host.  A reported second is therefore a
    second *at the reference speed*; the raw wall numbers stay in the
    record as ``driver.op_s.wall_p50`` and ``driver.host_slowdown``.
    """

    #: The kernel's time on the quiet build host (2.1 GHz Xeon vCPU).
    REFERENCE_S = 0.0025

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(1 << 17)
        self._index = rng.integers(0, 1 << 17, 1 << 17)
        self.last = self.sample()

    def sample(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        b = self._values[self._index]
        b *= 1.0001
        np.cumsum(b, out=b)
        np.sort(b[:1 << 15])
        return (perf_counter() - t0) / self.REFERENCE_S

    def since_last(self) -> float:
        """Mean slowdown over the stretch since the previous call: the
        sample that closed it and a fresh one."""
        before, self.last = self.last, self.sample()
        return (before + self.last) / 2.0


def _model_speedup(sims) -> float:
    """Sequential over parallel model time of the plans one op ran."""
    return (sum(s.seq_time for s in sims)
            / sum(s.total_time for s in sims))


def _by_name(self_times: dict) -> dict:
    out: dict = defaultdict(float)
    for (name, _part), seconds in self_times.items():
        out[name] += seconds
    return out


def _by_part(self_times: dict, part: str) -> float:
    return sum(s for (_n, p), s in self_times.items() if p == part)


class _Tally:
    """Ops attempted and failed, with the reason of each failure."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0

    def fail(self, k, why: str) -> None:
        self.failed += 1
        print(f"[ledger] {self.name} op {k} FAILED: {why}", file=sys.stderr)

    def attempt(self, k, fn, expected):
        """Run ``fn`` as op ``k``; returns ``(result | None, seconds)``."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn()
        except Exception:
            self.fail(k, traceback.format_exc(limit=4))
            return None, 0.0
        seconds = perf_counter() - t0
        if not _right(result.outputs, expected):
            self.fail(k, "result differs from the serial oracle")
            return None, seconds
        return result, seconds


def run_workload(wl, *, seconds: float, trace: bool,
                 max_ops: int | None = None, traced_ops: int = TRACED_OPS,
                 replica_ops: int = REPLICA_OPS, setups: int = SETUPS,
                 import_s: float = 0.0,
                 spans_out: list | None = None) -> dict:
    """Run workload ``wl``; returns the record ``run.py`` prints.

    The timed pass lasts ``seconds`` (or exactly ``max_ops`` ops — the
    in-process test); ``trace`` adds the traced pass and the per-layer
    metrics.  ``spans_out`` receives the span records of that pass.
    """
    tally = _Tally(wl.name)
    marks = SpanRecorder()
    sp = SpanRecorder()
    host = HostClock()
    metrics: dict = {}
    try:
        # -- set-up ------------------------------------------------------
        setup_times = []
        for _ in range(setups):
            host.since_last()
            t0 = perf_counter()
            wl.setup()
            for k in range(wl.warmup_ops):
                inp = wl.prepare(k)
                tally.attempt(k, lambda: wl.op(inp, marks), wl.expected(inp))
                wl.finish(inp)
            elapsed = perf_counter() - t0
            setup_times.append(elapsed / host.since_last())
        metrics["setup_s"] = import_s / host.last + _median(setup_times)
        k = first = wl.warmup_ops

        # -- timed pass, tracing off ---------------------------------------
        wall_times, slowdowns = [], []
        op_times, compile_times, call_times = [], [], []
        serial_times, speedups = [], []
        deadline = perf_counter() + seconds
        while (k - first < max_ops if max_ops is not None
               else perf_counter() < deadline):
            inp = wl.prepare(k)
            root = len(marks.spans)
            host.since_last()
            result, elapsed = tally.attempt(
                k, lambda: wl.op(inp, marks), wl.expected(inp))
            slow = host.since_last()
            wl.finish(inp)
            if result is not None:
                wall_times.append(elapsed)
                slowdowns.append(slow)
                op_times.append(elapsed / slow)
                split = defaultdict(float)
                for name, _part, *_rest, start, end in marks.spans[root:]:
                    split[name] += (end - start) / slow
                compile_times.append(split["runtime.compile"])
                call_times.append(split["runtime.call"])
                if k - first < wl.cycle:
                    # One visit of every pool input: the same ops
                    # however long the run, so the number is exact.
                    speedups.append(_model_speedup(result.sims))
                if (k - first) % 10 == 0:
                    t0 = perf_counter()
                    wl.serial(inp)
                    elapsed = perf_counter() - t0
                    serial_times.append(elapsed / host.since_last())
            k += 1
        metrics.update({
            "op_s.p50": _median(op_times),
            "ops_per_s": len(op_times) / sum(op_times) if op_times else 0.0,
            "driver.op_s.p90": _percentile(op_times, 0.90),
            "driver.op_s.wall_p50": _median(wall_times),
            "driver.host_slowdown": _median(slowdowns),
            "driver.samples": len(op_times),
            "driver.serial_op_s": _median(serial_times),
            "driver.speedup_vs_serial": (
                _median(serial_times) / _median(op_times)
                if op_times else 0.0),
            "driver.untraced_compile_s": _median(compile_times),
            "driver.untraced_call_s": _median(call_times),
            "model_speedup": _median(speedups),
        })

        # -- traced pass ---------------------------------------------------
        self_check = {}
        if trace:
            # From the first op again, not from wherever the clock
            # stopped the timed pass: the same ops on every run of a
            # seed, so counts repeat exactly.
            self_check = _traced_pass(wl, sp, host, tally, first,
                                      traced_ops, replica_ops, metrics)
    finally:
        wl.close()
    metrics["fail_frac"] = tally.failed / max(1, tally.attempted)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if spans_out is not None:
        spans_out.extend(sp.as_records())
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    # Every end-to-end metric, and every per-layer metric the passes
    # that ran can vouch for (all of them after a traced pass).
    wanted = [name for name, *_ in END_TO_END] + [
        name for name, *_ in PER_LAYER if trace or name in metrics]
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "scale": wl.scale,
        "seconds": seconds,
        "correct": tally.failed == 0 and all(self_check.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "self_check": self_check,
        # Raw timed-pass samples, so another statistic can be taken later.
        "wall_times": [round(t, 6) for t in wall_times],
        "slowdowns": [round(f, 4) for f in slowdowns],
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": units[name]} for name in wanted},
    }


def _traced_pass(wl, sp, host, tally, k, traced_ops, replica_ops,
                 metrics) -> dict:
    """Real op, staged op and extras for ``traced_ops`` ops; fills the
    per-layer metrics and returns the self-check verdicts."""
    per_op = []      # merged {span name: self seconds} of staged + extras
    glue = defaultdict(list)
    real = defaultdict(list)
    counts = defaultdict(list)
    staged_walls, coverage = [], []
    agrees = True
    for _ in range(traced_ops):
        inp = wl.prepare(k)
        expected = wl.expected(inp)
        sp.op = k
        host.since_last()
        with sp.span("driver.real_op") as r_real:
            result, _t = tally.attempt(k, lambda: wl.op(inp, sp), expected)
        if result is not None:
            for name, value in wl.counts(result).items():
                counts[name].append(value)
        wl.finish(inp)
        with sp.span("driver.staged_op") as r_staged:
            staged, _t = tally.attempt(
                k, lambda: wl.staged(inp, sp), expected)
        if staged is not None:
            with sp.span("driver.extras") as r_extras:
                wl.extras(staged, sp)
            for name, value in staged.stats.items():
                counts[name].append(value)
        slow = host.since_last()
        wl.finish(inp)
        k += 1
        if result is None or staged is None:
            continue
        if not (all(_same(a, b) for a, b in
                    zip(result.outputs, staged.outputs))
                and len(result.schedules) == len(staged.schedules)
                and all(_same_schedule(a, b) for a, b in
                        zip(result.schedules, staged.schedules))):
            agrees = False
            tally.fail(k - 1, "staged op disagrees with rt.compile()/loop()")
        own = sp.self_times(r_staged)
        wall = sp.duration(r_staged)
        staged_walls.append(wall / slow)
        coverage.append(sum(own.values()) / wall)
        whole = _by_name(sp.self_times(r_real))
        for part in ("compile", "call"):
            real[part].append(whole[f"runtime.{part}"] / slow)
            glue[part].append(
                (whole[f"runtime.{part}"] - _by_part(own, part)) / slow)
        named = _by_name(own)
        for name, value in _by_name(sp.self_times(r_extras)).items():
            named[name] += value
        named = {name: value / slow for name, value in named.items()}
        named.update(sp.counts[sp.op])
        per_op.append(named)

    def layer(*names) -> float:
        return _median([sum(op.get(n, 0.0) for n in names) for op in per_op])

    def rate(amount: str, *spans) -> float:
        return _median([op[amount] / sum(op[s] for s in spans)
                        for op in per_op
                        if op.get(amount) and all(op.get(s) for s in spans)])

    for name, unit, *_ in PER_LAYER:
        if unit == "s" and not name.startswith(("driver.", "backends.")):
            metrics[name] = layer(*_SPANS_OF.get(name, (name[:-2],)))
    for name, values in counts.items():
        metrics[name] = _median(values)
    metrics.update({
        "runtime.compile_s": _median(real["compile"]),
        "runtime.call_s": _median(real["call"]),
        "runtime.compile_glue_s": _median(glue["compile"]),
        "runtime.call_glue_s": _median(glue["call"]),
        "inspector.idx_per_s": rate("inspector.indices",
                                    "inspector.wavefront"),
        "simulator.items_per_s": rate("simulator.items",
                                      "simulator.simulate"),
        "driver.trace_coverage_frac": _median(coverage),
    })
    runs = [op.get("executor.run", 0.0) + op.get("speculate.run", 0.0)
            for op in per_op]
    if metrics.get("executor.iters"):
        metrics["executor.ns_per_iter"] = (
            1e9 * _median(runs) / metrics["executor.iters"])
    if metrics.get("op_s.p50"):
        metrics["driver.trace_overhead_frac"] = (
            _median(staged_walls) / metrics["op_s.p50"] - 1.0)

    _phase_check(wl, host, tally, k, replica_ops, layer,
                 _median(staged_walls), metrics)
    _diagnostics(wl, host, tally, metrics)

    covered = metrics["driver.trace_coverage_frac"] >= MIN_COVERAGE
    if not covered:
        print(f"[ledger] {wl.name}: staged spans cover only "
              f"{metrics['driver.trace_coverage_frac']:.3f} of the op",
              file=sys.stderr)
    return {"staged_equals_real": agrees, "coverage_ok": covered}


def _phase_check(wl, host, tally, first, replica_ops, layer, op_wall,
                 metrics) -> None:
    """Ops in a ``Runtime(observe=True)`` session: ``report.phases``
    against the outside spans, and the tuner's own counters."""
    phases = defaultdict(list)
    tuner = defaultdict(list)
    for k in range(first, first + replica_ops):
        inp = wl.prepare(k)
        host.since_last()
        result, wall = tally.attempt(
            k, lambda: wl.op(inp, SpanRecorder(), observe=True),
            wl.expected(inp))
        slow = host.since_last()
        wl.finish(inp)
        if result is None:
            continue
        obs = result.runtime.observer
        for name, value in obs.phase_breakdown(0, wall).items():
            phases[name].append(value / slow)
        for name in ("candidates", "sims"):
            tuner[name].append(obs.metrics.value(f"tuner.{name}"))
    devs = []
    for name, spans in _PHASE_SPANS.items():
        outside = layer(*spans)
        if outside >= PHASE_FLOOR * op_wall > 0.0:
            devs.append(abs(_median(phases[name]) - outside) / outside)
    metrics["driver.phase_dev_max_frac"] = max(devs, default=0.0)
    metrics["tuning.candidates"] = _median(tuner["candidates"])
    metrics["tuning.sims"] = _median(tuner["sims"])


def _diagnostics(wl, host, tally, metrics) -> None:
    """The workload's runs outside the op (real backends)."""
    timings = defaultdict(list)
    host.since_last()
    try:
        for name, secs, output, alts in wl.diagnostics():
            tally.attempted += 1
            slow = host.since_last()  # the run lies between two samples
            if any(_same(output, alt) for alt in alts):
                timings[name].append(secs / slow)
            else:
                tally.fail(name, "result differs from the serial oracle")
    except Exception:
        # Diagnostic rows only: a host without POSIX shared memory or
        # fork reads 0 here, and the run still stands.
        print(f"[ledger] {wl.name} diagnostics skipped:\n"
              + traceback.format_exc(limit=4), file=sys.stderr)
    for name, values in timings.items():
        metrics[name] = _median(values)
