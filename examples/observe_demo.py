"""Observability: trace, meter and export a run-time parallelized loop.

``Runtime(observe=True)`` turns on the :mod:`repro.observe` layer —
nestable spans on one clock, a metrics registry wired into every hot
seam (schedule cache, tuning store, tuner rungs, speculation,
execution backends), and exporters.  This demo runs the Figure 3
workload through the full pipeline and shows:

* ``RunReport.phases`` — where one call's wall time went
  (inspect / schedule / tune / execute / other, summing to wall);
* cache and tuner counters after a repeat compile (cache hit);
* the speculation conflict metrics on a hostile loop;
* a Perfetto-loadable ``trace.json`` with the simulator's predicted
  per-processor schedule *and* the real ``threads`` execution, one
  lane per processor (open it at https://ui.perfetto.dev).

Run:  python examples/observe_demo.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/observe_demo.py
      REPRO_TRACE_PATH=/tmp/trace.json python examples/observe_demo.py
"""

import os

import numpy as np

from repro import LoopProgram, Runtime, simulated_timeline

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
rng = np.random.default_rng(1989)


def main() -> None:
    n = max(int(4_000 * SCALE), 400)
    nproc = 8

    # ------------------------------------------------------------------
    # 1. One observed session, Figure 3 workload, full auto pipeline
    # ------------------------------------------------------------------
    ia = rng.integers(0, n, size=n)
    prog = LoopProgram.from_indirection(ia, x=rng.random(n), b=rng.random(n))

    rt = Runtime(nproc=nproc, cache=8, observe=True)
    report = rt.run(prog, strategy="auto")

    print(f"Figure 3 workload, n={n}, {nproc} processors, strategy='auto':\n")
    print(report.phases.render())
    print()

    # ------------------------------------------------------------------
    # 2. Repeat compile: the cache hit shows up in the counters
    # ------------------------------------------------------------------
    rt.compile(prog, strategy="auto")
    m = rt.observer.metrics
    print(f"repeat compile: schedule_cache.hits="
          f"{m.value('schedule_cache.hits'):.0f}, "
          f"misses={m.value('schedule_cache.misses'):.0f}, "
          f"tuner.searches={m.value('tuner.searches'):.0f}, "
          f"tuner.sims={m.value('tuner.sims'):.0f}")

    # ------------------------------------------------------------------
    # 3. Speculation, metered
    # ------------------------------------------------------------------
    chain = np.maximum(np.arange(n) - 1, 0)  # every iteration conflicts
    hostile = LoopProgram.from_indirection(chain, x=rng.random(n),
                                           b=rng.random(n))
    rt.compile(hostile, strategy="speculative")()
    print(f"hostile loop:   speculation.attempts="
          f"{m.value('speculation.attempts'):.0f}, "
          f"re_executed={m.value('speculation.re_executed'):.0f}, "
          f"conflict rate={m.get('speculation.conflict_rate').max:.0%}")
    print()

    # ------------------------------------------------------------------
    # 4. Timelines: predicted (simulator) and measured (real threads)
    # ------------------------------------------------------------------
    loop = rt.compile(prog, executor="self")
    threads_report = loop(backend="threads")
    timelines = [simulated_timeline(loop), threads_report.timeline]
    for tl in timelines:
        busy = tl.busy_per_lane()
        unit = "model µs" if tl.unit == "model_us" else "s"
        print(f"{tl.kind:>7} timeline: {tl.num_events} events on "
              f"{tl.nproc} lanes, busiest lane {max(busy):.4g} {unit}")

    trace_path = os.environ.get("REPRO_TRACE_PATH", "trace.json")
    if os.path.dirname(trace_path):
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    doc = rt.observer.export_chrome_trace(trace_path, timelines=timelines)
    print(f"\nwrote {trace_path} ({len(doc['traceEvents'])} events) — "
          f"load it at https://ui.perfetto.dev")
    print()

    # ------------------------------------------------------------------
    # 5. The session's full metrics table
    # ------------------------------------------------------------------
    print(rt.observer.summary())


if __name__ == "__main__":
    main()
