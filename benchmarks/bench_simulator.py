"""Benchmark: the wavefront-batched simulator vs the per-iteration oracle.

The machine simulator is the exact longest-path evaluation behind the
paper's Figure 4/5 timing tables — and, since PR 2 vectorized the
inspector, the dominant cost of a cold ``Runtime.compile`` at
n ≥ 10^5: ``price_inspection`` simulates the parallel sort over the
whole graph, and every tuning-search candidate is simulation-scored.
PR 5 batches the self-executing event loop by wavefront level (at most
one iteration per processor per level, so a level's starts are
``max(proc_avail[owner], segment-max of operand finishes)`` computed
with whole-array numpy), keeps a Python-list event loop for shapes the
batches cannot pay for, and retains the per-iteration oracle in
:func:`repro.core.reference.simulate_self_executing`.

This benchmark records, across n ∈ {10^4, 10^5, 10^6}:

* **cold pricing, Figure 3 workload** — the oracle against the
  production engine on a 256-processor machine model (levels are
  capped at ``nproc`` wide, so large simulated machines are where
  batching shines; the scalar column shows the list-loop floor that
  every processor count enjoys);
* **doacross pricing** (the ``price_inspection`` shape: identity
  schedule over the sweep's own dependence graph);
* **processor scaling** — which engine ``"auto"`` picks as the machine
  grows, and what it costs;
* **end-to-end tuning search** — one ``Tuner.search`` with the engine
  pinned to the scalar loop vs the production default.

Acceptance: ≥ 10× over the oracle on ``simulate_self_executing`` at
n = 10^6 (Figure 3 workload) plus a measured end-to-end tuning-search
speedup.  ``REPRO_BENCH_SIM_SCALE`` (float, default 1.0) scales the
sizes down for smoke runs; the acceptance assertions only apply at
full scale.
"""

import functools
import os
import time

import numpy as np
import pytest

from repro.core import executor, inspector, reference
from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule, identity_schedule
from repro.core.wavefront import compute_wavefronts
from repro.machine import simulator
from repro.machine.costs import MULTIMAX_320
from repro.machine.simulator import simulate_self_executing
from repro.tuning import Tuner
from repro.util.tables import TextTable

SCALE = float(os.environ.get("REPRO_BENCH_SIM_SCALE", "1.0"))
SIZES = tuple(max(int(n * SCALE), 1_000) for n in (10_000, 100_000, 1_000_000))
ACCEPT_N = 1_000_000
ACCEPT_SPEEDUP = 10.0
NPROC_WIDE = 256
TUNE_N = max(int(100_000 * SCALE), 5_000)
TUNE_NPROC = 256


def _figure3_graph(n: int) -> DependenceGraph:
    rng = np.random.default_rng(1989 + n)
    return DependenceGraph.from_indirection(rng.integers(0, n, size=n))


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _check_exact(a, b):
    assert a.total_time == b.total_time
    np.testing.assert_array_equal(a.busy, b.busy)
    np.testing.assert_array_equal(a.idle, b.idle)


def test_figure3_cold_price_speedup(save_table):
    """Acceptance: ≥ 10× over the oracle at n = 10^6 (Figure 3)."""
    table = TextTable(
        headers=["n", "wavefronts", "oracle ms", "scalar ms", "auto ms",
                 "speedup", "Midx/s"],
        formats=["d", "d", ".1f", ".1f", ".1f", ".1f", ".1f"],
        title=f"simulate_self_executing, Figure 3 workload, "
              f"{NPROC_WIDE} processors: per-iteration oracle vs "
              f"batched engine",
    )
    speedups = {}
    for n in SIZES:
        dep = _figure3_graph(n)
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, NPROC_WIDE)
        repeats = 3 if n < 1_000_000 else 1
        t_ref = _time(
            lambda: reference.simulate_self_executing(sched, dep, MULTIMAX_320),
            repeats)
        t_scalar = _time(
            lambda: simulate_self_executing(sched, dep, MULTIMAX_320,
                                            engine="scalar"), repeats)
        t_auto = _time(
            lambda: simulate_self_executing(sched, dep, MULTIMAX_320),
            repeats)
        _check_exact(
            simulate_self_executing(sched, dep, MULTIMAX_320),
            reference.simulate_self_executing(sched, dep, MULTIMAX_320))
        speedups[n] = t_ref / t_auto
        table.add_row(n, int(wf.max()) + 1, t_ref * 1000, t_scalar * 1000,
                      t_auto * 1000, speedups[n], n / t_auto / 1e6)
    print()
    print(table.render())
    save_table("simulator_figure3", table)
    if SCALE >= 1.0:
        assert speedups[ACCEPT_N] >= ACCEPT_SPEEDUP, (
            f"only {speedups[ACCEPT_N]:.1f}x at n={ACCEPT_N}"
        )


def test_doacross_pricing_speedup(save_table):
    """The ``price_inspection`` shape: doacross over identity schedules."""
    table = TextTable(
        headers=["n", "oracle ms", "auto ms", "speedup"],
        formats=["d", ".1f", ".1f", ".1f"],
        title=f"doacross pricing (identity schedule, {NPROC_WIDE} "
              f"processors): oracle vs production engine",
    )
    for n in SIZES[:-1] if SCALE >= 1.0 else SIZES:
        dep = _figure3_graph(n)
        wf = compute_wavefronts(dep)
        sched = identity_schedule(wf, NPROC_WIDE)

        def cold():
            # a cold compile builds the successor CSR, edge rows and
            # backwardness memo too — drop them all so every repeat
            # pays the full price
            dep._succ_indptr = dep._succ_indices = None
            dep._edge_rows = dep._all_backward = None
            return simulate_self_executing(sched, dep, MULTIMAX_320,
                                           mode="doacross")

        t_ref = _time(lambda: reference.simulate_self_executing(
            sched, dep, MULTIMAX_320, mode="doacross"), 1)
        t_auto = _time(cold, 3)
        _check_exact(cold(), reference.simulate_self_executing(
            sched, dep, MULTIMAX_320, mode="doacross"))
        table.add_row(n, t_ref * 1000, t_auto * 1000, t_ref / t_auto)
    print()
    print(table.render())
    save_table("simulator_doacross", table)


def test_processor_scaling(save_table):
    """Engine choice and cost as the simulated machine grows."""
    n = SIZES[1]
    dep = _figure3_graph(n)
    wf = compute_wavefronts(dep)
    table = TextTable(
        headers=["nproc", "scalar ms", "batched ms", "auto ms"],
        formats=["d", ".1f", ".1f", ".1f"],
        title=f"engine scaling, Figure 3 workload, n={n}: levels are at "
              f"most nproc wide, so batching pays on larger machines",
    )
    for p in (16, 64, 256):
        sched = global_schedule(wf, p)
        times = {}
        for engine in ("scalar", "batched", "auto"):
            times[engine] = _time(
                lambda e=engine: simulate_self_executing(
                    sched, dep, MULTIMAX_320, engine=e), 3)
        _check_exact(
            simulate_self_executing(sched, dep, MULTIMAX_320, engine="batched"),
            simulate_self_executing(sched, dep, MULTIMAX_320, engine="scalar"))
        table.add_row(p, times["scalar"] * 1000, times["batched"] * 1000,
                      times["auto"] * 1000)
    print()
    print(table.render())
    save_table("simulator_scaling", table)


def _legacy_run_scalar(schedule, dep, w, t_poll, **_kwargs):
    """The pre-PR engine: the numpy-indexed event loop over the whole
    order (``_scalar_span`` is that loop, retained for level fallback).
    Extra engine-dispatch keywords (``try_wf_sorted``) are ignored —
    the old code always ran the full order-shape probe."""
    order = simulator._fast_order(schedule, dep)
    if order is None:
        order = simulator.toposort_plan(schedule, dep)
    n, p = schedule.n, schedule.nproc
    finish = np.zeros(n, dtype=np.float64)
    proc_avail = np.zeros(p, dtype=np.float64)
    busy = np.zeros(p, dtype=np.float64)
    idle = np.zeros(p, dtype=np.float64)
    simulator._scalar_span(order, 0, n, schedule.owner, dep.indptr,
                           dep.indices, w, t_poll, finish, proc_avail,
                           busy, idle)
    return finish, proc_avail, busy, idle


def test_tuning_search_speedup(save_table):
    """End to end: every tuning-search candidate (and every
    ``price_inspection``) is simulation-scored, so the simulator's
    speed multiplies the tuner's reach.  Baseline = the pre-PR
    numpy-indexed event loop, restored via the retained
    ``_scalar_span``; production = the default engine selection."""
    dep = _figure3_graph(TUNE_N)

    def run_search():
        return Tuner(TUNE_NPROC, seed=0).search(dep)

    # The search reaches the simulator through the executors and the
    # inspector's pricing; pin both callers' engine argument.
    scalar = functools.partial(simulate_self_executing, engine="scalar")
    saved_scalar = simulator._run_scalar
    try:
        simulator._run_scalar = _legacy_run_scalar
        executor.simulate_self_executing = scalar
        inspector.simulate_self_executing = scalar
        v_legacy = run_search()
        t_legacy = _time(run_search, 1)
    finally:
        simulator._run_scalar = saved_scalar
        executor.simulate_self_executing = simulate_self_executing
        inspector.simulate_self_executing = simulate_self_executing
    v_auto = run_search()
    t_auto = _time(run_search, 1)

    assert v_legacy.label() == v_auto.label()
    assert v_legacy.sim_makespan == v_auto.sim_makespan
    table = TextTable(
        headers=["n", "nproc", "engine", "search s", "verdict",
                 "sim makespan ms"],
        formats=["d", "d", None, ".2f", None, ".2f"],
        title="Tuner.search end to end: pre-PR event loop vs production "
              "engine (identical verdicts)",
    )
    table.add_row(TUNE_N, TUNE_NPROC, "legacy scalar", t_legacy,
                  v_legacy.label(), v_legacy.sim_makespan / 1000)
    table.add_row(TUNE_N, TUNE_NPROC, "auto", t_auto,
                  v_auto.label(), v_auto.sim_makespan / 1000)
    print()
    print(table.render())
    print(f"tuning-search speedup: {t_legacy / t_auto:.2f}x")
    save_table(
        "simulator_tuning", table,
        extra=f"end-to-end search speedup: {t_legacy / t_auto:.2f}x",
    )
    if SCALE >= 1.0:
        assert t_legacy / t_auto > 1.5


def test_bench_batched_simulator(benchmark):
    """pytest-benchmark statistics for the batched engine at 10^5."""
    n = SIZES[1]
    dep = _figure3_graph(n)
    sched = global_schedule(compute_wavefronts(dep), NPROC_WIDE)
    dep.successors()
    sim = benchmark(lambda: simulate_self_executing(sched, dep, MULTIMAX_320))
    assert sim.total_time > 0
