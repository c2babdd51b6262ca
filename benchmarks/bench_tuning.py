"""Benchmark: the autotuner against the exhaustive-search oracle.

The acceptance bar for :mod:`repro.tuning`:

* on the Figure 3 workload and the Table 5 synthetic workloads, the
  sim-pruned, seeded successive-halving search must land on a
  configuration whose *full-graph simulated makespan* is within 10%
  of the exhaustive search over the entire candidate space;
* a repeat ``Runtime.compile(..., strategy="auto")`` with a warm
  :class:`~repro.tuning.TuningStore` must skip the search entirely
  (and be drastically cheaper on the wall clock).

``REPRO_BENCH_TUNING_SCALE`` (a float, default 1.0) scales the
problem sizes down for smoke runs in CI.
"""

import os
import time

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.runtime import Runtime
from repro.tuning import Tuner, enumerate_space
from repro.util.tables import TextTable
from repro.workload.generator import generate_workload

SCALE = float(os.environ.get("REPRO_BENCH_TUNING_SCALE", "1.0"))
NPROC = 16
TOLERANCE = 1.10
FIG3_N = max(int(20_000 * SCALE), 2_000)
TABLE5_WORKLOADS = ("65-4-1.5", "65-4-3", "65mesh")


@pytest.fixture(scope="module")
def workloads():
    rng = np.random.default_rng(1989)
    cases = {
        f"figure3 n={FIG3_N}":
            DependenceGraph.from_indirection(rng.integers(0, FIG3_N,
                                                          size=FIG3_N)),
    }
    for name in TABLE5_WORKLOADS:
        cases[f"table5 {name}"] = DependenceGraph.from_lower_csr(
            generate_workload(name).matrix)
    return cases


def test_auto_within_tolerance_of_exhaustive(workloads, save_table):
    """Acceptance: sim-pruned search ≤ 1.10 × exhaustive best makespan."""
    table = TextTable(
        headers=["workload", "auto pick", "auto ms", "exhaustive best",
                 "best ms", "ratio", "sims", "full sims"],
        formats=[None, None, ".2f", None, ".2f", ".3f", "d", "d"],
        title=f"strategy='auto' vs exhaustive search "
              f"({NPROC} processors, seed 0, {TOLERANCE:.0%} bar)",
    )
    worst = 0.0
    for name, dep in workloads.items():
        tuner = Tuner(NPROC, seed=0)
        verdict = tuner.search(dep)
        exhaustive = tuner.exhaustive(dep)
        best = exhaustive[0]
        ratio = verdict.sim_makespan / best.sim_makespan
        worst = max(worst, ratio)
        table.add_row(name, verdict.label(), verdict.sim_makespan / 1000,
                      best.spec.label(), best.sim_makespan / 1000, ratio,
                      verdict.sims, len(exhaustive))
    print()
    print(table.render())
    save_table("tuning_vs_exhaustive", table)
    assert worst <= TOLERANCE, f"auto is {worst:.3f}x the exhaustive best"


def test_warm_store_skips_the_search(workloads, save_table, tmp_path):
    """Acceptance: a warm TuningStore turns auto compiles into lookups."""
    table = TextTable(
        headers=["workload", "cold auto (ms)", "warm auto (ms)",
                 "warm session (ms)", "speedup"],
        formats=[None, ".1f", ".2f", ".2f", ".0f"],
        title="auto compile: cold search vs warm TuningStore "
              "(same session / fresh session via tuning_dir)",
    )
    for name, dep in workloads.items():
        rt = Runtime(nproc=NPROC, tuning_dir=tmp_path)
        t0 = time.perf_counter()
        cold = rt.compile(dep, strategy="auto")
        t_cold = time.perf_counter() - t0
        assert cold.verdict.searched

        t0 = time.perf_counter()
        warm = rt.compile(dep, strategy="auto")
        t_warm = time.perf_counter() - t0
        assert not warm.verdict.searched          # search skipped
        assert warm.cache_hit                     # schedule reused too
        assert warm.verdict.compile_kwargs() == cold.verdict.compile_kwargs()

        # A fresh session warm-starts from the persisted verdict.
        rt2 = Runtime(nproc=NPROC, tuning_dir=tmp_path)
        t0 = time.perf_counter()
        fresh = rt2.compile(dep, strategy="auto")
        t_fresh = time.perf_counter() - t0
        assert not fresh.verdict.searched
        assert rt2.tuning_stats.disk_hits == 1

        table.add_row(name, t_cold * 1000, t_warm * 1000, t_fresh * 1000,
                      t_cold / max(t_warm, 1e-9))
        assert t_warm < t_cold / 5, (
            f"warm auto compile only {t_cold / t_warm:.1f}x faster on {name}")
    print()
    print(table.render())
    save_table("tuning_warm_store", table)


def test_tuned_pick_varies_by_workload(workloads, save_table):
    """The paper's point: no single strategy bundle wins everywhere —
    the tuner's verdicts must actually differ across workload shapes."""
    picks = {}
    for name, dep in workloads.items():
        picks[name] = Tuner(NPROC, seed=0).search(dep).label()
    assert len(set(picks.values())) >= 2, picks


def test_bench_auto_warm_compile(benchmark, workloads):
    """pytest-benchmark statistics for the warm auto-compile path."""
    dep = next(iter(workloads.values()))
    rt = Runtime(nproc=NPROC)
    rt.compile(dep, strategy="auto")
    loop = benchmark(lambda: rt.compile(dep, strategy="auto"))
    assert not loop.verdict.searched


def test_space_size_recorded(workloads, save_table):
    """Record the candidate space so growth is visible run to run."""
    dep = next(iter(workloads.values()))
    specs = enumerate_space(dep.n, NPROC)
    table = TextTable(
        headers=["candidate", "executor", "scheduler", "assignment", "balance"],
        formats=["d", None, None, None, None],
        title=f"Candidate space at n={dep.n}, {NPROC} processors "
              f"({len(specs)} configurations)",
    )
    for i, s in enumerate(specs):
        table.add_row(i, s.executor, s.scheduler, s.assignment, s.balance)
    save_table("tuning_space", table)
    assert len(specs) >= 20
