"""Benchmark: ablations over the cost-model and scheduler design knobs.

These quantify the design-space claims of the paper report's ablation
section (``python -m repro.experiments -o report.md``):

* the executor crossover moves with barrier cost (equation (6));
* expensive shared-array traffic erodes self-execution (equation (7));
* greedy weighted balancing barely beats wrapped dealing — supporting
  the paper's choice of the cheap wrapped assignment.
"""

import pytest

from repro.experiments.ablations import (
    run_balance_ablation,
    run_barrier_sweep,
    run_shared_cost_sweep,
)


@pytest.fixture(scope="module")
def sweeps(full_ctx, save_table):
    barrier_pts, barrier_tbl = run_barrier_sweep(full_ctx)
    shared_pts, shared_tbl = run_shared_cost_sweep(full_ctx)
    balance_rows, balance_tbl = run_balance_ablation(full_ctx)
    save_table("ablations", [barrier_tbl, shared_tbl, balance_tbl])
    return barrier_pts, shared_pts, balance_rows


def test_barrier_sweep_shape(sweeps):
    barrier_pts, _, _ = sweeps
    # Pre-scheduled time grows with barrier cost; self-executing does not.
    assert barrier_pts[-1].presched_time > barrier_pts[0].presched_time * 1.5
    assert barrier_pts[-1].self_time == pytest.approx(barrier_pts[0].self_time)
    # The PS/SE ratio sweeps across 1.0 somewhere in the range — the
    # crossover the analytical model predicts.
    ratios = [p.ratio for p in barrier_pts]
    assert min(ratios) < 1.2 and max(ratios) > 1.0


def test_shared_sweep_shape(sweeps):
    _, shared_pts, _ = sweeps
    # Self-executing time grows with shared costs; pre-scheduled doesn't.
    assert shared_pts[-1].self_time > shared_pts[0].self_time * 1.2
    assert shared_pts[-1].presched_time == pytest.approx(shared_pts[0].presched_time)
    # Advantage erodes monotonically.
    ratios = [p.ratio for p in shared_pts]
    assert ratios == sorted(ratios, reverse=True)


def test_balance_ablation_shape(sweeps):
    _, _, rows = sweeps
    for r in rows:
        # Greedy balancing may improve pre-scheduling slightly, but the
        # self-executing times should be within a few percent — the
        # pipeline hides residual imbalance, so cheap wrapped dealing
        # is the right default (the paper's choice).
        assert abs(r["greedy_self"] - r["wrapped_self"]) / r["wrapped_self"] < 0.15


def test_bench_barrier_sweep(benchmark, full_ctx, sweeps):
    pts = benchmark.pedantic(
        lambda: run_barrier_sweep(full_ctx, mesh=33, factors=(0.5, 1.0, 2.0))[0],
        rounds=1, iterations=1,
    )
    assert len(pts) == 3
