"""The paper's claims, asserted at the paper's sizes.

``python -m repro.experiments -o report.md`` regenerates every table
and figure; this file runs the same drivers once each at full problem
scale (16 simulated processors) and asserts the qualitative *shape* the
paper reports — who wins where, what collapses, what amortises.  The
tier-1 suite checks the same drivers at reduced scale only.

    PYTHONPATH=src python -m pytest benchmarks/paper_scale.py -q

Exact and deterministic (the machine model is the clock): a failure is
a changed result, never noise.
"""

import numpy as np
import pytest

from repro.analysis.dense import DenseTriangularModel
from repro.analysis.model import ratio_limit_square, time_ratio
from repro.experiments.ablations import (
    run_balance_ablation,
    run_barrier_sweep,
    run_shared_cost_sweep,
)
from repro.experiments.figure1 import render_quadrant, run_figure1
from repro.experiments.figure12 import run_figure12
from repro.experiments.model_check import run_model_check
from repro.experiments.runner import ExperimentContext
from repro.experiments.table1 import run_table1
from repro.experiments.table23 import run_table23
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import TABLE5_WORKLOADS, run_table5

CTX = ExperimentContext(nproc=16, scale=1.0, maxiter=400)
#: Table 1 of the report plus L7-PT, the paper's crossover problem.
TABLE1_PROBLEMS = ("SPE1", "SPE2", "SPE3", "SPE4", "SPE5",
                   "5-PT", "9-PT", "7-PT", "L7-PT")


def test_table1_self_execution_wins_except_on_the_large_7_point():
    """Self-execution yields the lowest times and highest efficiencies
    for all test problems *except* the large regular 7-point operator,
    where pre-scheduling's few cheap barriers win; inspection (sort)
    time is a small fraction of total solve time."""
    rows, table = run_table1(CTX, problems=TABLE1_PROBLEMS)
    print(table.render())
    by_name = {r.problem: r for r in rows}
    for name in ("SPE1", "SPE2", "SPE3", "SPE4", "SPE5", "5-PT", "9-PT"):
        assert by_name[name].self_wins, name
        assert by_name[name].self_efficiency > by_name[name].presched_efficiency
    assert not by_name["L7-PT"].self_wins  # the paper's crossover
    # 7-PT is the closest contest among the self-executing wins.
    margins = {n: by_name[n].time_ratio for n in by_name if n != "L7-PT"}
    assert max(margins, key=margins.get) == "7-PT"
    # Substantial wins on the SPE problems (paper: < 70% of presched).
    assert by_name["SPE4"].time_ratio < 0.7
    # Sort time amortises.  On the PDE problems (realistic iteration
    # counts) inspection is well under 8% of the solve; on our synthetic
    # SPE matrices block ILU(0) is nearly exact, so with only a handful
    # of iterations the weaker claim is the honest one: inspecting costs
    # less than a single solve even before amortisation.
    for r in rows:
        assert r.sort_time < r.self_time
        assert r.iterations < CTX.maxiter, r.problem  # every solve converged
    for name in ("5-PT", "9-PT", "7-PT", "L7-PT"):
        assert by_name[name].sort_time < 0.08 * by_name[name].self_time


def test_table2_table3_accounting_chain():
    """``1 PE seq <= 1 PE par <= rotating (+ barrier) ~= parallel`` per
    problem; self-executing symbolic efficiencies dominate
    pre-scheduled ones; the doacross loop is slower than both."""
    rows, tables = run_table23(CTX)
    print(tables["preschedule"].render())
    print(tables["self"].render())
    for executor in ("preschedule", "self"):
        for row in rows[executor]:
            a = row.analysis
            assert a.one_pe_sequential <= a.one_pe_parallel + 1e-9
            assert a.one_pe_parallel <= a.rotating_estimate + 1e-9
            assert a.rotating_estimate <= a.rotating_estimate_plus_barrier + 1e-9
            # Rotating(+barrier) estimate predicts the simulated parallel
            # time closely (the paper's central accounting result; the
            # worst case here is 9-PT's deep 90-phase pipeline, where
            # bubbles add ~30% the flop-count model cannot see).
            rel = abs(a.rotating_estimate_plus_barrier - a.parallel_time)
            assert rel / a.parallel_time < 0.35
    by_problem_self = {r.problem: r.analysis for r in rows["self"]}
    for row in rows["preschedule"]:
        a_pre, a_self = row.analysis, by_problem_self[row.problem]
        # Self-execution extracts more parallelism, always.
        assert a_self.symbolic_efficiency > a_pre.symbolic_efficiency
        # Doacross is slower than both executors (SPE5 in the paper:
        # 23.4 self / 29.0 presched / 45.0 doacross).
        assert a_pre.doacross_time > a_pre.parallel_time
        assert a_pre.doacross_time > a_self.parallel_time


def test_table4_projections_to_32_and_64_processors():
    """Self-execution dominates pre-scheduling at every projected
    machine size and the advantage is large at 64 processors ("the
    projected performance of the pre-scheduled programs deteriorates
    much more rapidly")."""
    rows, table = run_table4(CTX)
    print(table.render())
    for r in rows:
        for p in (16, 32, 64):
            assert r.self_eff[p] > r.presched_eff[p], (r.problem, p)
        # Monotone decline with machine size for both executors.
        assert r.self_eff[16] >= r.self_eff[32] >= r.self_eff[64]
        assert r.presched_eff[16] >= r.presched_eff[32] >= r.presched_eff[64]
        # Advantage persists at 64 processors (narrowest on the regular
        # 7-point operator, consistent with Table 1's crossover there).
        assert r.self_eff[64] / r.presched_eff[64] > 1.3, r.problem
        # Best (overhead-only) efficiency bounds the projections.
        assert r.self_eff[16] <= r.best_self + 1e-9
    # On the irregular problems the advantage is wide.
    wide = [r for r in rows if r.self_eff[64] / r.presched_eff[64] > 1.5]
    assert len(wide) >= 4
    # And widest on the mesh problems with many narrow wavefronts.
    by_name = {r.problem: r for r in rows}
    assert by_name["5-PT"].self_eff[64] / by_name["5-PT"].presched_eff[64] > 3.0


def test_table5_local_vs_global_scheduling():
    """Local scheduling overhead is far below global scheduling
    overhead; the parallelized sort costs a modest fraction of a
    sequential iteration; run-time differences between the two
    schedules under self-execution are "not very significant"."""
    rows, table = run_table5(CTX, workloads=TABLE5_WORKLOADS)
    print(table.render())
    for r in rows:
        # Local scheduling's extra step is far cheaper than global's.
        assert r.local_sched < 0.25 * r.rearrange, r.workload
        assert r.local_overhead < r.global_overhead
        # Scheduling is amortisable: sequential sort < one iteration.
        assert r.seq_sort < r.seq_time
        assert 0.4 < r.global_run / r.local_run < 2.5, r.workload
        # Parallel sort cost as a fraction of a sequential iteration:
        # the paper reports 17-61%.  The random workloads land in that
        # band; the plain mesh is the adversarial case — its wavefront
        # sweep is chained along rows (index i needs i-1), so striped
        # doacross parallelization buys nothing there (~100%, the same
        # limited-concurrency effect Section 5.1.2 reports for doacross
        # loops).
        assert 0.1 < r.par_sort / r.seq_time < 1.1, r.workload
        if "mesh" not in r.workload:
            assert r.par_sort / r.seq_time < 0.7, r.workload


def test_figure1_quadrant():
    """local + pre-scheduled degrades catastrophically; global +
    pre-scheduled is robust but concurrency-limited; both
    self-executing cells are healthy, local with the lowest setup."""
    cells, _ = run_figure1(CTX, mesh=65, nprocs=(4, 8, 12, 16))
    print(render_quadrant(cells))
    lp = cells[("local", "preschedule")]
    gp = cells[("global", "preschedule")]
    ls = cells[("local", "self")]
    gs = cells[("global", "self")]
    assert lp.min_efficiency == min(c.min_efficiency for c in cells.values())
    assert lp.min_efficiency < 0.1
    # Global sort rescues pre-scheduling, but concurrency stays limited:
    assert gp.min_efficiency > 2 * lp.min_efficiency
    assert gp.mean_efficiency < gs.mean_efficiency
    # "improvement from global over local sorting is not very
    # significant in the case of self-execution".
    assert ls.min_efficiency > 0.35
    assert gs.min_efficiency > 0.35
    assert abs(gs.mean_efficiency - ls.mean_efficiency) < 0.25
    assert ls.setup_cost < gs.setup_cost


def test_figure12_local_ordering():
    """With a striped assignment and local sort only, the
    barrier-synchronized executor's efficiency "varies wildly with the
    number of processors" and collapses, while self-execution pipelines
    across wavefronts and degrades only gently."""
    points, table = run_figure12(CTX, mesh=65, nprocs=tuple(range(1, 17)))
    print(table.render())
    barrier = np.array([p.barrier_efficiency for p in points])
    self_eff = np.array([p.self_efficiency for p in points])
    multi = slice(1, None)  # P >= 2
    assert np.all(self_eff[multi] > barrier[multi])
    assert barrier[multi].min() < 0.1
    diffs = np.diff(barrier[multi])  # oscillates: non-monotone in P
    assert (diffs > 0).any() and (diffs < 0).any()
    assert self_eff.min() > 0.35
    assert np.all(np.diff(self_eff) < 0.12)


def test_model_agreement():
    """Equations (3)-(5) agree with the event-driven simulator exactly;
    equation (6) tracks the simulated time ratio."""
    rows, table = run_model_check(CTX)
    print(table.render())
    for r in rows:
        assert r.max_error < 1e-9, (r.m, r.n, r.p)
        assert abs(r.ratio_analytic - r.ratio_sim) / r.ratio_sim < 0.35


def test_model_limits_under_the_multimax_costs():
    c = CTX.costs
    sync = {"r_sync": c.r_sync(16), "r_inc": c.r_inc, "r_check": c.r_check}
    # Equation (7): for big square domains pre-scheduling wins by the
    # shared-cost factor.  Convergence is slow — the dropped sync term
    # scales as (n+m)/mn — which is itself the paper's point that
    # pre-scheduling needs big regular problems.
    lim = ratio_limit_square(r_inc=c.r_inc, r_check=c.r_check)
    assert lim < 1.0
    big = time_ratio(2048, 2048, 16, **sync)
    assert abs(big - lim) / lim < 0.25
    assert big < time_ratio(512, 512, 16, **sync)  # monotone from above
    # For m >> n = p + 1 self-execution wins big (half the machine
    # idles under pre-scheduling).
    assert time_ratio(1024, 17, 16, **sync) > 1.4


def test_dense_extreme_case():
    """"Slightly under half" efficiency for self-execution against
    ``1/(n-1)`` for pre-scheduling on the dense triangular solve."""
    d = DenseTriangularModel(64)
    assert 0.5 < d.eopt_self() < 0.52
    assert d.eopt_prescheduled() == pytest.approx(1 / 63)
    assert d.simulate_fine_grained() == pytest.approx(d.self_executing_time())


def test_ablation_barrier_cost_moves_the_crossover():
    points, _ = run_barrier_sweep(CTX)
    # Pre-scheduled time grows with barrier cost; self-executing does not.
    assert points[-1].presched_time > points[0].presched_time * 1.5
    assert points[-1].self_time == pytest.approx(points[0].self_time)
    # The PS/SE ratio sweeps across 1.0 — equation (6)'s crossover.
    ratios = [p.ratio for p in points]
    assert min(ratios) < 1.2 and max(ratios) > 1.0


def test_ablation_shared_costs_erode_self_execution():
    points, _ = run_shared_cost_sweep(CTX)
    assert points[-1].self_time > points[0].self_time * 1.2
    assert points[-1].presched_time == pytest.approx(points[0].presched_time)
    ratios = [p.ratio for p in points]
    assert ratios == sorted(ratios, reverse=True)  # erodes monotonically


def test_ablation_greedy_balancing_barely_beats_wrapped():
    rows, _ = run_balance_ablation(CTX)
    for r in rows:
        # The pipeline hides residual imbalance, so cheap wrapped
        # dealing is the right default (the paper's choice).
        assert abs(r["greedy_self"] - r["wrapped_self"]) / r["wrapped_self"] < 0.15
