"""Micro-benchmarks of the library's hot kernels.

Not tied to a specific paper table; these give pytest-benchmark real
statistics for the operations every experiment is built from, and guard
against performance regressions in the substrate.
"""

import numpy as np
import pytest

from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.executor import SerialExecutor
from repro.core.inspector import Inspector
from repro.core.schedule import global_schedule
from repro.core.wavefront import compute_wavefronts
from repro.krylov.ilu import ILUPreconditioner, numeric_ilu
from repro.machine.simulator import simulate
from repro.mesh.problems import get_problem
from repro.sparse.triangular import LevelScheduledSolver, split_triangular
from repro.util.tables import TextTable
from repro.util.timing import Stopwatch


@pytest.fixture(scope="module")
def mesh_problem():
    return get_problem("5-PT")  # 3969 unknowns


@pytest.fixture(scope="module")
def factor(mesh_problem):
    return ILUPreconditioner(mesh_problem.a, 0).factorization


def test_bench_matvec(benchmark, mesh_problem):
    a = mesh_problem.a
    x = np.ones(a.nrows)
    y = benchmark(lambda: a.matvec(x))
    assert y.shape[0] == a.nrows


def test_bench_wavefront_sweep(benchmark, factor):
    dep = DependenceGraph.from_lower_csr(factor.lu)
    wf = benchmark(lambda: compute_wavefronts(dep))
    assert wf.max() > 0


def test_bench_level_scheduled_solve(benchmark, factor):
    b = np.ones(factor.lu.nrows)
    solver = factor.lower_solver
    x = benchmark(lambda: solver.solve(b))
    assert np.all(np.isfinite(x))


def test_bench_level_solver_construction(benchmark, factor):
    """The inspector-phase cost that gets amortised."""
    solver = benchmark.pedantic(
        lambda: LevelScheduledSolver(factor.l_strict, lower=True,
                                     unit_diagonal=True),
        rounds=3, iterations=1,
    )
    assert solver.num_levels > 0


def test_bench_numeric_ilu(benchmark, mesh_problem):
    lu = benchmark.pedantic(
        lambda: numeric_ilu(mesh_problem.a), rounds=2, iterations=1,
    )
    assert lu.nnz == mesh_problem.a.nnz


def test_bench_global_inspection(benchmark, mesh_problem):
    l, _, _ = split_triangular(mesh_problem.a)
    dep = DependenceGraph.from_lower_csr(l)
    res = benchmark(lambda: Inspector().inspect(dep, 16, strategy="global"))
    assert res.schedule.nproc == 16


def test_bench_simulate_prescheduled(benchmark, factor):
    dep = DependenceGraph.from_lower_csr(factor.lu)
    wf = compute_wavefronts(dep)
    sched = global_schedule(wf, 16)
    sim = benchmark(lambda: simulate(sched, dep, mode="preschedule"))
    assert sim.num_phases > 0


def test_bench_simulate_self_executing(benchmark, factor):
    dep = DependenceGraph.from_lower_csr(factor.lu)
    wf = compute_wavefronts(dep)
    sched = global_schedule(wf, 16)
    sim = benchmark(lambda: simulate(sched, dep, mode="self"))
    assert sim.total_time > 0


@pytest.mark.parametrize("n", [100_000, 1_000_000])
def test_taped_replay_beats_the_proxy_walk(n, save_table):
    """The ROADMAP item 2 gate: a trace-recorded Figure 3 loop run
    through its tape against the same kernel walked one iteration at a
    time over the replay proxies — bitwise equal, at least 10× faster.
    (``-k 100000`` is the CI smoke size; 10⁶ is the gate itself.)"""
    rng = np.random.default_rng(1989)
    ia = rng.integers(0, n, size=n).tolist()

    def body(i, a):
        a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]]

    program = LoopProgram.record(n, body, x=rng.standard_normal(n),
                                 b=0.5 * rng.standard_normal(n))
    loop = Runtime(nproc=8).compile(program)
    with Stopwatch() as first:      # tape + step list built here, once
        loop(with_sim=False)
    taped = []
    for _ in range(5):
        with Stopwatch() as sw:
            x = loop(with_sim=False).x
        taped.append(sw.elapsed)
    with Stopwatch() as walk:
        want = SerialExecutor().run(program.make_kernel())
    assert loop.report()["kernel_path"] == "vectorized"
    assert np.array_equal(x, want)
    warm = float(np.median(taped))
    speedup = walk.elapsed / warm
    table = TextTable(["n", "proxy walk s", "first taped run s",
                       "warm taped run s", "speedup"],
                      ["d", ".3f", ".3f", ".5f", ".1f"],
                      title="Recorded Figure 3: taped replay vs proxy walk")
    table.add_row(n, walk.elapsed, first.elapsed, warm, speedup)
    save_table(f"kernels_taped_replay_n{n}", table)
    assert speedup >= 10.0
