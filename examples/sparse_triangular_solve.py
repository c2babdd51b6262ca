"""Sparse triangular solves — the paper's central workload.

Builds the 5-PT test problem (Problem 6 of Appendix 1), declares its
ILU(0) forward solve as a ``LoopProgram`` (the problem knows its own
Figure 8 workload), and compares the three executors on it: simulated
16-processor timings, efficiency, the phase profile, rebinding across
right-hand sides, and the "where does the time go" decomposition of
Tables 2/3.

Run:  python examples/sparse_triangular_solve.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/sparse_triangular_solve.py
"""

import os

import numpy as np

from repro import LoopProgram, Runtime
from repro.core import compute_wavefronts, wavefront_counts
from repro.krylov.parallel import ParallelSolver
from repro.mesh import get_problem
from repro.sparse import solve_lower_sequential

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
NPROC = 16


def main() -> None:
    prob = get_problem("5-PT", scale=SCALE)
    print(f"problem {prob.name}: n = {prob.n}, nnz = {prob.a.nnz}")
    print(f"  ({prob.description})")

    # The problem factors itself once (prob.factorization); the
    # factor's access pattern *is* the program — declare the forward
    # solve and let the front end own the dependence extraction.
    # (TestProblem.loop_program(factored=True) wraps exactly this.)
    l_strict = prob.factorization.l_strict
    prog = LoopProgram.from_csr(l_strict, prob.b, unit_diagonal=True,
                                name=f"{prob.name}-ilu0-lower")
    dep = prog.dependence_graph()
    wf = compute_wavefronts(dep)
    counts = wavefront_counts(wf)
    print(f"\nwavefront profile: {len(counts)} phases, "
          f"width min/median/max = {counts.min()}/{int(np.median(counts))}/{counts.max()}")

    # Independent numeric ground truth: the sequential Figure 8 loop
    # over the same factor.
    oracle = solve_lower_sequential(l_strict, prob.b, unit_diagonal=True)

    # Compile once per executor (the cache shares the inspection), then
    # execute; the kernel is bound, so the call takes no arguments.
    rt = Runtime(nproc=NPROC)
    print(f"\n{'executor':<14} {'model-ms':>9} {'efficiency':>11}  numerics")
    for name in ("self", "preschedule", "doacross"):
        loop = rt.compile(prog, executor=name, scheduler="global")
        rep = loop()
        ok = np.array_equal(rep.x, oracle)
        print(f"{name:<14} {rep.sim.total_time / 1000:9.2f} "
              f"{rep.sim.efficiency:11.3f}  match={ok}")

    # Rebinding: each new right-hand side reuses the schedule with
    # zero inspector work — the Krylov amortisation pattern.
    loop = rt.compile(prog, executor="self", scheduler="global")
    lookups = rt.cache_stats.lookups
    print("\nrebinding across right-hand sides (self-executing):")
    for k in range(3):
        rhs = np.sin(np.linspace(0, 3 + k, prob.n))
        rep = loop.rebind(b=rhs)(with_sim=False)
        print(f"  rhs {k}: x[:3] = {np.round(rep.x[:3], 5)}")
    print(f"  cache lookups paid by the 3 rebinds: "
          f"{rt.cache_stats.lookups - lookups}")

    # The same compiled loop runs on every execution backend — serial
    # replay, real threads, real OS processes over shared memory — and
    # loop.simulate() times it on the machine model, kernel-free.
    ref = loop(with_sim=False).x
    print("\nbackend comparison (self-executing, identical schedule):")
    for backend in ("serial", "threads", "processes"):
        rep = loop(backend=backend, with_sim=False)
        print(f"  {backend:<11} host {rep.host_seconds * 1000:8.1f} ms   "
              f"match={np.allclose(rep.x, ref)}")
    print(f"  model       {loop.simulate().total_time / 1000:8.1f} model-ms")

    # The Tables 2/3 estimation chain for this solve.
    print("\naccounting (Table 2/3 chain, model-ms):")
    for executor in ("preschedule", "self"):
        solver = ParallelSolver(prob.a, NPROC, executor=executor,
                                scheduler="global",
                                factorization=prob.factorization)
        a = solver.analyze_lower_solve(include_doacross=(executor == "preschedule"))
        print(f"  {executor:<12} phases={a.phases:4d}  E_sym={a.symbolic_efficiency:.2f}"
              f"  1PEseq={a.one_pe_sequential:6.1f}  1PEpar={a.one_pe_parallel:6.1f}"
              f"  rotating(+barrier)={a.rotating_estimate_plus_barrier:6.1f}"
              f"  parallel={a.parallel_time:6.1f}"
              + (f"  doacross={a.doacross_time:6.1f}" if a.doacross_time else ""))


if __name__ == "__main__":
    main()
