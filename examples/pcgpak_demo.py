"""Full preconditioned-Krylov solve, parallelized end to end.

Reproduces one row of the paper's Table 1 interactively: a reservoir-
style block 7-point system (SPE5's structure) solved with ILU(0)-
preconditioned GMRES, every component priced on the simulated
16-processor machine under both executor strategies.

Run:  python examples/pcgpak_demo.py
      REPRO_EXAMPLE_SCALE=0.3 python examples/pcgpak_demo.py
"""

import os

import numpy as np

from repro.krylov.parallel import ParallelSolver
from repro.mesh import get_problem

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
NPROC = 16


def main() -> None:
    prob = get_problem("SPE5", scale=SCALE)
    print(f"problem {prob.name}: grid {prob.grid_shape}, "
          f"{prob.block_size}x{prob.block_size} blocks, n = {prob.n}")

    reports = {}
    for executor in ("self", "preschedule"):
        solver = ParallelSolver(prob.a, NPROC, executor=executor,
                                scheduler="global",
                                factorization=prob.factorization)
        rep = solver.solve(prob.b, method="gmres", tol=1e-8)
        reports[executor] = rep
        err = np.abs(rep.solve_result.x - prob.x_exact).max()
        print(f"\n--- {executor} ---")
        print(f"  converged in {rep.iterations} GMRES iterations "
              f"(max error vs known solution: {err:.2e})")
        print(f"  simulated parallel time : {rep.parallel_time / 1000:9.2f} model-ms")
        print(f"  parallel efficiency     : {rep.efficiency:9.3f}")
        print(f"  factorization share     : "
              f"{rep.factorization_time / rep.parallel_time:9.1%}")
        print(f"  inspection (sort) time  : {rep.sort_time / 1000:9.2f} model-ms")
        print("  per-component breakdown (model-ms):")
        for op, t in sorted(rep.breakdown["parallel"].items(),
                            key=lambda kv: -kv[1]):
            if t > 0:
                print(f"    {op:<14} {t / 1000:9.2f}")

    se, ps = reports["self"], reports["preschedule"]
    print(f"\nself-execution completes in "
          f"{se.parallel_time / ps.parallel_time:.0%} of the pre-scheduled "
          "time — the paper's headline result.")

    # The triangular solves inside are bound LoopPrograms: each Krylov
    # iteration rebinds the right-hand side, never the inspector.
    log = rep.solve_result.log
    print(f"\nthat solve logged {log['lower_solve']} lower / "
          f"{log['upper_solve']} upper triangular solves; its two compiled "
          f"loops ran {solver.lower_loop.executions} / "
          f"{solver.upper_loop.executions} times, inspected once each "
          "(in the constructor).")
    y = solver.triangular_solve(prob.b)
    x = solver.triangular_solve(y, upper=True)
    print(f"one more preconditioner application through the same loops: "
          f"|z|_inf = {np.abs(x).max():.3e} "
          f"(rebinds so far: {solver.lower_loop.rebinds} lower / "
          f"{solver.upper_loop.rebinds} upper)")


if __name__ == "__main__":
    main()
