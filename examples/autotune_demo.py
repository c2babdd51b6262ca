"""Autotuning: let the session pick the executor/scheduler bundle.

The paper's Tables 2–5 show there is no universally best strategy —
shallow, wide loops want pre-scheduling's cheap barriers; deep or
irregular loops want self-execution's point-to-point waits; unbalanced
work wants greedy repartitioning.  ``strategy="auto"`` turns that
table into code: the session searches the registered strategy space
with the machine-model simulator (successive halving over graph
prefixes), caches the verdict in a persistent ``TuningStore``, and
reuses it for every structurally identical compile afterwards.

Run:  python examples/autotune_demo.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/autotune_demo.py
"""

import os
import tempfile

import numpy as np

from repro import LoopProgram, Runtime
from repro.workload.generator import generate_workload

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
rng = np.random.default_rng(2026)


def workloads() -> dict:
    """Three structurally different loops (the tuner should disagree).

    Each is one ``LoopProgram`` declaration — the access pattern is
    the whole input; the tuner derives everything else.
    """
    n = max(int(6000 * SCALE), 600)
    shallow = rng.integers(0, n, size=n)        # Figure 3: wide, shallow
    mesh = generate_workload("65mesh").matrix   # Table 5: regular mesh
    irregular = generate_workload("65-4-3").matrix  # Table 5: random links
    return {
        "figure-3 indirection": LoopProgram.from_indirection(shallow),
        "65mesh (regular)": LoopProgram.from_csr(mesh),
        "65-4-3 (irregular)": LoopProgram.from_csr(irregular),
    }


def main() -> None:
    cases = workloads()

    with tempfile.TemporaryDirectory() as tuning_dir:
        rt = Runtime(nproc=16, tuning_dir=tuning_dir)

        # --------------------------------------------------------------
        # 1. One call per workload: the tuner picks, compiles and reports
        # --------------------------------------------------------------
        print(f"auto-tuned strategies ({rt.nproc} processors):\n")
        for name, prog in cases.items():
            loop = rt.compile(prog, strategy="auto")
            v = loop.verdict
            print(f"  {name:<22} -> {v.label():<44}"
                  f" {v.sim_makespan / 1000:7.2f} model-ms"
                  f"  (speedup {v.speedup:.2f}, {v.sims} simulations)")

        # --------------------------------------------------------------
        # 2. The verdict is cached: recompiles skip the search entirely
        # --------------------------------------------------------------
        prog = cases["figure-3 indirection"]
        again = rt.compile(prog, strategy="auto")
        print(f"\nrecompile: searched={again.verdict.searched}, "
              f"schedule cache hit={again.cache_hit} "
              f"(store: {rt.tuning_stats.hits} hits / "
              f"{rt.tuning_stats.misses} misses)")

        # --------------------------------------------------------------
        # 3. ...including across sessions, via the persisted store
        # --------------------------------------------------------------
        rt2 = Runtime(nproc=16, tuning_dir=tuning_dir)
        warm = rt2.compile(prog, strategy="auto")
        print(f"fresh session: searched={warm.verdict.searched}, "
              f"disk hits={rt2.tuning_stats.disk_hits}")

        # --------------------------------------------------------------
        # 4. A tuned program loop carries its program: execute, check, rebind
        # --------------------------------------------------------------
        n = prog.n
        ia = rng.integers(0, n, size=n)
        x0, b = rng.standard_normal(n), 0.5 * rng.standard_normal(n)
        tuned = rt.compile(LoopProgram.from_indirection(ia, x=x0, b=b),
                           strategy="auto")
        out = tuned()
        naive = rt.compile(ia)  # the hand-picked default: self/local
        print(f"\ntuned pick {tuned.verdict.label()!r}: "
              f"{out.sim.total_time / 1000:.2f} model-ms vs default "
              f"{naive.simulate().total_time / 1000:.2f} model-ms "
              f"(x[:3] = {np.round(out.x[:3], 4)})")
        out2 = tuned.rebind(x=np.zeros(n))()
        print(f"rebound data, same tuned schedule: x[:3] = "
              f"{np.round(out2.x[:3], 4)}")


if __name__ == "__main__":
    main()
