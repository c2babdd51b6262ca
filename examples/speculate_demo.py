"""Speculative execution: skip the inspector, check afterwards.

The inspector/executor model pays for dependence analysis up front;
``strategy="speculative"`` pays only when a conflict actually
happens.  Element reads/writes are logged into vectorized shadow
arrays and one scan flags the iterations an unordered run would get
wrong; the loop runs every other iteration optimistically as a DOALL
in shuffled chunks, then exactly the flagged ones serially — nothing
to checkpoint or restore, and bitwise identical to the serial loop,
misspeculation included.  An explicit ``"speculative"`` speculates
however much the loop conflicts; whether speculating beats inspecting
is ``strategy="auto"``'s call, scored on the machine model.

Run:  python examples/speculate_demo.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/speculate_demo.py
"""

import os
import time

import numpy as np

from repro import LoopProgram, Runtime
from repro.core.executor import SerialExecutor

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
rng = np.random.default_rng(1989)


def sparse_update(n: int, conflicts: int) -> np.ndarray:
    """Identity indirection with a few backward (conflicting) refs."""
    ia = np.arange(n)
    if conflicts:
        hot = rng.choice(np.arange(1, n), size=conflicts, replace=False)
        ia[hot] = (rng.random(conflicts) * hot).astype(np.int64)
    return ia


def main() -> None:
    n = max(int(40_000 * SCALE), 2_000)

    # ------------------------------------------------------------------
    # 1. A nearly-DOALL loop: speculation wins without any inspection
    # ------------------------------------------------------------------
    ia = sparse_update(n, max(n // 500, 1))  # 0.2% conflicting iterations
    prog = LoopProgram.from_indirection(ia, x=rng.random(n), b=rng.random(n))

    rt = Runtime(nproc=8, tuning=None)
    t0 = time.perf_counter()
    classic = rt.compile(prog)               # dependence graph + wavefronts
    classic_report = classic(with_sim=False)
    classic_ms = (time.perf_counter() - t0) * 1000

    rt = Runtime(nproc=8, tuning=None)
    t0 = time.perf_counter()
    spec = rt.compile(prog, strategy="speculative")   # no inspection at all
    report = spec(with_sim=False)
    spec_ms = (time.perf_counter() - t0) * 1000

    c = report.speculation
    print(f"sparse update, n={n}, {c.conflict_rate:.2%} conflicts:")
    print(f"  cold inspector/executor : {classic_ms:7.2f} ms")
    print(f"  cold speculative        : {spec_ms:7.2f} ms "
          f"({classic_ms / spec_ms:.1f}x)")
    print(f"  attempts={c.attempts}, violated={c.violated}, "
          f"re-executed={c.re_executed} of {n}, "
          f"shadow memory {c.shadow_bytes / 1024:.0f} KiB")
    assert np.array_equal(report.x, classic_report.x)
    print("  results bitwise identical to the classic pipeline\n")

    # ------------------------------------------------------------------
    # 2. A hostile loop: still speculative, still exact; auto arbitrates
    # ------------------------------------------------------------------
    chain = np.maximum(np.arange(n) - 1, 0)   # every iteration conflicts
    hostile = LoopProgram.from_indirection(chain, x=rng.random(n),
                                           b=rng.random(n))
    want = SerialExecutor().run(hostile.make_kernel())
    rt = Runtime(nproc=8)
    loop = rt.compile(hostile, strategy="speculative")
    print(f"all-conflict chain, n={n}:")
    for run in (1, 2):
        r = loop()
        assert r.executor == "speculative" and np.array_equal(r.x, want)
        print(f"  run {run}: executor={r.executor!r}, conflict rate "
              f"{r.speculation.conflict_rate:.0%}, re-executed "
              f"{r.speculation.re_executed} serially, bitwise serial")

    # Whether to speculate at all is strategy="auto"'s decision: the
    # tuner scores the speculative arm beside every scheduled candidate.
    verdict = rt.compile(hostile, strategy="auto").verdict
    print(f"  auto's verdict: {verdict.executor}/{verdict.scheduler}, "
          f"simulated makespan {verdict.sim_makespan:,.0f} model us, "
          f"best of {verdict.candidates} candidates")


if __name__ == "__main__":
    main()
