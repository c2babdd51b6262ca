"""Quickstart: parallelize a loop whose dependences are run-time data.

The loop below (Figure 3 of the paper) cannot be parallelized at
compile time — iteration ``i`` reads ``x[ia[i]]``, and ``ia`` is data.
This script shows the library's layers, top down:

1. the declarative front end — declare the access pattern as a
   ``LoopProgram``, compile it into a bound loop, execute, then
   *rebind* new data without paying for inspection;
2. the raw-deps Runtime API — the low-level path: hand the session
   dependence data and a kernel separately;
3. pluggable strategies — register a custom partitioner and use it by
   name, without touching library code;
4. trace recording — the paper's Section 2.2 transformation done at
   run time: hand over the loop body as written and let the library
   derive the inspector's input and the executor's kernel from it.

Run:  python examples/quickstart.py
      REPRO_EXAMPLE_SCALE=0.1 python examples/quickstart.py   # smoke
"""

import os

import numpy as np

from repro import LoopProgram, Runtime, register_partitioner
from repro.core import SimpleLoopKernel

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))

rng = np.random.default_rng(2024)
n = max(int(2000 * SCALE), 100)
x0 = rng.standard_normal(n)
b = 0.5 * rng.standard_normal(n)
ia = rng.integers(0, n, size=n)  # run-time dependence data


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Declare -> compile -> run -> rebind
    # ------------------------------------------------------------------
    rt = Runtime(nproc=16)            # simulated processors, serial backend
    prog = LoopProgram.from_indirection(ia, x=x0, b=b)
    loop = rt.compile(prog, executor="self", scheduler="local")
    out = loop()                      # kernel already bound: no argument
    print("program: x[:4] =", np.round(out.x[:4], 4))
    print(f"  wavefronts          : {out.inspection.num_wavefronts}")
    print(f"  simulated time      : {out.sim.total_time / 1000:.2f} model-ms")
    print(f"  parallel efficiency : {out.sim.efficiency:.3f}")
    print(f"  inspection cost     : {out.inspect_cost / 1000:.2f} model-ms"
          " (amortised across executions)")

    # New *values*, same structure: rebind swaps the data arrays and
    # reuses the schedule — zero inspector work, the paper's
    # amortisation argument made first-class.
    before = rt.cache_stats.lookups
    loop.rebind(x=np.zeros(n))
    res = loop()
    print(f"  rebind(x=...)       : x[:4] = {np.round(res.x[:4], 4)} "
          f"(cache lookups while rebinding: {rt.cache_stats.lookups - before})")

    # New *indices* force a recompile — the structure hash caught it.
    changed = loop.rebind(ia=np.roll(ia, 1))
    print(f"  rebind(ia=...)      : recompiled = {changed is not loop}")

    # ------------------------------------------------------------------
    # 2. The raw-deps path (the low-level API underneath)
    # ------------------------------------------------------------------
    raw = rt.compile(ia, executor="self", scheduler="local")
    res = raw(SimpleLoopKernel(x0, b, ia))
    print(f"\nraw deps + explicit kernel: matches program path = "
          f"{np.array_equal(res.x, out.x)} "
          f"(cache hit: {res.cache_hit} — same structure, same entry)")

    # Compare executors on the same loop; the same RunReport shape
    # comes back whatever the executor or backend.
    print("\nexecutor comparison (same loop, 16 processors):")
    for executor in ("self", "preschedule", "doacross"):
        res = rt.compile(prog, executor=executor, scheduler="global")()
        print(f"  {executor:<12} {res.sim.total_time / 1000:8.2f} model-ms   "
              f"efficiency {res.sim.efficiency:.3f}")

    # ------------------------------------------------------------------
    # 3. Pluggable strategies: register, then use by name
    # ------------------------------------------------------------------
    @register_partitioner("even-odd")
    def even_odd(n, nproc):
        """Even indices first, dealt round-robin, then odd ones."""
        order = np.argsort(np.arange(n) % 2, kind="stable")
        owner = np.empty(n, dtype=np.int64)
        owner[order] = np.arange(n) % nproc
        return owner

    custom = rt.compile(prog, scheduler="local", assignment="even-odd")
    res = custom()
    print(f"\ncustom 'even-odd' assignment: efficiency {res.sim.efficiency:.3f}"
          f" (matches: {np.allclose(res.x, out.x)})")

    # ------------------------------------------------------------------
    # 4. The loop as written: trace recording (Section 2.2 at run time)
    # ------------------------------------------------------------------
    # No descriptors, no kernel class: the body runs once over proxy
    # arrays, which yields both the access pattern (the inspector's
    # input) and the arithmetic (the executor's kernel).  Bind the
    # values; close over the index array.
    def body(i, a):
        a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]]

    recorded = LoopProgram.record(n, body, x=x0, b=b)
    got = Runtime(nproc=8).compile(recorded, executor="self")().x

    ref = x0.copy()
    for i in range(n):                # the sequential original
        ref[i] = ref[i] + b[i] * ref[ia[i]]
    print("\nrecorded loop matches the sequential original:",
          np.array_equal(got, ref))


if __name__ == "__main__":
    main()
