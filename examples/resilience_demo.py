"""Resilience: inject faults, watch recovery, audit the stores.

``Runtime(faults=..., recovery=...)`` arms the :mod:`repro.resilience`
layer — deterministic seeded fault injection at the runtime's seams
and a retry/degradation discipline that turns every injected failure
into a successful run whose numbers are bitwise identical to the
no-fault serial oracle.  This demo walks each fault class:

* a **kernel exception** mid-loop, retried on the same tier;
* a **worker death** in the ``threads`` backend, wrapped into a typed
  ``ExecutionError`` carrying the originating iteration;
* a **worker stall** cancelled by the watchdog and degraded
  ``threads -> serial``;
* a **forced timeout** (the watchdog seam itself);
* a **partial store write** that later reads self-heal;
* a **speculative** loop degrading to the classic inspector pipeline
  for one call — without being permanently demoted.

Run:  python examples/resilience_demo.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/resilience_demo.py
      REPRO_RECOVERY_REPORT=/tmp/recovery.json python examples/resilience_demo.py
"""

import json
import os
import tempfile

import numpy as np

from repro import FaultPlan, LoopProgram, Runtime

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
rng = np.random.default_rng(1989)


def fresh_program(n):
    rng = np.random.default_rng(7)
    ia = rng.integers(0, n, size=n)
    return LoopProgram.from_indirection(ia, x=rng.random(n),
                                        b=rng.random(n))


def main() -> None:
    n = max(int(2_000 * SCALE), 200)
    nproc = 8
    oracle = Runtime(nproc=nproc).compile(fresh_program(n))().x
    records = []

    def show(title, plan, report):
        rec = report.recovery
        assert rec is not None and rec.recovered
        assert np.array_equal(report.x, oracle), "recovery changed numbers!"
        print(f"{title}:")
        print(f"  injected : {plan.fired}")
        print(f"  tiers    : {' -> '.join(rec.tiers)}"
              f"  (final: {rec.final_tier})")
        for a in rec.attempts:
            where = f" @ iteration {a.iteration}" if a.iteration is not None \
                else ""
            print(f"  attempt  : [{a.tier}] {a.error}{where}")
        print(f"  result   : bitwise identical to the serial oracle\n")
        records.append({"scenario": title, **rec.to_dict()})

    # ------------------------------------------------------------------
    # 1. Kernel exception — same-tier retry
    # ------------------------------------------------------------------
    plan = FaultPlan.kernel_exception(seed=SEED)
    rt = Runtime(nproc=nproc, faults=plan, recovery=True)
    show("kernel exception (serial retry)", plan,
         rt.compile(fresh_program(n))())

    # ------------------------------------------------------------------
    # 2. Worker death in the threads backend — typed error, retried
    # ------------------------------------------------------------------
    plan = FaultPlan.worker_death(seed=SEED)
    rt = Runtime(nproc=nproc, backend="threads", faults=plan, recovery=True)
    show("worker death (threads)", plan, rt.compile(fresh_program(n))())

    # ------------------------------------------------------------------
    # 3. Worker stall — watchdog cancels, degrades threads -> serial
    # ------------------------------------------------------------------
    plan = FaultPlan.worker_stall(seconds=30.0, times=2, seed=SEED)
    rt = Runtime(nproc=nproc, backend="threads", faults=plan, recovery=True)
    show("worker stall (watchdog -> serial)", plan,
         rt.compile(fresh_program(n))(timeout=0.5))

    # ------------------------------------------------------------------
    # 4. Forced timeout — the watchdog seam itself
    # ------------------------------------------------------------------
    plan = FaultPlan.forced_timeout()
    rt = Runtime(nproc=nproc, backend="threads", faults=plan, recovery=True)
    show("forced timeout (threads)", plan, rt.compile(fresh_program(n))())

    # ------------------------------------------------------------------
    # 5. Partial store write — corrupt entry, later reads self-heal
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        plan = FaultPlan.store_partial_write()
        rt = Runtime(nproc=nproc, cache_dir=d, faults=plan, recovery=True)
        rt.compile(fresh_program(n))
        healer = Runtime(nproc=nproc, cache_dir=d)
        healer.compile(fresh_program(n))
        print("partial store write (schedule cache):")
        print(f"  injected : {plan.fired}")
        print(f"  next read: disk_heals={healer.cache.stats.disk_heals}, "
              f"re-inspected and rewrote the entry")
        reader = Runtime(nproc=nproc, cache_dir=d)
        reader.compile(fresh_program(n))
        print(f"  then     : disk_hits={reader.cache.stats.disk_hits} "
              f"(healed entry serves cleanly)\n")
        records.append({"scenario": "partial store write",
                        "heals": healer.cache.stats.disk_heals,
                        "disk_hits_after": reader.cache.stats.disk_hits})

    # ------------------------------------------------------------------
    # 6. Speculative loop — transient degradation to the classic path
    # ------------------------------------------------------------------
    plan = FaultPlan.kernel_exception(times=3, seed=SEED)
    rt = Runtime(nproc=nproc, tuning=None, faults=plan, recovery=True)
    loop = rt.compile(fresh_program(n), strategy="speculative")
    show("speculative -> classic (transient)", plan, loop())
    clean = loop()
    assert clean.recovery is None
    print("speculative loop after the transient fault:")
    print("  next call runs speculatively again (no permanent demotion)\n")

    # ------------------------------------------------------------------
    # Recovery-report artifact (CI uploads it)
    # ------------------------------------------------------------------
    out = os.environ.get("REPRO_RECOVERY_REPORT")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"seed": SEED, "n": n, "scenarios": records}, fh,
                      indent=2)
        print(f"wrote recovery report: {out}")


if __name__ == "__main__":
    main()
