"""Recovery: retry and degrade past real failures, heal a corrupt store.

``Runtime(recovery=...)`` arms :mod:`repro.resilience`: a failed
execution is retried on its tier, then walks the plan's degradation
chain (``threads`` / ``processes`` → ``serial``), and the result is
bitwise the serial oracle's, with the walk in ``report.recovery``.
The stores heal a corrupt entry on their own.  This demo meets two
real failures:

* a kernel that only works on the main thread: every ``threads``
  attempt fails in a worker, surfaces as a typed ``ExecutionError``
  carrying the iteration, is retried, and the run degrades to
  ``serial``;
* a schedule-cache entry overwritten with junk on disk: the next
  session reads it as a miss, re-inspects and rewrites it.

(The tests inject failures at every seam through ``tests/faults.py``.)

Run:  python examples/resilience_demo.py
      REPRO_EXAMPLE_SCALE=0.2 python examples/resilience_demo.py
      REPRO_RECOVERY_REPORT=/tmp/recovery.json python examples/resilience_demo.py
"""

import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import LoopProgram, Runtime

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


def fresh_program(n):
    rng = np.random.default_rng(7)
    ia = rng.integers(0, n, size=n)
    return LoopProgram.from_indirection(ia, x=rng.random(n),
                                        b=rng.random(n))


class MainThreadOnly:
    """A kernel bound to a main-thread-only resource: any worker thread
    that calls it fails, as such a resource would."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_index(self, i):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("resource used off the main thread")
        self._inner.execute_index(i)


def main() -> None:
    n = max(int(2_000 * SCALE), 200)
    nproc = 8
    program = fresh_program(n)
    oracle = Runtime(nproc=nproc).compile(program)().x
    records = []

    # ------------------------------------------------------------------
    # 1. A worker failure on threads: typed, retried, degraded to serial
    # ------------------------------------------------------------------
    rt = Runtime(nproc=nproc, backend="threads", recovery=True)
    report = rt.compile(program)(MainThreadOnly(program.make_kernel()))
    rec = report.recovery
    assert rec is not None and rec.recovered
    assert np.array_equal(report.x, oracle), "recovery changed numbers!"
    print("main-thread-only kernel on threads:")
    print(f"  tiers    : {' -> '.join(rec.tiers)}  (final: {rec.final_tier})")
    for a in rec.attempts:
        print(f"  attempt  : [{a.tier}] {a.error} @ iteration {a.iteration}")
    print("  result   : bitwise identical to the serial oracle\n")
    records.append({"scenario": "main-thread-only kernel", **rec.to_dict()})

    # ------------------------------------------------------------------
    # 2. A store entry overwritten with junk: the next read heals it
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as d:
        Runtime(nproc=nproc, cache_dir=d).compile(program)
        entries = sorted(Path(d).glob("*.npz"))
        for entry in entries:
            entry.write_bytes(b"\x00not a schedule\x00")
        healer = Runtime(nproc=nproc, cache_dir=d)
        healed = healer.compile(program)()
        assert np.array_equal(healed.x, oracle)
        reader = Runtime(nproc=nproc, cache_dir=d)
        reader.compile(program)
        heals = healer.cache.stats.disk_heals
        hits = reader.cache.stats.disk_hits
        print("schedule-cache entry overwritten with junk:")
        print(f"  next read: disk_heals={heals}, re-inspected and "
              f"rewrote the entry")
        print(f"  then     : disk_hits={hits} (the healed entry serves)\n")
        assert heals == len(entries) and hits == 1
        records.append({"scenario": "corrupt store entry", "heals": heals,
                        "disk_hits_after": hits})

    # ------------------------------------------------------------------
    # Recovery-report artifact (CI uploads it)
    # ------------------------------------------------------------------
    out = os.environ.get("REPRO_RECOVERY_REPORT")
    if out:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "scenarios": records}, fh, indent=2)
        print(f"wrote recovery report: {out}")


if __name__ == "__main__":
    main()
