"""Multi-process stress for the crash-safe persistent stores.

N forked writers hammer one shared ``TuningStore`` directory and one
shared ``ScheduleCache`` directory — some with injected partial-write
faults — and the parent then audits the survivors:

* **zero lost updates** — the lock-protected ``index.json`` sequence
  equals the sum of every worker's successful ``disk_stores``, and the
  per-key store counts add up (a torn read-modify-write would drop
  one);
* **no corrupt survivors** — after one healing read pass, a fresh
  store serves every key from disk (hits == keys, misses == 0);
* compiles against the shared schedule cache keep working mid-stress.

``REPRO_STRESS_TRIALS`` scales the trial count (CI runs the 3-seed
chaos matrix over the default, for 30+ trials total).
"""

import json
import multiprocessing as mp
import os

import numpy as np
import pytest

from faults import FaultPlan, armed
from repro import LoopProgram, Runtime, TuningStore
from repro.tuning.store import TuningVerdict

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="store stress requires POSIX fork",
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
TRIALS = int(os.environ.get("REPRO_STRESS_TRIALS", "10"))
WRITERS = 4
KEYS = 6


def _verdict(worker: int, step: int) -> TuningVerdict:
    return TuningVerdict(
        executor="self", scheduler="local", assignment="wrapped",
        balance="wrapped", sim_makespan=100.0 + worker, seq_time=400.0,
        candidates=4, sims=4, seed=SEED,
        signature=f"stress:w{worker}:s{step}",
    )


def _writer(worker: int, trial: int, tuning_dir, cache_dir, out_path):
    """One stressor process: tuning puts + cached compiles, maybe faulty."""
    # Workers 0 and 1 corrupt some of their writes (truncate vs
    # garbage); the others write clean.  Budgets are small so most
    # writes succeed and the index keeps advancing.
    faults = FaultPlan()  # fires nothing
    if worker == 0:
        faults = FaultPlan("store", store="tuning", times=2,
                           seed=SEED + trial)
    elif worker == 1:
        faults = FaultPlan("store", mode="garbage", times=2,
                           seed=SEED + trial)
    store = TuningStore(persist_dir=tuning_dir)
    rng = np.random.default_rng(1000 + worker)
    rt = Runtime(nproc=2, cache_dir=cache_dir, tuning=None)
    with armed(faults):  # in this forked writer only
        for step in range(KEYS):
            store.put(f"stress-key-{step}", _verdict(worker, step))
        for j in range(2):
            n = 40 + 10 * j
            ia = rng.integers(0, n, size=n)
            prog = LoopProgram.from_indirection(ia, x=rng.random(n),
                                                b=rng.random(n))
            rt.compile(prog)

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "tuning_stores": store.stats.disk_stores,
            "cache_stores": rt.cache.stats.disk_stores,
            "lock_waits": store.stats.lock_waits + rt.cache.stats.lock_waits,
        }, fh)


def _run_trial(trial: int, base) -> dict:
    tuning_dir = base / f"tuning-{trial}"
    cache_dir = base / f"cache-{trial}"
    tuning_dir.mkdir()
    cache_dir.mkdir()
    procs, outs = [], []
    for w in range(WRITERS):
        out = base / f"worker-{trial}-{w}.json"
        outs.append(out)
        p = mp.get_context("fork").Process(
            target=_writer,
            args=(w, trial, str(tuning_dir), str(cache_dir), str(out)))
        p.start()
        procs.append(p)
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0, f"writer crashed (exit {p.exitcode})"
    stats = [json.loads(o.read_text()) for o in outs]
    return {
        "tuning_dir": tuning_dir,
        "cache_dir": cache_dir,
        "tuning_stores": sum(s["tuning_stores"] for s in stats),
        "cache_stores": sum(s["cache_stores"] for s in stats),
    }


class TestStoreStress:
    def test_no_lost_updates_under_concurrent_faulty_writers(self, tmp_path):
        for trial in range(TRIALS):
            outcome = _run_trial(trial, tmp_path)

            # --- zero lost updates: every successful store is indexed.
            audit = TuningStore(persist_dir=str(outcome["tuning_dir"]))
            index = audit.disk_index()
            keyed = {k: v for k, v in index.items() if k != "_seq"}
            assert index["_seq"] == outcome["tuning_stores"], trial
            assert sum(v["stores"] for v in keyed.values()) == \
                outcome["tuning_stores"], trial
            assert set(keyed) == {f"stress-key-{s}" for s in range(KEYS)}

            cache_audit = Runtime(
                nproc=2, cache_dir=str(outcome["cache_dir"]), tuning=None,
            ).cache
            cache_index = cache_audit.disk_index()
            assert cache_index["_seq"] == outcome["cache_stores"], trial

            # --- healing pass: corrupt survivors read as misses, and a
            # re-put repairs them; afterwards every key is a disk hit.
            for step in range(KEYS):
                key = f"stress-key-{step}"
                if audit.get(key) is None:
                    audit.put(key, _verdict(-1, step))
            fresh = TuningStore(persist_dir=str(outcome["tuning_dir"]))
            for step in range(KEYS):
                verdict = fresh.get(f"stress-key-{step}")
                assert verdict is not None, (trial, step)
                assert verdict.signature.startswith("stress:"), (trial, step)
            assert fresh.stats.disk_hits == KEYS
            assert fresh.stats.disk_heals == 0
            assert fresh.stats.misses == 0

    def test_compiles_survive_faulty_cache_neighbors(self, tmp_path):
        # One trial focused on the schedule cache: a fresh session can
        # recompile every structure the stressed cache dir holds (heals
        # and re-inspects where a corrupt write landed, never crashes).
        outcome = _run_trial(999, tmp_path)
        rng = np.random.default_rng(1000)  # worker 0's structures
        rt = Runtime(nproc=2, cache_dir=str(outcome["cache_dir"]),
                     tuning=None)
        for j in range(2):
            n = 40 + 10 * j
            ia = rng.integers(0, n, size=n)
            prog = LoopProgram.from_indirection(ia, x=rng.random(n),
                                                b=rng.random(n))
            loop = rt.compile(prog)
            report = loop()
            assert report.x is not None
