"""Benchmark: program variants × strategies vs the best untransformed plan.

The acceptance bar for :mod:`repro.program.transform`:

* on a fissionable fused sweep (serial chain + dependent DOALL) and on
  a skewable row-major 2-D relaxation, ``strategy="auto"`` must return
  a *transformed* plan whose simulated makespan strictly beats the
  best untransformed strategy for the same program;
* every transformed execution must be bitwise identical to the
  untransformed serial oracle;
* the variant search must amortise: recompiling a structurally
  identical program recalls per-stage verdicts from the tuning store
  instead of re-searching.

``REPRO_BENCH_TRANSFORM_SCALE`` (a float, default 1.0) scales the
problem sizes down for smoke runs in CI.
"""

import os
import time

import numpy as np

from repro.program import enumerate_variants
from repro.runtime import Runtime
from repro.util.tables import TextTable
from repro.workload import stencil_program, sweep_program

SCALE = float(os.environ.get("REPRO_BENCH_TRANSFORM_SCALE", "1.0"))
NPROC = 16
SWEEP_N = max(int(20_000 * SCALE), 1_000)
GRID_SIDE = max(int(96 * SCALE), 24)


def _serial_oracle(prog):
    kernel = prog.make_kernel()
    kernel.start()
    for i in range(prog.n):
        kernel.execute_index(i)
    out = kernel.result()
    if isinstance(out, dict):
        return out
    (name,) = {acc.array for acc in prog.resolved_accesses()[1]}
    return {name: out}


def _outputs(prog, report):
    x = report.x
    if isinstance(x, dict):
        return x
    names = []
    for acc in prog.resolved_accesses()[1]:
        if acc.array not in names:
            names.append(acc.array)
    return {names[0]: x}


def _programs(seed=2026):
    rng = np.random.default_rng(seed)
    return {
        "fused sweep": sweep_program(
            rng.normal(size=SWEEP_N), rng.normal(size=SWEEP_N)),
        "2-D relaxation": stencil_program(
            rng.normal(size=GRID_SIDE * GRID_SIDE), (GRID_SIDE, GRID_SIDE)),
    }


def test_variant_scores(save_table):
    """Simulated makespan of every variant of both flagship programs."""
    table = TextTable(
        headers=["program", "n", "variant", "stages",
                 "sim makespan (model-ms)", "vs identity"],
        formats=[None, "d", None, "d", ".2f", ".2f"],
        title=f"program variants x strategies ({NPROC} processors)",
    )
    for label, prog in _programs().items():
        rt = Runtime(nproc=NPROC)
        pv = rt._ensure_tuner().tune_program(prog)
        stage_count = {v.name: len(v.stages) for v in enumerate_variants(prog)}
        baseline = pv.baseline_makespan
        for name, score in pv.variant_scores:
            table.add_row(label, prog.n, name, stage_count[name],
                          score / 1000.0, baseline / score)
        # Acceptance: a transformed variant strictly beats identity.
        assert pv.transformed
        assert pv.sim_makespan < pv.baseline_makespan
    print(table.render())
    save_table("transform_variant_scores", table)


def test_transformed_bitwise_and_strict_win(save_table):
    """auto beats the best untransformed plan and stays bitwise-serial."""
    table = TextTable(
        headers=["program", "winner", "untransformed (model-ms)",
                 "transformed (model-ms)", "win", "bitwise"],
        formats=[None, None, ".2f", ".2f", ".3f", None],
        title=f"strategy='auto' with transforms (n sweep={SWEEP_N}, "
              f"grid={GRID_SIDE}x{GRID_SIDE}, {NPROC} processors)",
    )
    for label, prog in _programs().items():
        rt = Runtime(nproc=NPROC)
        loop = rt.compile(prog, strategy="auto")
        assert loop.plan.kind == "staged", (
            f"{label}: expected a transformed winner")
        pv = loop.verdict
        out = _outputs(prog, loop())
        ref = _serial_oracle(prog)
        bitwise = all(np.array_equal(out[k], ref[k]) for k in ref)
        table.add_row(label, pv.variant_name,
                      pv.baseline_makespan / 1000.0,
                      pv.sim_makespan / 1000.0,
                      pv.baseline_makespan / pv.sim_makespan,
                      "yes" if bitwise else "NO")
        assert bitwise
        assert pv.sim_makespan < pv.baseline_makespan
    print(table.render())
    save_table("transform_strict_win", table)


def test_tune_cost_amortises(save_table):
    """Variant search is paid once per structure, then recalled."""
    table = TextTable(
        headers=["program", "cold tune (host ms)", "warm recall (host ms)",
                 "speedup", "warm cache-hit"],
        formats=[None, ".1f", ".1f", ".1f", None],
        title="variant-search amortisation across structurally "
              "identical compiles",
    )
    rng = np.random.default_rng(7)
    for label, prog in _programs().items():
        rt = Runtime(nproc=NPROC)
        t0 = time.perf_counter()
        rt.compile(prog, strategy="auto")
        cold = (time.perf_counter() - t0) * 1e3
        if label == "fused sweep":
            prog2 = sweep_program(rng.normal(size=prog.n),
                                  rng.normal(size=prog.n))
        else:
            prog2 = stencil_program(rng.normal(size=prog.n), prog.shape)
        t0 = time.perf_counter()
        loop2 = rt.compile(prog2, strategy="auto")
        warm = (time.perf_counter() - t0) * 1e3
        scheduled_hit = all(
            sl.cache_hit for vd, sl in zip(loop2.verdict.stage_verdicts,
                                           loop2.stage_loops)
            if vd.executor != "speculative")
        table.add_row(label, cold, warm,
                      cold / warm if warm > 0 else float("inf"),
                      "yes" if scheduled_hit else "no")
        assert scheduled_hit
        assert warm <= cold
    print(table.render())
    save_table("transform_tune_amortisation", table)
