"""The ledger's metric tables — names, units, directions, bounds.

``BENCHMARK.json`` at the repository root repeats these tables (the
test checks the two agree).  Every workload emits every name; a layer
a workload never enters reads 0, which is the "no change" prediction
made literal.  ``moves`` records, for each per-layer metric, which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "EXACT", "WORKLOADS"]

#: name -> one-line reason the workload exists (also in BENCHMARK.json).
WORKLOADS = {
    "fig3_cold": "quick-start on a never-seen Figure 3 structure: "
                 "declare, default compile, one run; simulator and "
                 "toposort dominate",
    "trisolve_warm": "PCGPAK steady state on the L5-PT ILU(0) factor: "
                     "rebind a right-hand side, run batched; inspector, "
                     "simulator, tuner and stores idle",
    "auto_cold": "cold strategy=auto on a Table 5 synthetic mesh: the "
                 "tuner search is most of the op, execution a sliver",
    "transform_warm": "warm rebind through the per-iteration replay "
                      "kernels of a fissioned sweep and a skewed stencil",
    "spec_sparse": "inspection-free speculative tier on a sparse-update "
                   "loop with 0.5% backward references; inspector and "
                   "tuner bypassed",
    "store_restart": "process restart over persisted stores: 12 disk "
                     "hits beside 1 cold inspect with a locked atomic "
                     "write",
}

#: (name, unit, better, bound, definition)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import time plus the median of three full set-ups (input "
     "generation, oracles, ILU, set-up compiles, warm-up ops)"),
    ("op_s.p50", "s", "lower", 0.25,
     "median seconds per op, tracing off; like every time here, wall "
     "time over the host slowdown measured beside it (README, 'host "
     "drift')"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "timed ops over the sum of their times (tail-sensitive where the "
     "median is not)"),
    ("peak_rss_mb", "MiB", "lower", 0.10,
     "ru_maxrss of the workload's child interpreter at exit"),
)

#: Metrics that must repeat exactly for one seed (model µs and counts).
EXACT = frozenset({
    "model_speedup", "fail_frac", "program.edges", "inspector.wavefronts",
    "tuning.candidates", "tuning.sims", "tuning.variants",
    "cache.disk_bytes_per_entry", "cache.hit_frac", "executor.iters",
    "executor.batches", "speculate.conflict_rate", "speculate.re_executed",
    "speculate.useful_frac", "speculate.shadow_bytes", "transform.stages",
})

_COLD = "fig3_cold, auto_cold, store_restart"

#: (name, unit, better, timed from outside, moves)
PER_LAYER = (
    ("model_speedup", "ratio", "higher",
     "sim.seq_time / sim.total_time of the plan the op executed",
     "guards plan quality on every workload; model µs, exact per seed"),
    ("fail_frac", "ratio", "lower",
     "ops that raised or differed bitwise from the oracle / attempted",
     "must stay 0 everywhere"),
    # program -----------------------------------------------------------
    ("program.declare_s", "s", "lower",
     "LoopProgram.from_indirection / from_csr",
     f"op_s.p50 on {_COLD}, spec_sparse"),
    ("program.extract_s", "s", "lower", "Inspector.dependences_of(prog)",
     f"op_s.p50 on {_COLD}"),
    ("program.edges", "count", "lower", "dep.num_edges", "input size"),
    ("program.make_kernel_s", "s", "lower", "prog.make_kernel()",
     "op_s.p50 on cold workloads (<1%)"),
    ("program.rebind_s", "s", "lower", "loop.rebind(...)",
     "op_s.p50 on trisolve_warm, transform_warm (<1%)"),
    # inspector ---------------------------------------------------------
    ("inspector.wavefront_s", "s", "lower", "compute_wavefronts(dep)",
     "op_s.p50 on fig3_cold, store_restart; none on trisolve_warm, "
     "spec_sparse"),
    ("inspector.schedule_s", "s", "lower",
     "partitioner + scheduler from the registries",
     "op_s.p50 on fig3_cold, store_restart"),
    ("inspector.wavefronts", "count", "lower", "wavefront count",
     "input shape"),
    ("inspector.idx_per_s", "1/s", "higher",
     "n / inspector.wavefront_s", "rate form of wavefront_s"),
    ("inspector.price_s", "s", "lower",
     "Inspector.price_inspection(dep, wf, nproc, owner)",
     "op_s.p50 on fig3_cold (17%), store_restart, auto_cold"),
    # simulator ---------------------------------------------------------
    ("simulator.simulate_s", "s", "lower", "executor.simulate()",
     "op_s.p50 on fig3_cold (26%); auto_cold through tuning.search_s; "
     "none on warm workloads (memoised in set-up)"),
    ("simulator.items_per_s", "1/s", "higher",
     "n / simulator.simulate_s", "rate form of simulate_s"),
    # tuning ------------------------------------------------------------
    ("tuning.enumerate_s", "s", "lower", "enumerate_space(n, nproc)",
     "op_s.p50 on auto_cold"),
    ("tuning.candidates", "count", "lower",
     "tuner.candidates of an observed replica op",
     "op_s.p50 on auto_cold"),
    ("tuning.search_s", "s", "lower", "rt.tune(dep), cold",
     "op_s.p50 on auto_cold (81%); must leave model_speedup unchanged"),
    ("tuning.sims", "count", "lower",
     "tuner.sims of an observed replica op", "op_s.p50 on auto_cold"),
    ("tuning.warm_lookup_s", "s", "lower", "rt.tune(dep) again, warm",
     "op_s.p50 on store_restart (the auto structure)"),
    ("tuning.variants", "count", "lower", "len(enumerate_variants(prog))",
     "setup_s on transform_warm"),
    # cache -------------------------------------------------------------
    ("cache.key_s", "s", "lower", "ScheduleCache.key_for(...)",
     f"op_s.p50 on {_COLD}"),
    ("cache.mem_get_s", "s", "lower", "cache.get(key, dep), memory hit",
     "none of the ops (diagnostic)"),
    ("cache.disk_get_s", "s", "lower",
     "cache.get(key, dep) on a fresh instance over the directory",
     "op_s.p50 on store_restart (12 per op)"),
    ("cache.put_s", "s", "lower", "cache.put(key, inspection)",
     "op_s.p50 on store_restart (persisted); in-memory on fig3_cold"),
    ("cache.disk_bytes_per_entry", "B", "lower",
     "bytes under cache_dir / persisted entries", "store_restart"),
    ("cache.hit_frac", "ratio", "higher", "rt.cache_stats.hit_rate",
     "store_restart (12/13)"),
    # runtime -----------------------------------------------------------
    ("runtime.new_s", "s", "lower", "Runtime(nproc=8, ...)",
     "op_s.p50 on cold workloads"),
    ("runtime.compile_s", "s", "lower", "rt.compile(...)",
     "op_s.p50 on all cold workloads"),
    ("runtime.call_s", "s", "lower", "loop()", "op_s.p50 everywhere"),
    ("runtime.compile_glue_s", "s", "lower",
     "compile_s minus the staged compile spans",
     "registry resolution, loop construction"),
    ("runtime.call_glue_s", "s", "lower",
     "call_s minus the staged call spans", "RunReport, backend dispatch"),
    # executor ----------------------------------------------------------
    ("executor.build_s", "s", "lower",
     "executor_registry.get(name)(inspection, nproc, costs)",
     "op_s.p50 on cold workloads"),
    ("executor.order_s", "s", "lower", "executor.execution_order()",
     "op_s.p50 on fig3_cold (23%)"),
    ("executor.run_s", "s", "lower", "executor.run(kernel)",
     "op_s.p50 on trisolve_warm, transform_warm (99%), fig3_cold (25%); "
     "<8% on auto_cold"),
    ("executor.iters", "count", "lower", "iterations executed per op",
     "input size"),
    ("executor.batches", "count", "lower",
     "execute_batch calls per op (num_phases; iterations when the "
     "executor runs one index at a time)", "ROADMAP item 2"),
    ("executor.ns_per_iter", "ns", "lower",
     "executor.run_s / executor.iters", "rate form of run_s"),
    # speculate ---------------------------------------------------------
    ("speculate.log_s", "s", "lower", "AccessLog.from_source(prog)",
     "op_s.p50 on spec_sparse only"),
    ("speculate.key_s", "s", "lower",
     "speculation_key(log, ...) + tuning-store lookup",
     "op_s.p50 on spec_sparse only"),
    ("speculate.plan_s", "s", "lower", "SpeculativeExecutor.plan()",
     "op_s.p50 on spec_sparse only"),
    ("speculate.run_s", "s", "lower", "SpeculativeExecutor.run(kernel)",
     "op_s.p50 on spec_sparse only"),
    ("speculate.conflict_rate", "ratio", "lower",
     "report.speculation.conflict_rate", "spec_sparse"),
    ("speculate.re_executed", "count", "lower",
     "report.speculation.re_executed", "spec_sparse"),
    ("speculate.useful_frac", "ratio", "higher", "1 - re_executed / n",
     "spec_sparse"),
    ("speculate.shadow_bytes", "B", "lower",
     "report.speculation.shadow_bytes", "peak_rss_mb on spec_sparse"),
    # transform ---------------------------------------------------------
    ("transform.variants_s", "s", "lower", "enumerate_variants(prog)",
     "setup_s on transform_warm; op_s.p50 nowhere"),
    ("transform.stages", "count", "lower", "len(loop.stage_loops)",
     "transform_warm"),
    # backends ----------------------------------------------------------
    ("backends.threads_run_s", "s", "lower",
     "loop(backend='threads', with_sim=False) at nproc=min(2, cores)",
     "diagnostic on trisolve_warm"),
    ("backends.processes_run_s", "s", "lower",
     "loop(backend='processes', with_sim=False) at nproc=min(2, cores)",
     "diagnostic on trisolve_warm"),
    # driver ------------------------------------------------------------
    ("driver.op_s.p90", "s", "lower",
     "90th percentile op time (meaningful from 100 samples)", "-"),
    ("driver.op_s.wall_p50", "s", "lower",
     "median raw wall seconds per op, host drift included", "-"),
    ("driver.host_slowdown", "ratio", "lower",
     "median of the reference kernel's time beside each op over its "
     "time on the quiet build host", "-"),
    ("driver.samples", "count", "higher", "timed ops, tracing off", "-"),
    ("driver.serial_op_s", "s", "lower",
     "the plain Python loop on the op's inputs, every 10th op", "-"),
    ("driver.speedup_vs_serial", "ratio", "higher",
     "driver.serial_op_s / op_s.p50", "-"),
    ("driver.untraced_compile_s", "s", "lower",
     "rt.compile(...) in the untraced pass", "-"),
    ("driver.untraced_call_s", "s", "lower",
     "loop() in the untraced pass", "-"),
    ("driver.trace_overhead_frac", "ratio", "lower",
     "median staged op / op_s.p50 - 1", "-"),
    ("driver.trace_coverage_frac", "ratio", "higher",
     "sum of layer self-times / staged op wall (must be >= 0.90)", "-"),
    ("driver.phase_dev_max_frac", "ratio", "lower",
     "largest relative gap between a report.phases entry of an "
     "observed replica op and the matching outside spans", "-"),
)
