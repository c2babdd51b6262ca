"""Tests for ``repro.program.transform`` — the loop-nest transform layer.

The load-bearing properties:

* iteration-map soundness — every ``IterationMap`` is an invertible
  permutation, and ``MappedKernel`` composes it with any inner kernel
  without touching the kernel protocol;
* transform legality — fission splits exactly along dependence-cycle
  (SCC) boundaries, and skew refuses reorderings that would run a
  dependence forward;
* execution fidelity — every variant of every random multi-statement
  program executes bitwise-identical to the untransformed serial
  oracle, under hand-assembled stage loops and (tests/test_contract.py)
  under ``strategy="auto"``;
* arbitration — on a fissionable multi-statement workload and on a
  skewable 2-D workload, ``strategy="auto"`` picks a transformed
  variant whose simulated makespan strictly beats the best
  untransformed strategy (the ISSUE acceptance bar);
* amortised strategy scores (satellite) — ``expected_executions``
  charges each scheduled candidate its pipeline cost divided by the
  horizon, never touches the no-inspection candidates, and flips the
  cold winner;
* model-priced speculation guard (satellite) — ``break_even_rate`` is
  clamped, monotone in the horizon, and wired into
  ``speculative_plan`` in place of the old constant.
"""

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.errors import ValidationError
from repro.machine import MULTIMAX_320
from repro.program import (
    At,
    IterationMap,
    LoopProgram,
    MappedKernel,
    Statement,
    StagedPlan,
    enumerate_variants,
    extract_statement_dependences,
    fission,
    skew,
)
from repro.runtime import CompiledLoop, Runtime
from repro.speculate import (
    DEFAULT_EXPECTED_EXECUTIONS,
    FALLBACK_THRESHOLD,
    MIN_FALLBACK_RATE,
    AccessLog,
    SpeculativeExecutor,
)
from repro.tuning import ProgramVerdict, enumerate_space, simulate_spec
from repro.workload import MultiSweep, stencil_program, sweep_program
from test_contract import assert_contract, same, serial


# ----------------------------------------------------------------------
# Program generators
# ----------------------------------------------------------------------

def random_multistatement_program(rng, n, num_stmts=3):
    """A random multi-statement program whose bodies read exactly what
    they declare (so replay renaming and extraction agree by
    construction).  Statement ``s`` writes ``a{s}[i]`` from a private
    input plus a random earlier element of a random source statement's
    array — non-commutative arithmetic, so execution order shows."""
    data = {}
    statements = []
    for s in range(num_stmts):
        data[f"a{s}"] = np.zeros(n)
        data[f"b{s}"] = rng.normal(size=n)
    for s in range(num_stmts):
        src = int(rng.integers(0, s + 1))  # read own or earlier statement
        idx = np.array([int(rng.integers(0, i)) if i else 0
                        for i in range(n)], dtype=np.int64)
        counts = np.minimum(np.arange(n, dtype=np.int64), 1)

        def body(i, a, s=s, src=src, idx=idx):
            arr = getattr(a, f"a{s}")
            inp = getattr(a, f"b{s}")
            other = getattr(a, f"a{src}")
            if i:
                arr[i] = inp[i] + 0.5 * other[idx[i]] * (1.0 + 0.01 * i)
            else:
                arr[i] = inp[i]

        statements.append(Statement(
            reads=(At.from_counts(f"a{src}", counts, idx[1:]),
                   At(f"b{s}")),
            writes=(At(f"a{s}"),),
            body=body,
            name=f"s{s}",
        ))
    return LoopProgram(n, statements=statements, data=data, name="random")


# ----------------------------------------------------------------------
# IterationMap / MappedKernel
# ----------------------------------------------------------------------

class TestIterationMap:
    def test_identity(self):
        m = IterationMap.identity(7)
        assert m.is_identity
        assert np.array_equal(m.forward, np.arange(7))
        assert np.array_equal(m.inverse, np.arange(7))

    def test_invertibility_random(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 64, 301):
            m = IterationMap(rng.permutation(n))
            assert np.array_equal(m.inverse[m.forward], np.arange(n))
            assert np.array_equal(m.forward[m.inverse], np.arange(n))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            IterationMap(np.array([0, 0, 2]))
        with pytest.raises(ValidationError):
            IterationMap(np.array([0, 3]))

    def test_mapped_kernel_executes_permuted_index(self):
        n = 16
        seen = []

        class Probe:
            thread_safe = True

            def start(self):
                seen.clear()

            def execute_index(self, i):
                seen.append(i)

            def result(self):
                return np.asarray(seen)

            n_ = n

        probe = Probe()
        probe.n = n
        fwd = np.random.default_rng(1).permutation(n)
        mk = MappedKernel(probe, IterationMap(fwd))
        mk.start()
        for i in range(n):
            mk.execute_index(i)
        assert np.array_equal(mk.result(), fwd)

    def test_mapped_kernel_rejects_size_mismatch(self):
        class Probe:
            n = 4

            def start(self):
                pass

            def execute_index(self, i):
                pass

            def result(self):
                return None

        with pytest.raises(ValidationError):
            MappedKernel(Probe(), IterationMap.identity(5))


# ----------------------------------------------------------------------
# Statement-level extraction
# ----------------------------------------------------------------------

class TestStatementExtraction:
    def test_independent_statements_have_empty_adjacency(self):
        n = 32
        prog = LoopProgram(n, statements=[
            Statement(reads=(At("p"),), writes=(At("q"),)),
            Statement(reads=(At("r"),), writes=(At("t"),)),
        ])
        adj = prog.statement_adjacency()
        assert adj.shape == (2, 2)
        assert not adj.any()
        assert prog.dependence_graph().num_edges == 0

    def test_chain_plus_consumer_adjacency(self):
        # A writes s (chain), B reads s: A -> B, no back edge.
        rng = np.random.default_rng(3)
        prog = sweep_program(rng.normal(size=24), rng.normal(size=24))
        adj = prog.statement_adjacency()
        assert adj[0, 1] and not adj[1, 0] and not adj.diagonal().any()

    def test_single_statement_matches_flat_path(self):
        # One statement: graph and hash are byte-identical to the flat
        # reads=/writes= constructor.
        n = 60
        rng = np.random.default_rng(5)
        ia = rng.integers(0, n, size=n)
        flat = LoopProgram(n, reads=(At("x", ia), At("b")), writes=(At("x"),))
        stmt = LoopProgram(n, statements=[
            Statement(reads=(At("x", ia), At("b")), writes=(At("x"),))])
        assert flat.structure_hash() == stmt.structure_hash()
        g1, g2 = flat.dependence_graph(), stmt.dependence_graph()
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_graph_vs_position_space_oracle(self):
        # The collapsed multi-statement graph equals the single-
        # statement extraction over the interleaved position space
        # (pos = it*S + s), collapsed to iterations, minus self-edges.
        from repro.program.descriptors import ResolvedAccess

        def flatten(acc, n, S, s):
            if acc.identity:
                it = np.arange(n, dtype=np.int64)
                counts = np.ones(n, dtype=np.int64)
                el = it
            else:
                counts = np.diff(acc.indptr).astype(np.int64)
                el = acc.indices.astype(np.int64)
            big = np.zeros(n * S, dtype=np.int64)
            big[np.arange(n) * S + s] = counts
            indptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(big)])
            return ResolvedAccess(acc.array, identity=False,
                                  indptr=indptr, indices=el)

        rng = np.random.default_rng(11)
        for _ in range(5):
            n, S = 20, int(rng.integers(2, 4))
            prog = random_multistatement_program(rng, n, S)
            dep, _ = extract_statement_dependences(
                n, [(rr, ww) for rr, ww in prog._stmt_resolved])
            got = {(int(dep.indices[k]), int(d))
                   for d in range(n)
                   for k in range(dep.indptr[d], dep.indptr[d + 1])}
            N = n * S
            reads, writes = [], []
            for s, (rr, ww) in enumerate(prog._stmt_resolved):
                reads += [flatten(acc, n, S, s) for acc in rr]
                writes += [flatten(acc, n, S, s) for acc in ww]
            fg, _ = extract_statement_dependences(N, [(reads, writes)])
            want = set()
            for d in range(N):
                for k in range(fg.indptr[d], fg.indptr[d + 1]):
                    src, dst = int(fg.indices[k]) // S, d // S
                    if src != dst:
                        want.add((src, dst))
            assert got == want


# ----------------------------------------------------------------------
# Fission
# ----------------------------------------------------------------------

class TestFission:
    def test_single_statement_is_not_fissionable(self):
        prog = LoopProgram(8, reads=(At("b"),), writes=(At("x"),))
        assert fission(prog) is None

    def test_cycle_is_not_fissionable(self):
        # A reads B's array, B reads A's: one SCC, nothing to split.
        n = 16
        idx = np.maximum(np.arange(n) - 1, 0).astype(np.int64)
        prog = LoopProgram(n, statements=[
            Statement(reads=(At("q", idx),), writes=(At("p"),)),
            Statement(reads=(At("p", idx),), writes=(At("q"),)),
        ])
        assert fission(prog) is None

    def test_fission_splits_independent_statements(self):
        prog = LoopProgram(32, statements=[
            Statement(reads=(At("p"),), writes=(At("q"),)),
            Statement(reads=(At("r"),), writes=(At("t"),)),
        ])
        var = fission(prog)
        assert var is not None and var.name == "fission"
        assert [st.statements for st in var.stages] == [(0,), (1,)]
        assert all(st.imap.is_identity for st in var.stages)

    def test_fission_stage_order_respects_dependences(self):
        rng = np.random.default_rng(7)
        prog = sweep_program(rng.normal(size=40), rng.normal(size=40))
        var = fission(prog)
        assert var is not None
        assert [st.statements for st in var.stages] == [(0,), (1,)]
        # Stage partition covers every statement exactly once.
        flat = [j for st in var.stages for j in st.statements]
        assert sorted(flat) == list(range(prog.num_statements))


# ----------------------------------------------------------------------
# Skew
# ----------------------------------------------------------------------

class TestSkew:
    def test_no_shape_means_no_skew(self):
        prog = LoopProgram(16, reads=(At("b"),), writes=(At("x"),))
        assert skew(prog) is None

    def test_illegal_reordering_refused(self):
        # A serial chain crossing row boundaries: (1,0) reads (0,C-1),
        # which runs *later* in anti-diagonal order — skew must refuse.
        R = C = 6
        n = R * C
        idx = np.maximum(np.arange(n) - 1, 0).astype(np.int64)
        counts = np.minimum(np.arange(n, dtype=np.int64), 1)
        prog = LoopProgram(n, statements=[Statement(
            reads=(At.from_counts("g", counts, idx[1:]), At("h")),
            writes=(At("g"),))],
            data={"g": np.zeros(n), "h": np.ones(n)}, shape=(R, C))
        assert skew(prog) is None

    def test_stencil_skew_is_legal_and_antidiagonal(self):
        rng = np.random.default_rng(9)
        R = C = 8
        prog = stencil_program(rng.normal(size=R * C), (R, C))
        var = skew(prog)
        assert var is not None and var.name == "skew"
        (stage,) = var.stages
        fwd = stage.imap.forward
        idx = np.arange(R * C)
        diag = fwd // C + fwd % C
        assert np.all(np.diff(diag) >= 0)  # anti-diagonal sweep order
        # Legality: every dependence still points backward.
        inv = stage.imap.inverse
        dep = prog.dependence_graph()
        assert np.all(inv[dep.indices] < inv[dep.edge_rows])

    def test_skewed_execution_matches_serial(self):
        rng = np.random.default_rng(10)
        R, C = 7, 9
        assert_contract(stencil_program(rng.normal(size=R * C), (R, C)),
                        ("auto", None))


# ----------------------------------------------------------------------
# Variant enumeration and the serial-oracle property
# ----------------------------------------------------------------------

class TestVariants:
    def test_identity_first_and_deduped(self):
        rng = np.random.default_rng(2)
        prog = sweep_program(rng.normal(size=32), rng.normal(size=32))
        variants = enumerate_variants(prog)
        assert variants[0].name == "identity"
        keys = [v.structure_key() for v in variants]
        assert len(keys) == len(set(keys))
        assert {v.name for v in variants} >= {"identity", "fission"}

    def test_every_variant_bitwise_equals_serial_oracle(self):
        # Hand-assemble each variant into a staged loop with a fixed
        # strategy per stage; all must reproduce the serial oracle
        # bitwise.
        rng = np.random.default_rng(20)
        rt = Runtime(nproc=4)
        for trial in range(4):
            n = int(rng.integers(12, 40))
            prog = random_multistatement_program(
                rng, n, num_stmts=int(rng.integers(2, 5)))
            ref = serial(prog)
            for var in enumerate_variants(prog):
                loops = [rt.compile(st.program, executor="self")
                         for st in var.stages]
                tl = CompiledLoop(rt, StagedPlan(var, loops), program=prog)
                assert same(tl().x, ref), f"trial {trial} variant {var.name}"

    def test_auto_bitwise_equals_serial_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(4):
            n = int(rng.integers(16, 64))
            prog = random_multistatement_program(
                rng, n, num_stmts=int(rng.integers(2, 4)))
            assert_contract(prog, ("auto", None), nproc=8)


# ----------------------------------------------------------------------
# Acceptance: auto beats the best untransformed strategy
# ----------------------------------------------------------------------

class TestAutoArbitration:
    def test_fissionable_workload_strict_win(self):
        rng = np.random.default_rng(30)
        n = 96
        prog = sweep_program(rng.normal(size=n), rng.normal(size=n))
        rt = Runtime(nproc=8)
        loop = rt.compile(prog, strategy="auto")
        assert type(loop) is CompiledLoop and loop.plan.kind == "staged"
        pv = loop.verdict
        assert isinstance(pv, ProgramVerdict)
        assert loop.program_verdict is pv
        assert pv.transformed
        assert pv.sim_makespan < pv.baseline_makespan  # strict win
        assert same(loop().x, serial(prog))

    def test_skewable_workload_strict_win(self):
        rng = np.random.default_rng(31)
        R = C = 16
        prog = stencil_program(rng.normal(size=R * C), (R, C))
        rt = Runtime(nproc=8)
        loop = rt.compile(prog, strategy="auto")
        assert type(loop) is CompiledLoop and loop.plan.kind == "staged"
        pv = loop.verdict
        assert pv.variant_name == "skew"
        assert pv.sim_makespan < pv.baseline_makespan  # strict win
        assert same(loop().x, serial(prog))

    def test_single_statement_takes_classic_path(self):
        n = 80
        rng = np.random.default_rng(32)
        ia = rng.integers(0, n, size=n)
        prog = LoopProgram.from_indirection(
            ia, x=rng.normal(size=n), b=rng.normal(size=n))
        rt = Runtime(nproc=8)
        loop = rt.compile(prog, strategy="auto")
        assert type(loop) is CompiledLoop and loop.plan.kind != "staged"
        assert loop.verdict is not None
        assert loop.program_verdict is None  # no variant search ran

    def test_variant_scores_cover_all_variants(self):
        rng = np.random.default_rng(33)
        prog = sweep_program(rng.normal(size=48), rng.normal(size=48))
        rt = Runtime(nproc=8)
        pv = rt._ensure_tuner().tune_program(prog)
        names = {name for name, _ in pv.variant_scores}
        assert names == {v.name for v in enumerate_variants(prog)}
        assert pv.baseline_makespan == dict(pv.variant_scores)["identity"]
        assert pv.sim_makespan == min(s for _, s in pv.variant_scores)
        assert pv.speedup_over_identity >= 1.0

    def test_structure_sharing_dedupes_store_entries(self):
        # Two structurally identical programs share tuning entries:
        # the second compile is a pure cache recall.
        rng = np.random.default_rng(34)
        rt = Runtime(nproc=8)
        for build in (
                lambda: sweep_program(rng.normal(size=40), rng.normal(size=40)),
                lambda: stencil_program(rng.normal(size=256), (16, 16))):
            l1 = rt.compile(build(), strategy="auto")
            l2 = rt.compile(build(), strategy="auto")
            assert l1.verdict.variant_name == l2.verdict.variant_name
            # Per-stage verdicts are recalled from the store, not
            # re-searched, and the scheduled stages are schedule-cache
            # hits.
            for v1, v2 in zip(l1.verdict.stage_verdicts,
                              l2.verdict.stage_verdicts):
                assert (v1.executor, v1.scheduler, v1.assignment) == \
                       (v2.executor, v2.scheduler, v2.assignment)
            for vd, stage_loop in zip(l2.verdict.stage_verdicts,
                                      l2.stage_loops):
                if vd.executor != "speculative":
                    assert stage_loop.cache_hit


# ----------------------------------------------------------------------
# Staged-loop surface
# ----------------------------------------------------------------------

class TestTransformedLoop:
    def _compiled(self, seed=40, n=64):
        rng = np.random.default_rng(seed)
        prog = sweep_program(rng.normal(size=n), rng.normal(size=n))
        rt = Runtime(nproc=8)
        loop = rt.compile(prog, strategy="auto")
        assert loop.plan.kind == "staged"
        return rng, prog, rt, loop

    def test_data_rebind_is_in_place(self):
        rng, prog, rt, loop = self._compiled()
        x2, c2 = rng.normal(size=64), rng.normal(size=64)
        loop2 = loop.rebind(x=x2, c=c2)
        assert loop2 is loop and loop.rebinds == 1
        assert same(loop2().x, serial(prog.with_data(x=x2, c=c2)))

    def test_rejects_per_call_kernel_and_unit_work(self):
        _, _, _, loop = self._compiled(seed=41)
        with pytest.raises(ValidationError):
            loop(kernel=object())
        with pytest.raises(ValidationError):
            loop.simulate(unit_work=np.ones(64))

    def test_report_shape(self):
        _, _, _, loop = self._compiled(seed=42)
        rep = loop.report()
        assert rep["variant"] in {"fission", "skew", "fission+skew"}
        assert rep["num_stages"] >= 2 or rep["variant"] == "skew"
        assert rep["parallel_time"] > 0
        assert "break_even_executions" in rep

    def test_simulate_matches_verdict(self):
        _, _, _, loop = self._compiled(seed=43)
        assert loop.simulate().total_time == pytest.approx(
            loop.verdict.sim_makespan)

    def test_multisweep_consumer(self):
        rng = np.random.default_rng(44)
        rt = Runtime(nproc=8)
        ms = MultiSweep(
            sweep_program(rng.normal(size=56), rng.normal(size=56)), rt)
        out = ms.run()
        assert ms.variant_name == "fission"
        assert same(out, ms.serial_reference())
        # second run rebinds, stays bitwise-correct
        x2, c2 = rng.normal(size=56), rng.normal(size=56)
        assert same(ms.run(x=x2, c=c2), serial(ms.program))


# ----------------------------------------------------------------------
# Satellite: amortised arbitration
# ----------------------------------------------------------------------

class TestAmortisedArbitration:
    def _dense_deps(self):
        from repro.workload import generate_workload

        wl = generate_workload("30-4-3", seed=1)
        return DependenceGraph.from_lower_csr(wl.matrix)

    def test_expected_executions_validation(self):
        with pytest.raises(ValidationError):
            Runtime(nproc=4, expected_executions=0)
        with pytest.raises(ValidationError):
            Runtime(nproc=4, expected_executions=-2)
        with pytest.raises(ValidationError, match="expected_executions"):
            Runtime(nproc=4, expected_executions=float("nan"))
        assert Runtime(nproc=4).expected_executions is None
        assert Runtime(nproc=4, expected_executions=8).expected_executions == 8.0

    def test_scores_charge_pipeline_cost_over_horizon(self):
        deps = self._dense_deps()
        rt = Runtime(nproc=8)
        for spec in enumerate_space(deps.n, rt.nproc):
            base, *_ = simulate_spec(rt, deps, spec)
            amort, *_ = simulate_spec(rt, deps, spec, expected_executions=2.0)
            amort4, *_ = simulate_spec(rt, deps, spec, expected_executions=4.0)
            assert amort >= base
            assert base <= amort4 <= amort  # monotone toward base

    def test_no_inspection_candidates_unpenalized(self):
        deps = self._dense_deps()
        rt = Runtime(nproc=8)
        for spec in enumerate_space(deps.n, rt.nproc):
            if spec.executor not in ("doacross", "speculative"):
                continue
            base, *_ = simulate_spec(rt, deps, spec)
            amort, *_ = simulate_spec(rt, deps, spec, expected_executions=1.0)
            assert amort == pytest.approx(base)

    def test_cold_horizon_flips_the_winner(self):
        # Asymptotically a scheduled strategy wins this dense workload;
        # a cold structure (E=1) cannot amortise its inspection, so a
        # zero-pipeline-cost strategy must win instead.
        deps = self._dense_deps()
        hot = Runtime(nproc=8, tuning=64).tune(deps)
        cold = Runtime(nproc=8, tuning=64, expected_executions=1).tune(deps)
        assert hot.pipeline_cost > 0.0
        assert cold.pipeline_cost == 0.0
        assert cold.executor != hot.executor

    def test_verdicts_cached_per_horizon(self):
        deps = self._dense_deps()
        rt1 = Runtime(nproc=8, tuning=64, expected_executions=1)
        rt16 = Runtime(nproc=8, tuning=64, expected_executions=1e9)
        a1, a2 = rt1.tune(deps), rt1.tune(deps)
        b1 = rt16.tune(deps)
        assert a1.executor == a2.executor
        assert a1.executor != b1.executor  # horizons don't share entries


# ----------------------------------------------------------------------
# Satellite: model-priced speculation guard
# ----------------------------------------------------------------------

class TestBreakEvenRate:
    def _executor(self, n=300, reads_per_iter=1.0, seed=0):
        rng = np.random.default_rng(seed)
        m = int(n * reads_per_iter)
        log = AccessLog(
            n=n, n_elements=n,
            read_it=rng.integers(0, n, m).astype(np.int64),
            read_el=rng.integers(0, n, m).astype(np.int64),
            write_it=np.arange(n, dtype=np.int64),
            write_el=np.arange(n, dtype=np.int64),
        )
        return SpeculativeExecutor(log, 8, MULTIMAX_320, seed=0)

    def test_clamped_to_legacy_band(self):
        for reads in (0.25, 1.0, 4.0, 16.0):
            for E in (None, 1, 4, 64, 1e6):
                r = self._executor(reads_per_iter=reads).break_even_rate(E)
                assert MIN_FALLBACK_RATE <= r <= FALLBACK_THRESHOLD

    def test_monotone_in_horizon(self):
        ex = self._executor()
        rates = [ex.break_even_rate(E) for E in (1, 2, 8, 32, 128, 1024)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_cold_structure_keeps_the_ceiling(self):
        assert self._executor().break_even_rate(1) == FALLBACK_THRESHOLD

    def test_default_horizon(self):
        ex = self._executor()
        assert ex.break_even_rate(None) == pytest.approx(
            ex.break_even_rate(DEFAULT_EXPECTED_EXECUTIONS))

    def test_figure3_shape_is_interior(self):
        # One read of the written array per iteration: the break-even
        # rate lands strictly inside the clamp band at the default
        # horizon — the guard genuinely varies per structure.
        r = self._executor(reads_per_iter=1.0).break_even_rate()
        assert MIN_FALLBACK_RATE < r < FALLBACK_THRESHOLD

    def test_wired_into_compiled_loop(self):
        n = 200
        rng = np.random.default_rng(6)
        ia = np.arange(n)
        prog = LoopProgram.from_indirection(
            ia, x=rng.normal(size=n), b=rng.normal(size=n))
        for E in (None, 1, 1e6):
            rt = Runtime(nproc=8, expected_executions=E)
            loop = rt.compile(prog, strategy="speculative")
            reads, writes = prog.resolved_accesses()
            log = AccessLog.from_program(prog)
            want = SpeculativeExecutor(
                log, rt.nproc, rt.costs).break_even_rate(E)
            assert loop.plan.fallback_threshold == pytest.approx(want)

    def test_high_conflict_still_falls_back(self):
        # An all-backward chain has conflict rate ~1 >> any clamped
        # threshold: even the most amortisation-friendly horizon must
        # still trip the guard.
        n = 120
        ia = np.maximum(np.arange(n) - 1, 0)
        prog = LoopProgram.from_indirection(
            ia, x=np.ones(n), b=np.ones(n))
        rt = Runtime(nproc=4, expected_executions=1e6)
        loop = rt.compile(prog, strategy="speculative")
        threshold = loop.plan.fallback_threshold
        report = loop()
        assert report.speculation.fell_back
        assert report.speculation.conflict_rate >= threshold
