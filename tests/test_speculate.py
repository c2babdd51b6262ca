"""Tests for :mod:`repro.speculate` — optimistic DOALL execution.

The shadow-scan detection against the pure-Python oracle, the
adversarial workloads of the LRPD literature (all-conflict chains,
zero-conflict DOALLs, duplicate writes), a repair set that is the
violated set, run once and never attempted, a speculative loop that
keeps speculating however much it conflicts, seeded reproducibility,
and the registry / tuner / backend integration seams.  That every
speculative compile equals the serial loop is tests/test_contract.py's
property.
"""

import dataclasses
import gc
import multiprocessing as mp
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LoopProgram, Runtime
from repro.core.executor import (
    GenericLoopKernel,
    SerialExecutor,
    SimpleLoopKernel,
    TriangularSolveKernel,
)
from repro.core.inspector import Inspector
from repro.core.reference import speculation_violations
from repro.errors import ValidationError
from repro.machine.simulator import SimResult
from repro.program.transform import fission
from repro.runtime.registry import executor_registry
from repro.sparse.build import random_lower_triangular
from repro.speculate import (
    AccessLog,
    ConflictReport,
    SpeculativeExecutor,
    scan_accesses,
    speculation_key,
)
from repro.tuning import enumerate_space
from repro.workload import sweep_program
from strategies import (
    indirection_arrays,
    loop_programs,
    residue_programs,
    seeds,
    sparse_conflict_ia,
)
from test_contract import assert_contract, same_sim


def serial_simple(ia, x0, b):
    return SerialExecutor().run(SimpleLoopKernel(x0, b, ia))


def counted_simulation(ex, unit_work=None) -> SimResult:
    """:meth:`SpeculativeExecutor.simulate` as first written: read and
    write counts by ``bincount``, the attempt cost and its prefix in
    separate arrays."""
    plan, log, p, costs = ex.plan(), ex.log, ex.nproc, ex.costs
    n = log.n
    counts_r = np.bincount(log.read_it, minlength=n).astype(np.float64)
    counts_w = np.bincount(log.write_it, minlength=n).astype(np.float64)
    base = costs.base_work(counts_r) if unit_work is None else unit_work
    shared = costs.shared_factor(p)
    w = costs.t_check * counts_r
    w += costs.t_inc * counts_w
    w *= shared
    w += base
    prefix = np.zeros(n + 1)
    np.cumsum(w, out=prefix[1:])
    busy = np.zeros(p)
    for k, (lo, hi) in enumerate(plan.chunk_bounds):
        busy[k % p] += prefix[hi] - prefix[lo]
    attempt = float(busy.max()) if n else 0.0
    detect = shared * costs.t_check * log.num_events / p
    total = attempt + detect
    if plan.repair_indices.size:
        repair = float(base[plan.repair_indices].sum())
        busy[0] += repair
        total += repair
    return SimResult(
        mode="speculative", nproc=p, total_time=float(total),
        seq_time=float(base.sum()), busy=busy,
        idle=np.maximum(total - busy, 0.0),
        check_time=float(detect + shared * costs.t_check * counts_r.sum()),
        inc_time=float(shared * costs.t_inc * log.write_it.shape[0]),
        num_phases=plan.report.attempts)


def near_sim(got, want, rel=1e-12) -> bool:
    """Two ``SimResult`` objects equal field for field up to rounding:
    within ``rel`` of the makespan."""
    scale = rel * abs(want.total_time)
    return all(np.allclose(getattr(got, f.name), getattr(want, f.name),
                           rtol=rel, atol=scale)
               if isinstance(getattr(want, f.name), (float, np.ndarray))
               else getattr(got, f.name) == getattr(want, f.name)
               for f in dataclasses.fields(want))


def residue_wavefronts(dep, flagged) -> dict:
    """Phase 1's oracle: the wavefront number of every flagged iteration
    in the extracted graph restricted to flagged pairs."""
    wf = {}
    for i in np.flatnonzero(flagged).tolist():   # predecessors first
        preds = dep.indices[dep.indptr[i]:dep.indptr[i + 1]].tolist()
        wf[i] = 1 + max((wf[j] for j in preds if j in wf), default=-1)
    return wf


class TestShadowScan:
    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n, m, e = 50, 120, 30
            r_it = rng.integers(0, n, m).astype(np.int64)
            r_el = rng.integers(0, e, m).astype(np.int64)
            w_it = rng.integers(0, n, m).astype(np.int64)
            w_el = rng.integers(0, e, m).astype(np.int64)
            log = AccessLog(n=n, n_elements=e, read_it=r_it, read_el=r_el,
                            write_it=w_it, write_el=w_el)
            scan = scan_accesses(log)
            oracle = speculation_violations(n, r_it, r_el, w_it, w_el)
            assert np.array_equal(scan.violated, oracle)

    @settings(max_examples=80, deadline=None)
    @given(loop_programs())
    def test_identity_scan_is_the_scatter_scan(self, prog):
        # Identity writes scan with one compare and no shadow; the
        # general scatter over the same events and the oracle agree.
        logs = [AccessLog.from_source(prog),
                AccessLog.from_dependences(prog.dependence_graph())]
        for log in logs:
            if not log.identity_writes:
                continue
            assert log.write_it is log.write_el
            assert np.array_equal(log.write_it, np.arange(log.n))
            fast = scan_accesses(log)
            assert fast.first_write is None
            assert fast.nbytes == fast.violated.nbytes
            general_log = dataclasses.replace(log, identity_writes=False)
            general = scan_accesses(general_log)
            oracle = speculation_violations(
                log.n, log.read_it, log.read_el, log.write_it, log.write_el)
            assert np.array_equal(fast.violated, general.violated)
            assert np.array_equal(fast.violated, oracle)
            # ... and the price skips the write count, bit for bit.
            assert same_sim(SpeculativeExecutor(log, 3, seed=0).simulate(),
                            SpeculativeExecutor(general_log, 3,
                                                seed=0).simulate())

    def test_log_borrows_the_index_and_counts_each_buffer_once(self):
        # A Figure 3 log reads the program's read-only copy of the
        # declared index, not the caller's buffer, and one iteration
        # index serves its reads and its identity writes.
        ia = sparse_conflict_ia(100, 3)
        prog = LoopProgram.from_indirection(ia)
        log = AccessLog.from_source(prog)
        assert log.read_el is prog.data["ia"] and log.read_el is not ia
        assert not log.read_el.flags.writeable
        assert np.array_equal(log.read_el, ia)
        assert log.read_it is log.write_it is log.write_el
        assert log.one_read
        assert log.nbytes == 2 * ia.nbytes

    def test_chain_all_violated_but_head(self):
        # i reads element i-1 which i-1 writes: every reader is stale.
        n = 16
        log = AccessLog.from_dependences(
            LoopProgram.from_indirection(
                np.maximum(np.arange(n) - 1, 0), x=np.ones(n), b=np.ones(n)
            ).dependence_graph())
        scan = scan_accesses(log)
        assert scan.num_violated == n - 1
        assert not scan.violated[0]

    def test_waw_detected(self):
        # Two iterations write the same element; no reads at all.
        log = AccessLog(n=4, n_elements=4,
                        read_it=np.empty(0, np.int64),
                        read_el=np.empty(0, np.int64),
                        write_it=np.array([0, 1, 2, 3], np.int64),
                        write_el=np.array([0, 1, 1, 3], np.int64))
        scan = scan_accesses(log)
        assert scan.violated.tolist() == [False, False, True, False]

    def test_a_cowriter_is_not_repaired(self):
        # Iterations 1 and 2 both write element 1.  Only 2 is violated,
        # and only 2 is repaired: 1 runs in the attempt as the element's
        # first writer, and 2 overwrites it afterwards, as in the serial
        # loop.
        log = AccessLog(n=4, n_elements=4,
                        read_it=np.empty(0, np.int64),
                        read_el=np.empty(0, np.int64),
                        write_it=np.array([0, 1, 2, 3], np.int64),
                        write_el=np.array([0, 1, 1, 3], np.int64))
        ex = SpeculativeExecutor(log, 2, seed=0)
        assert ex.plan().repair_indices.tolist() == [2]
        target = np.array([0, 1, 1, 3])

        def body(i, a):
            a.y[int(target[i])] = a.c[i] + 1.0

        prog = LoopProgram.record(4, body, y=np.zeros(4),
                                  c=np.array([1.0, 2.0, 3.0, 4.0]))
        assert AccessLog.from_source(prog).write_el.tolist() == [0, 1, 1, 3]
        for nproc in (1, 2, 4):
            loop = Runtime(nproc).compile(prog, strategy="speculative")
            assert loop.executor.plan().repair_indices.tolist() == [2]
            assert np.array_equal(loop().x, SerialExecutor().run(
                prog.make_kernel()))

    @settings(max_examples=80, deadline=None)
    @given(loop_programs())
    def test_the_repair_set_is_the_violated_set(self, prog):
        for log in (AccessLog.from_source(prog),
                    AccessLog.from_dependences(prog.dependence_graph())):
            ex = SpeculativeExecutor(log, 3, seed=0)
            assert np.array_equal(ex.plan().repair_indices,
                                  np.flatnonzero(scan_accesses(log).violated))


class TestSpeculativeExecutor:
    def run_pair(self, ia, n, *, seed=7, nproc=4):
        rng = np.random.default_rng(3)
        x0, b = rng.random(n), rng.random(n)
        kernel = SimpleLoopKernel(x0, b, ia)
        log = AccessLog.from_dependences(kernel.dependence_graph())
        ex = SpeculativeExecutor(log, nproc, seed=seed)
        got = ex.run(kernel)
        want = serial_simple(ia, x0, b)
        return got, want, ex

    def test_zero_conflict_single_attempt(self):
        n = 200
        got, want, ex = self.run_pair(np.arange(n), n)
        assert np.array_equal(got, want)
        rep = ex.plan().report
        assert rep.attempts == 1
        assert rep.conflict_rate == 0.0
        assert rep.re_executed == 0
        assert rep.first_violation is None

    def test_all_conflict_chain_bitwise_serial(self):
        n = 64
        ia = np.maximum(np.arange(n) - 1, 0)
        got, want, ex = self.run_pair(ia, n)
        assert np.array_equal(got, want)
        rep = ex.plan().report
        assert rep.attempts == 2
        assert rep.conflict_rate == (n - 1) / n

    def test_sparse_conflicts_repair_only_the_closure(self):
        n = 500
        ia = sparse_conflict_ia(n, 4, seed=11)
        got, want, ex = self.run_pair(ia, n)
        assert np.array_equal(got, want)
        rep = ex.plan().report
        assert rep.violated == 4
        # The repair set is the violated set.
        assert rep.re_executed == 4
        assert rep.committed_optimistically == n - 4

    def test_duplicate_writes_within_one_chunk(self):
        # A scatter loop where two iterations of the same chunk write
        # one element — WAW must be caught even though chunk batches
        # run in index order internally.
        n, e = 8, 4
        hits = np.array([0, 1, 1, 2, 3, 3, 3, 2])
        adds = np.arange(1.0, n + 1.0)
        acc = np.zeros(e)

        def setup():
            acc[:] = 0.0
            return acc

        def body(i):
            acc[hits[i]] = acc[hits[i]] * 0.5 + adds[i]

        kernel = GenericLoopKernel(n, body, setup=setup)
        log = AccessLog(
            n=n, n_elements=e,
            read_it=np.arange(n, dtype=np.int64),
            read_el=hits.astype(np.int64),
            write_it=np.arange(n, dtype=np.int64),
            write_el=hits.astype(np.int64))
        scan = scan_accesses(log)
        # Every later writer of a multiply-written element is violated.
        assert scan.violated[2] and scan.violated[5] and scan.violated[6]
        ex = SpeculativeExecutor(log, 2, seed=1)
        got = ex.run(kernel).copy()
        want = SerialExecutor().run(
            GenericLoopKernel(n, body, setup=setup)).copy()
        assert np.array_equal(got, want)

    def test_checkpoint_restore_idempotent(self):
        # Repeated misspeculating runs of the same executor/kernel must
        # give identical results — a run leaves no residue.
        n = 120
        ia = sparse_conflict_ia(n, 10, seed=5)
        rng = np.random.default_rng(9)
        x0, b = rng.random(n), rng.random(n)
        kernel = SimpleLoopKernel(x0, b, ia)
        log = AccessLog.from_dependences(kernel.dependence_graph())
        ex = SpeculativeExecutor(log, 4, seed=2)
        first = ex.run(kernel).copy()
        for _ in range(3):
            assert np.array_equal(ex.run(kernel), first)
        assert np.array_equal(first, serial_simple(ia, x0, b))

    def test_the_repair_set_is_not_attempted(self):
        # Each iteration runs once: the chunk levels skip the repair set,
        # whose own wavefronts then run as one level each, ascending —
        # nothing to checkpoint, and not one level per repaired index.
        n = 120
        prog = LoopProgram.from_indirection(sparse_conflict_ia(n, 10, seed=5))
        dep = prog.dependence_graph()
        ex = SpeculativeExecutor(AccessLog.from_dependences(dep), 4, seed=2)
        levels, plan = ex.level_plan(), ex.plan()
        repair = plan.repair_indices
        assert len(repair) == 10
        assert np.array_equal(np.sort(levels.order), np.arange(n))
        cut, first = n - len(repair), len(plan.chunk_bounds)
        assert levels.bounds[first] == cut
        assert not np.isin(levels.order[:cut], repair).any()
        wf = residue_wavefronts(dep, plan.scan.violated)
        assert levels.order[cut:].tolist() == sorted(
            wf, key=lambda i: (wf[i], i))
        depth = 1 + max(wf.values())
        assert np.array_equal(np.diff(levels.bounds[first:]),
                              np.bincount(list(wf.values())))
        assert levels.num_levels == first + depth < first + len(repair)

    @settings(max_examples=60, deadline=None)
    @given(loop_programs() | residue_programs(), st.integers(1, 9))
    def test_phase_one_runs_the_residue_wavefronts(self, prog, nproc):
        # Phase 1's levels are the wavefronts of the flagged iterations
        # among themselves, with the extractor's graph restricted to
        # flagged pairs as the oracle: each level independent, every
        # residue edge pointing to an earlier level, no level deeper
        # than it must be — and the run bitwise serial.
        ex = Runtime(nproc).compile(prog, strategy="speculative").executor
        levels, flagged = ex.level_plan(), ex.plan().scan.violated
        cut = prog.n - int(flagged.sum())
        first = int(np.searchsorted(levels.bounds, cut))
        level = np.empty(prog.n, dtype=np.int64)
        level[levels.order] = np.repeat(np.arange(levels.num_levels),
                                        np.diff(levels.bounds))
        assert not flagged[levels.order[:cut]].any()
        dep = prog.dependence_graph()
        dst, src = dep.edge_rows, dep.indices
        inside = flagged[dst] & flagged[src]
        dst, src = level[dst[inside]], level[src[inside]]
        assert (dst != src).all()
        assert (dst > src).all()
        wf = residue_wavefronts(dep, flagged)
        assert {i: int(level[i]) - first for i in wf} == wf
        assert_contract(prog, ("speculative",), nproc=nproc)

    @pytest.mark.parametrize("nproc", [1, 3])
    def test_a_residue_that_writes_nothing(self, nproc):
        # Iteration 0 writes x[0] and every later one only reads it: all
        # of those are flagged, none writes, so phase 1 is one level.
        def body(i, a):
            if i:
                return a.x[0]
            a.x[0] = a.b[0] + 1.0

        n = 5
        prog = LoopProgram.record(n, body, x=np.ones(n), b=np.ones(n))
        ex = Runtime(nproc).compile(prog, strategy="speculative").executor
        levels = ex.level_plan()
        assert ex.plan().repair_indices.tolist() == [1, 2, 3, 4]
        assert levels.order[-4:].tolist() == [1, 2, 3, 4]
        assert levels.bounds[-2] == 1
        assert ex.plan().scan.stale is None  # the level plan read them
        assert_contract(prog, ("speculative",), nproc=nproc)

    def test_a_second_run_reuses_the_gather(self):
        # The repair set runs through the tape like any level plan: the
        # gather built on the first run serves the second.
        rng = np.random.default_rng(7)
        prog = sweep_program(rng.normal(size=400), rng.normal(size=400))
        chain = fission(prog).stages[0].program
        loop = Runtime(4).compile(chain, strategy="speculative")
        ex = loop.executor
        first = ex.run(loop.bound_kernel).copy()
        builds, reuses, _ = ex.level_counts()
        assert ex.kernel_path == "vectorized"
        assert ex.plan().repair_indices.size == 399
        assert np.array_equal(ex.run(loop.bound_kernel), first)
        assert ex.level_counts()[0] == builds
        assert ex.level_counts()[1] > reuses
        assert np.array_equal(first,
                              SerialExecutor().run(chain.make_kernel()))

    def test_seeded_chunk_order(self):
        log = AccessLog.from_dependences(
            LoopProgram.from_indirection(
                np.arange(100), x=np.ones(100), b=np.ones(100)
            ).dependence_graph())
        a = SpeculativeExecutor(log, 4, seed=5).plan().chunk_bounds
        b = SpeculativeExecutor(log, 4, seed=5).plan().chunk_bounds
        c = SpeculativeExecutor(log, 4, seed=6).plan().chunk_bounds
        assert a == b
        assert a != c
        assert sorted(a) == sorted(c)  # same chunks, different order

    def test_simulate_matches_plan(self):
        n = 300
        ia = sparse_conflict_ia(n, 3, seed=4)
        log = AccessLog.from_dependences(
            LoopProgram.from_indirection(
                ia, x=np.ones(n), b=np.ones(n)).dependence_graph())
        ex = SpeculativeExecutor(log, 4, seed=0)
        sim = ex.simulate()
        assert sim.mode == "speculative"
        assert sim.num_phases == 2
        assert sim.total_time > 0
        assert sim.seq_time > 0
        clean = SpeculativeExecutor(
            AccessLog.from_dependences(LoopProgram.from_indirection(
                np.arange(n), x=np.ones(n), b=np.ones(n)
            ).dependence_graph()), 4, seed=0)
        assert clean.simulate().num_phases == 1

    @settings(max_examples=60, deadline=None)
    @given(loop_programs(), st.integers(1, 9), seeds,
           st.sampled_from(("program", "graph")), st.booleans())
    def test_simulate_is_the_old_formula(self, prog, nproc, seed, source,
                                         weighted):
        # The closed form's shortcuts — range lengths for a one-read
        # log's reads and identity writes — are, bit for bit, the counts
        # and the price a bincount gives; and the price is, up to
        # rounding, the per-iteration prefix-sum formula it replaced.
        log = (AccessLog.from_dependences(prog.dependence_graph())
               if source == "graph" else AccessLog.from_source(prog))
        counted = dataclasses.replace(log, identity_writes=False,
                                      one_read=False)
        unit_work = (np.random.default_rng(seed).random(prog.n) * 9.0
                     if weighted else None)
        ex = SpeculativeExecutor(log, nproc, seed=seed)
        bounds = np.array(ex.plan().chunk_bounds,
                          dtype=np.int64).reshape(-1, 2)
        assert all(np.array_equal(a, b) for a, b in zip(
            log.range_counts(bounds), counted.range_counts(bounds)))
        got = ex.simulate(unit_work=unit_work)
        assert same_sim(got, SpeculativeExecutor(counted, nproc, seed=seed)
                        .simulate(unit_work=unit_work))
        assert near_sim(got, counted_simulation(ex, unit_work))

    @settings(max_examples=40, deadline=None)
    @given(indirection_arrays(), st.sampled_from(("speculative", None)))
    def test_the_kernel_input_is_never_written(self, case, strategy):
        # xold is the input itself, so no run may write it.
        x0, b, ia = case
        before = x0.copy()
        kernel = SimpleLoopKernel(x0, b, ia)
        want = SerialExecutor().run(kernel).copy()
        assert kernel.xold is x0
        loop = Runtime(3).compile(LoopProgram.from_indirection(ia, x=x0, b=b),
                                  strategy=strategy)
        assert np.array_equal(loop().x, want)
        assert np.array_equal(loop(kernel).x, want)
        assert x0.tobytes() == before.tobytes()

    def test_threads_protocol_rejected(self):
        # Once refused (a shadow-state race that no longer exists): the
        # threads and processes entry points run the level plan as two
        # barrier phases, bitwise the serial result.
        l = random_lower_triangular(60, avg_off_diag=0.2, max_band=6, seed=5)
        b = np.random.default_rng(5).normal(size=60)
        log = AccessLog.from_dependences(
            LoopProgram.from_csr(l, b).dependence_graph())
        want = SerialExecutor().run(TriangularSolveKernel(l, b))
        ex = SpeculativeExecutor(log, 2, seed=1)
        assert ex.plan().repair_indices.size > 0
        got = ex.run_threaded(TriangularSolveKernel(l, b), timeout=10.0,
                              timeline=None)
        assert np.array_equal(got, want)
        if "fork" in mp.get_all_start_methods():
            got = ex.run_processes(TriangularSolveKernel(l, b), timeout=30.0)
            assert np.array_equal(got, want)

    def test_a_speculative_compile_leaves_no_reference_cycle(self):
        # Every object of a compile must go with its loop, without the
        # cyclic collector: a schedule stand-in holding a bound method
        # of its executor made a cycle, and each 300 k loop's graph, log
        # and plan waited for the collector (peak RSS doubled).
        n = 200
        rng = np.random.default_rng(4)
        prog = LoopProgram.from_indirection(
            sparse_conflict_ia(n, 4, seed=4), x=rng.random(n),
            b=rng.random(n))
        want = serial_simple(prog.data["ia"], prog.data["x"], prog.data["b"])
        rt = Runtime(nproc=4, tuning=None)
        gc.collect()
        gc.disable()
        try:
            loop = rt.compile(prog, strategy="speculative")
            x = loop(backend="threads").x
            executor = weakref.ref(loop.executor)
            del loop
            alive = executor() is not None
        finally:
            gc.enable()
        assert np.array_equal(x, want)
        assert not alive

    @pytest.mark.parametrize("nproc", [0, 2.5])
    def test_nproc_validated(self, nproc):
        # 2.5 used to chunk and time as two processors without a word.
        log = AccessLog.from_dependences(
            LoopProgram.from_indirection(np.arange(6)).dependence_graph())
        with pytest.raises(ValidationError, match="nproc"):
            SpeculativeExecutor(log, nproc)

    @pytest.mark.parametrize("shape", [(5,), (6, 1), (2, 3), ()])
    def test_bad_unit_work_shape_is_a_validation_error(self, shape):
        log = AccessLog.from_dependences(
            LoopProgram.from_indirection(np.arange(6)).dependence_graph())
        with pytest.raises(ValidationError, match=r"unit_work .* \(6,\)"):
            SpeculativeExecutor(log, 2).simulate(unit_work=np.ones(shape))
        with pytest.raises(ValidationError, match="unit_work.*finite"):
            SpeculativeExecutor(log, 2).simulate(
                unit_work=np.full(6, np.nan))  # used to time as nan


class TestRuntimeIntegration:
    def make_prog(self, ia, seed=3):
        n = len(ia)
        rng = np.random.default_rng(seed)
        return LoopProgram.from_indirection(
            np.asarray(ia), x=rng.random(n), b=rng.random(n))

    def test_strategy_speculative_low_conflict(self):
        n = 400
        ia = sparse_conflict_ia(n, 2, seed=8)
        prog = self.make_prog(ia)
        rt = Runtime(nproc=4, tune_seed=1)
        loop = rt.compile(prog, strategy="speculative")
        report = loop()
        assert isinstance(report.speculation, ConflictReport)
        assert report.executor == "speculative"
        want = serial_simple(np.asarray(ia), prog.data["x"], prog.data["b"])
        assert np.array_equal(report.x, want)

    def test_a_report_extracts_no_dependences(self, monkeypatch):
        # n comes off the schedule stand-in, and the run path is the classic
        # one: a taped speculative loop reports its kernel path.
        n = 400
        ia = sparse_conflict_ia(n, 2, seed=8)
        rng = np.random.default_rng(3)

        def body(i, a):
            a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]]

        prog = LoopProgram.record(n, body, x=rng.random(n), b=rng.random(n))
        extracted = []
        real = Inspector.dependences_of
        monkeypatch.setattr(Inspector, "dependences_of", staticmethod(
            lambda deps: extracted.append(deps) or real(deps)))
        loop = Runtime(nproc=4, tune_seed=1).compile(
            prog, strategy="speculative")
        loop()
        report = loop.report()
        assert loop.plan.kind == "speculative"
        assert extracted == []
        assert report["n"] == n
        assert report["kernel_path"] == "vectorized"
        # Its two repaired iterations are one wavefront.
        assert loop.executor.plan().repair_indices.size == 2
        assert report["numeric_batches"] == (
            len(loop.executor.plan().chunk_bounds) + 1)

    def test_auto_keeps_speculating_an_all_conflict_chain(self):
        # Figure 3's full chain, where auto's simulator prefers the
        # speculative arm: the loop runs the plan its compile chose on
        # every call, bitwise equal to the serial loop.
        n = 20_000
        ia = np.maximum(np.arange(n) - 1, 0)
        prog = self.make_prog(ia)
        loop = Runtime(nproc=8).compile(prog, strategy="auto")
        assert loop.verdict.executor == "speculative"
        plan = loop.plan
        want = serial_simple(ia, prog.data["x"], prog.data["b"])
        for _ in range(2):
            report = loop()
            assert report.executor == "speculative"
            assert report.speculation.conflict_rate == (n - 1) / n
            assert np.array_equal(report.x, want)
        assert loop.plan is plan and loop.executor_name == "speculative"

    def test_rebind_keeps_plan(self):
        n = 300
        ia = sparse_conflict_ia(n, 2, seed=2)
        prog = self.make_prog(ia)
        rt = Runtime(nproc=4, tune_seed=1)
        loop = rt.compile(prog, strategy="speculative")
        loop()
        plan_before = loop.executor.plan()
        rng = np.random.default_rng(77)
        x2 = rng.random(n)
        loop.rebind(x=x2)
        r = loop()
        assert loop.executor.plan() is plan_before
        want = serial_simple(ia, x2, prog.data["b"])
        assert np.array_equal(r.x, want)

    def test_tuner_space_has_one_speculative_candidate(self):
        specs = [s for s in enumerate_space(1000, 8)
                 if s.executor == "speculative"]
        assert len(specs) == 1
        assert specs[0].scheduler == "identity"
        assert specs[0].assignment == "wrapped"
        assert "speculative" in executor_registry
        assert executor_registry.metadata("speculative").get("speculative")

    def test_the_candidates_compile_is_the_speculative_strategy(self):
        # Runtime.compile is the one reader of the flag: the tuner
        # scores its speculative candidate through these keywords.
        ia = sparse_conflict_ia(400, 4, seed=2)
        spec, = [s for s in enumerate_space(ia.size, 4)
                 if s.executor == "speculative"]
        rt = Runtime(nproc=4)
        named = rt.compile(ia, **spec.compile_kwargs())
        asked = rt.compile(ia, strategy="speculative")
        assert named.plan.kind == asked.plan.kind == "speculative"
        assert named.inspection.pipeline_cost == 0.0
        assert named.schedule == asked.schedule
        assert (named.executor.plan().chunk_bounds
                == asked.executor.plan().chunk_bounds)
        a, b = named.simulate(), asked.simulate()
        assert a.total_time == b.total_time
        assert np.array_equal(a.busy, b.busy)
        assert np.array_equal(a.idle, b.idle)

    def test_strategy_auto_sees_speculative(self):
        assert_contract(self.make_prog(sparse_conflict_ia(300, 1, seed=6)),
                        ("auto", None))

    def test_speculation_key_stable(self):
        n = 60
        log = AccessLog.from_dependences(
            self.make_prog(np.arange(n)).dependence_graph())
        rt = Runtime(nproc=4)
        k1 = speculation_key(log, 4, rt.costs)
        k2 = speculation_key(log, 4, rt.costs)
        k3 = speculation_key(log, 8, rt.costs)
        assert k1 == k2
        assert k1 != k3


class TestFromCsrRebind:
    def test_value_rebind_matches_rebuilt_matrix(self):
        t = random_lower_triangular(60, avg_off_diag=2.5, seed=3)
        b = np.linspace(1.0, 2.0, 60)
        prog = LoopProgram.from_csr(t, b=b)
        assert "a" in prog.data  # CSR values are a named data entry
        rt = Runtime(nproc=4, tune_seed=11)
        loop = rt.compile(prog, strategy="speculative")
        assert np.array_equal(
            loop().x, SerialExecutor().run(TriangularSolveKernel(t, b)))
        # ILU-style refactorization: same structure, new values.
        new_vals = t.data * 1.7 + 0.1
        loop2 = loop.rebind(a=new_vals)
        assert loop2 is loop  # pure data swap, no recompile
        t2 = type(t)(t.indptr, t.indices, new_vals, t.shape)
        assert np.array_equal(
            loop2().x, SerialExecutor().run(TriangularSolveKernel(t2, b)))

    def test_diag_rebind(self):
        t = random_lower_triangular(40, avg_off_diag=2.0, seed=9)
        b = np.ones(40)
        diag = t.diagonal()
        prog = LoopProgram.from_csr(t, b=b, diag=diag)
        rt = Runtime(nproc=4)
        loop = rt.compile(prog, strategy="speculative")
        loop.rebind(diag=diag * 2.0)
        want = SerialExecutor().run(
            TriangularSolveKernel(t, b, diag=diag * 2.0))
        assert np.array_equal(loop().x, want)

    def test_classic_pipeline_also_rebinds_values(self):
        t = random_lower_triangular(50, avg_off_diag=2.0, seed=4)
        b = np.linspace(0.5, 1.5, 50)
        rt = Runtime(nproc=4)
        loop = rt.compile(LoopProgram.from_csr(t, b=b))
        new_vals = t.data + 0.25
        loop.rebind(a=new_vals)
        t2 = type(t)(t.indptr, t.indices, new_vals, t.shape)
        assert np.array_equal(
            loop().x, SerialExecutor().run(TriangularSolveKernel(t2, b)))
