"""Timing ratios that no tier-1 test and no ledger row holds.

Each gate compares two ways of doing the same work on this host —
``time(other) / time(base)`` against a bound — through the one helper
below; more hold exact, host-independent counts: the work a tuner
search does, which simulator walk the ledger's plans take, the memory
of a cold inspection, of a cold simulation and of an ILU factorization,
and the memory and levels of a speculative compile.  Sizes are constants: the CI scale is the scale.

    PYTHONPATH=src python -m pytest benchmarks/gates.py -q

The ledger (``benchmarks/ledger/run.py``) is where absolute times and
throughputs live; results that must be *equal* are asserted here only
beside the ratio or count they qualify.
"""

import math
import statistics
import tracemalloc

import numpy as np
import pytest

from repro import LoopProgram, RetryPolicy, Runtime
from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.executor import SerialExecutor
from repro.core.inspector import Inspector
from repro.core.partition import wrapped_partition
from repro.core.schedule import local_schedule
from repro.core.wavefront import compute_wavefronts
from repro.krylov.ilu import _IKJKernel, numeric_ilu
from repro.machine import simulator
from repro.machine.costs import MULTIMAX_320
from repro.machine.simulator import work_vector
from repro.mesh.problems import get_problem
from repro.observe.tracer import maybe_span, now
from repro.program.transform import fission
from repro.sparse.build import random_lower_triangular
from repro.sparse.triangular import solve_lower_sequential, split_triangular
from repro.workload import sweep_program
from repro.workload.generator import generate_workload


@pytest.fixture
def gate(capsys):
    """``gate(label, base, other, at_most=, pairs=, calls=)``: time the
    two callables and hold ``other / base`` to the bound.

    A pair interleaves ``calls`` timed calls of each side — which side
    goes first alternates from pair to pair — and divides the two
    medians, so host drift and bursts land on both sides of every
    ratio; never best-of-min, which reads the luckiest call of each arm.
    The verdict sets the median of the ``pairs`` ratios against their
    own quartile spread: the gate *holds* when the median is within the
    bound, is *unresolved* (reported, not failed) when the median is
    over but the bound lies inside the interquartile range, and fails
    only when three quarters of the pairs are over it.
    """
    def check(label, base, other, *, at_most, pairs, calls=1):
        ratios = []
        for k in range(pairs):
            sides = (base, other) if k % 2 == 0 else (other, base)
            times = ([], [])
            for _ in range(calls):
                for fn, seen in zip(sides, times):
                    t0 = now()
                    fn()
                    seen.append(now() - t0)
            first, second = map(statistics.median, times)
            ratios.append(second / first if k % 2 == 0 else first / second)
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        verdict = ("holds" if median <= at_most
                   else "unresolved" if q1 <= at_most else "VIOLATED")
        with capsys.disabled():
            print(f"\n  {label}: median {median:.4g} (quartiles {q1:.4g} .. "
                  f"{q3:.4g}) of {pairs} pairs x {calls}, bound {at_most:g}"
                  f" -- {verdict}")
        assert verdict != "VIOLATED", label

    return check


# ----------------------------------------------------------------------
# What the vectorized paths buy: >= 10x their per-iteration references
# ----------------------------------------------------------------------

def test_taped_replay_is_ten_times_the_proxy_walk(gate):
    """A trace-recorded Figure 3 loop run through its tape against the
    same kernel walked one iteration at a time over the replay proxies
    — bitwise equal, at least 10× faster."""
    n = 100_000
    rng = np.random.default_rng(1989)
    ia = rng.integers(0, n, size=n).tolist()

    def body(i, a):
        a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]]

    program = LoopProgram.record(n, body, x=rng.standard_normal(n),
                                 b=0.5 * rng.standard_normal(n))
    loop = Runtime(nproc=8).compile(program)
    x = loop(with_sim=False).x      # tape + step list built here, once

    def proxy_walk():
        return SerialExecutor().run(program.make_kernel())

    assert loop.report()["kernel_path"] == "vectorized"
    assert np.array_equal(x, proxy_walk())
    gate(f"taped replay / proxy walk, recorded Figure 3 n={n}",
         proxy_walk, lambda: loop(with_sim=False), at_most=0.1, pairs=3)


def _warm_lower_solve():
    """The L5-PT ILU(0) factor, a right-hand side, and the factor's
    unit-diagonal solve compiled as the ledger's ``trisolve_warm``
    compiles it."""
    l = split_triangular(numeric_ilu(get_problem("L5-PT").a))[0]
    b = np.random.default_rng(1989).standard_normal(l.nrows)
    loop = Runtime(nproc=8).compile(
        LoopProgram.from_csr(l, b, unit_diagonal=True),
        executor="preschedule", scheduler="global")
    return l, b, loop


def test_a_warm_triangular_solve_against_the_substitution_loop(gate):
    """PCGPAK's steady state, what the inspector is amortised over: a
    warm unit-diagonal solve on the L5-PT ILU(0) factor (gather plan
    kept, a sweep per span of levels) against the Figure 8 loop on the
    same factor, bitwise equal.  Medians read 0.049-0.054 while each
    level scattered into ``x`` and divided by its diagonal, 0.035-0.043
    with the level-ordered sweep, and 0.032 once the factor's values
    are held across solves (2-vCPU host); the bound lies between the
    first two, under the scattering sweep's lower quartiles
    (0.048-0.052)."""
    l, b, loop = _warm_lower_solve()

    def sequential():
        return solve_lower_sequential(l, b, unit_diagonal=True)

    assert np.array_equal(loop(with_sim=False).x, sequential())
    gate(f"warm solve / substitution loop, L5-PT n={l.nrows}", sequential,
         lambda: loop(with_sim=False), at_most=0.044, pairs=15, calls=5)


def test_a_rebound_triangular_solve_against_the_substitution_loop(gate):
    """The ledger's warm op, the call shape the Krylov loop makes: a
    right-hand side rebound, then the same solve as above.  The factor's
    values are read once per binding, not once per solve: medians read
    0.039-0.042 while each sweep gathered them (lower quartiles
    0.0386-0.0403), 0.034-0.037 with them held (lower quartiles
    0.033-0.034; 2-vCPU host); the bound lies between."""
    l, b, loop = _warm_lower_solve()

    def sequential():
        return solve_lower_sequential(l, b, unit_diagonal=True)

    def rebound():
        return loop.rebind(b=b)(with_sim=False)

    assert np.array_equal(rebound().x, sequential())
    gate(f"rebound solve / substitution loop, L5-PT n={l.nrows}",
         sequential, rebound, at_most=0.038, pairs=15, calls=5)


def _ikj_loop(a):
    """The IKJ loop ``numeric_ilu`` ran before its rows were scheduled:
    the elimination kernel walked in index order."""
    return SerialExecutor().run(_IKJKernel(a, None))


def test_the_ilu_factorization_against_the_ikj_loop(gate):
    """PCGPAK's set-up: ``numeric_ilu`` on L5-PT compiles the factor's
    rows on a session and eliminates one wavefront per batch, against
    the IKJ loop one row at a time, bitwise equal.  Medians read
    0.08-0.12 (2-vCPU host); the bound leaves twice that."""
    a = get_problem("L5-PT").a
    assert np.array_equal(numeric_ilu(a).data.view(np.uint64),
                          _ikj_loop(a).view(np.uint64))
    gate(f"numeric_ilu / IKJ loop, L5-PT n={a.nrows}", lambda: _ikj_loop(a),
         lambda: numeric_ilu(a), at_most=0.25, pairs=5)


def test_the_ilu_factorization_allocates_no_more_than_the_loop(capsys):
    """Exact: the traced allocation peak of ``numeric_ilu`` on L5-PT,
    in arrays of 8·nnz bytes, is at most the IKJ loop's 9.45.  It reads
    9.13, the symbolic phase's own peak: the level array of the pattern
    made here takes A's values, and the scatter's keys and positions are
    gone before the compile's inspection sweep (≈ 5.6 arrays over the
    3.4 then held).  It read 11.0 with the key array alive through the
    compile, and 10.0 with a value array of its own."""
    a = get_problem("L5-PT").a
    numeric_ilu(a)  # imports and the matrix's own row tags come first
    tracemalloc.start()
    try:
        lu = numeric_ilu(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * lu.nnz)
    with capsys.disabled():
        print(f"\n  numeric_ilu, L5-PT nnz={lu.nnz}: traced peak "
              f"{arrays:.3g} x 8nnz bytes, bound 9.45")
    assert arrays <= 9.45


@pytest.mark.parametrize("workload,n,at_most", [
    # Pointer doubling, no successor CSR at all: the 10x acceptance bar.
    ("figure3", 1_000_000, 0.1),
    # ~3 dependences a row ride the frontier engine (recorded >= 5x).
    ("figure8", 100_000, 1 / 1.5),
])
def test_inspector_beats_the_reference_sweep(gate, workload, n, at_most):
    """The paper's economics (Table 5) hold only while inspection is
    cheap: the cold wavefront computation against the per-index sweep
    of ``repro.core.reference``, identical wavefronts."""
    if workload == "figure3":
        ia = np.random.default_rng(1989 + n).integers(0, n, size=n)
        dep = DependenceGraph.from_indirection(ia)
    else:
        dep = DependenceGraph.from_lower_csr(random_lower_triangular(
            n, avg_off_diag=3.0, max_band=max(n // 60, 8), seed=1989))

    def cold():
        # A cold inspection builds the successor CSR and the wavefront
        # memo on its graph; a fresh graph over the same read-only arrays
        # (no copy) sweeps again on every timed call.
        return compute_wavefronts(DependenceGraph(dep.indptr, dep.indices,
                                                  dep.n, check_acyclic=False))

    np.testing.assert_array_equal(cold(), reference.compute_wavefronts(dep))
    gate(f"vectorized / reference wavefront sweep, {workload} n={n}",
         lambda: reference.compute_wavefronts(dep), cold,
         at_most=at_most, pairs=3)


def test_cache_hit_compile_is_ten_times_a_cold_inspect(gate):
    """Cross-compile amortisation on the Figure 3 workload: a structure
    hash lookup against sweep + scheduling + Table 5 pricing.  A compile
    does not price — ``inspection.costs`` is computed on first read and
    memoised on the cached entry — so both sides read it: the cold side
    pays the pricing simulation, the hit finds it memoised.  Without
    the read the cold side shrinks by the pricing it no longer does and
    the ratio measures the hit against sweep + scheduling alone.
    Measured ≈ 0.085–0.09 (≈ 0.075–0.08 while the local lists took a
    three-key ``lexsort``): a cheaper cold side moves the ratio towards
    the bound with the hit no slower."""
    n, nproc = 20_000, 16
    ia = np.random.default_rng(1989).integers(0, n, size=n)
    warm = Runtime(nproc=nproc, cache=8)
    warm.compile(ia).inspection.costs
    gate(f"cache-hit / cold compile + price, Figure 3 n={n}",
         lambda: Runtime(nproc=nproc, cache=None).compile(ia).inspection.costs,
         lambda: warm.compile(ia).inspection.costs,
         at_most=0.1, pairs=9, calls=5)
    assert warm.cache_stats.misses == 1   # every timed compile was a hit


def test_a_persisted_cold_compile_is_nearly_an_in_memory_one(gate, tmp_path):
    """Write-through on the Figure 3 workload: a cold compile under
    ``cache_dir=`` against the same compile kept in memory.  The put
    writes one uncompressed ``.npz`` of narrow arrays and does not
    price — the price is written only if something already paid it.
    Measured ≈ 1.5 (quartiles ≈ 1.4 .. 1.5); ≈ 12 while a put deflated a
    zip of ``int64`` arrays and priced the inspection for a JSON
    sidecar."""
    n, nproc = 20_000, 8
    ia = np.random.default_rng(1989).integers(0, n, size=n)

    def cold(cache_dir=None):
        loop = Runtime(nproc=nproc, cache_dir=cache_dir).compile(ia)
        for entry in tmp_path.glob("*.npz"):
            entry.unlink()              # so the next call is cold again
        return loop

    assert not cold(tmp_path).cache_hit and not cold(tmp_path).cache_hit
    gate(f"persisted / in-memory cold compile, Figure 3 n={n}",
         cold, lambda: cold(tmp_path), at_most=2.5, pairs=9, calls=3)


def test_a_disk_hit_is_nearly_a_memory_hit(gate, tmp_path):
    """Restart amortisation on the Figure 3 workload: a fresh session's
    compile served from ``cache_dir=`` against the same compile served
    from memory.  A disk hit reads its entry in one go, compares each
    member's ``.npy`` header byte for byte (no literal parse) and
    builds the schedule from the flat lists.  Measured ≈ 2.45–2.7;
    ≈ 3.5–3.6 while a hit parsed both headers with ``ast.literal_eval``,
    read the file in many small reads and split and rejoined the lists."""
    n, nproc = 20_000, 8
    ia = np.random.default_rng(1989).integers(0, n, size=n)
    warm = Runtime(nproc=nproc, cache_dir=tmp_path)
    warm.compile(ia)

    def disk_hit():
        loop = Runtime(nproc=nproc, cache_dir=tmp_path).compile(ia)
        assert loop.cache_hit
        return loop

    gate(f"disk-hit / memory-hit compile, Figure 3 n={n}",
         lambda: warm.compile(ia), disk_hit, at_most=3.2, pairs=9, calls=5)
    assert warm.cache_stats.misses == 1   # every timed compile was a hit


def test_cold_speculative_beats_the_cold_inspector(gate):
    """Under 1 % conflicting iterations, declare + speculative compile +
    run beats declare + inspect + schedule + run end to end — and the
    results are bitwise equal."""
    n, nproc = 50_000, 8
    rng = np.random.default_rng(1)
    ia = np.arange(n)   # identity, but for 0.5 % backward references
    hot = rng.choice(np.arange(1, n), size=n // 200, replace=False)
    ia[hot] = (rng.random(hot.size) * hot).astype(np.int64)
    x, b = rng.random(n), rng.random(n)

    def cold(**how):
        program = LoopProgram.from_indirection(ia.copy(), x=x, b=b)
        rt = Runtime(nproc=nproc, cache=None, tuning=None)
        return rt.compile(program, **how)(with_sim=False)

    classic, speculative = cold(), cold(strategy="speculative")
    assert np.array_equal(speculative.x, classic.x)
    assert speculative.speculation.conflict_rate < 0.01
    assert speculative.executor == "speculative"
    gate(f"cold speculative / cold inspector, n={n}, 0.5% conflicts",
         cold, lambda: cold(strategy="speculative"), at_most=0.65, pairs=9)


def _spec_sparse(n):
    """``spec_sparse``'s input shape: an identity index (a DOALL) with
    0.5 % of the iterations redirected to an earlier element."""
    rng = np.random.default_rng(1989)
    ia = np.arange(n)
    hot = rng.choice(np.arange(1, n), size=n // 200, replace=False)
    ia[hot] = rng.integers(0, hot)
    return ia, rng.standard_normal(n), rng.standard_normal(n)


def _speculative(ia, x, b):
    program = LoopProgram.from_indirection(ia, x=x, b=b)
    return Runtime(nproc=8).compile(program, strategy="speculative")


def test_a_speculative_compile_allocates_each_array_once(capsys):
    """Exact, on ``spec_sparse``'s shape: the traced allocation peak of
    one declare + speculative compile + call at n = 300 000 is at most
    3.75 full-length arrays of 8n bytes.  It reads 3.33: the program's
    copy of ``ia``, the log's one iteration index and the live ``x``,
    plus the violated mask, the kept mask that phase 0's runs view and
    chunk-sized temporaries; the price builds nothing of length n, and
    a serial run builds no level order.  It read 4.3 while the level
    plan's n-long order was built for every run, 6.18 while the price
    held per-iteration read counts (then the cost and its prefix) and
    base work, and 9.15 before each array was allocated once — a row
    pointer for a 1-D index, a second iteration index, an ``xold`` copy
    and a separate cost buffer and count casts."""
    n = 300_000
    ia, x, b = _spec_sparse(n)
    warm = ia[:1_000] % 1_000       # imports what a repaired run imports
    assert _speculative(warm, x[:1_000], b[:1_000])().speculation.re_executed
    tracemalloc.start()
    try:
        report = _speculative(ia, x, b)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n)
    with capsys.disabled():
        print(f"\n  speculative compile + call, n={n}: traced peak "
              f"{arrays:.3g} x 8n bytes, bound 3.75")
    assert report.speculation.re_executed == n // 200
    assert arrays <= 3.75


def test_a_speculative_plan_runs_the_residue_wavefronts(capsys):
    """Exact, on ``spec_sparse``'s shape (n = 300 000, 8 processors):
    the level plan is the 32 chunks plus the wavefronts of the 1 500
    repaired iterations among themselves, so at most 40 levels.  It
    read 1 532 while the repair set ran one index per level.  (The
    ledger's ``executor.batches`` still reads 1 532: it counts
    ``plan.repair_indices``.)"""
    loop = _speculative(*_spec_sparse(300_000))
    loop()
    plan, levels = loop.executor.plan(), loop.executor.level_plan()
    with capsys.disabled():
        print(f"\n  speculative level plan, n=300000: {levels.num_levels} "
              f"levels for {len(plan.chunk_bounds)} chunks and "
              f"{plan.repair_indices.size} repaired iterations, bound 40")
    assert len(plan.chunk_bounds) == 32
    assert plan.repair_indices.size == 1_500
    assert levels.num_levels <= 40


def test_a_warm_speculative_run_against_one_vector_pass(gate):
    """On ``spec_sparse``'s shape (n = 300 000, 8 processors), a warm
    ``SpeculativeExecutor.run`` — bitwise the serial loop — against the
    loop's arithmetic as one whole-vector expression, ``x0 + b *
    x0[ia]``, which ignores the backward references.  At most 2.3x: it
    reads 1.6 with phase 0 run as one slice and kept mask per chunk,
    3.2 while each chunk went through index arrays — a gather of its
    kept iterations, five fancy-index passes, a built n-long order
    (2-vCPU host); the bound lies between."""
    ia, x, b = _spec_sparse(300_000)
    loop = _speculative(ia, x, b)
    executor, kernel = loop.executor, loop.program.make_kernel()
    assert np.array_equal(executor.run(kernel),
                          SerialExecutor().run(loop.program.make_kernel()))

    def vector_pass():
        return x + b * x[ia]

    gate("warm speculative run / one vector pass, spec_sparse n=300000",
         vector_pass, lambda: executor.run(kernel), at_most=2.3, pairs=15,
         calls=5)


def test_speculation_runs_on_the_classic_run_path(gate):
    """A speculative run is the classic run of its level plan — chunks,
    then the repair set's wavefronts — so its repair set reaches the
    tape: on the fissioned sweep's chain stage (every iteration but the
    first repaired, so the residue is a chain and still runs one index
    per level) a warm ``SpeculativeExecutor.run`` is at most 1.5x the
    self-executing executor's run of the same stage, bitwise equal.
    Its private per-index repair loop read about 33x."""
    n = 8_000
    rng = np.random.default_rng(1989)
    chain = fission(sweep_program(rng.standard_normal(n),
                                  rng.standard_normal(n))).stages[0].program
    rt = Runtime(nproc=8)
    classic = rt.compile(chain)
    speculative = rt.compile(chain, strategy="speculative")
    ex = speculative.executor
    assert classic.executor_name == "self"
    assert ex.plan().repair_indices.size == n - 1

    def self_run():
        return classic.executor.run(classic.bound_kernel)

    def speculative_run():
        return ex.run(speculative.bound_kernel)

    assert np.array_equal(speculative_run(), self_run())
    assert ex.kernel_path == "vectorized"
    gate(f"speculative / self-executing run, chain stage n={n}",
         self_run, speculative_run, at_most=1.5, pairs=9, calls=3)


def _waiting_level(width):
    """Two wavefronts of ``width``: processor 0 runs the first (work 40
    each), processor 1 the second (work 1 each, plus overheads well
    below 39), iteration ``k`` of which reads iteration ``k`` of the
    first — so every iteration of the second busy-waits."""
    first = np.arange(width, dtype=np.int64)
    dep = DependenceGraph.from_edges(np.column_stack((first + width, first)),
                                     2 * width)
    schedule = local_schedule(compute_wavefronts(dep),
                              np.repeat([0, 1], width), 2)
    return schedule, dep, np.repeat([40.0, 1.0], width)


@pytest.mark.parametrize("case,at_most", [
    # The fig3_cold plan: the first wait in level 5 of 9, after 99.8 %
    # of the 60 000 iterations.  Measured ≈ 0.05-0.07 (≈ 0.14-0.18 while
    # the walk walked every level).
    ("Figure 3 local/wrapped n=60000 p=8", 0.15),
    # The per-item chain's worst case: no slower than the loop.
    ("every-item-waits level, 2 x 30000", 1.0),
])
def test_level_walk_against_the_event_loop(gate, case, at_most):
    """The simulator's two walks on one plan of wide wavefronts,
    bitwise equal: the level walk (a running sum per processor list,
    then levels from the first that can wait: a running sum per run, a
    per-item chain from a busy-wait on) against the per-iteration event
    loop."""
    if case.startswith("Figure 3"):
        n, nproc = 60_000, 8
        dep = DependenceGraph.from_indirection(
            np.random.default_rng(1989).integers(0, n, size=n))
        schedule = local_schedule(compute_wavefronts(dep),
                                  wrapped_partition(n, nproc), nproc)
        unit_work = None
    else:
        schedule, dep, unit_work = _waiting_level(30_000)
    w = work_vector(dep, MULTIMAX_320, "self", schedule.nproc, unit_work)
    order, bounds = schedule.execution_levels(dep)
    t_poll = MULTIMAX_320.t_poll

    def loop():
        return simulator._run_scalar(schedule, dep, w, t_poll, order, math.inf)

    def levels():
        return simulator._run_levels(schedule, dep, w, t_poll, order, bounds,
                                     math.inf)

    walked = levels()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(walked, loop()))
    if unit_work is not None:   # ... and every second-wavefront item waited
        second = walked[0][30_000:]
        starts = second - w[30_000:]
        assert np.all(starts > np.concatenate(([0.0], second[:-1])))
    gate(f"level walk / event loop, {case}", loop, levels,
         at_most=at_most, pairs=9)


def test_a_cold_simulation_allocates_under_five_arrays(capsys):
    """Exact, on ``fig3_cold``'s shape: the traced allocation peak of a
    default ``loop.simulate()`` at n = 60 000, after a call without one,
    is at most 5 full-length arrays of 8n bytes.  It reads 4.3: the
    work vector, then the wait-free pass's finish times, each
    iteration's processor's previous finish and two temporaries of one
    entry per dependence (n / 2 of them here).  The level walk builds
    its operand lists only from the first level that can wait.  It read
    8.13 while the walk built them for the whole order."""
    n = 60_000
    rng = np.random.default_rng(1989)
    loop = Runtime(nproc=8).compile(LoopProgram.from_indirection(
        rng.integers(0, n, size=n), x=rng.standard_normal(n),
        b=rng.standard_normal(n)))
    loop(with_sim=False)
    tracemalloc.start()
    try:
        sim = loop.simulate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n)
    with capsys.disabled():
        print(f"\n  cold simulation, Figure 3 n={n}: traced peak "
              f"{arrays:.3g} x 8n bytes, bound 5")
    assert sim.total_time > 0
    assert arrays <= 5


def test_a_cold_inspection_allocates_under_six_and_a_half_arrays(capsys):
    """Exact, on ``fig3_cold``'s shape: the traced allocation peak of a
    cold default ``Runtime(nproc=8).compile`` of Figure 3 at n = 60 000
    is at most 6.5 full-length arrays of 8n bytes.  It reads 6.16: the
    extractor hands the program to ``from_indirection``, the pointer
    doubling runs over the forest's edges, and the schedule's sort key
    is built in place at its narrow width.  It read 7.65 through the
    general collapse, the edge-row ``repeat`` and doubling over n."""
    n = 60_000
    rng = np.random.default_rng(1989)
    program = LoopProgram.from_indirection(
        rng.integers(0, n, size=n), x=rng.standard_normal(n),
        b=rng.standard_normal(n))
    tracemalloc.start()
    try:
        loop = Runtime(nproc=8).compile(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n)
    with capsys.disabled():
        print(f"\n  cold inspection, Figure 3 n={n}: traced peak "
              f"{arrays:.3g} x 8n bytes, bound 6.5")
    assert loop.dep.num_edges > 0
    assert arrays <= 6.5


def test_each_plan_takes_its_walk(monkeypatch, capsys):
    """Exact dispatch on the ledger's shapes: ``fig3_cold``'s default
    plan (≈ 8 wavefronts of thousands) is walked a level at a time;
    every simulation of a cold ``auto`` compile of ``auto_cold``'s mesh
    (≈ 18-wide wavefronts) and a doacross loop's (``arange`` order) an
    iteration at a time.  The cold ``auto`` compile and its call walk
    31 times and inspect 33 times: the search hands its winner's
    inspection and simulation over, so neither is built twice."""
    ran = []
    for name in ("_run_scalar", "_run_levels"):
        def spy(*args, _real=getattr(simulator, name), _name=name):
            ran.append(_name)
            return _real(*args)
        monkeypatch.setattr(simulator, name, spy)
    inspect = Inspector.inspect
    monkeypatch.setattr(Inspector, "inspect", lambda *a, **k:
                        ran.append("inspect") or inspect(*a, **k))
    n, nproc = 60_000, 8
    rng = np.random.default_rng(1989)
    figure3 = LoopProgram.from_indirection(
        rng.integers(0, n, size=n), x=rng.standard_normal(n),
        b=rng.standard_normal(n))
    mesh = generate_workload("65-4-3").matrix
    seen = {}
    for label, program, how in (
            ("fig3_cold", figure3, {}),
            ("auto_cold", LoopProgram.from_csr(mesh, np.ones(mesh.nrows)),
             {"strategy": "auto"}),
            ("doacross", figure3, {"executor": "doacross"})):
        ran.clear()
        Runtime(nproc=nproc).compile(program, **how)()
        seen[label] = {name: ran.count(name) for name in set(ran)}
    with capsys.disabled():
        print(f"\n  walks taken: {seen}")
    assert seen["fig3_cold"] == {"_run_levels": 1, "inspect": 1}
    assert seen["auto_cold"] == {"_run_scalar": 31, "inspect": 33}
    assert seen["doacross"] == {"_run_scalar": 1, "inspect": 1}


def test_a_search_shares_and_cuts_its_simulations(capsys):
    """On the ``auto_cold`` input shape, a search scores 65 candidates
    but does not simulate them all: candidates with identical schedules
    share one simulation (the nine doacross aliases run one wrapped
    identity; global/wrapped deals what unit-weight global[greedy]
    does), and the final rung abandons each simulation as soon as it
    provably passes the incumbent.  Exact counts, so the floors are the
    counts measured when the bound landed: 19 shared, 8 cut in the
    final rung (10 in all)."""
    dep = DependenceGraph.from_lower_csr(generate_workload("65-4-3").matrix)
    rt = Runtime(nproc=8, observe=True)
    verdict = rt.tune(dep)
    tune, = (ev for ev in rt.observer.tracer.events
             if ev.name == "tune" and "sims" in ev.attrs)
    counts = ", ".join(f"{k}={tune.attrs[k]}" for k in (
        "sims", "sims_shared", "sims_cut", "final_cut"))
    with capsys.disabled():
        print(f"\n  search on 65-4-3, nproc=8: {counts}")
    assert verdict.sims == tune.attrs["sims"] == 65   # candidate scorings
    assert tune.attrs["sims_shared"] >= 19
    assert tune.attrs["final_cut"] >= 8


# ----------------------------------------------------------------------
# What the instrumentation costs
# ----------------------------------------------------------------------

def test_a_disabled_span_costs_a_few_dict_lookups(gate):
    """``maybe_span(None, ...)`` — a call, an ``is None`` test and an
    empty ``with`` over the shared no-op span — measures about ten
    inlined dict lookups (≈ 0.2 µs); an allocation on the disabled path
    would double that."""
    probe = {"observer": None}

    def lookups():
        for _ in range(50_000):
            probe["observer"]

    def spans():
        for _ in range(50_000):
            with maybe_span(None, "execute"):
                pass

    gate("disabled span / dict lookup", lookups, spans,
         at_most=15, pairs=30, calls=3)


def test_observe_overhead_on_a_cache_hit_compile(gate):
    """``Runtime(observe=True)`` on the cache-hit compile — the most
    guard-dense path per unit of real work, so an upper bound for the
    knob.  Measured +3 to +4 % (quartiles within a point of the
    median): the ``compile`` span and ``session_get``'s snapshot /
    mirror bracket are all of it (≈ 17 and ≈ 10 µs of a 950 µs call,
    each about twice its cost in isolation); the tracer's growing event
    list and the collector are none of it.  The bound is 5 %."""
    n, nproc = 20_000, 16
    ia = np.random.default_rng(1989).integers(0, n, size=n)
    off = Runtime(nproc=nproc, cache=8)
    on = Runtime(nproc=nproc, cache=8, observe=True)
    off.compile(ia)
    on.compile(ia)
    gate(f"observe=True / observe=False, cache-hit compile n={n}",
         lambda: off.compile(ia), lambda: on.compile(ia),
         at_most=1.05, pairs=30, calls=100)
    assert off.observer is None and on.cache_stats.misses == 1
    assert (on.observer.metrics.value("schedule_cache.hits")
            == on.cache_stats.hits)     # ... and mirrored every one


def test_armed_idle_resilience_overhead(gate):
    """A retry policy that never fires, on repeated executions of one
    compiled loop: the recovery router and its tier walk run, nothing
    fails.  Sized so a call takes a few milliseconds and the fixed
    guards can rise above the timer.  Measured −1 to +1 % (median
    0.994 on a 2-vCPU host); the bound is 2 %."""
    n, nproc = 200_000, 8
    rng = np.random.default_rng(1989)
    program = LoopProgram.from_indirection(
        rng.integers(0, n, size=n), x=rng.random(n), b=rng.random(n))
    off = Runtime(nproc=nproc).compile(program)
    idle = Runtime(nproc=nproc, recovery=RetryPolicy()).compile(program)
    assert np.array_equal(idle(with_sim=False).x, off(with_sim=False).x)
    gate(f"armed-idle / disarmed execution, Figure 3 n={n}",
         lambda: off(with_sim=False), lambda: idle(with_sim=False),
         at_most=1.02, pairs=30, calls=25)
