#!/usr/bin/env bash
# Repo check: byte-compile the library, guard the one-loop-type, one-kernel,
# one-run-path, one-level-contract, one-classic-executor, one-extractor,
# one-identity, session-free-store, one-simulator-engine, one-walk-chooser,
# one-ordering-owner, one-scorer, one-arbiter, one-repair-set,
# one-speculative-gate, one-plan-builder, no-search-store-keys, one-store-discipline,
# two-instruments, two-plans,
# one-factor-one-solve-path (no private inspection under krylov/: the
# factorization's order is a session compile's), one-stencil-query,
# one-row-pointer-build,
# no-fixed-width-row-pointer,
# one-inspector-owner, one-pricing-path, plain-unpriced-put,
# one-schedule-normaliser, unbounded-oracle,
# one-backend-dispatch, one-Figure-8-row, structures-are-values, no-compile-counter,
# one-timeout-check, oracles-stay-oracles, one-amortisation-model,
# one-values-read, one-run-reader, one-input-module and
# no-randomness-in-the-runtime rules, then run the tier-1 test suite.
#
# Usage:  scripts/check.sh [extra pytest args]
#
# Exits non-zero on the first failure of either step.

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall: src =="
python -m compileall -q src

echo "== one loop type: no second loop class under src =="
# CompiledLoop(plan) replaced these; the fork must not grow back.
forked='BoundLoop|SpeculativeLoop|SpeculativeBoundLoop|TransformedLoop'
forked="$forked|_SpeculativeInspection|_BundleInspection|_fallback_tiers"
# ... and the one replay kernel replaced these.
forked="$forked|RecordedKernel|RecordedTrace|writers_index"
# ... and LoopProgram.record / Runtime.compile replaced the AST-generated
# inspector/executor and the doconsider shim.
forked="$forked|DoconsiderLoop|DoconsiderResult|doconsider\(|parallelize_source"
forked="$forked|ParallelizedLoop|TransformError"
# ... and extract_statement_dependences / ResolvedAccess.pairs replaced
# the flat extractor and the private event flatteners; the simulator's
# mutable engine switch and the identity striped_sort_dependence went
# with them.
forked="$forked|extract_dependences\b|_event_arrays|_statement_events"
forked="$forked|striped_sort_dependence|DEFAULT_ENGINE"
# ... and the one list-based event loop replaced the batched and
# single-processor simulator engines and the knob that chose among them.
forked="$forked|ENGINES|SCALAR_LEVEL|_run_batched|_run_single_proc"
forked="$forked|_scalar_span|_fast_levels|_legal_order"
# ... and the machine model as the tuner's one scorer replaced the
# wall-clock stage two; Runtime.compile's speculative reroute the
# look-alike backend; ClassicExecutor its one-subclass base; and the
# census found the last three names without a caller.
forked="$forked|time_spec|_check_arbitration|SpeculativeBackend|LevelExecutor"
forked="$forked|segment_max|flop_count_"
# ... and a loop compiled from LoopProgram.from_csr replaced the
# application layer's private inspector/executor.
forked="$forked|LevelScheduledSolver"
# ... and the executor's four entry points, picked by name in
# LoopPlan.execute, replaced the backend class hierarchy and its
# registry; every compile resolves its strategy without a memo.
forked="$forked|ExecutionBackend|SerialBackend|SimBackend|ThreadsBackend"
forked="$forked|ProcessesBackend|register_backend|backend_registry"
forked="$forked|_strategy_memo|_ResolvedStrategy|needs_kernel|last_timeline"
# ... and unit-weight greedy is the wrapped deal, and a search hands its
# winner back from the call, never as state left on the shared tuner.
forked="$forked|_greedy_unit_owner|last_measurements|last_winner"
# ... and the shadow scan keeps only the shadows it reads: identity
# writes compare each read against its iteration, with no shadow.
forked="$forked|min_read"
# ... and strategy="auto" is the one arbiter between speculating and
# inspecting: the run-time guard, its price and its constants went.
forked="$forked|break_even_rate|FALLBACK_THRESHOLD|MIN_FALLBACK_RATE"
forked="$forked|DEFAULT_EXPECTED_EXECUTIONS|fell_back|fallback_threshold"
forked="$forked|_record_verdict"
# ... and a speculative plan is a ScheduledPlan whose executor runs on
# every backend: the third plan class and the backend refusals went.
forked="$forked|SpeculativePlan|_refuse\b"
# ... and the process machine runs the loop's own kernel: the private
# solver classes and their worker row loops went.
forked="$forked|ProcessPrescheduledSolver|ProcessSelfExecutingSolver"
forked="$forked|_ProcessSolverBase|_solve_rows_batch|_self_executing_walk"
# ... and a scored candidate is a (score, spec) pair or a Scored plan:
# the full-size oracle's own result type went.
forked="$forked|\bMeasurement\b"
if grep -rnE "$forked" src --include='*.py'; then
    echo "error: a name the single CompiledLoop / replay kernel / front end / extractor / simulator engine / scorer / executor base / triangular-solve path / backend dispatch replaced reappeared" >&2
    exit 1
fi
if grep -rnE 'engine\s*=' src/repro/machine --include='*.py'; then
    echo "error: an engine= selector reappeared under src/repro/machine" >&2
    exit 1
fi

echo "== one repair set: the violated iterations, nothing restored =="
# A speculative run never attempts its repair set, so the set is the
# violated set: the co-writer closure, its clean-cut fallback, the
# shadows only they read, the restore price and the per-executor
# report went.
repair='repair_set|clean_cut|_CLOSURE_CAP|multi_writer|max_write'
repair="$repair|restore_elements|restored_elements|last_conflicts"
if grep -rnE "$repair" src examples --include='*.py'; then
    echo "error: a name of the deleted repair closure / restore price reappeared" >&2
    exit 1
fi
# ... and the session counts no compiles: cache_hit, executions, rebinds
# and the cache's stats are the amortisation counters, so a speculative
# compile digests nothing.  (speculation_key stays callable.)
if grep -rnE 'compile_count|_count_compile|_compile_counts' src examples \
        --include='*.py'; then
    echo "error: a name of the deleted per-structure compile counter reappeared" >&2
    exit 1
fi

echo "== one arbiter: a loop runs the plan its compile chose =="
# Only a rebind (runtime/session.py) replaces loop.plan for good; a
# recovery tier (resilience/recovery.py) installs its plan for one call
# and restores it.  Nothing swaps a plan because of how a run went.
swaps=$(grep -rnE '\.plan\s*=[^=]' src --include='*.py' \
        | grep -vE '^src/repro/(runtime/session|resilience/recovery)\.py:' || true)
if [ -n "$swaps" ]; then
    echo "$swaps"
    echo "error: .plan = assigned outside runtime/session.py and resilience/recovery.py" >&2
    exit 1
fi

echo "== one walk chooser: only simulate_self_executing picks a simulator walk =="
# The per-iteration event loop and the level walk evaluate the same plan
# bit for bit; the plan's mean level width, read in one function, picks
# between them — no selector, no second caller.
sim=src/repro/machine/simulator.py
from_line=$(grep -n '^def simulate_self_executing(' "$sim" | cut -d: -f1)
to_line=$(awk -v at="${from_line:-0}" 'NR > at && /^def /{print NR; exit}' "$sim")
walks=$(grep -rnE '\b(_run_scalar|_run_levels)\(' src --include='*.py' \
        | grep -vE ':[0-9]+:def ' || true)
if [ -z "$from_line" ] || [ "$(echo "$walks" | grep -c .)" -ne 2 ] \
   || [ -n "$(echo "$walks" | awk -F: -v file="$sim" -v lo="$from_line" \
              -v hi="${to_line:-0}" '$1 != file || $2 <= lo || $2 >= hi')" ]; then
    echo "$walks"
    echo "error: _run_scalar( / _run_levels( must each be called once under src, inside simulate_self_executing" >&2
    exit 1
fi

echo "== one owner of a legal order: Schedule, not the machine model =="
# machine/simulator.py asks the Schedule it is handed; core may import
# the model from it (SimResult, the simulate_* functions, work_vector,
# sequential_time) but no ordering helper.
ordering='toposort_plan|execution_levels|wavefront_batches|deps_cross_wavefronts|_combined_plan'
if grep -nE "^\s*def ($ordering)\b" src/repro/machine/simulator.py; then
    echo "error: machine/simulator.py defines an ordering function" >&2
    exit 1
fi
# One-line imports, then parenthesised lists (-z: they span lines).
from_sim='from \.\.machine\.simulator import'
if grep -rnE "$from_sim .*\b($ordering)\b" src/repro/core --include='*.py' \
   || grep -rlzE "$from_sim \([^)]*\b($ordering)\b" src/repro/core --include='*.py'; then
    echo "error: src/repro/core imports an ordering helper from the machine model" >&2
    exit 1
fi

echo "== one classic executor: run_threaded / run_processes defined once under src =="
# self / preschedule / doacross / speculative share ClassicExecutor's engines.
for entry in run_threaded run_processes; do
    defs=$(grep -rn "def $entry\b" src --include='*.py' || true)
    if [ "$(echo "$defs" | grep -c "def $entry")" -ne 1 ]; then
        echo "$defs"
        echo "error: $entry must be defined exactly once under src" >&2
        exit 1
    fi
done

echo "== two plans: exactly two LoopPlan subclasses under src =="
# ScheduledPlan (a speculative executor included) and StagedPlan.
plans=$(grep -rnE '^\s*class \w+\([^)]*\b(LoopPlan|ScheduledPlan|StagedPlan)\b' \
        src --include='*.py' || true)
if [ "$(echo "$plans" | grep -c 'class ')" -ne 2 ]; then
    echo "$plans"
    echo "error: exactly two classes under src may subclass LoopPlan" >&2
    exit 1
fi

echo "== one structure identity: hashlib imported in one module =="
# Every store key and structure hash goes through util/digest.py.
hashers=$(grep -rlE '^\s*(import hashlib|from hashlib )' src --include='*.py' || true)
if [ "$hashers" != "src/repro/util/digest.py" ]; then
    echo "$hashers"
    echo "error: hashlib imported outside src/repro/util/digest.py" >&2
    exit 1
fi

echo "== shared objects hold no session: nothing assigns an observer onto one =="
# Sessions mirror their own counter deltas of a shared store.
if grep -rnE '(cache|store|plan)\w*\.observer\s*=[^=]' src tests --include='*.py'; then
    echo "error: session state assigned onto a shared cache/store/plan" >&2
    exit 1
fi

echo "== fault injection is a test fixture: no FaultPlan / InjectedFault / faults= under src =="
# tests/faults.py patches the seams from outside the library.
if grep -rnE 'FaultPlan|InjectedFault|faults=' src --include='*.py'; then
    echo "error: fault injection plumbing under src/ (it lives in tests/faults.py)" >&2
    exit 1
fi

echo "== one speculative gate: the executor flag is read on one line =="
# Runtime._plan routes a speculative-flagged executor to the
# no-inspection plan; every compile and every scored candidate build there.
gates=$(grep -rn 'get("speculative")' src --include='*.py' || true)
if [ "$(echo "$gates" | grep -c 'get("speculative")')" -ne 1 ]; then
    echo "$gates"
    echo "error: the speculative flag must be read on exactly one line under src" >&2
    exit 1
fi

echo "== no randomness in the runtime: ties and chunks go in index order =="
# A schedule is a fixed function of the access pattern (the paper's
# sorted list, dealt wrapped): a score tie goes to the first candidate
# enumerated and the speculative chunks run in index order.  Nothing
# under the runtime packages imports random or repro.util.rng, or draws
# from numpy's; the generators (workload/, mesh/, sparse/build.py,
# util/rng.py) keep theirs.  The session's seed keyword went with them.
drawn='^\s*(import random\b|from random import)|\butil\.rng\b'
drawn="$drawn|from \.+util import [^#]*\brng\b|\bnp\.random\b"
drawn="$drawn|\bnumpy\.random\b|default_rng|\.permutation\("
if grep -rnE "$drawn" src/repro/{core,machine,program,runtime,speculate,tuning} \
        --include='*.py'; then
    echo "error: the runtime draws a random number" >&2
    exit 1
fi
if grep -rnE 'tune_seed=' src examples --include='*.py'; then
    echo "error: a Runtime(tune_seed=) keyword reappeared" >&2
    exit 1
fi

echo "== one plan builder: a search candidate is a plan, not a compiled loop =="
# The tuner scores what Runtime._plan builds: no code under tuning/
# calls .compile( (an AST walk: the package docstring's example is
# prose), and only the session and the speculative plan's module
# construct a ScheduledPlan.
compiles=$(python - <<'PY'
import ast, pathlib

for path in sorted(pathlib.Path("src/repro/tuning").rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"):
            print(f"{path}:{node.lineno}")
PY
)
if [ -n "$compiles" ]; then
    echo "$compiles"
    echo "error: the tuner compiles a loop (score the plan Runtime._plan builds)" >&2
    exit 1
fi
if grep -rn 'ScheduledPlan(' src --include='*.py' \
        | grep -vE '^src/repro/(runtime/session|speculate/loop)\.py:'; then
    echo "error: ScheduledPlan( constructed outside runtime/session.py and speculate/loop.py" >&2
    exit 1
fi

echo "== a search builds no store keys: schedule keys come from Runtime._plan =="
# A rung's candidates asking for one inspection bind the first one's
# (tuning.measure.SharedSims): no code under tuning/ keys or looks up a
# schedule.  The one store bracket there is Tuner._tune's TuningStore
# verdict lookup (an AST walk: one key_for, session_get, session_put).
keyed=$(python - <<'PY'
import ast, pathlib

found = []


class Finder(ast.NodeVisitor):
    def __init__(self, path):
        self.path, self.defs = path, [""]

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute)
                and f.attr in ("key_for", "session_get", "session_put")):
            found.append((self.defs[-1], ast.unparse(f),
                          f"{self.path}:{node.lineno}"))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == "ScheduleCache":
            found.append(("", "ScheduleCache", f"{self.path}:{node.lineno}"))


for path in sorted(pathlib.Path("src/repro/tuning").rglob("*.py")):
    Finder(path).visit(ast.parse(path.read_text(), str(path)))
if sorted(f[:2] for f in found) != [("_tune", "TuningStore.key_for"),
                                    ("_tune", "store.session_get"),
                                    ("_tune", "store.session_put")]:
    for name, call, where in found:
        print(f"{where}: {call} in {name or 'module'}")
PY
)
if [ -n "$keyed" ]; then
    echo "$keyed"
    echo "error: src/repro/tuning builds a store key or looks one up outside Tuner._tune (schedule keys come from Runtime._plan)" >&2
    exit 1
fi

echo "== one store discipline: only LruStoreBase writes entries to disk =="
# Temp file, atomic rename and index bump are the base class's write
# loop; a store subclass supplies format hooks, never a loop of its own.
writes=$(grep -rnE '\b(_tmp_path|_index_bump)\(' src --include='*.py' \
         | grep -vE 'def (_tmp_path|_index_bump)\(' || true)
subclass=$(grep -n '^class ScheduleCache' src/repro/runtime/cache.py | cut -d: -f1)
if [ -n "$(echo "$writes" | awk -F: -v at="$subclass" \
           '$1 != "src/repro/runtime/cache.py" || $2 > at')" ]; then
    echo "$writes"
    echo "error: _tmp_path( / _index_bump( called outside LruStoreBase" >&2
    exit 1
fi

echo "== one proxy fallback: _ReplayArray built in one place =="
# Taped kernels never touch the per-iteration proxies; the only code
# that constructs them is StatementReplayKernel._proxies.
built=$(grep -rn '_ReplayArray(' src --include='*.py' || true)
if [ "$(echo "$built" | grep -c '^src/repro/program/recording.py:')" -ne 1 ] \
   || [ "$(echo "$built" | wc -l)" -ne 1 ]; then
    echo "$built"
    echo "error: _ReplayArray constructed outside the proxy fallback" >&2
    exit 1
fi

echo "== one run path: no executor walks iterations itself =="
# Every classic executor runs through ClassicExecutor.run; the only
# per-index calls under src/repro/core are flat_walk and the
# SerialExecutor oracle, both in core/executor.py.
calls=$(grep -rn 'execute_index(' src/repro/core --include='*.py' \
        | grep -v 'def execute_index' || true)
if [ -n "$(echo "$calls" | grep -v '^src/repro/core/executor.py:' || true)" ] \
   || [ "$(echo "$calls" | grep -c '^src/repro/core/executor.py:')" -ne 2 ]; then
    echo "$calls"
    echo "error: a per-index walk outside flat_walk / SerialExecutor" >&2
    exit 1
fi
# The speculative executor is a ClassicExecutor whose level plan is its
# chunks, then its repair set's wavefronts: it calls no kernel method itself.
calls=$(grep -rnE 'execute_(index|batch)\(' src/repro/speculate --include='*.py' || true)
if [ -n "$calls" ]; then
    echo "$calls"
    echo "error: src/repro/speculate drives a kernel outside ClassicExecutor.run" >&2
    exit 1
fi
# Its price is a closed form of per-chunk and repair-set event counts:
# no per-iteration count array and no prefix sum of length n.
if grep -rnE 'read_counts|cumsum\(' src/repro/speculate --include='*.py'; then
    echo "error: a per-iteration price under src/repro/speculate (use AccessLog.range_counts)" >&2
    exit 1
fi

echo "== one level contract: a vectorized kernel runs its whole level plan =="
# ClassicExecutor.run hands execute_levels the whole LevelPlan: no level
# range, no plan clipped to one, no step wrapper around the tape's spans.
if grep -rnE 'spans_between|TapeSteps' src --include='*.py'; then
    echo "error: a level range or the tape's step wrapper reappeared under src" >&2
    exit 1
fi
# -z: a signature may span lines.
if grep -rlzE 'def execute_levels\([^)]*\b(lo|hi)\b' src --include='*.py'; then
    echo "error: an execute_levels under src takes a level range" >&2
    exit 1
fi
# execute_batch is the per-level hook of hand-written kernels (the
# LoopKernel base, SimpleLoopKernel, krylov/ilu.py's IKJ elimination); a
# structure-compiled kernel builds no one-level plan behind it.
batches=$(grep -rn 'def execute_batch' src --include='*.py' \
          | grep -vE '^src/repro/(core/executor|krylov/ilu)\.py:' || true)
if [ -n "$batches" ]; then
    echo "$batches"
    echo "error: def execute_batch under src outside core/executor.py and krylov/ilu.py" >&2
    exit 1
fi

echo "== one factor, one solve path: nothing re-factors or re-inspects what it was handed =="
# A preconditioner is a factorization plus two compiled loops: the
# experiment drivers and the mesh problems read TestProblem.factorization
# instead of building one, and the triangular kernels' batch path is the
# only gather-plan builder.
built=$(grep -rn 'ILUPreconditioner(' src --include='*.py' \
        | grep -vE '^src/repro/krylov/(ilu|parallel)\.py:' || true)
if [ -n "$built" ]; then
    echo "$built"
    echo "error: ILUPreconditioner( constructed outside krylov/ilu.py and krylov/parallel.py" >&2
    exit 1
fi
gathers=$(grep -rn 'LevelGather(' src --include='*.py' \
          | grep -v '^src/repro/core/executor.py:' || true)
if [ -n "$gathers" ]; then
    echo "$gathers"
    echo "error: LevelGather( built outside the substitution kernels of core/executor.py" >&2
    exit 1
fi
# The factorization's row order is a session compile's plan, the one
# inspection its lower solve then hits: nothing under src/repro/krylov
# sorts a graph itself (krylov/parallel.py reads sched.wavefronts only).
if grep -rnE 'compute_wavefronts\(|frontier_sweep\(|wavefront_members\(' \
        src/repro/krylov --include='*.py'; then
    echo "error: a private inspection under src/repro/krylov (compile on a Runtime)" >&2
    exit 1
fi

echo "== each structural question once: stencil query, row pointer, inspector owner =="
# Grid2D/Grid3D.neighbours is the one place a stencil asks which of its
# arms leave the grid; the assemblers, the mesh workload and the model
# problem call it.
masks=$(grep -rn 'interior_mask(' src --include='*.py' \
        | grep -v '^src/repro/mesh/grid.py:' || true)
if [ -n "$masks" ]; then
    echo "$masks"
    echo "error: interior_mask( called outside mesh/grid.py (use Grid.neighbours)" >&2
    exit 1
fi
# util.frontier.counts_to_indptr is the one row-pointer build; the copy
# in core/reference.py is the oracle.
pointers=$(grep -rnE 'cumsum\(.*out=(indptr|indptr_t|bounds)' src --include='*.py' \
           | grep -vE '^src/repro/(util/frontier|core/reference)\.py:' || true)
if [ -n "$pointers" ]; then
    echo "$pointers"
    echo "error: a hand-rolled row pointer outside util/frontier.py (use counts_to_indptr)" >&2
    exit 1
fi
# A fixed-width access is its width: pairs(), unit_work and the skew read
# it, so no program builds a row pointer of arange(n + 1) for one.
if grep -rnE 'indptr\s*=\s*np\.arange' src/repro/program --include='*.py'; then
    echo "error: indptr=np.arange under src/repro/program (a fixed width keeps no row pointer)" >&2
    exit 1
fi
# A session owns its inspector; tables and projections compile through one.
# (The lazy price below borrows a bare one for its cost model, on the
# line the pricing guard pins.)
owners=$(grep -rn 'Inspector(' src --include='*.py' \
         | grep -v '^src/repro/runtime/session.py:' \
         | grep -vE '^src/repro/core/inspector.py:[0-9]+:.*\)\.price_inspection\(' \
         || true)
if [ -n "$owners" ]; then
    echo "$owners"
    echo "error: Inspector( constructed outside runtime/session.py" >&2
    exit 1
fi

echo "== one pricing path: InspectionResult.costs prices on first read =="
# Inspector.inspect does not price: the Table 5 price is computed when
# something reads it, so the lazy costs property is the one caller.
pricing=$(grep -rn 'price_inspection(' src --include='*.py' \
          | grep -v 'def price_inspection(' || true)
inspector=src/repro/core/inspector.py
from_line=$(grep -n 'def costs(self)' "$inspector" | cut -d: -f1)
to_line=$(awk -v at="${from_line:-0}" 'NR > at && /^ *(def |@)/ {print NR; exit}' "$inspector")
if [ -z "$from_line" ] || [ "$(echo "$pricing" | grep -c .)" -ne 1 ] \
   || [ -n "$(echo "$pricing" | awk -F: -v file="$inspector" -v lo="$from_line" \
              -v hi="${to_line:-0}" '$1 != file || $2 <= lo || $2 >= hi')" ]; then
    echo "$pricing"
    echo "error: price_inspection( must be called exactly once under src, from InspectionResult.costs" >&2
    exit 1
fi

echo "== a put stores what it has: no zip, no pricing in the schedule store =="
# An entry is one uncompressed .npz, so a restart reads it without
# inflating anything; and a put writes the price only if something
# already paid it (a seeded InspectionResult.costs), never by reading the
# lazy property that pays.
if grep -rn 'savez_compressed' src/repro/core src/repro/runtime --include='*.py'; then
    echo "error: savez_compressed under src/repro/core or src/repro/runtime (entries are uncompressed)" >&2
    exit 1
fi
if grep -nE '\.costs\b' src/repro/runtime/cache.py; then
    echo "error: runtime/cache.py reads .costs (a put must not price)" >&2
    exit 1
fi

echo "== one schedule normaliser: no literal parse, no split-and-rejoin =="
# Schedule.from_flat builds every schedule from its flat lists, and a
# restart reads an entry in one go, comparing each member's .npy header
# byte for byte: np.load's literal parse of the headers and np.split's
# copy of the lists (rejoined by the constructor) must not come back.
if grep -nE 'np\.(load|split)\(' src/repro/core/schedule.py; then
    echo "error: np.load( or np.split( in src/repro/core/schedule.py (one schedule normaliser)" >&2
    exit 1
fi

echo "== structures are values: no array made writable, no memo set from outside =="
# A graph, a schedule and an inspection own read-only arrays and memoise
# their views as cached properties; a cached schedule is shared by every
# loop and session, so nothing may make one writable or overwrite a memo.
if grep -rnE 'setflags\(write\s*=\s*True|writeable\s*=\s*True' src --include='*.py'; then
    echo "error: an array set writable under src" >&2
    exit 1
fi
if grep -rnE '\b\w+\._(wavefronts|costs|digest|succ_\w+|edge_rows)\s*=[^=]' \
        src tests benchmarks --include='*.py' \
        | grep -vE '\bself\._(wavefronts|costs|digest|succ_\w+|edge_rows)\s*='; then
    echo "error: a memo assigned from outside the value that owns it" >&2
    exit 1
fi

echo "== the oracle stays unbounded: only Tuner._score passes bound= / shared= =="
# A bar and a rung's shared simulations are the search's economies;
# Tuner.exhaustive is what the search is tested against, so it scores
# every candidate in full (measure.py is the plumbing that receives them).
tuner=src/repro/tuning/tuner.py
from_line=$(grep -n 'def _score(' "$tuner" | cut -d: -f1)
to_line=$(awk -v at="${from_line:-0}" 'NR > at && /^ *(def |@)/ {print NR; exit}' "$tuner")
barred=$(grep -rnE '\b(bound|shared)=' src/repro/tuning --include='*.py' \
         | grep -v '^src/repro/tuning/measure.py:' || true)
if [ -z "$from_line" ] || [ -z "$barred" ] \
   || [ -n "$(echo "$barred" | awk -F: -v file="$tuner" -v lo="$from_line" \
              -v hi="${to_line:-0}" '$1 != file || $2 <= lo || $2 >= hi')" ]; then
    echo "$barred"
    echo "error: bound= / shared= passed outside Tuner._score (Tuner.exhaustive must score in full)" >&2
    exit 1
fi

echo "== one backend dispatch: LoopPlan.execute picks the executor's entry point =="
# A backend is an entry point of the plan's executor, not a class: only
# the session calls the real-parallel ones.
entries=$(grep -rnE '\.run_(threaded|processes)\(' src --include='*.py' \
          | grep -v '^src/repro/runtime/session.py:' || true)
if [ -n "$entries" ]; then
    echo "$entries"
    echo "error: .run_threaded( / .run_processes( called outside runtime/session.py" >&2
    exit 1
fi

echo "== one Figure 8 row: the two oracles and one kernel loop =="
# The row substitution is written in sparse/triangular.py's two oracles
# and once in core/executor.py, the loop the serial flat walks and the
# process workers both run; no backend keeps a private copy.
rows=$(grep -rncE --include='*.py' \
       -e '-=\s*[A-Za-z_.]*data\[[^]]*\]\s*\*\s*[A-Za-z_.]*x\[' src \
       | grep -v ':0$' | sort || true)
if [ "$rows" != "$(printf 'src/repro/core/executor.py:1\nsrc/repro/sparse/triangular.py:2')" ]; then
    echo "$rows"
    echo "error: the Figure 8 row is written outside the two oracles and _SubstitutionKernel.execute_index" >&2
    exit 1
fi

echo "== one timeout check: util.validation.check_timeout =="
# Positive, finite and joinable, in one place; a hand-written
# 'timeout > 0' let inf / 1e12 through to the workers.
if grep -rn 'timeout > 0' src --include='*.py'; then
    echo "error: a hand-written timeout check (use check_timeout)" >&2
    exit 1
fi

echo "== oracles stay oracles: nothing under src calls core/reference.py =="
# The sequential per-index loops are what the tests compare the library
# against; a library path that calls one is no longer checked by it.
oracle=$(grep -rnE '\breference\.\w+\(' src --include='*.py' \
         | grep -v '^src/repro/core/reference.py:' || true)
if [ -n "$oracle" ]; then
    echo "$oracle"
    echo "error: reference.<name>( called outside core/reference.py (the oracles are for tests)" >&2
    exit 1
fi

echo "== one amortisation model: analysis/model.py prices an inspection's share =="
# amortised_time is the tuner's score and RunReport's share, break_even
# is loop.report()'s; the horizon is validated where it is held — by the
# session and by the tuner, in their constructors — and nowhere else.
horizons=$(grep -rn 'check_horizon(' src --include='*.py' \
           | grep -v 'def check_horizon(' || true)
# The def each call sits in: both must be an __init__.
callers=$(echo "$horizons" | while IFS=: read -r file line _; do
    [ -n "$file" ] && awk -v at="$line" 'NR < at && /^ *def /{d = $0}
        NR == at {print d}' "$file"
done)
if [ "$(echo "$horizons" | cut -d: -f1 | sort | tr '\n' ' ')" \
        != "src/repro/runtime/session.py src/repro/tuning/tuner.py " ] \
   || [ "$(echo "$callers" | grep -c 'def __init__(')" -ne 2 ]; then
    echo "$horizons"
    echo "error: check_horizon( must be called exactly twice under src, in Runtime.__init__ and Tuner.__init__" >&2
    exit 1
fi
shares=$(grep -rnE 'pipeline_cost /|/ max\(1' src --include='*.py' \
         | grep -v '^src/repro/analysis/model.py:' || true)
if [ -n "$shares" ]; then
    echo "$shares"
    echo "error: an amortisation formula outside analysis/model.py (use amortised_time / break_even)" >&2
    exit 1
fi

echo "== one values read: a triangular sweep reads its matrix values once per binding =="
# LevelGather.values gathers a read-only matrix's values (and divisor)
# once and holds them: it is the one reader of the CSR positions, and
# the sweep gathers no values of its own.
tri=src/repro/sparse/triangular.py
pos_reads=$(grep -n 'self\.pos\b' "$tri" | grep -v 'self\.pos = ' || true)
from_line=$(grep -n '    def values(' "$tri" | cut -d: -f1)
to_line=$(awk -v at="${from_line:-0}" 'NR > at && /^ *(def |@)/ {print NR; exit}' "$tri")
if [ -z "$from_line" ] || [ -z "$pos_reads" ] \
   || [ -n "$(echo "$pos_reads" | awk -F: -v lo="$from_line" \
              -v hi="${to_line:-0}" '$1 <= lo || $1 >= hi')" ]; then
    echo "$pos_reads"
    echo "error: self.pos read outside LevelGather.values in $tri" >&2
    exit 1
fi
sweep_from=$(grep -n '    def sweep(' "$tri" | cut -d: -f1)
sweep_to=$(awk -v at="${sweep_from:-0}" 'NR > at && /^ *(def |@|class )/ {print NR; exit}' "$tri")
if [ -z "$sweep_from" ] \
   || sed -n "${sweep_from},${sweep_to:-\$}p" "$tri" | grep -n 'data\['; then
    echo "error: LevelGather.sweep gathers values itself (data[…]); take them from values()" >&2
    exit 1
fi

echo "== one run reader: only the level plan, the Figure 3 kernel and the speculative plan name runs =="
# A level plan's leading runs (a slice and a kept mask each) are built
# by the speculative plan and run as slices by SimpleLoopKernel alone;
# every other kernel reads the plan's order.  Names, attributes,
# parameters and keywords count; prose does not.
named=$(python - <<'PY'
import ast, pathlib

ALLOWED = ("LevelPlan", "SimpleLoopKernel",
           "SpeculativeExecutor._build_levels")


class Finder(ast.NodeVisitor):
    def __init__(self, path):
        self.path, self.scope = path, []

    def scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = scoped

    def generic_visit(self, node):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or (getattr(node, "arg", None)
                    if isinstance(node, (ast.arg, ast.keyword)) else None))
        where = ".".join(self.scope)
        if name == "runs" and not any(
                where == a or where.startswith(a + ".") for a in ALLOWED):
            print(f"{self.path}:{node.lineno}: {where or '<module>'}")
        super().generic_visit(node)


for path in sorted(pathlib.Path("src").rglob("*.py")):
    Finder(path).visit(ast.parse(path.read_text(), str(path)))
PY
)
if [ -n "$named" ]; then
    echo "$named"
    echo "error: runs named outside LevelPlan, SimpleLoopKernel and SpeculativeExecutor._build_levels" >&2
    exit 1
fi

echo "== one input module: @st.composite only in tests/strategies.py =="
# Property inputs are defined once; a suite that wants a narrower or
# wider one passes an argument instead of keeping a private copy.
composite=$(grep -rln '@st\.composite' tests --include='*.py' || true)
if [ -n "$composite" ] && [ "$composite" != "tests/strategies.py" ]; then
    echo "$composite"
    echo "error: @st.composite outside tests/strategies.py" >&2
    exit 1
fi

echo "== two instruments: the ledger measures, paper_scale.py + gates.py assert =="
# The pytest-benchmark harness (bench_*.py, its conftest, record writer
# and scale knobs) was replaced by two plain pytest files beside the
# ledger; nothing else may grow there.
beside=$(git ls-files benchmarks | grep -v '^benchmarks/ledger/' || true)
if [ "$beside" != "$(printf 'benchmarks/gates.py\nbenchmarks/paper_scale.py')" ]; then
    echo "$beside"
    echo "error: benchmarks/ tracks something other than ledger/, gates.py and paper_scale.py" >&2
    exit 1
fi
# ([_] keeps the pattern from matching this file.)
if git ls-files '*.py' '*.yml' '*.sh' \
   | xargs grep -nE 'pytest[_]benchmark|REPRO_BENCH[_]|save[_]table|raw[_]rows'; then
    echo "error: a name of the deleted benchmark harness reappeared" >&2
    exit 1
fi

echo "== tier-1 tests =="
# --durations names the slowest tests, so a fixed cost shows in the log.
python -m pytest -x -q --durations=10 "$@"
