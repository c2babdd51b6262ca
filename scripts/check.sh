#!/usr/bin/env bash
# Repo check: byte-compile the library, guard the one-loop-type, one-kernel,
# one-run-path, one-classic-executor, one-extractor, one-identity and
# session-free-store rules, then run the tier-1 test suite.
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
if grep -rnE "$forked" src --include='*.py'; then
    echo "error: a name the single CompiledLoop / replay kernel / front end / extractor replaced reappeared" >&2
    exit 1
fi

echo "== one classic executor: run_threaded defined once under src/repro/core =="
# self / preschedule / doacross share ClassicExecutor's engines.
threaded=$(grep -rn 'def run_threaded' src/repro/core --include='*.py' || true)
if [ "$(echo "$threaded" | grep -c 'def run_threaded')" -ne 1 ]; then
    echo "$threaded"
    echo "error: run_threaded must be defined exactly once under src/repro/core" >&2
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

echo "== shared objects hold no session: nothing assigns observer/faults onto one =="
# Sessions pass faults= per put() and mirror their own counter deltas —
# of the stores and of the fault plan alike.
if grep -rnE '(cache|store)\w*\.faults\s*=[^=]|(cache|store|faults|plan)\w*\.observer\s*=[^=]' \
        src tests --include='*.py'; then
    echo "error: session state assigned onto a shared cache/store/fault plan" >&2
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
# Every classic executor runs through LevelExecutor.run; the only
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

echo "== tier-1 tests =="
python -m pytest -x -q "$@"
