#!/usr/bin/env bash
# Repo check: byte-compile the library, guard the one-loop-type rule,
# then run the tier-1 test suite.
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
if grep -rnE "$forked" src --include='*.py'; then
    echo "error: a name the single CompiledLoop replaced reappeared" >&2
    exit 1
fi

echo "== tier-1 tests =="
python -m pytest -x -q "$@"
