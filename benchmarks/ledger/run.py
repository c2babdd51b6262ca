#!/usr/bin/env python3
"""The perf ledger: one command for every speed number this repo quotes.

    python benchmarks/ledger/run.py                      # all six workloads
    python benchmarks/ledger/run.py --workload fig3_cold --seed 7
    python benchmarks/ledger/run.py --runs 10 --out A.json
    python benchmarks/ledger/run.py --compare A.json B.json

Each workload runs in its own fresh child interpreter, one at a time,
with ``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread; the child builds
its inputs from ``--seed``, checks every result bit for bit against the
plain-Python oracles in ``ledger_oracles.py``, and reports its metrics
by name.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
both without ``--trace``.  See README.md beside this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # child start: the clock setup_s counts from

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Temp store directories live inside the checkout and are removed on
#: exit, also after a failed op.
TMP = HERE / ".tmp"
#: A child gets this long before the parent gives up on it.
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 1989
DEFAULT_SECONDS = 10.0

sys.path.insert(0, str(HERE))
from ledger_compare import compare_files  # noqa: E402
from ledger_metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="run only this workload (repeatable)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of one measured run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics; "
                         "omitted: both")
    ap.add_argument("--runs", type=int, default=1,
                    help="repeat every workload with seeds seed..seed+runs-1")
    ap.add_argument("--out", type=Path, help="write all records here as JSON")
    ap.add_argument("--spans", type=Path,
                    help="write the traced pass's spans here as JSON")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two --out files; non-zero on a regression")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        ap.error("--seed must be >= 0, --seconds > 0 and --runs >= 1")
    return args


# ----------------------------------------------------------------------
# Child: one workload, in this interpreter
# ----------------------------------------------------------------------

def _child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ledger_driver import run_workload
    from ledger_workloads import WORKLOAD_CLASSES

    import_s = time.perf_counter() - _T0
    name = args.workload[0]
    tmp = TMP / f"{name}-{os.getpid()}"
    spans = [] if args.spans else None
    try:
        record = run_workload(
            WORKLOAD_CLASSES[name](args.seed, tmp_root=tmp),
            # With only the per-layer metrics wanted, the untraced pass
            # is there for the trace-overhead baseline: half the time.
            seconds=args.seconds / 2 if args.trace == 1 else args.seconds,
            trace=args.trace != 0, import_s=import_s, spans_out=spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if spans is not None:
        record["spans"] = spans
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# Parent: a fresh child per workload, one at a time
# ----------------------------------------------------------------------

def _meta(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "host": platform.node(), "platform": platform.platform(),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha,
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "argv": sys.argv[1:],
    }


def _spawn(name: str, seed: int, args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", name, "--seed", str(seed),
           "--seconds", str(args.seconds)]
    if args.trace is not None:
        cmd += ["--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", str(args.spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"workload {name} (seed {seed}): child exited "
                         f"with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _show(record: dict) -> None:
    print(f"\n== {record['workload']}  seed={record['seed']}  "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:>16.9g} {m['unit']}")


def _result_line(records: list, trace) -> str:
    """The contract's last line: one workload → its metrics by name;
    several → ``workload:metric`` keys."""
    wanted = {name for name, *_ in
              (() if trace == 1 else END_TO_END)
              + (() if trace == 0 else PER_LAYER)}
    single = len(records) == 1
    metrics = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            if name in wanted:
                key = name if single else f"{rec['workload']}:{name}"
                metrics[key] = m
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def _parent(args) -> int:
    names = args.workload or list(WORKLOADS)
    for path in (args.out, args.spans):
        if path is not None:  # before the minutes of measuring, not after
            path.parent.mkdir(parents=True, exist_ok=True)
    meta = _meta(args)
    records, spans = [], []
    try:
        for run in range(args.runs):
            for name in names:
                record = _spawn(name, args.seed + run, args)
                spans += [dict(s, workload=name, seed=record["seed"])
                          for s in record.pop("spans", ())]
                record["why"] = WORKLOADS[name]
                records.append(record)
                _show(record)
    finally:
        # Children remove their own directory; this catches one killed
        # by the timeout.
        shutil.rmtree(TMP, ignore_errors=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"schema": "repro-ledger/1", "meta": meta, "records": records},
            indent=1) + "\n")
    if args.spans:
        args.spans.write_text(json.dumps(spans) + "\n")
    print()
    print(_result_line(records[-len(names):], args.trace))
    return 0


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.child:
        return _child(args)
    return _parent(args)


if __name__ == "__main__":
    sys.exit(main())
