"""Regenerate the full measured report from the command line.

Usage::

    python -m repro.experiments [--nproc N] [--scale S] [--quick] [-o FILE]

``--quick`` skips the full Krylov solves (Table 1), which dominate the
runtime; ``--scale`` shrinks the mesh problems for smoke runs.
"""

from __future__ import annotations

import argparse
import sys

from .report import generate_report
from .runner import ExperimentContext


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table/figure of the reproduction.",
    )
    parser.add_argument("--nproc", type=int, default=16,
                        help="simulated processor count (default 16)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="positive finite problem scale (default 1.0 = paper sizes)")
    parser.add_argument("--quick", action="store_true",
                        help="skip Table 1 (the full Krylov solves)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the Markdown report to FILE (default stdout)")
    args = parser.parse_args(argv)

    ctx = ExperimentContext(nproc=args.nproc, scale=args.scale)
    report = generate_report(ctx, include_table1=not args.quick)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
