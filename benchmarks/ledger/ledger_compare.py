"""``run.py --compare A.json B.json`` — the regression gate.

For every (workload, end-to-end metric) pair present in both files:
both medians, the ratio B/A with A as its base, the bound from
``ledger_metrics``, and a verdict:

* ``unresolved`` — A's own runs spread (inter-quartile distance over
  median) wider than the bound while the two sets of runs overlap, so
  the gate cannot tell;
* ``regressed`` / ``improved`` — B's median is worse / better than A's
  by more than the bound (or, under a wide spread, every run of B is
  on that side of every run of A);
* ``unchanged`` — otherwise.

Model and count metrics (``ledger_metrics.EXACT``) must agree exactly
between runs of the same seed; ``model_speedup`` falling or
``fail_frac`` rising is a regression whatever its size.  The exit code
is non-zero on any regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from ledger_metrics import END_TO_END, EXACT

__all__ = ["compare", "compare_files", "verdict"]


def _spread(values) -> float:
    """Inter-quartile distance over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """Classify runs ``b`` against baseline runs ``a`` of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wa = [sign * v for v in a]  # larger = worse, whatever the direction
    wb = [sign * v for v in b]
    if _spread(a) > bound:
        # Too noisy for the median: only a clean separation counts.
        if min(wb) > max(wa):
            return "regressed"
        if max(wb) < min(wa):
            return "improved"
        return "unresolved"
    base = statistics.median(a)
    worse = ((statistics.median(wb) - statistics.median(wa)) / abs(base)
             if base else 0.0)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def _load(path) -> dict:
    """``{workload: {metric: {seed: value}}}`` of one ``--out`` file."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for rec in json.loads(path.read_text())["records"]:
        for name, m in rec["metrics"].items():
            out[rec["workload"]][name][rec["seed"]] = m["value"]
    return out


def compare(a: dict, b: dict) -> tuple[list, list]:
    """Rows ``(workload, metric, med_a, med_b, ratio, bound, verdict)``
    and the list of exact-metric disagreements."""
    rows, breaks = [], []
    for workload in a:
        if workload not in b:
            continue
        for name, _unit, better, bound, _doc in END_TO_END:
            va = list(a[workload].get(name, {}).values())
            vb = list(b[workload].get(name, {}).values())
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            rows.append((workload, name, med_a, med_b,
                         med_b / med_a if med_a else float("nan"), bound,
                         verdict(va, vb, better, bound)))
        for name in sorted(EXACT & a[workload].keys() & b[workload].keys()):
            for seed, value in a[workload][name].items():
                other = b[workload][name].get(seed)
                if other is None or other == value:
                    continue
                bad = (name == "fail_frac" and other > value
                       or name == "model_speedup" and other < value)
                breaks.append((workload, name, seed, value, other,
                               "regressed" if bad else "changed"))
    return rows, breaks


def compare_files(path_a, path_b) -> int:
    rows, breaks = compare(_load(path_a), _load(path_b))
    print(f"A = {path_a}\nB = {path_b}\n")
    print(f"{'workload':<15} {'metric':<12} {'median A':>13} "
          f"{'median B':>13} {'B/A':>7} {'bound':>6}  verdict")
    for workload, name, med_a, med_b, ratio, bound, what in rows:
        print(f"{workload:<15} {name:<12} {med_a:>13.6g} {med_b:>13.6g} "
              f"{ratio:>7.3f} {bound:>6.2f}  {what}")
    for workload, name, seed, va, vb, what in breaks:
        print(f"{workload:<15} {name} (seed {seed}): A={va!r} B={vb!r}  "
              f"{what}")
    if not breaks:
        print("\nmodel and count metrics agree exactly where both files "
              "have the seed")
    regressed = ([r for r in rows if r[-1] == "regressed"]
                 + [x for x in breaks if x[-1] == "regressed"])
    print(f"\n{len(regressed)} regression(s)")
    return 1 if regressed else 0
