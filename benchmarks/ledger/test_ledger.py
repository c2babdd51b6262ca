"""The ledger checks itself: names, exact repeats, failure accounting.

In-process, ``n / 20``, three ops a pass — seconds, not the minutes a
measured run takes.  Nothing here asserts a timing.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ledger_compare import compare, verdict  # noqa: E402
from ledger_driver import run_workload  # noqa: E402
from ledger_metrics import END_TO_END, EXACT, PER_LAYER, WORKLOADS  # noqa: E402
from ledger_workloads import WORKLOAD_CLASSES, Fig3Cold  # noqa: E402

SCALE = 1 / 20
SEED = 1989
ALL_NAMES = [name for name, *_ in END_TO_END + PER_LAYER]


def _run(cls, tmp, *, seed=SEED, trace=True):
    wl = cls(seed, scale=SCALE, tmp_root=tmp)
    wl.BACKEND_SAMPLES = 1  # one real-backend sample is enough here
    wl.warmup_ops = 1
    return run_workload(wl, seconds=0, trace=trace, max_ops=3,
                        traced_ops=3, replica_ops=1, setups=1)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return {name: _run(cls, tmp) for name, cls in WORKLOAD_CLASSES.items()}


def test_benchmark_json_repeats_the_tables():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/ledger"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == WORKLOADS
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in END_TO_END]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER]
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    for name in ALL_NAMES + list(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(ALL_NAMES)) == len(ALL_NAMES)
    assert EXACT <= set(ALL_NAMES)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_and_every_op_is_right(records, name):
    rec = records[name]
    assert list(rec["metrics"]) == ALL_NAMES
    assert rec["failed"] == 0 and rec["attempted"] > 0
    assert rec["metrics"]["fail_frac"]["value"] == 0.0
    assert rec["self_check"]["staged_equals_real"]
    for metric, *_ in END_TO_END:
        assert rec["metrics"][metric]["value"] > 0.0, metric
    assert rec["metrics"]["model_speedup"]["value"] > 0.0


@pytest.mark.parametrize("name", ["fig3_cold", "auto_cold", "spec_sparse"])
def test_model_and_counts_repeat_exactly_for_a_seed(records, tmp_path, name):
    again = _run(WORKLOAD_CLASSES[name], tmp_path)
    for metric in sorted(EXACT):
        assert (again["metrics"][metric]["value"]
                == records[name]["metrics"][metric]["value"]), metric


def test_inputs_follow_the_seed():
    pools = []
    for seed in (SEED, SEED, SEED + 1):
        wl = Fig3Cold(seed, scale=SCALE)
        wl.setup()
        pools.append(wl.pool[0])
    assert np.array_equal(pools[0].ia, pools[1].ia)
    assert np.array_equal(pools[0].x, pools[1].x)
    assert not np.array_equal(pools[0].ia, pools[2].ia)
    assert not np.array_equal(pools[0].x, pools[2].x)


class _Faulty(Fig3Cold):
    """After the warm-up: one op raises, the next returns a wrong
    number, the third is fine."""

    def op(self, inp, sp, observe=False):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == self.warmup_ops + 1:
            raise RuntimeError("injected")
        result = super().op(inp, sp, observe)
        if self.calls == self.warmup_ops + 2:
            result.outputs[0] = result.outputs[0] + 1e-9
        return result


def test_a_failed_op_is_counted_and_the_run_goes_on(tmp_path, capsys):
    rec = _run(_Faulty, tmp_path, trace=False)
    assert rec["attempted"] == 4 and rec["failed"] == 2
    assert rec["correct"] is False
    assert rec["metrics"]["fail_frac"]["value"] == 2 / 4
    assert rec["metrics"]["op_s.p50"]["value"] > 0.0  # the third was timed
    err = capsys.readouterr().err
    assert "injected" in err and "differs from the serial oracle" in err


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.02, 1.03, 1.01, 1.02], "lower", 0.10) \
        == "unchanged"
    assert verdict(steady, [1.2, 1.21, 1.19, 1.2], "lower", 0.10) \
        == "regressed"
    assert verdict(steady, [1.2, 1.21, 1.19, 1.2], "higher", 0.10) \
        == "improved"
    noisy = [1.0, 1.3, 0.8, 1.1]
    assert verdict(noisy, [1.2, 1.25, 0.9, 1.2], "lower", 0.10) \
        == "unresolved"
    assert verdict(noisy, [1.4, 1.5, 1.45, 1.6], "lower", 0.10) \
        == "regressed"

    def runs(fail_frac, speedup):
        return {"fig3_cold": {"op_s.p50": {1: 0.1, 2: 0.1},
                              "fail_frac": {1: fail_frac, 2: 0.0},
                              "model_speedup": {1: speedup, 2: 4.0}}}

    rows, breaks = compare(runs(0.0, 4.0), runs(0.0, 4.0))
    assert [r[-1] for r in rows] == ["unchanged"] and not breaks
    _, breaks = compare(runs(0.0, 4.0), runs(0.5, 3.9))
    assert sorted(b[-1] for b in breaks) == ["regressed", "regressed"]
