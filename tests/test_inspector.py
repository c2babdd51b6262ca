"""Unit tests for the run-time inspector and its cost accounting."""

import dataclasses

import numpy as np
import pytest

from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.inspector import Inspector
from repro.core.wavefront import compute_wavefronts
from repro.errors import ValidationError
from repro.machine.simulator import sequential_time
from repro.machine.costs import MULTIMAX_320
from repro.runtime.registry import partitioner_registry


@pytest.fixture(scope="module")
def inspector():
    return Inspector()


class TestDependencesOf:
    def test_accepts_graph(self, inspector, small_lower_dep):
        assert inspector.dependences_of(small_lower_dep) is small_lower_dep

    def test_accepts_csr(self, inspector, small_lower):
        dep = inspector.dependences_of(small_lower)
        assert isinstance(dep, DependenceGraph)
        assert dep.n == small_lower.nrows

    def test_accepts_indirection(self, inspector):
        dep = inspector.dependences_of(np.array([0, 0, 1]))
        assert dep.n == 3

    def test_accepts_nested_indirection(self, inspector):
        dep = inspector.dependences_of(np.array([[0, 0], [0, 0], [1, 0]]))
        assert list(dep.deps(2)) == [0, 1]

    def test_rejects_3d(self, inspector):
        with pytest.raises(ValidationError):
            inspector.dependences_of(np.zeros((2, 2, 2)))


class TestInspect:
    @pytest.mark.parametrize("strategy", ["global", "local", "identity"])
    def test_strategies_produce_valid_schedules(self, inspector, small_lower_dep, strategy):
        res = inspector.inspect(small_lower_dep, 4, strategy=strategy)
        res.schedule.validate()
        assert res.strategy == strategy
        assert res.num_wavefronts > 0

    def test_blocked_assignment(self, inspector, small_lower_dep):
        res = inspector.inspect(
            small_lower_dep, 4, strategy="local", assignment="blocked",
        )
        # Blocked ownership: processor 0 owns a prefix.
        assert np.all(np.diff(res.schedule.owner) >= 0)

    def test_custom_owner(self, inspector, small_lower_dep):
        owner = np.zeros(small_lower_dep.n, dtype=np.int64)
        res = inspector.inspect(small_lower_dep, 2, strategy="local", owner=owner)
        assert res.schedule.local_order[1].size == 0

    def test_unknown_strategy(self, inspector, small_lower_dep):
        with pytest.raises(ValidationError):
            inspector.inspect(small_lower_dep, 4, strategy="nope")

    def test_unknown_assignment(self, inspector, small_lower_dep):
        with pytest.raises(ValidationError):
            inspector.inspect(small_lower_dep, 4, assignment="nope")

    def test_host_time_recorded(self, inspector, small_lower_dep):
        res = inspector.inspect(small_lower_dep, 4)
        assert res.host_seconds >= 0.0


class TestInspectionCosts:
    def test_local_cheaper_than_global(self, inspector, small_lower_dep):
        """The headline of Table 5: local scheduling overhead is much
        smaller than global scheduling overhead."""
        res = inspector.inspect(small_lower_dep, 8, strategy="local")
        assert res.costs.total_local < res.costs.total_global

    def test_sort_cheaper_than_solve(self, inspector, mesh_lower):
        """Paper: sequential sort + rearrange cost slightly less than
        one sequential triangular solve."""
        l, _ = mesh_lower
        dep = DependenceGraph.from_lower_csr(l)
        res = inspector.inspect(dep, 8)
        solve_time = sequential_time(dep, MULTIMAX_320)
        assert res.costs.seq_sort + res.costs.rearrange < solve_time

    def test_parallel_sort_beats_sequential_on_irregular(self, inspector, small_workload):
        dep = DependenceGraph.from_lower_csr(small_workload.matrix)
        res = inspector.inspect(dep, 8)
        assert res.costs.par_sort < res.costs.seq_sort * 1.9

    def test_costs_positive(self, inspector, small_lower_dep):
        res = inspector.inspect(small_lower_dep, 4)
        assert res.costs.seq_sort > 0
        assert res.costs.par_sort > 0
        assert res.costs.rearrange > 0
        assert res.costs.local_sort > 0


@pytest.fixture
def priced(monkeypatch):
    """The ``n`` of every graph ``Inspector.price_inspection`` priced."""
    seen = []
    eager = Inspector.price_inspection

    def counted(self, dep, *args):
        seen.append(dep.n)
        return eager(self, dep, *args)

    monkeypatch.setattr(Inspector, "price_inspection", counted)
    return seen


def figure3(n, seed=0):
    rng = np.random.default_rng(seed)
    return LoopProgram.from_indirection(
        rng.integers(0, n, size=n), x=rng.random(n), b=rng.random(n))


class TestPricedOnRead:
    """The Table 5 price is computed on first read, never by a compile."""

    def test_cold_compile_and_run_price_nothing(self, priced):
        loop = Runtime(nproc=4, tuning=None).compile(figure3(500))
        loop()
        loop.rebind(b=np.ones(500))()
        assert priced == []

    @pytest.mark.parametrize("scheduler", ["global", "local"])
    def test_first_read_equals_the_eager_price_and_is_memoised(
            self, priced, scheduler):
        prog = figure3(700, seed=3)
        loop = Runtime(nproc=8).compile(prog, scheduler=scheduler)
        dep = loop.dep
        eager = Inspector(MULTIMAX_320).price_inspection(
            dep, compute_wavefronts(dep), 8,
            partitioner_registry.get("wrapped")(dep.n, 8))
        assert priced == [700]            # the eager call above
        costs = loop.inspection.costs
        assert dataclasses.astuple(costs) == dataclasses.astuple(eager)
        assert priced == [700, 700]
        assert loop.inspection.costs is costs
        assert loop.report()["inspect_cost"] == loop().inspect_cost
        assert priced == [700, 700]       # no read re-prices

    def test_identity_pipeline_prices_nothing(self, priced):
        loop = Runtime(nproc=4).compile(figure3(300), executor="doacross")
        assert loop.inspection.pipeline_cost == 0.0
        assert priced == []

    def test_cold_auto_prices_only_the_winner(self, priced):
        rt = Runtime(nproc=4, tuning=None)
        loop = rt.compile(figure3(2000), strategy="auto")
        assert loop.verdict.pipeline_cost > 0.0
        assert priced == [2000]

    def test_a_horizon_prices_every_scheduled_candidate(self, priced,
                                                        monkeypatch):
        inspected = []
        inspect = Inspector.inspect

        def recorded(self, *args, **kwargs):
            result = inspect(self, *args, **kwargs)
            inspected.append(result)
            return result

        monkeypatch.setattr(Inspector, "inspect", recorded)
        verdict = Runtime(nproc=4, tuning=None,
                          expected_executions=4).tune(figure3(2000))
        assert verdict.pipeline_cost > 0.0
        # Every candidate inspection the search cached was scored with
        # its price, once: an identity pipeline costs 0 without pricing.
        scheduled = [r.dep.n for r in inspected if r.strategy != "identity"]
        assert len(priced) > 1
        assert sorted(priced) == sorted(scheduled)

    def test_disk_round_trip_keeps_the_price(self, priced, tmp_path):
        prog = figure3(400, seed=5)
        first = Runtime(nproc=4, cache_dir=tmp_path).compile(
            prog, scheduler="global")
        assert priced == [400]            # the sidecar write read it
        loaded = Runtime(nproc=4, cache_dir=tmp_path).compile(
            prog, scheduler="global")
        assert loaded.cache_hit
        assert loaded.inspection.costs == first.inspection.costs
        assert priced == [400]            # the load carried it
