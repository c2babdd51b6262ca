"""Unit tests for the Section 4.2 analytical models."""

import numpy as np
import pytest

from repro.analysis.dense import DenseTriangularModel
from repro.analysis.model import (
    ModelProblem,
    eopt_prescheduled_approx,
    eopt_prescheduled_exact,
    eopt_self_executing,
    mc_prescheduled,
    ratio_limit_fixed_n,
    ratio_limit_square,
    time_ratio,
)
from repro.analysis.projections import project_efficiencies
from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule
from repro.errors import ValidationError
from repro.machine.costs import MULTIMAX_320, ZERO_OVERHEAD
from repro.machine.simulator import simulate


class TestMC:
    def test_ramp_middle_tail(self):
        # m=4, n=6, p=2: phases 1..9
        assert mc_prescheduled(1, 4, 6, 2) == 1   # 1 strip
        assert mc_prescheduled(3, 4, 6, 2) == 2   # 3 strips over 2 procs
        assert mc_prescheduled(5, 4, 6, 2) == 2   # min(m,n)=4 strips
        assert mc_prescheduled(9, 4, 6, 2) == 1   # 1 strip left

    def test_phase_bounds(self):
        with pytest.raises(ValidationError):
            mc_prescheduled(0, 4, 4, 2)
        with pytest.raises(ValidationError):
            mc_prescheduled(8, 4, 4, 2)

    def test_p_bound(self):
        with pytest.raises(ValidationError):
            mc_prescheduled(1, 4, 4, 5)


class TestEfficiencies:
    def test_single_processor_perfect(self):
        assert eopt_prescheduled_exact(8, 8, 1) == pytest.approx(1.0)
        assert eopt_self_executing(8, 8, 1) == pytest.approx(1.0)

    def test_self_bounds(self):
        e = eopt_self_executing(10, 10, 4)
        assert 0 < e < 1
        assert e == pytest.approx(100 / (100 + 12))

    def test_self_geq_prescheduled(self):
        """Overheads aside, self-execution's parallelism is always at
        least pre-scheduling's (paper, Section 5.1.1)."""
        for m, n, p in ((16, 16, 4), (40, 12, 8), (9, 9, 3), (30, 7, 7)):
            assert eopt_self_executing(m, n, p) >= eopt_prescheduled_exact(m, n, p)

    def test_approx_close_to_exact(self):
        for m, n, p in ((32, 32, 8), (64, 24, 8), (48, 48, 16), (40, 16, 4)):
            exact = eopt_prescheduled_exact(m, n, p)
            approx = eopt_prescheduled_approx(m, n, p)
            assert abs(exact - approx) < 0.08

    def test_exact_when_p_divides(self):
        """With p | min(m, n) and a square-ish domain, ramp waste is the
        only term and the approximation is tight."""
        exact = eopt_prescheduled_exact(32, 32, 8)
        approx = eopt_prescheduled_approx(32, 32, 8)
        assert abs(exact - approx) < 0.02


class TestRatio:
    def test_square_limit(self):
        # The limit drops the sync term (grows as n+m vs mn), so use a
        # modest r_sync at finite size for the comparison to be fair.
        r_inc, r_check = 0.2, 0.1
        lim = ratio_limit_square(r_inc=r_inc, r_check=r_check)
        big = time_ratio(256, 256, 8, r_sync=1.0, r_inc=r_inc, r_check=r_check)
        assert abs(big - lim) < 0.1
        assert lim == pytest.approx(1.0 / 1.4)

    def test_skinny_limit(self):
        r_sync, r_inc, r_check = 8.0, 0.2, 0.1
        p = 8
        lim = ratio_limit_fixed_n(p, r_sync=r_sync, r_inc=r_inc, r_check=r_check)
        big = time_ratio(4096, p + 1, p, r_sync=r_sync, r_inc=r_inc, r_check=r_check)
        assert abs(big - lim) / lim < 0.05

    def test_ratio_favors_self_on_skinny_domains(self):
        """Skinny domain + expensive barriers -> self wins (ratio > 1)."""
        r = time_ratio(512, 9, 8, r_sync=10.0, r_inc=0.2, r_check=0.13)
        assert r > 1.0

    def test_ratio_favors_preschedule_on_square_cheap_sync(self):
        r = time_ratio(256, 256, 8, r_sync=1.0, r_inc=0.3, r_check=0.15)
        assert r < 1.0


class TestModelProblemClass:
    def test_simulator_agreement_prescheduled(self):
        mp = ModelProblem(24, 18)
        dep = mp.dependence_graph()
        sched = global_schedule(mp.wavefronts(), 6)
        sim = simulate(sched, dep, ZERO_OVERHEAD, mode="preschedule",
                       unit_work=mp.uniform_work())
        assert sim.efficiency == pytest.approx(mp.eopt_prescheduled(6), rel=1e-12)

    def test_simulator_agreement_self(self):
        mp = ModelProblem(24, 18)
        dep = mp.dependence_graph()
        sched = global_schedule(mp.wavefronts(), 6)
        sim = simulate(sched, dep, ZERO_OVERHEAD, mode="self",
                       unit_work=mp.uniform_work())
        assert sim.efficiency == pytest.approx(mp.eopt_self(6), rel=1e-12)

    def test_dependence_graph_numbers_x_fastest(self):
        m, n = 5, 3  # m points along x, the fastest-running index
        edges = [(iy * m + ix, iy * m + ix - back)
                 for iy in range(n) for ix in range(m)
                 for back, inside in ((m, iy > 0), (1, ix > 0)) if inside]
        assert (ModelProblem(m, n).dependence_graph().digest
                == DependenceGraph.from_edges(edges, m * n).digest)

    def test_wavefronts_are_antidiagonals(self):
        mp = ModelProblem(5, 7)
        from repro.core.wavefront import compute_wavefronts
        np.testing.assert_array_equal(
            compute_wavefronts(mp.dependence_graph()), mp.wavefronts(),
        )

    def test_ratio_uses_cost_model(self):
        mp = ModelProblem(64, 64, MULTIMAX_320)
        assert mp.ratio(8) > 0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            ModelProblem(0, 5)


class TestDenseModel:
    def test_closed_forms(self):
        d = DenseTriangularModel(11)
        assert d.sequential_saxpys() == 55
        assert d.self_executing_time() == 10.0
        assert d.prescheduled_time() == 55.0
        assert d.eopt_self() == pytest.approx(11 / 20)
        assert d.eopt_prescheduled() == pytest.approx(1 / 10)

    def test_fine_grained_simulation_matches(self):
        for n in (5, 20, 60):
            d = DenseTriangularModel(n)
            assert d.simulate_fine_grained() == pytest.approx(
                d.self_executing_time()
            )

    def test_dependence_graph_dense(self):
        d = DenseTriangularModel(6)
        dep = d.dependence_graph()
        assert dep.num_edges == 15
        assert list(dep.deps(5)) == [0, 1, 2, 3, 4]

    def test_rejects_tiny(self):
        with pytest.raises(ValidationError):
            DenseTriangularModel(1)

    def test_self_far_better_than_prescheduled(self):
        d = DenseTriangularModel(50)
        assert d.eopt_self() / d.eopt_prescheduled() > 20


class TestProjections:
    @pytest.fixture(scope="class")
    def dep(self):
        mp = ModelProblem(32, 32)
        return mp.dependence_graph()

    def test_base_point_consistency(self, dep):
        """At the base processor count the projection equals the
        measured efficiency."""
        proj = project_efficiencies(
            dep, executor="self", base_nproc=8, target_nprocs=(8, 16),
        )
        sched = global_schedule(
            __import__("repro.core.wavefront", fromlist=["compute_wavefronts"])
            .compute_wavefronts(dep), 8,
        )
        measured = simulate(sched, dep, MULTIMAX_320, mode="self").efficiency
        assert proj.at(8) == pytest.approx(measured, rel=1e-9)

    def test_monotone_decrease(self, dep):
        proj = project_efficiencies(
            dep, executor="preschedule", base_nproc=8, target_nprocs=(8, 16, 32),
        )
        assert proj.at(8) >= proj.at(16) >= proj.at(32)

    def test_prescheduled_degrades_faster(self):
        # A skinny domain (the paper's hard case): at p close to the
        # short dimension, pre-scheduling's end effects bite while
        # self-execution merely pays pipeline fill/drain.
        mp = ModelProblem(96, 33)
        dep = mp.dependence_graph()
        p_self = project_efficiencies(
            dep, executor="self", base_nproc=8, target_nprocs=(8, 32),
            unit_work=mp.uniform_work(),
        )
        p_pre = project_efficiencies(
            dep, executor="preschedule", base_nproc=8, target_nprocs=(8, 32),
            unit_work=mp.uniform_work(),
        )
        # The paper attributes the divergence to "the increasing
        # disparity between symbolically estimated efficiencies"; the
        # retention ratio E(32)/E(8) isolates exactly that (the constant
        # overhead factor cancels).
        retained_self = p_self.at(32) / p_self.at(8)
        retained_pre = p_pre.at(32) / p_pre.at(8)
        assert retained_pre < retained_self

    def test_best_in_unit_interval(self, dep):
        proj = project_efficiencies(dep, executor="self", base_nproc=8)
        assert 0 < proj.best <= 1.0

    def test_bad_executor(self, dep):
        with pytest.raises(ValidationError):
            project_efficiencies(dep, executor="nope")
