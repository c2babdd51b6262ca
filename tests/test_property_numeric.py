"""Property-based tests for the numeric substrates (solves, ILU, workloads)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.krylov.ilu import ILUFactorization, ILUPreconditioner, numeric_ilu
from repro.krylov.pcg import pcg
from repro.sparse.triangular import (
    solve_lower_sequential,
    solve_upper_sequential,
    split_triangular,
)
from repro.workload.generator import generate_workload
from repro.workload.naming import format_workload_name, parse_workload_name
from strategies import EXECUTORS, level_loop, lower_systems, spd_matrices


class TestTriangularProperties:
    @given(lower_systems())
    @settings(max_examples=40, deadline=None)
    def test_level_solver_matches_sequential(self, system):
        l, b = system
        got = level_loop(l, b)(with_sim=False).x
        want = solve_lower_sequential(l, b)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @given(lower_systems())
    @settings(max_examples=40, deadline=None)
    def test_solve_satisfies_system(self, system):
        l, b = system
        x = level_loop(l, b)(with_sim=False).x
        np.testing.assert_allclose(l.matvec(x), b, rtol=1e-7, atol=1e-7)

    @given(lower_systems())
    @settings(max_examples=40, deadline=None)
    def test_split_reassembles(self, system):
        l, _ = system
        lo, d, up = split_triangular(l)
        recon = lo.to_dense() + np.diag(d) + up.to_dense()
        np.testing.assert_allclose(recon, l.to_dense())


class TestILUProperties:
    @given(spd_matrices())
    @settings(max_examples=25, deadline=None)
    def test_ilu0_exact_on_pattern(self, a):
        """(LU - A) vanishes on A's sparsity pattern for ILU(0)."""
        lu = numeric_ilu(a)
        f = ILUFactorization.from_lu(lu)
        n = a.nrows
        prod = (f.l_strict.to_dense() + np.eye(n)) @ f.u.to_dense()
        mask = np.zeros((n, n), dtype=bool)
        mask[a.row_of_nnz(), a.indices] = True
        diff = np.abs(prod - a.to_dense())[mask]
        assert diff.max() < 1e-8 if diff.size else True

    @given(spd_matrices())
    @settings(max_examples=15, deadline=None)
    def test_pcg_with_ilu_converges_on_spd(self, a):
        rng = np.random.default_rng(a.nnz)
        x_true = rng.standard_normal(a.nrows)
        b = a.matvec(x_true)
        pre = ILUPreconditioner(a, 0)
        x, _, _, ok = pcg(a, b, pre, tol=1e-10, maxiter=300)
        assert ok
        np.testing.assert_allclose(x, x_true, rtol=1e-5, atol=1e-7)


    @given(spd_matrices())
    @settings(max_examples=15, deadline=None)
    def test_apply_is_the_two_sequential_loops_bit_for_bit(self, a):
        """Whatever strategy compiled the loops, any legal order
        accumulates each row in CSR order."""
        r = np.random.default_rng(a.nnz).standard_normal(a.nrows)
        for level in (0, 1):
            for executor in EXECUTORS:
                for scheduler in ("global", "local"):
                    pre = ILUPreconditioner(a, level, executor=executor,
                                            scheduler=scheduler)
                    f = pre.factorization
                    y = solve_lower_sequential(f.l_strict, r,
                                               unit_diagonal=True)
                    z = solve_upper_sequential(f.u, y, diag=f.u_diag)
                    assert np.array_equal(pre.apply(r), z), (
                        level, executor, scheduler)


class TestWorkloadProperties:
    @given(
        st.integers(min_value=2, max_value=20),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.5, max_value=6.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_generator_invariants(self, mesh, deg, dist, seed):
        wl = generate_workload(mesh, deg, dist, seed=seed)
        m = wl.matrix
        assert m.nrows == mesh * mesh
        assert m.is_lower_triangular()
        assert m.has_full_diagonal()
        # Solvable as a triangular system.
        b = np.ones(m.nrows)
        x = level_loop(m, b)(with_sim=False).x
        assert np.all(np.isfinite(x))

    @given(
        st.integers(min_value=1, max_value=500),
        st.one_of(
            st.none(),
            st.floats(min_value=0.1, max_value=99.0).map(lambda f: round(f, 2)),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_naming_roundtrip(self, mesh, deg):
        dist = None if deg is None else 2.0
        name = format_workload_name(mesh, deg, dist)
        parsed = parse_workload_name(name)
        assert parsed["mesh"] == mesh
        if deg is None:
            assert parsed["mean_degree"] is None
        else:
            assert parsed["mean_degree"] == deg
