"""Unit tests for grids, discretizations and the named test problems."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ValidationError
from repro.mesh.blockops import block_seven_point, seven_point_structure
from repro.mesh.fd2d import (
    exact_solution_2d,
    five_point_laplacian,
    five_point_problem6,
    nine_point_problem7,
)
from repro.mesh.fd3d import exact_solution_3d, seven_point_problem8
from repro.mesh.grid import Grid2D, Grid3D
from repro.mesh.problems import PROBLEM_NAMES, get_problem, list_problems


class TestGrid2D:
    def test_index_roundtrip(self):
        g = Grid2D(5, 7)
        idx = np.arange(g.n)
        ix, iy = g.coords(idx)
        np.testing.assert_array_equal(g.index(ix, iy), idx)

    def test_natural_ordering_x_fastest(self):
        g = Grid2D(5, 7)
        assert g.index(1, 0) == 1
        assert g.index(0, 1) == 5

    def test_interior_mask(self):
        g = Grid2D(3, 3)
        assert g.interior_mask(0, 0)
        assert not g.interior_mask(-1, 0)
        assert not g.interior_mask(3, 0)

    def test_coordinates_in_unit_square(self):
        g = Grid2D(4, 4)
        x, y = g.xy(np.arange(g.n))
        assert np.all((x > 0) & (x < 1) & (y > 0) & (y < 1))

    def test_antidiagonal(self):
        g = Grid2D(5, 7)
        assert g.antidiagonal(0) == 0
        assert g.antidiagonal(g.index(4, 6)) == 10

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            Grid2D(0, 5)


class TestGrid3D:
    def test_index_roundtrip(self):
        g = Grid3D(3, 4, 5)
        idx = np.arange(g.n)
        ix, iy, iz = g.coords(idx)
        np.testing.assert_array_equal(g.index(ix, iy, iz), idx)

    def test_ordering(self):
        g = Grid3D(3, 4, 5)
        assert g.index(1, 0, 0) == 1
        assert g.index(0, 1, 0) == 3
        assert g.index(0, 0, 1) == 12

    def test_antidiagonal(self):
        g = Grid3D(3, 3, 3)
        assert g.antidiagonal(g.index(2, 2, 2)) == 6


class TestFivePointLaplacian:
    def test_stencil_values(self):
        g = Grid2D(4, 4)
        a = five_point_laplacian(g)
        dense = a.to_dense()
        # interior point (1,1) -> index 5
        assert dense[5, 5] == pytest.approx(4.0)
        assert dense[5, 4] == pytest.approx(-1.0)
        assert dense[5, 6] == pytest.approx(-1.0)
        assert dense[5, 1] == pytest.approx(-1.0)
        assert dense[5, 9] == pytest.approx(-1.0)

    def test_symmetric(self):
        a = five_point_laplacian(Grid2D(6, 6))
        dense = a.to_dense()
        np.testing.assert_allclose(dense, dense.T)

    def test_spd(self):
        a = five_point_laplacian(Grid2D(5, 5))
        eigs = np.linalg.eigvalsh(a.to_dense())
        assert eigs.min() > 0


class TestProblem6:
    def test_manufactured_consistency(self):
        a, b, u = five_point_problem6(10)
        np.testing.assert_allclose(a.matvec(u), b, rtol=1e-12)

    def test_five_point_connectivity(self):
        a, _, _ = five_point_problem6(8)
        assert a.row_nnz().max() <= 5

    def test_exact_solution_vanishes_on_boundary(self):
        # u = x e^{xy} sin(pi x) sin(pi y) vanishes at x,y in {0,1}
        assert exact_solution_2d(0.0, 0.5) == 0.0
        assert exact_solution_2d(1.0, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert exact_solution_2d(0.5, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestProblem7:
    def test_manufactured_consistency(self):
        a, b, u = nine_point_problem7(10)
        np.testing.assert_allclose(a.matvec(u), b, rtol=1e-12)

    def test_nine_point_connectivity(self):
        a, _, _ = nine_point_problem7(8)
        assert a.row_nnz().max() == 9
        # corner rows have only 3 neighbours + center
        assert a.row_nnz().min() == 4

    def test_requires_square_grid(self):
        with pytest.raises(ValueError):
            nine_point_problem7(8, 9)


class TestProblem8:
    def test_manufactured_consistency(self):
        a, b, u = seven_point_problem8(5)
        np.testing.assert_allclose(a.matvec(u), b, rtol=1e-12)

    def test_seven_point_connectivity(self):
        a, _, _ = seven_point_problem8(4)
        assert a.row_nnz().max() <= 7

    def test_exact_solution_vanishes_on_boundary(self):
        assert exact_solution_3d(0.0, 0.5, 0.5) == 0.0
        assert exact_solution_3d(0.5, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)


class TestBlockOps:
    def test_seven_point_structure_dominant(self):
        a = seven_point_structure(Grid3D(4, 4, 4), seed=0)
        dense = a.to_dense()
        diag = np.abs(np.diag(dense))
        off = np.abs(dense).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_block_expansion_size(self):
        a = block_seven_point(3, 3, 2, block_size=3, seed=0)
        assert a.nrows == 3 * 3 * 2 * 3

    def test_scalar_shortcut(self):
        a = block_seven_point(3, 3, 2, block_size=1, seed=0)
        assert a.nrows == 18


class TestProblemRegistry:
    def test_list_problems(self):
        assert list_problems() == PROBLEM_NAMES

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            get_problem("NOPE")

    @pytest.mark.parametrize("name,n", [
        ("SPE1", 1000), ("SPE2", 1080), ("SPE3", 5005),
        ("SPE4", 1104), ("SPE5", 3312), ("5-PT", 3969),
        ("9-PT", 3969), ("7-PT", 8000),
    ])
    def test_paper_sizes(self, name, n):
        assert get_problem(name).n == n

    def test_scaled(self):
        p = get_problem("5-PT", scale=0.25)
        assert p.n == 16 * 16  # round(63 * 0.25) = 16

    def test_cached(self):
        assert get_problem("SPE1") is get_problem("SPE1")

    def test_manufactured_rhs_consistent(self, small_mesh_problem):
        p = small_mesh_problem
        np.testing.assert_allclose(p.a.matvec(p.x_exact), p.b, rtol=1e-12)

    def test_spe_rhs_consistent(self, small_spe_problem):
        p = small_spe_problem
        np.testing.assert_allclose(p.a.matvec(p.x_exact), p.b, rtol=1e-10)

    def test_case_insensitive(self):
        assert get_problem("spe1").name == "SPE1"

    def test_spe_rhs_is_the_same_in_every_process(self):
        # It was seeded from hash(name), which CPython salts per
        # process: SPE1's iteration count flipped between report runs.
        code = ("import hashlib; from repro.mesh.problems import get_problem; "
                "print(hashlib.sha1(get_problem('SPE1', scale=0.5)"
                ".b.tobytes()).hexdigest())")
        src = str(Path(repro.__file__).resolve().parents[1])
        digests = {
            subprocess.run(
                [sys.executable, "-c", code], check=True, timeout=60,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            ).stdout
            for seed in ("1", "2")}
        assert len(digests) == 1
