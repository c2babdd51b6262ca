"""Tests for matrix I/O and schedule persistence."""

import numpy as np
import pytest

from repro.core.dependence import DependenceGraph
from repro.core.schedule import (
    global_schedule,
    load_schedule_npz,
    save_schedule_npz,
)
from repro.core.wavefront import compute_wavefronts
from repro.errors import StructureError
from repro.machine.simulator import simulate
from repro.sparse.build import csr_from_dense, random_lower_triangular
from repro.sparse.io import (
    load_csr_npz,
    read_matrix_market,
    save_csr_npz,
    write_matrix_market,
)


class TestNpzRoundtrip:
    def test_roundtrip(self, tmp_path, small_lower):
        path = tmp_path / "m.npz"
        save_csr_npz(path, small_lower)
        loaded = load_csr_npz(path)
        assert loaded.shape == small_lower.shape
        np.testing.assert_array_equal(loaded.indptr, small_lower.indptr)
        np.testing.assert_allclose(loaded.data, small_lower.data)

    def test_rectangular(self, tmp_path):
        a = csr_from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        path = tmp_path / "r.npz"
        save_csr_npz(path, a)
        assert load_csr_npz(path).allclose(a)


class TestMatrixMarket:
    def test_roundtrip_general(self, tmp_path, small_lower):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, small_lower, comment="test matrix")
        loaded = read_matrix_market(path)
        assert loaded.allclose(small_lower)

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "2 2 2.0\n"
            "3 3 2.0\n"
        )
        a = read_matrix_market(path)
        dense = a.to_dense()
        np.testing.assert_allclose(dense, dense.T)
        assert dense[0, 1] == -1.0 and dense[1, 0] == -1.0

    def test_pattern_matrix(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
            "2 2\n"
        )
        a = read_matrix_market(path)
        np.testing.assert_allclose(a.to_dense(), np.eye(2))

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "% another\n"
            "1 1 1\n"
            "1 1 5.0\n"
        )
        assert read_matrix_market(path).to_dense()[0, 0] == 5.0

    def test_rejects_non_mm(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("not a matrix\n")
        with pytest.raises(StructureError):
            read_matrix_market(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "w.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 1.0\n"
        )
        with pytest.raises(StructureError):
            read_matrix_market(path)

    def test_rejects_complex(self, tmp_path):
        path = tmp_path / "z.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
        )
        with pytest.raises(StructureError):
            read_matrix_market(path)


class TestSchedulePersistence:
    def test_roundtrip_preserves_simulation(self, tmp_path):
        l = random_lower_triangular(80, avg_off_diag=2, seed=21)
        dep = DependenceGraph.from_lower_csr(l)
        wf = compute_wavefronts(dep)
        sched = global_schedule(wf, 4)
        path = tmp_path / "s.npz"
        save_schedule_npz(path, sched)
        loaded = load_schedule_npz(path)
        assert loaded.nproc == sched.nproc
        assert loaded.strategy == sched.strategy
        for a, b in zip(loaded.local_order, sched.local_order):
            np.testing.assert_array_equal(a, b)
        # Simulated timings identical — the point of persisting.
        t0 = simulate(sched, dep, mode="self").total_time
        t1 = simulate(loaded, dep, mode="self").total_time
        assert t0 == t1

    def test_loaded_schedule_validates(self, tmp_path):
        l = random_lower_triangular(40, avg_off_diag=1.5, seed=22)
        dep = DependenceGraph.from_lower_csr(l)
        sched = global_schedule(compute_wavefronts(dep), 3)
        path = tmp_path / "s.npz"
        save_schedule_npz(path, sched)
        load_schedule_npz(path).validate()


class TestUpperKernel:
    def test_upper_solve_through_executors(self, small_lower):
        from repro.core.executor import UpperTriangularSolveKernel
        from repro.core.prescheduled import PreScheduledExecutor
        from repro.core.self_executing import SelfExecutingExecutor
        from repro.sparse.triangular import solve_upper_sequential

        u = small_lower.transpose()
        b = np.sin(np.arange(u.nrows, dtype=float))
        expected = solve_upper_sequential(u, b)
        kernel = UpperTriangularSolveKernel(u, b)
        dep = kernel.dependence_graph()
        wf = compute_wavefronts(dep)
        for make in (
            lambda: SelfExecutingExecutor(global_schedule(wf, 4), dep),
            lambda: PreScheduledExecutor(global_schedule(wf, 4), dep),
        ):
            out = make().run(UpperTriangularSolveKernel(u, b))
            np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_batch_matches_scalar(self, small_lower):
        from repro.core.executor import SerialExecutor, UpperTriangularSolveKernel
        from repro.core.wavefront import wavefront_members

        u = small_lower.transpose()
        b = np.cos(np.arange(u.nrows, dtype=float))
        k_scalar = UpperTriangularSolveKernel(u, b)
        oracle = SerialExecutor().run(k_scalar)

        k_batch = UpperTriangularSolveKernel(u, b)
        k_batch.start()
        dep = k_batch.dependence_graph()
        wf = compute_wavefronts(dep)
        for members in wavefront_members(wf):
            k_batch.execute_batch(members)
        np.testing.assert_array_equal(k_batch.result(), oracle)

    def test_rejects_lower(self, small_lower):
        from repro.core.executor import UpperTriangularSolveKernel
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            UpperTriangularSolveKernel(small_lower, np.ones(small_lower.nrows))
