"""Unit tests for incomplete LU factorization and preconditioners."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Runtime
from repro.core.executor import SerialExecutor
from repro.errors import StructureError, ValidationError
from repro.krylov import ilu
from repro.krylov.ilu import (
    ILUFactorization,
    ILUPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    _IKJKernel,
    _factor,
    make_preconditioner,
    numeric_ilu,
    symbolic_ilu,
)
from repro.mesh.problems import get_problem
from repro.sparse.build import csr_from_dense
from repro.sparse.csr import CSRMatrix
from repro.mesh.fd2d import five_point_laplacian
from repro.mesh.grid import Grid2D
from repro.sparse.triangular import (
    solve_lower_sequential,
    solve_upper_sequential,
)
from strategies import EXECUTORS, ilu_systems
from test_contract import same
from test_level_execution import count_holds


def banded_spd(n=20, bw=1):
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = 4.0
        for k in range(1, bw + 1):
            if i - k >= 0:
                dense[i, i - k] = -1.0
            if i + k < n:
                dense[i, i + k] = -1.0
    return dense


class TestSymbolic:
    def test_ilu0_is_original_pattern_plus_diag(self):
        dense = banded_spd()
        pat = symbolic_ilu(csr_from_dense(dense), 0)
        np.testing.assert_array_equal(
            (pat.to_dense() >= 0) & (np.abs(dense) > 0),
            np.abs(dense) > 0,
        )
        assert pat.has_full_diagonal()

    def test_ilu0_enforces_missing_diag(self):
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])
        pat = symbolic_ilu(csr_from_dense(dense), 0)
        assert pat.has_full_diagonal()

    def test_level1_superset_of_level0(self):
        a = five_point_laplacian(Grid2D(6, 6))
        p0 = symbolic_ilu(a, 0)
        p1 = symbolic_ilu(a, 1)
        assert p1.nnz >= p0.nnz
        d0 = p0.to_dense() * 0 + (np.abs(p0.to_dense()) >= 0)
        # every level-0 position also present in level-1
        mask0 = np.zeros(p0.shape, dtype=bool)
        rows0 = p0.row_of_nnz()
        mask0[rows0, p0.indices] = True
        mask1 = np.zeros(p1.shape, dtype=bool)
        rows1 = p1.row_of_nnz()
        mask1[rows1, p1.indices] = True
        assert np.all(mask1[mask0])

    def test_levels_recorded(self):
        a = five_point_laplacian(Grid2D(5, 5))
        p1 = symbolic_ilu(a, 1)
        assert p1.data.max() <= 1.0
        assert p1.data.min() == 0.0

    def test_tridiagonal_level_any_no_fill(self):
        """A tridiagonal matrix factors with no fill at any level."""
        a = csr_from_dense(banded_spd(10, 1))
        assert symbolic_ilu(a, 3).nnz == a.nnz

    def test_rejects_negative_level(self):
        with pytest.raises(ValidationError):
            symbolic_ilu(csr_from_dense(banded_spd()), -1)

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            symbolic_ilu(csr_from_dense(np.ones((2, 3))), 0)


class TestNumeric:
    def test_tridiagonal_exact(self):
        """ILU(0) of a tridiagonal matrix is the exact LU factorization."""
        dense = banded_spd(12, 1)
        lu = numeric_ilu(csr_from_dense(dense))
        f = ILUFactorization.from_lu(lu)
        l_dense = f.l_strict.to_dense() + np.eye(12)
        u_dense = f.u.to_dense()
        np.testing.assert_allclose(l_dense @ u_dense, dense, rtol=1e-12)

    def test_product_matches_on_pattern(self):
        """For ILU(0), (LU - A) vanishes on A's pattern."""
        a = five_point_laplacian(Grid2D(6, 6))
        lu = numeric_ilu(a)
        f = ILUFactorization.from_lu(lu)
        n = a.nrows
        prod = (f.l_strict.to_dense() + np.eye(n)) @ f.u.to_dense()
        diff = prod - a.to_dense()
        mask = np.zeros((n, n), dtype=bool)
        mask[a.row_of_nnz(), a.indices] = True
        np.testing.assert_allclose(diff[mask], 0.0, atol=1e-10)

    def test_higher_level_closer_to_exact(self):
        a = five_point_laplacian(Grid2D(6, 6))
        n = a.nrows

        def residual(level):
            pat = symbolic_ilu(a, level)
            f = ILUFactorization.from_lu(numeric_ilu(a, pat))
            prod = (f.l_strict.to_dense() + np.eye(n)) @ f.u.to_dense()
            return np.abs(prod - a.to_dense()).max()

        assert residual(2) < residual(0)

    def test_zero_pivot_detected(self):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(StructureError):
            numeric_ilu(csr_from_dense(dense))

    def test_pattern_missing_an_entry_names_the_row(self):
        a = csr_from_dense(banded_spd(6))
        keep = np.ones((6, 6))
        keep[3, 2] = keep[5, 4] = 0.0  # the first offender is reported
        with pytest.raises(StructureError, match="entries of A in row 3;"):
            numeric_ilu(a, csr_from_dense(keep))

    def test_pattern_missing_a_diagonal_names_the_row(self):
        a = csr_from_dense(np.tril(banded_spd(6)) - 4.0 * np.eye(6))
        keep = np.tril(np.ones((6, 6)))
        keep[2, 2] = keep[4, 4] = 0.0
        with pytest.raises(StructureError,
                           match="row 2 lacks a diagonal entry"):
            numeric_ilu(a, csr_from_dense(keep))

    def test_pattern_shape_mismatch(self):
        a = csr_from_dense(banded_spd(5))
        pat = symbolic_ilu(csr_from_dense(banded_spd(6)), 0)
        with pytest.raises(ValidationError):
            numeric_ilu(a, pat)


class TestOwnStructure:
    """ILU(0) of a matrix whose rows are strictly sorted and store their
    diagonals is A's own structure: no assembly, no keyed scatter."""

    @staticmethod
    def general(fn):
        """``fn()`` with every matrix reporting unsorted rows: ILU(0)
        assembles its pattern and the kernel searches for A's values."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CSRMatrix, "has_sorted_indices", lambda self: False)
            return fn()

    @given(ilu_systems())
    @settings(max_examples=80, deadline=None)
    def test_the_own_structure_is_the_general_path(self, system):
        a, _ = system
        fast, slow = symbolic_ilu(a, 0), self.general(
            lambda: symbolic_ilu(a, 0))
        for got, want in zip((fast.indptr, fast.indices, fast.data),
                             (slow.indptr, slow.indices, slow.data)):
            assert np.array_equal(got, want)
        with np.errstate(all="ignore"):
            got = outcome(lambda: numeric_ilu(a).data)
            want = self.general(lambda: outcome(lambda: numeric_ilu(a).data))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same(got, want)

    @pytest.mark.parametrize("entries,assembles", [
        ([(0, 0), (1, 0), (1, 1), (2, 2)], 0),          # A's own
        ([(0, 0), (1, 1), (1, 0), (2, 2)], 1),          # an unsorted row
        ([(0, 0), (1, 0), (1, 0), (1, 1), (2, 2)], 1),  # a repeated entry
        ([(0, 0), (1, 0), (2, 2)], 1),                  # a missing diagonal
    ])
    def test_anything_else_takes_the_general_path(self, entries, assembles,
                                                  monkeypatch):
        rows, cols = np.array(entries).T
        a = CSRMatrix(np.concatenate(([0], np.cumsum(np.bincount(
            rows, minlength=3)))), cols, np.arange(1.0, rows.size + 1),
            (3, 3))
        assembled = []
        assemble = ilu.coo_to_csr
        monkeypatch.setattr(ilu, "coo_to_csr",
                            lambda *args, **kw: assembled.append(args)
                            or assemble(*args, **kw))
        pattern = symbolic_ilu(a, 0)
        assert len(assembled) == assembles
        assert pattern.has_sorted_indices() and pattern.has_full_diagonal()
        assert pattern.nnz == 4
        assert np.array_equal(pattern.indices, [0, 0, 1, 2])

    def test_the_own_structure_holds_no_array_of_a(self):
        """Structures are values: the pattern holds read-only copies of
        A's writable index arrays (shares read-only ones), and a factor
        is unmoved by the caller's later writes into A."""
        a = five_point_laplacian(Grid2D(7, 6))
        pattern = symbolic_ilu(a, 0)
        for mine, theirs in ((pattern.indptr, a.indptr),
                             (pattern.indices, a.indices),
                             (pattern.data, a.data)):
            assert not mine.flags.writeable or mine is pattern.data
            assert not np.shares_memory(mine, theirs)
        lu = numeric_ilu(a)
        kept = [lu.indptr.copy(), lu.indices.copy(), lu.data.copy()]
        a.indices[:] = 0
        a.indptr[1:] = a.nnz
        a.data[:] = np.nan
        for got, want in zip((lu.indptr, lu.indices, lu.data), kept):
            assert np.array_equal(got, want)
        frozen = CSRMatrix(pattern.indptr, pattern.indices, kept[2],
                           pattern.shape)
        assert symbolic_ilu(frozen, 0).indices is frozen.indices


def ikj_loop(a, pattern=None):
    """The IKJ loop: the elimination kernel walked in index order."""
    return SerialExecutor().run(_IKJKernel(a, pattern))


def outcome(factor):
    """What ``factor()`` did: its factor's values, or its error's type
    and message."""
    try:
        return factor()
    except (StructureError, FloatingPointError) as exc:
        return type(exc), str(exc)


def chains(values=(), missing=(), width=3):
    """``width`` independent rows, then ``width`` rows reading all of
    them, then ``width`` reading those: three wavefronts wide enough to
    run as batches.  ``values`` sets ``(i, j)`` entries; the rows in
    ``missing`` store no diagonal."""
    n = 3 * width
    dense = np.eye(n) * 4.0
    for level in (1, 2):
        for i in range(level * width, (level + 1) * width):
            dense[i, (level - 1) * width:level * width] = 1.0
    for (i, j), value in dict(values).items():
        dense[i, j] = value
    dense[missing, missing] = 0.0
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return CSRMatrix(indptr, cols, dense[rows, cols], (n, n))


class TestLevelScheduled:
    """The factorization runs as a compiled loop, one batch per
    wavefront, and is the IKJ loop bit for bit — its warnings, its
    exceptions and its zero-pivot row too."""

    @given(ilu_systems(), st.sampled_from(("serial", "threads")),
           st.sampled_from(EXECUTORS), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_every_schedule_is_the_ikj_loop(self, system, backend, executor,
                                            nproc):
        """``serial`` is :func:`numeric_ilu`'s own call; ``threads`` runs
        the compiled pattern's lanes on the kernel directly — row by row,
        in parallel, with no hand-over to the loop — so a zero pivot
        names whichever zero-pivot row a lane meets first."""
        a, pattern = system
        rt = Runtime(nproc=nproc)

        def threaded():
            kernel = _IKJKernel(a, pattern)
            loop = rt.compile(kernel.pattern, executor=executor)
            loop(kernel, backend="threads", with_sim=False)
            return kernel.data

        with np.errstate(all="ignore"):
            want = outcome(lambda: ikj_loop(a, pattern))
            if backend == "serial":
                got = outcome(lambda: _factor(a, pattern, rt,
                                              executor=executor).data)
            else:
                got = outcome(threaded)
        if not isinstance(want, tuple):
            assert same(got, want)
        elif backend == "serial":
            assert got == want
        else:
            assert got[0] is StructureError and "zero pivot" in got[1]

    def test_the_l5pt_factor_is_the_loops_and_runs_batched(self, monkeypatch):
        a = get_problem("L5-PT", scale=0.25).a
        batches = []
        batch = _IKJKernel.execute_batch
        monkeypatch.setattr(_IKJKernel, "execute_batch",
                            lambda k, rows: batches.append(rows.size)
                            or batch(k, rows))
        lu = numeric_ilu(a)
        assert np.array_equal(lu.data.view(np.uint64),
                              ikj_loop(a).view(np.uint64))
        assert len(batches) > 0 and sum(batches) > a.nrows // 2

    def test_a_zero_pivot_past_the_first_is_the_loops_error(self):
        """Rows 3 and 5 have no diagonal, so their pivots are zero; the
        wavefront holding both is eliminated before either is reported,
        and the rows after them divide by zero.  The loop reports row 3
        and divides by nothing: neither warns nor raises otherwise,
        under any ``np.errstate``."""
        a = chains(missing=[3, 5])
        for mode in ("warn", "raise", "ignore"):
            with warnings.catch_warnings(), np.errstate(all=mode):
                warnings.simplefilter("error")
                with pytest.raises(StructureError,
                                   match=r"zero pivot produced at row 3$"):
                    numeric_ilu(a)

    def test_the_loops_warnings_and_exceptions_are_the_sweeps(self):
        """Rows 0 and 1 hold an infinite upper entry, so row 3 subtracts
        ``inf`` and then ``-inf`` from its (3, 6) entry: NaN.  The sweep
        warns what the loop warns, raises what it raises, and returns
        the loop's factor when it does not."""
        a = chains({(0, 6): np.inf, (1, 6): -np.inf, (3, 6): 1.0})
        for mode in ("warn", "raise", "ignore", "call"):
            runs = []
            for factor in (lambda: ikj_loop(a), lambda: numeric_ilu(a).data):
                called = []
                calls = lambda kind, flag: called.append(kind)  # noqa: E731
                with warnings.catch_warnings(record=True) as seen, \
                        np.errstate(all=mode, call=calls):
                    warnings.simplefilter("always")
                    runs.append((outcome(factor),
                                 [str(w.message) for w in seen], called))
            (want, *reported), (got, *also) = runs
            if isinstance(want, tuple):
                assert got == want
            else:
                assert same(got, want)
            assert also == reported
        with np.errstate(all="ignore"):
            assert np.isnan(ikj_loop(a)[a.indptr[3]:a.indptr[4]]).any()

    def test_the_factorization_and_the_lower_solve_share_one_inspection(self):
        """A preconditioner factors on its own session: the lower solve
        (and here, the pattern being symmetric, the upper one) compiles
        as a hit of the factorization's inspection."""
        a = five_point_laplacian(Grid2D(12, 12))
        pre = ILUPreconditioner(a, 0)
        stats = pre.lower_loop.runtime.cache_stats
        assert (stats.misses, stats.hits) == (1, 2)
        assert pre.lower_loop.cache_hit and pre.upper_loop.cache_hit
        assert np.array_equal(pre.factorization.lu.data, ikj_loop(a))


class TestPreconditioners:
    def test_ilu_apply_solves_lu(self):
        dense = banded_spd(15, 1)
        a = csr_from_dense(dense)
        pre = ILUPreconditioner(a, 0)
        r = np.sin(np.arange(15.0))
        z = pre.apply(r)
        # Tridiagonal ILU(0) is exact: z = A^{-1} r.
        np.testing.assert_allclose(dense @ z, r, rtol=1e-10)

    def test_ilu_logging(self):
        from repro.krylov.oplog import OperationLog
        a = csr_from_dense(banded_spd(10))
        pre = ILUPreconditioner(a, 0)
        log = OperationLog()
        pre.apply(np.ones(10), log)
        assert log.counts["lower_solve"] == 1
        assert log.counts["upper_solve"] == 1

    def test_apply_reads_each_factor_once(self, monkeypatch):
        """Each apply is bitwise the two sequential loops: the first,
        which gathers each factor's values, and every one after, which
        reuses them.  The factors are read-only, so the loops bind the
        factorization's own arrays."""
        held = count_holds(monkeypatch)
        a = five_point_laplacian(Grid2D(12, 12))
        pre = ILUPreconditioner(a, 0)
        f = pre.factorization
        rs = np.sin(np.outer(np.arange(1.0, 5.0), np.arange(a.nrows)))
        for r in (*rs, rs[0]):
            y = solve_lower_sequential(f.l_strict, r, unit_diagonal=True)
            assert np.array_equal(
                pre.apply(r), solve_upper_sequential(f.u, y, diag=f.u_diag))
        assert held == [0, 0, 1]   # L's values; U's values and diagonal
        assert pre.lower_loop.program.data["a"] is f.l_strict.data
        assert pre.upper_loop.program.data["diag"] is f.u_diag

    def test_jacobi(self):
        a = csr_from_dense(np.diag([2.0, 4.0]))
        pre = JacobiPreconditioner(a)
        np.testing.assert_allclose(pre.apply(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_jacobi_rejects_zero_diag(self):
        a = csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(StructureError):
            JacobiPreconditioner(a)

    def test_identity(self):
        a = csr_from_dense(np.eye(3))
        r = np.arange(3.0)
        np.testing.assert_array_equal(IdentityPreconditioner(a).apply(r), r)

    def test_factory(self):
        a = csr_from_dense(banded_spd(8))
        assert make_preconditioner(a, None).name == "none"
        assert make_preconditioner(a, "none").name == "none"
        assert make_preconditioner(a, "jacobi").name == "jacobi"
        assert make_preconditioner(a, "ilu0").level == 0
        assert make_preconditioner(a, "ilu1").level == 1
        with pytest.raises(ValidationError):
            make_preconditioner(a, "cholesky")

    @pytest.mark.parametrize("build", [
        lambda a: make_preconditioner(a, "ilu-1"),
        lambda a: make_preconditioner(a, "ilux"),
        lambda a: make_preconditioner(a, "ilu1.5"),
        lambda a: ILUPreconditioner(a, -3),
        lambda a: ILUPreconditioner(a, 1.0),
        lambda a: ILUPreconditioner(a, True),
    ], ids=["ilu-1", "ilux", "ilu1.5", "-3", "1.0", "True"])
    def test_level_must_be_a_non_negative_integer(self, build):
        """No spelling silently builds ILU(0) or leaks an ``int()`` error."""
        with pytest.raises(ValidationError, match="non-negative integer"):
            build(csr_from_dense(banded_spd(8)))
