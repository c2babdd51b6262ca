"""Builders for :class:`~repro.sparse.csr.CSRMatrix`.

These cover everything the mesh generators, the workload generator and
the test-suite need: COO assembly (with duplicate summing), dense
conversion, identity, seeded random lower-triangular structures, and
block expansion (the Kronecker-style "replace each stencil entry with a
dense b×b block" construction used for the SPE-like reservoir
matrices).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..util.frontier import counts_to_indptr
from ..util.rng import default_rng
from ..util.validation import as_float_array, as_int_array, check_positive
from .csr import CSRMatrix

__all__ = [
    "coo_to_csr",
    "csr_from_dense",
    "identity",
    "random_lower_triangular",
    "block_expand",
]


def coo_to_csr(rows, cols, vals, shape, *, sum_duplicates: bool = True) -> CSRMatrix:
    """Assemble a CSR matrix from coordinate triples.

    Duplicate ``(row, col)`` pairs are summed (finite-element style
    assembly) unless ``sum_duplicates`` is false, in which case they are
    kept verbatim.
    Rows are emitted in order and columns sorted within each row.
    """
    rows = as_int_array(rows, "rows")
    cols = as_int_array(cols, "cols")
    vals = as_float_array(vals, "vals")
    if not (rows.shape == cols.shape == vals.shape):
        raise ValidationError("rows, cols and vals must have identical shapes")
    if len(shape) != 2:
        raise ValidationError(f"shape must be (nrows, ncols), got {shape!r}")
    nrows, ncols = int(shape[0]), int(shape[1])
    if rows.size:
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValidationError(f"row indices out of range for shape {shape}")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValidationError(f"column indices out of range for shape {shape}")

    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    if sum_duplicates and rows.size:
        keep = np.empty(rows.size, dtype=bool)
        keep[0] = True
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        summed = np.bincount(group, weights=vals)
        rows, cols = rows[keep], cols[keep]
        vals = summed

    indptr = counts_to_indptr(np.bincount(rows, minlength=nrows))
    return CSRMatrix(indptr, cols, vals, (nrows, ncols), check=False)


def csr_from_dense(dense, *, tol: float = 0.0) -> CSRMatrix:
    """Convert a dense array, dropping entries with ``|a_ij| <= tol``."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValidationError(f"dense input must be 2-D, got shape {dense.shape}")
    mask = np.abs(dense) > tol
    rows, cols = np.nonzero(mask)
    return coo_to_csr(rows, cols, dense[mask], dense.shape, sum_duplicates=False)


def identity(n: int) -> CSRMatrix:
    """The n×n identity matrix."""
    n = check_positive(n, "n")
    return CSRMatrix(
        np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.ones(n, dtype=np.float64),
        (n, n),
        check=False,
    )


def random_lower_triangular(
    n: int,
    *,
    avg_off_diag: float = 3.0,
    max_band: int | None = None,
    unit_diagonal: bool = False,
    seed=None,
) -> CSRMatrix:
    """A random sparse lower-triangular matrix with a full diagonal.

    Each row ``i`` receives ``min(i, Poisson(avg_off_diag))`` strictly
    lower entries drawn without replacement, optionally restricted to a
    band ``[i - max_band, i)`` — banding mimics the locality of mesh
    problems.  Diagonal entries are set to make the matrix comfortably
    diagonally dominant so triangular solves are well conditioned.
    Primarily a test/benchmark workload factory.
    """
    n = check_positive(n, "n")
    if not 0.0 <= avg_off_diag < float("inf"):  # nan fails both
        raise ValidationError(
            f"avg_off_diag must be non-negative and finite, got {avg_off_diag!r}")
    rng = default_rng(seed)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.ones(n)
    for i in range(n):
        lo = 0 if max_band is None else max(0, i - max_band)
        avail = i - lo
        k = min(avail, int(rng.poisson(avg_off_diag)))
        if k > 0:
            picked = rng.choice(np.arange(lo, i), size=k, replace=False)
            picked.sort()
            rows.append(np.full(k, i, dtype=np.int64))
            cols.append(picked.astype(np.int64))
            vals.append(rng.uniform(-1.0, 1.0, size=k))
        if not unit_diagonal:  # dominant; drawn after the row's entries
            diag[i] = avg_off_diag + 2.0 + rng.uniform(0.0, 1.0)
    idx = np.arange(n, dtype=np.int64)
    return coo_to_csr(np.concatenate(rows + [idx]), np.concatenate(cols + [idx]),
                      np.concatenate(vals + [diag]), (n, n))


#: Margin by which the synthetic reservoir diagonals exceed their row
#: sums.  Weak on purpose: enough for a stable zero-fill factorization,
#: weak enough that Krylov iteration counts stay realistic (the
#: proprietary matrices were far from trivially conditioned).
DIAG_DOMINANCE = 0.05


def block_expand(structure: CSRMatrix, block_size: int, *,
                 seed=None) -> CSRMatrix:
    """Expand each entry of ``structure`` into a dense ``b×b`` block.

    This is how the SPE-like matrices are built: the Appendix of the
    paper describes them as "block seven point operators" with 6×6 or
    3×3 blocks.  Off-diagonal blocks receive random values scaled by the
    scalar entry; diagonal blocks are made diagonally dominant across
    the whole block row so the expanded matrix admits a stable
    zero-fill factorization.

    Parameters
    ----------
    structure:
        Scalar stencil matrix (e.g. a 7-point operator).
    block_size:
        ``b``, the number of unknowns per grid point.
    """
    b = check_positive(block_size, "block_size")
    n = structure.nrows
    rng = default_rng(seed)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    ii, jj = np.meshgrid(np.arange(b), np.arange(b), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    # Running |off-block| row sums so diagonal blocks can dominate them.
    offdiag_rowsum = np.zeros((n, b), dtype=np.float64)
    diag_scalar = structure.diagonal()
    for i, colsr, valsr in structure.iter_rows():
        for c, v in zip(colsr, valsr):
            if c == i:
                continue
            block = rng.uniform(-1.0, 1.0, size=(b, b)) * abs(v)
            rows.append(i * b + ii)
            cols.append(int(c) * b + jj)
            vals.append(block.ravel())
            offdiag_rowsum[i] += np.abs(block).sum(axis=1)
    for i in range(n):
        base = abs(diag_scalar[i]) if diag_scalar[i] else 1.0
        block = rng.uniform(-0.1, 0.1, size=(b, b)) * base
        np.fill_diagonal(
            block,
            offdiag_rowsum[i]
            + np.abs(block).sum(axis=1)
            + DIAG_DOMINANCE * base,
        )
        rows.append(i * b + ii)
        cols.append(i * b + jj)
        vals.append(block.ravel())
    return coo_to_csr(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (n * b, n * b),
    )
