"""Sparse triangular systems: splitting, the sequential oracles, the gather plan.

The sparse lower triangular solve (Figure 8 of the paper) is the
workhorse workload of the evaluation: its outer loop carries
matrix-dependent dependences (row ``i`` needs ``x[j]`` for every stored
``j < i``), which is exactly what the run-time parallelization machinery
exists to handle.

* :func:`split_triangular` / :func:`select_entries` — cut a factored
  matrix into its triangles;
* :func:`resolve_diagonal` — which diagonal a triangular system divides
  by, for the oracles below, the loop kernels and the process solvers;
* :func:`solve_lower_sequential` / :func:`solve_upper_sequential` — the
  direct row-substitution loops, the correctness oracle every compiled
  solve is compared with;
* :class:`LevelGather` — the structure-only index plan of a
  level-ordered sweep plus the batched arithmetic that accumulates
  every row in CSR order, so a batched solve equals the sequential
  loops bit for bit.  The triangular loop kernels of
  :mod:`repro.core.executor` run their levels through it; a solve is
  ``Runtime.compile(LoopProgram.from_csr(t, b, ...))``, there is no
  solver class here.
"""

from __future__ import annotations

import numpy as np

from ..errors import StructureError
from ..util.frontier import counts_to_indptr, expand_csr_ranges
from ..util.validation import check_square, check_vector, read_only
from .csr import CSRMatrix

__all__ = [
    "select_entries",
    "split_triangular",
    "resolve_diagonal",
    "solve_lower_sequential",
    "solve_upper_sequential",
    "LevelGather",
]


def select_entries(a: CSRMatrix, mask: np.ndarray) -> CSRMatrix:
    """The stored entries of ``a`` where ``mask`` holds, as a matrix of
    the same shape and row layout (``mask`` runs over ``a.indices``)."""
    counts = np.bincount(a.row_of_nnz()[mask], minlength=a.nrows)
    return CSRMatrix(counts_to_indptr(counts), a.indices[mask], a.data[mask],
                     a.shape, check=False)


def split_triangular(a: CSRMatrix) -> tuple[CSRMatrix, np.ndarray, CSRMatrix]:
    """Split a square matrix into ``(L_strict, diag, U_strict)``.

    ``L_strict`` and ``U_strict`` keep the CSR row layout of ``a`` but
    retain only the entries strictly below / above the diagonal;
    ``diag`` is the dense main diagonal (zero where absent).
    """
    check_square(a.shape)
    rows = a.row_of_nnz()
    return (select_entries(a, a.indices < rows), a.diagonal(),
            select_entries(a, a.indices > rows))


def resolve_diagonal(t: CSRMatrix, diag, unit_diagonal: bool) -> np.ndarray:
    """The diagonal a triangular system on ``t`` divides by: implicit
    ones, the separate ``diag`` vector, or — neither given — the
    diagonal ``t`` stores.  The one statement of that rule; refusing a
    zero in it is each caller's, under its own error class."""
    if unit_diagonal:
        return np.ones(t.nrows, dtype=np.float64)
    if diag is not None:
        return check_vector(diag, t.nrows, "diag")
    return t.diagonal()


def solve_lower_sequential(
    l: CSRMatrix,
    b: np.ndarray,
    *,
    diag: np.ndarray | None = None,
    unit_diagonal: bool = False,
) -> np.ndarray:
    """Solve ``L x = b`` by forward row substitution (the Figure 8 loop).

    ``l`` may store the diagonal inline, or the diagonal may be passed
    separately via ``diag`` (as the strict-lower output of
    :func:`split_triangular`), or declared implicit via
    ``unit_diagonal``.
    """
    n = l.nrows
    b = check_vector(b, n, "b")
    if not l.is_lower_triangular():
        raise StructureError("matrix is not lower triangular")
    d = resolve_diagonal(l, diag, unit_diagonal)
    if np.any(d == 0.0):
        raise StructureError("triangular solve requires a nonzero diagonal")
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = l.indptr, l.indices, l.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        acc = b[i]
        for k in range(lo, hi):
            j = indices[k]
            if j < i:
                acc -= data[k] * x[j]
        x[i] = acc / d[i]
    return x


def solve_upper_sequential(
    u: CSRMatrix,
    b: np.ndarray,
    *,
    diag: np.ndarray | None = None,
) -> np.ndarray:
    """Solve ``U x = b`` by backward row substitution."""
    n = u.nrows
    b = check_vector(b, n, "b")
    if not u.is_upper_triangular():
        raise StructureError("matrix is not upper triangular")
    d = resolve_diagonal(u, diag, False)
    if np.any(d == 0.0):
        raise StructureError("triangular solve requires a nonzero diagonal")
    x = np.zeros(n, dtype=np.float64)
    indptr, indices, data = u.indptr, u.indices, u.data
    for i in range(n - 1, -1, -1):
        lo, hi = indptr[i], indptr[i + 1]
        acc = b[i]
        for k in range(lo, hi):
            j = indices[k]
            if j > i:
                acc -= data[k] * x[j]
        x[i] = acc / d[i]
    return x


class LevelGather:
    """Structure-only gather plan of a level-ordered triangular sweep.

    ``rows[bounds[k]:bounds[k+1]]`` are the matrix rows of level ``k``
    (mutually independent; every operand lies in an earlier level).
    One vectorized pass over ``indptr``/``indices`` lays out the
    strictly-triangular entries of all rows in visiting order — CSR
    order inside a row — as three flat arrays sliced per level:
    ``pos`` (CSR position, so values are gathered from whatever ``data``
    is current), ``cols`` (operand column) and ``local`` (the row's slot
    inside its level).  Nothing here depends on matrix or right-hand
    side *values*, so one plan serves every solve on the structure; the
    arrays it builds are read-only, and ``rows`` is held as given.
    """

    __slots__ = ("rows", "pos", "cols", "local", "row_bounds",
                 "entry_bounds")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 rows: np.ndarray, bounds: np.ndarray, *, lower: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        pos = expand_csr_ranges(starts, counts)
        slot = np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)
        cols = indices[pos]
        strict = cols < rows[slot] if lower else cols > rows[slot]
        if not strict.all():
            pos, slot, cols = pos[strict], slot[strict], cols[strict]
        self.rows = rows
        self.pos = read_only(pos)
        self.cols = read_only(cols)
        # ``slot`` is non-decreasing, so a level's entries are one slice.
        self.local = read_only(
            slot - np.repeat(bounds[:-1], np.diff(bounds))[slot])
        self.row_bounds: list = bounds.tolist()
        self.entry_bounds: list = np.searchsorted(slot, bounds).tolist()

    def sweep(self, x: np.ndarray, data: np.ndarray, b: np.ndarray,
              diag: np.ndarray, lo: int = 0, hi: int | None = None) -> None:
        """Solve levels ``lo .. hi-1`` into ``x``.

        Row ``i`` becomes ``(b[i] - data[k0]*x[j0] - data[k1]*x[j1] …)
        / diag[i]`` with the subtractions applied one after another in
        CSR order (``np.subtract.at`` is unbuffered and walks its index
        array in order) — the very operations of the sequential loop.
        """
        rb, eb = self.row_bounds, self.entry_bounds
        if hi is None:
            hi = len(rb) - 1
        r0, e0 = rb[lo], eb[lo]
        rows = self.rows[r0:rb[hi]]
        acc_all = b[rows]
        diag = diag[rows]
        vals = data[self.pos[e0:eb[hi]]]
        cols = self.cols[e0:eb[hi]]
        local = self.local[e0:eb[hi]]
        for k in range(lo, hi):
            a, c = rb[k] - r0, rb[k + 1] - r0
            ea, ec = eb[k] - e0, eb[k + 1] - e0
            acc = acc_all[a:c]
            if ec > ea:
                np.subtract.at(acc, local[ea:ec],
                               vals[ea:ec] * x[cols[ea:ec]])
            acc /= diag[a:c]
            x[rows[a:c]] = acc
