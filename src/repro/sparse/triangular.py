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
* :class:`LevelGather` — the index plan of a level-ordered sweep, one
  slot of held matrix values, and the batched arithmetic that
  accumulates every row in CSR order, so a batched solve equals the
  sequential loops bit for bit.  The triangular loop kernels of
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
    """``a``'s entries where ``mask`` (over ``a.indices``) holds, as a matrix
    of the same shape and row layout whose values are read-only."""
    counts = np.bincount(a.row_of_nnz()[mask], minlength=a.nrows)
    return CSRMatrix(counts_to_indptr(counts), a.indices[mask],
                     read_only(a.data[mask]), a.shape, check=False)


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
    ones (a read-only broadcast of ``1.0``, nothing allocated), the
    separate ``diag`` vector, or — neither given — the diagonal ``t``
    stores.  The one statement of that rule; refusing a zero in it is
    each caller's, under its own error class."""
    if unit_diagonal:
        return np.broadcast_to(1.0, t.nrows)
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
    """Gather plan of a level-ordered triangular sweep: its structure
    and one slot of held values.

    ``rows[bounds[k]:bounds[k+1]]`` are the matrix rows of level ``k``
    (mutually independent; every operand lies in an earlier level).  A
    sweep keeps the solution in *level order*: slot ``p`` of its work
    vector is row ``rows[p]``, and one more slot per ``outside`` row
    holds an operand the plan reads but does not solve ahead of it —
    every operand of a one-batch plan.  One vectorized pass over
    ``indptr``/``indices`` lays out the strictly-triangular entries of
    all rows in visiting order — CSR order inside a row — as ``pos``
    (CSR position, so values are gathered from whatever ``data`` is
    current) plus the operand's slot and the row's.  Each level wider
    than ``flat`` rows — the levels a sweep runs; narrower ones are
    walked a row at a time, so a deep plan of them builds no views —
    holds its own views of those in :attr:`views`.  None of that
    depends on matrix or right-hand side *values*, so one plan serves
    every solve on the structure; the arrays it builds are read-only,
    and ``rows`` is held as given.
    """

    __slots__ = ("rows", "outside", "pos", "views", "reach", "row_bounds",
                 "entry_bounds", "held")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 rows: np.ndarray, bounds: np.ndarray, *, lower: bool = True,
                 flat: int):
        rows = np.asarray(rows, dtype=np.int64)
        bounds = np.asarray(bounds, dtype=np.int64)
        m = rows.shape[0]
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        pos = expand_csr_ranges(starts, counts)
        dst = np.repeat(np.arange(m, dtype=np.int64), counts)
        cols = indices[pos]
        strict = cols < rows[dst] if lower else cols > rows[dst]
        if not strict.all():
            pos, dst, cols = pos[strict], dst[strict], cols[strict]
        # An operand solved in an earlier level is read from its slot;
        # any other from an outside slot, which a sweep fills from ``x``.
        slot = np.full(indptr.shape[0] - 1, m, dtype=np.int64)
        slot[rows] = np.arange(m, dtype=np.int64)
        src = slot[cols]
        out = src >= np.repeat(bounds[:-1], np.diff(bounds))[dst]
        outside, inverse = np.unique(cols[out], return_inverse=True)
        src[out] = m + inverse
        # ``dst`` is non-decreasing, so a level's entries are one slice.
        eb = np.searchsorted(dst, bounds)
        # The lowest slot each level reads (an outside slot is past them
        # all): a sweep starting past it fills the slots from there on
        # from ``x``.
        reach = bounds[:-1].copy()
        read = np.flatnonzero(np.diff(eb))
        reach[read] = np.minimum(reach[read],
                                 np.minimum.reduceat(src, eb[read]))
        self.rows = rows
        self.outside = read_only(outside)
        self.pos = read_only(pos)
        src, dst = read_only(src), read_only(dst)
        rb = self.row_bounds = bounds.tolist()
        eb = self.entry_bounds = eb.tolist()
        #: Per level: its slots, and its entries' operand and row slots.
        self.views = [(a, c, src[ea:ec], dst[ea:ec]) if c - a > flat else None
                      for a, c, ea, ec in zip(rb, rb[1:], eb, eb[1:])]
        self.reach = read_only(reach)
        #: ``(array, per-level views)`` of the values and divisor held.
        self.held = [None, None]

    def values(self, a: np.ndarray, lo: int, hi: int, *,
               rows: bool = False) -> list:
        """Levels ``lo .. hi-1`` of ``a`` (CSR values, or with ``rows``
        row divisors), each a view of one gather — of the span if ``a``
        is writable, else of the plan, held until ``a`` changes."""
        index, bounds = ((self.rows, self.row_bounds) if rows
                         else (self.pos, self.entry_bounds))
        if a.flags.writeable:
            s = bounds[lo]
            g = a[index[s:bounds[hi]]]
            return [g[p - s:q - s]
                    for p, q in zip(bounds[lo:hi], bounds[lo + 1:hi + 1])]
        held = self.held[rows]
        if held is None or held[0] is not a:
            g = read_only(a[index])
            held = self.held[rows] = (a, [
                None if v is None else g[p:q]
                for v, p, q in zip(self.views, bounds, bounds[1:])])
        return held[1][lo:hi]

    def sweep(self, x: np.ndarray, data: np.ndarray, b: np.ndarray,
              diag: np.ndarray | None, lo: int, hi: int) -> None:
        """Solve levels ``lo .. hi-1`` into ``x``; ``diag=None`` is a
        unit diagonal.

        Row ``i`` becomes ``(b[i] - v0*x[j0] - v1*x[j1] …) / diag[i]``
        with the subtractions applied one after another in CSR order
        (``np.subtract.at`` is unbuffered and walks its index array in
        order) — the very operations of the sequential loop.  A level
        is one gather, one multiply and one ``np.subtract.at`` on the
        level-ordered vector, which reaches ``x`` once, at the end.  A
        unit diagonal divides that whole span by ``1.0`` then: the
        loop's own ``acc / 1.0``, which changes no bits but quiets a
        signalling NaN — and a product or difference taken from one has
        the bits of one taken from its quiet twin.
        """
        rows, r0, r1 = self.rows, self.row_bounds[lo], self.row_bounds[hi]
        m = rows.shape[0]
        y = np.empty(m + self.outside.shape[0])
        base = int(self.reach[lo:hi].min(initial=r0))
        y[base:r0] = x[rows[base:r0]]
        y[r0:r1] = b[rows[r0:r1]]
        y[m:] = x[self.outside]
        vals = self.values(data, lo, hi)
        divs = ([None] * (hi - lo) if diag is None
                else self.values(diag, lo, hi, rows=True))
        for (a, c, src, dst), v, d in zip(self.views[lo:hi], vals, divs):
            if src.size:
                t = y[src]
                np.multiply(v, t, out=t)
                np.subtract.at(y, dst, t)
            if d is not None:
                y[a:c] /= d
        if diag is None:
            y[r0:r1] /= 1.0
        x[rows[r0:r1]] = y[r0:r1]
