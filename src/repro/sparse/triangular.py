"""Sparse triangular systems: splitting, sequential and level-scheduled solves.

The sparse lower triangular solve (Figure 8 of the paper) is the
workhorse workload of the evaluation: its outer loop carries
matrix-dependent dependences (row ``i`` needs ``x[j]`` for every stored
``j < i``), which is exactly what the run-time parallelization machinery
exists to handle.

Two numeric engines are provided:

* :func:`solve_lower_sequential` / :func:`solve_upper_sequential` — the
  direct row-substitution loops, used as the correctness oracle;
* :class:`LevelScheduledSolver` — a wavefront ("level-scheduled")
  engine that precomputes the level sets once (the inspector phase) and
  then solves each system with a handful of vectorised gathers per
  level.  This is the numeric counterpart of the executors: within a
  wavefront all rows are independent, so they can be evaluated in one
  batch.

Both the solver and the triangular loop kernels of
:mod:`repro.core.executor` run their levels through one
:class:`LevelGather` — the structure-only index plan of a level-ordered
sweep plus the batched arithmetic that accumulates every row in CSR
order, so a batched solve equals the sequential loops bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import StructureError, ValidationError
from ..util.frontier import counts_to_indptr, expand_csr_ranges
from ..util.validation import check_vector
from .csr import CSRMatrix

__all__ = [
    "split_triangular",
    "solve_lower_sequential",
    "solve_upper_sequential",
    "LevelGather",
    "LevelScheduledSolver",
]


def split_triangular(a: CSRMatrix) -> tuple[CSRMatrix, np.ndarray, CSRMatrix]:
    """Split a square matrix into ``(L_strict, diag, U_strict)``.

    ``L_strict`` and ``U_strict`` keep the CSR row layout of ``a`` but
    retain only the entries strictly below / above the diagonal;
    ``diag`` is the dense main diagonal (zero where absent).
    """
    n = a.nrows
    if a.nrows != a.ncols:
        raise ValidationError(f"matrix must be square, got shape {a.shape}")
    rows = a.row_of_nnz()
    lower_mask = a.indices < rows
    upper_mask = a.indices > rows
    diag = np.zeros(n, dtype=np.float64)
    diag_mask = a.indices == rows
    diag[rows[diag_mask]] = a.data[diag_mask]

    def _take(mask: np.ndarray) -> CSRMatrix:
        counts = np.bincount(rows[mask], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, a.indices[mask], a.data[mask], (n, n), check=False)

    return _take(lower_mask), diag, _take(upper_mask)


def _prepare_lower(l: CSRMatrix, diag, unit_diagonal: bool):
    n = l.nrows
    if not l.is_lower_triangular():
        raise StructureError("matrix is not lower triangular")
    rows = l.row_of_nnz()
    strict = l.indices < rows
    if unit_diagonal:
        d = np.ones(n, dtype=np.float64)
    elif diag is not None:
        d = check_vector(diag, n, "diag")
    else:
        d = np.zeros(n, dtype=np.float64)
        dm = l.indices == rows
        d[rows[dm]] = l.data[dm]
    if not unit_diagonal and np.any(d == 0.0):
        raise StructureError("triangular solve requires a nonzero diagonal")
    return rows, strict, d


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
    _, _, d = _prepare_lower(l, diag, unit_diagonal)
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
    unit_diagonal: bool = False,
) -> np.ndarray:
    """Solve ``U x = b`` by backward row substitution."""
    n = u.nrows
    b = check_vector(b, n, "b")
    if not u.is_upper_triangular():
        raise StructureError("matrix is not upper triangular")
    if unit_diagonal:
        d = np.ones(n, dtype=np.float64)
    elif diag is not None:
        d = check_vector(diag, n, "diag")
    else:
        d = u.diagonal()
    if not unit_diagonal and np.any(d == 0.0):
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
    side *values*, so one plan serves every solve on the structure.
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
        self.pos = pos
        self.cols = cols
        # ``slot`` is non-decreasing, so a level's entries are one slice.
        self.local = slot - np.repeat(bounds[:-1], np.diff(bounds))[slot]
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


class LevelScheduledSolver:
    """Wavefront-vectorised triangular solver with a one-time inspector.

    The constructor performs the dependence analysis (a topological sort
    identical to Figure 7 of the paper) and packs, for each level, the
    row indices and their off-diagonal entries into contiguous arrays.
    :meth:`solve` then runs one vectorised gather/scatter round per
    level.  Construction cost is amortised over repeated solves exactly
    the way the paper amortises the inspector over Krylov iterations.

    Parameters
    ----------
    t:
        Lower or upper triangular CSR matrix (diagonal inline or
        implicit unit).
    lower:
        Direction of the substitution; ``True`` for forward.
    diag / unit_diagonal:
        As for the sequential solvers.
    """

    def __init__(
        self,
        t: CSRMatrix,
        *,
        lower: bool = True,
        diag: np.ndarray | None = None,
        unit_diagonal: bool = False,
    ):
        n = t.nrows
        if t.nrows != t.ncols:
            raise ValidationError(f"matrix must be square, got shape {t.shape}")
        if lower and not t.is_lower_triangular():
            raise StructureError("matrix is not lower triangular")
        if not lower and not t.is_upper_triangular():
            raise StructureError("matrix is not upper triangular")
        self.n = n
        self.lower = lower

        if unit_diagonal:
            d = np.ones(n, dtype=np.float64)
        elif diag is not None:
            d = check_vector(diag, n, "diag")
        else:
            d = t.diagonal()
        if np.any(d == 0.0):
            raise StructureError("triangular solve requires a nonzero diagonal")
        self.diag = d

        # --- inspector: the shared declarative front end ---------------
        # The solve *is* the Figure 8 loop program, so its level sets
        # come from the same extraction + vectorized wavefront sweep
        # every other workload uses (repro.program), instead of a
        # hand-rolled per-row Python loop.  Upper solves are extracted
        # in the library's renumbered convention (iteration k solves
        # row n-1-k) and mapped back to natural row numbering here.
        from ..core.wavefront import compute_wavefronts  # deferred: cycle
        from ..program import LoopProgram  # deferred: import cycle

        program = LoopProgram.from_csr(t, lower=lower)
        wf = compute_wavefronts(program.dependence_graph())
        if not lower:
            wf = wf[::-1].copy()
        self.wavefronts = wf
        self.num_levels = int(wf.max()) + 1 if n else 0

        # --- per-level gather plan (rows ascending inside a level) ------
        self._data = t.data
        self._gather = LevelGather(
            t.indptr, t.indices, np.argsort(wf, kind="stable"),
            counts_to_indptr(self.level_sizes()), lower=lower)

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve the triangular system for right-hand side ``b``."""
        b = check_vector(b, self.n, "b")
        x = out if out is not None else np.empty(self.n, dtype=np.float64)
        if out is not None and out.shape[0] != self.n:
            raise ValidationError(f"out must have length {self.n}")
        self._gather.sweep(x, self._data, b, self.diag)
        return x

    def level_sizes(self) -> np.ndarray:
        """Number of rows in each wavefront (the paper's phase profile)."""
        return np.bincount(self.wavefronts, minlength=self.num_levels)
