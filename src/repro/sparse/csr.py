"""Compressed sparse row matrix.

:class:`CSRMatrix` stores a sparse matrix in the classic three-array CSR
layout — ``indptr`` (row pointers, length ``nrows + 1``), ``indices``
(column indices) and ``data`` (values).  It is deliberately minimal:
just what the inspector (dependence analysis), the executors
(triangular-solve kernels) and the Krylov solver need, with rigorous
structural validation so that malformed structures fail loudly at
construction time rather than corrupting a simulation.

The layout matches the ``ija``-style indexed storage of Figure 8 of the
paper, so the dependence analysis in :mod:`repro.core.dependence` reads
directly off ``indptr``/``indices``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import StructureError, ValidationError
from ..util.frontier import counts_to_indptr
from ..util.validation import as_float_array, as_int_array

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A square-or-rectangular sparse matrix in CSR format.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``nrows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column indices, ``0 <= indices[k] < ncols``.
    data:
        Values, same length as ``indices``.
    shape:
        ``(nrows, ncols)``.
    check:
        When true (default), validate the structure: monotone
        ``indptr``, in-range column indices.  Duplicate detection and
        column sorting are available separately because they cost
        ``O(nnz log nnz)``.
    sort:
        When true, sort the column indices within each row (required by
        the triangular kernels; builders do this by default).

    ``_structure`` holds what ``indptr``/``indices`` alone determine,
    built on demand: the row of every entry (``"rows"``), the diagonal
    positions (``"diag"``) and the triangularity answers.
    :meth:`with_data` siblings share that dict and the two index
    arrays — matrices that differ only in values pay for them once —
    so no method writes into an array the matrix was handed or has
    handed on: :meth:`sort_indices`, the one method that changes
    ``self``, rebinds fresh arrays and a fresh dict.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_structure")

    def __init__(self, indptr, indices, data, shape, *, check: bool = True, sort: bool = False):
        self.indptr = as_int_array(indptr, "indptr")
        self.indices = as_int_array(indices, "indices")
        self.data = as_float_array(data, "data")
        nrows, ncols = int(shape[0]), int(shape[1])
        self.shape = (nrows, ncols)
        self._structure: dict = {}
        if check:
            self._validate()
        if sort:
            self.sort_indices()

    # ------------------------------------------------------------------
    # Construction helpers / validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise ValidationError(f"shape must be non-negative, got {self.shape}")
        if self.indptr.ndim != 1 or self.indptr.shape[0] != nrows + 1:
            raise StructureError(
                f"indptr must have length nrows+1={nrows + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise StructureError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if np.any(np.diff(self.indptr) < 0):
            raise StructureError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise StructureError(
                f"indices/data length must equal indptr[-1]={nnz}, got "
                f"{self.indices.shape[0]}/{self.data.shape[0]}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= ncols):
            raise StructureError(
                f"column indices must lie in [0, {ncols}); found "
                f"[{self.indices.min()}, {self.indices.max()}]"
            )

    def _entry_keys(self) -> np.ndarray:
        """``row * ncols + col`` of every stored entry: one integer that
        orders entries by row, then by column."""
        return self.row_of_nnz() * self.ncols + self.indices

    def sort_indices(self) -> "CSRMatrix":
        """Sort column indices within each row (repeats keep their
        order).  Returns self, on new ``indices`` / ``data`` arrays."""
        order = np.argsort(self._entry_keys(), kind="stable")
        self.indices = self.indices[order]
        self.data = self.data[order]
        self._structure = {}  # entry positions moved; siblings keep theirs
        return self

    def has_sorted_indices(self) -> bool:
        """True when every row's column indices are strictly increasing."""
        return bool(np.all(np.diff(self._entry_keys()) > 0))

    def check_no_duplicates(self) -> None:
        """Raise :class:`StructureError` if any row holds a duplicate column."""
        keys = np.sort(self._entry_keys())
        repeats = np.flatnonzero(keys[1:] == keys[:-1])
        if repeats.size:
            i = keys[repeats[0]] // self.ncols
            raise StructureError(f"row {i} contains duplicate column indices")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts (length ``nrows``)."""
        return np.diff(self.indptr)

    def row_of_nnz(self) -> np.ndarray:
        """For each stored entry, the row it belongs to (cached)."""
        rows = self._structure.get("rows")
        if rows is None:
            rows = self._structure["rows"] = np.repeat(
                np.arange(self.nrows, dtype=np.int64), self.row_nnz()
            )
        return rows

    def diagonal_positions(self) -> np.ndarray:
        """CSR position of each row's diagonal entry, ``-1`` where the
        row stores none (cached; the first one when a row repeats it)."""
        pos = self._structure.get("diag")
        if pos is None:
            pos = np.full(min(self.shape), -1, dtype=np.int64)
            rows = self.row_of_nnz()
            hits = np.flatnonzero(self.indices == rows)[::-1]
            # Reversed, so the first of a row's repeats is written last.
            pos[rows[hits]] = hits
            self._structure["diag"] = pos
        return pos

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, columns, values)`` for every row."""
        for i in range(self.nrows):
            cols, vals = self.row(i)
            yield i, cols, vals

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x``.

        Vectorised via ``bincount`` on the expanded row index, which is
        robust to empty rows (unlike a naive ``reduceat``).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.ncols:
            raise ValidationError(
                f"x must have length {self.ncols}, got {x.shape[0]}"
            )
        contrib = self.data * x[self.indices]
        y = np.bincount(self.row_of_nnz(), weights=contrib, minlength=self.nrows)
        if out is not None:
            out[:] = y
            return out
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal (zeros where absent)."""
        pos = self.diagonal_positions()
        stored = pos >= 0
        d = np.zeros(pos.shape[0], dtype=np.float64)
        d[stored] = self.data[pos[stored]]
        return d

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new CSR matrix (i.e. CSC of self)."""
        nrows, ncols = self.shape
        # Stable: a column's entries keep their row order.
        order = np.argsort(self.indices, kind="stable")
        return CSRMatrix(
            counts_to_indptr(np.bincount(self.indices, minlength=ncols)),
            self.row_of_nnz()[order], self.data[order], (ncols, nrows),
            check=False)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_lower_triangular(self, *, strict: bool = False) -> bool:
        """True when all entries satisfy ``col <= row`` (``<`` when strict)."""
        return self._triangular("lower", strict)

    def is_upper_triangular(self, *, strict: bool = False) -> bool:
        """True when all entries satisfy ``col >= row`` (``>`` when strict)."""
        return self._triangular("upper", strict)

    def _triangular(self, side: str, strict: bool) -> bool:
        """Cached with the structure: the answer depends on it alone."""
        key = (side, strict)
        held = self._structure.get(key)
        if held is None:
            rows, cols = self.row_of_nnz(), self.indices
            if side == "lower":
                held = np.all(cols < rows if strict else cols <= rows)
            else:
                held = np.all(cols > rows if strict else cols >= rows)
            held = self._structure[key] = bool(held)
        return held

    def has_full_diagonal(self) -> bool:
        """True when every row of a square matrix stores a diagonal entry."""
        return bool(np.all(self.diagonal_positions() >= 0))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float64`` array (testing/small sizes)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = self.row_of_nnz()
        # += via add.at so duplicate entries accumulate like matvec does.
        np.add.at(dense, (rows, self.indices), self.data)
        return dense

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape,
            check=False,
        )

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Return a matrix sharing this structure but with new values."""
        data = as_float_array(data, "data")
        if data.shape[0] != self.nnz:
            raise ValidationError(f"data must have length nnz={self.nnz}")
        m = CSRMatrix(self.indptr, self.indices, data, self.shape, check=False)
        m._structure = self._structure
        return m

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Numerically compare two matrices (via dense form; test helper)."""
        if self.shape != other.shape:
            return False
        return np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / (self.shape[0] * self.shape[1] or 1):.4f})"
        )
