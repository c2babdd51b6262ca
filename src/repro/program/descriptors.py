"""Access descriptors — what a loop program reads and writes.

A :class:`At` descriptor declares one array access of the loop body:
``At("x", ia)`` means "iteration ``i`` touches ``x[ia[i]]``".  The index
can be

* ``None`` — the identity access ``x[i]`` (the left-hand side of
  Figure 3, the row being solved in Figure 8);
* a 1-D integer array of length ``n`` — one element per iteration
  (Figure 3's ``x[ia[i]]``);
* a 2-D ``(n, m)`` integer array — ``m`` elements per iteration
  (Figure 6's nested references);
* a ragged ``(indptr, indices)`` pair — a variable number of elements
  per iteration (Figure 8's row structure);
* a *string* — the name of an entry of the program's data dictionary
  holding any of the above.  Named indices are the rebindable kind:
  ``loop.rebind(ia=...)`` can replace them, and the structure-hash
  guard decides whether the dependence analysis must be redone.

Descriptors are declarative: they carry no array *values*, only which
elements each iteration touches — exactly the information the paper's
run-time inspector consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..util.frontier import counts_to_indptr, rows_from_indptr
from ..util.validation import as_int_array, read_only

__all__ = ["At", "ResolvedAccess", "Statement", "serial_events"]


@dataclass(frozen=True)
class ResolvedAccess:
    """One descriptor resolved to CSR form, ragged or fixed-width.

    A ragged access (``width`` None) touches ``indices[indptr[i]:
    indptr[i+1]]`` at iteration ``i``; a fixed-width one ``width``
    elements (1 for ``x[i]`` and a 1-D index, ``m`` for a 2-D one), row
    ``i`` of ``indices``, and keeps no row pointer (``indptr`` None).
    ``identity`` marks ``x[i]``, whose ``indices`` are not materialized
    either.  Index arrays are read-only: a writable one is copied once.
    """

    array: str
    identity: bool
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None
    width: int | None = None

    def pairs(self, n: int, every=None) -> tuple[np.ndarray, np.ndarray]:
        """``(iteration, element)`` of every access, as ``int64`` arrays
        in iteration order, over ``every`` (else a new ``arange(n)``)."""
        if self.width is None:
            return (rows_from_indptr(self.indptr),
                    self.indices.astype(np.int64, copy=False))
        every = np.arange(n, dtype=np.int64) if every is None else every
        it = every if self.width == 1 else np.repeat(every, self.width)
        return it, (every if self.identity
                    else self.indices.astype(np.int64, copy=False))


def serial_events(n: int, tagged, num_stmts: int = 1, every=None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(serial position, element)`` of every access in ``tagged``, a
    sequence of ``(statement, access)`` pairs, concatenated in order.

    Serial position of statement ``s`` at iteration ``i`` is
    ``i * S + s`` — the interleaved statement order of the original
    loop; with the default ``S = 1`` it is the iteration itself.  A lone
    access is returned as is: its elements may be the declared index.
    """
    if not tagged:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos_parts, el_parts = [], []
    for s, acc in tagged:
        it, el = acc.pairs(n, every)
        pos_parts.append(it if num_stmts == 1
                         else it * np.int64(num_stmts) + s)
        el_parts.append(el)
    if len(pos_parts) == 1:
        return pos_parts[0], el_parts[0]
    return np.concatenate(pos_parts), np.concatenate(el_parts)


class At:
    """Declares one array access pattern of a loop body.

    Parameters
    ----------
    array:
        Name of the accessed array (a key of the program's data dict
        when the program binds data).
    index:
        ``None`` for the identity access ``array[i]``; a 1-D/2-D
        integer array, a ragged ``(indptr, indices)`` pair, or the
        *name* of a data entry holding one of those (named indices are
        the rebindable, structure-bearing kind).
    """

    __slots__ = ("array", "index")

    def __init__(self, array: str, index=None):
        if not isinstance(array, str) or not array:
            raise ValidationError("At() array must be a non-empty name")
        self.array = array
        self.index = index

    # ------------------------------------------------------------------
    @property
    def index_name(self) -> str | None:
        """The data-entry name of a named (rebindable) index, else None."""
        return self.index if isinstance(self.index, str) else None

    def resolve(self, n: int, data: dict) -> ResolvedAccess:
        """Normalize to :class:`ResolvedAccess`, validating shapes."""
        index = self.index
        if isinstance(index, str):
            if index not in data:
                raise ValidationError(
                    f"descriptor At({self.array!r}, {index!r}) names a "
                    f"data entry {index!r} that is not bound; bound "
                    f"entries are: {sorted(data) or '(none)'}"
                )
            index = data[index]
        if index is None:
            return ResolvedAccess(self.array, identity=True, width=1)
        if isinstance(index, tuple):
            return self._resolve_ragged(n, index)
        arr = as_int_array(index, f"At({self.array!r}) index")
        arr = read_only(arr, index)
        if arr.ndim == 1:
            if arr.shape[0] != n:
                raise ValidationError(
                    f"descriptor for array {self.array!r} has "
                    f"{arr.shape[0]} index entries, expected one per "
                    f"iteration (n={n})"
                )
            self._check_nonnegative(arr)
            return ResolvedAccess(self.array, identity=False,
                                  indices=arr, width=1)
        if arr.ndim == 2:
            if arr.shape[0] != n:
                raise ValidationError(
                    f"descriptor for array {self.array!r} has "
                    f"{arr.shape[0]} index rows, expected n={n}"
                )
            self._check_nonnegative(arr)
            return ResolvedAccess(self.array, identity=False,
                                  indices=arr.ravel(), width=arr.shape[1])
        raise ValidationError(
            f"descriptor index for array {self.array!r} must be None, a "
            "1-D/2-D integer array, an (indptr, indices) pair, or the "
            "name of a bound data entry"
        )

    # ------------------------------------------------------------------
    def _resolve_ragged(self, n: int, pair: tuple) -> ResolvedAccess:
        if len(pair) != 2:
            raise ValidationError(
                f"ragged index for array {self.array!r} must be an "
                "(indptr, indices) pair"
            )
        indptr = read_only(as_int_array(pair[0], "indptr"), pair[0])
        indices = read_only(as_int_array(pair[1], "indices"), pair[1])
        if indptr.shape[0] != n + 1:
            raise ValidationError(
                f"ragged indptr for array {self.array!r} has length "
                f"{indptr.shape[0]}, expected n+1={n + 1}"
            )
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValidationError(
                f"ragged indptr for array {self.array!r} must start at 0 "
                "and be non-decreasing"
            )
        if int(indptr[-1]) != indices.shape[0]:
            raise ValidationError(
                f"ragged indices for array {self.array!r} has length "
                f"{indices.shape[0]}, expected indptr[-1]={int(indptr[-1])}"
            )
        self._check_nonnegative(indices)
        return ResolvedAccess(self.array, identity=False,
                              indptr=indptr, indices=indices)

    def _check_nonnegative(self, arr: np.ndarray) -> None:
        if arr.size and arr.min() < 0:
            raise ValidationError(
                f"descriptor for array {self.array!r} contains negative "
                "element indices"
            )

    @staticmethod
    def from_counts(array: str, counts: np.ndarray, indices) -> "At":
        """Ragged descriptor from per-iteration access counts."""
        indptr = read_only(counts_to_indptr(as_int_array(counts, "counts")))
        return At(array, (indptr, read_only(np.asarray(indices), indices)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.index is None:
            return f"At({self.array!r})"
        if isinstance(self.index, str):
            return f"At({self.array!r}, index={self.index!r})"
        return f"At({self.array!r}, index=<{type(self.index).__name__}>)"


class Statement:
    """One statement of a multi-statement loop body.

    A :class:`~repro.program.binding.LoopProgram` built from statements
    executes every statement of iteration ``i`` (in declaration order)
    before any statement of iteration ``i+1`` — the serial order is the
    interleaved one, exactly as if the statements were lines of a
    single loop body.  Each statement declares its own reads and writes
    with :class:`At` descriptors; ``body(i, arrays)`` is the optional
    executable form (same contract as :meth:`LoopProgram.record
    <repro.program.binding.LoopProgram.record>` bodies).

    Statements are what the transform layer
    (:mod:`repro.program.transform`) schedules: fission splits a
    program along statement dependence-cycle boundaries, fusion
    concatenates the statement lists of two programs.
    """

    __slots__ = ("reads", "writes", "body", "name")

    def __init__(self, reads=(), writes=(), *, body=None, name=None):
        self.reads = tuple(self._check(a, "read") for a in reads)
        self.writes = tuple(self._check(a, "write") for a in writes)
        if body is not None and not callable(body):
            raise ValidationError("Statement body must be callable or None")
        self.body = body
        self.name = name

    @staticmethod
    def _check(acc, kind: str) -> At:
        if not isinstance(acc, At):
            raise ValidationError(
                f"Statement {kind} descriptors must be At instances, "
                f"got {type(acc).__name__}"
            )
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (f"Statement({tag} reads={list(self.reads)!r}, "
                f"writes={list(self.writes)!r})")
