"""Incomplete LU factorization: symbolic + numeric phases.

PCGPAK's preconditioner is an approximate factorization ``Q = L U``
"in which M is approximately factored in a way that allows only limited
fill to occur" (Appendix 1.1).  Following Appendix 2, the computation
splits into:

* **symbolic factorization** — computes the retained non-zero pattern.
  Fill indirectness is quantified by the classic *level-of-fill* rule:
  original entries have level 0; a fill entry created by eliminating
  pivot ``k`` gets ``lev(i,j) = min(lev(i,j), lev(i,k) + lev(k,j) + 1)``
  and is retained when ``lev <= level``.  ``level=0`` (ILU(0), zero
  fill) reproduces the paper's experiments and needs no elimination:
  it is one assembly of A's own pattern plus whatever diagonal entries
  A lacks.  Higher levels are supported as the natural extension; their
  rows are processed with sorted-list merges — the linked-list merge of
  Appendix 2.3 in array clothing.
* **numeric factorization** — the IKJ elimination restricted to the
  pattern, after one keyed search scatters A's values into it (a
  pattern lacking an entry of A, or a diagonal, is refused naming the
  first such row).  Row ``i`` needs every pivot row its strictly-lower
  entries name: the triangular solve's graph, so the rows run as a
  loop compiled on a session, a wavefront per batch, bitwise the loop.

The result is stored as a single CSR matrix with unit-lower ``L``
implicit (strict lower entries hold the multipliers) and ``U``
including the diagonal.  :class:`ILUFactorization` holds its split
factors; :class:`ILUPreconditioner` is such a factorization plus the
two Figure 8 loops compiled from it — applying it rebinds a right-hand
side and runs them, which is the whole of the PCGPAK pattern: one
factorization, one sort per factor, many Krylov iterations.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.executor import LoopKernel, SerialExecutor
from ..errors import StructureError, ValidationError
from ..program import LoopProgram
from ..runtime.session import Runtime
from ..sparse.build import coo_to_csr
from ..sparse.csr import CSRMatrix
from ..sparse.triangular import select_entries
from ..util.frontier import expand_csr_ranges
from ..util.validation import (check_seed, check_square, check_vector,
                               read_only)

__all__ = [
    "symbolic_ilu",
    "numeric_ilu",
    "ILUFactorization",
    "ILUPreconditioner",
    "JacobiPreconditioner",
    "IdentityPreconditioner",
    "make_preconditioner",
]


def _check_level(level) -> int:
    """A fill level is a non-negative integer, whichever way it came in
    (the same rule as a seed: no bool, no float, no text)."""
    return check_seed(level, "the ILU fill level (ILUPreconditioner(a, 1), "
                             "or by name 'ilu' / 'ilu0', 'ilu1', ...)")


def symbolic_ilu(a: CSRMatrix, level: int = 0) -> CSRMatrix:
    """Compute the retained pattern of an ILU(level) factorization.

    Returns a CSR matrix with the pattern (data holds the fill levels as
    floats, 0.0 for original entries).  ``level=0`` returns ``a``'s own
    pattern (plus the diagonal if missing).
    """
    n = check_square(a.shape)
    level = _check_level(level)

    if level == 0:
        # Zero fill: pattern of A (a repeated entry once) plus the
        # diagonal of every row that stores none.
        missing = np.flatnonzero(a.diagonal_positions() < 0)
        rows = np.concatenate([a.row_of_nnz(), missing])
        return coo_to_csr(rows, np.concatenate([a.indices, missing]),
                          np.zeros(rows.shape[0]), (n, n))

    # Level-of-fill symbolic phase.  Row-by-row; each completed row's
    # upper part is reused as a pivot row by later rows (so rows must be
    # processed in order — the same dependence structure the paper's
    # self-scheduled symbolic factorization honours with busy waits).
    upper_cols: list[np.ndarray] = [None] * n  # cols > k of row k
    upper_levs: list[np.ndarray] = [None] * n
    out_rows, out_cols, out_levs = [], [], []
    for i in range(n):
        cols0, _ = a.row(i)
        lev: dict[int, int] = {int(c): 0 for c in cols0}
        lev.setdefault(i, 0)
        # Eliminate in increasing column order; new fill may introduce
        # more pivots, so iterate over a growing sorted agenda.
        agenda = sorted(c for c in lev if c < i)
        pos = 0
        while pos < len(agenda):
            k = agenda[pos]
            pos += 1
            lev_ik = lev[k]
            if lev_ik > level:
                continue
            pc, pl = upper_cols[k], upper_levs[k]
            for c, lkj in zip(pc, pl):
                c = int(c)
                cand = lev_ik + int(lkj) + 1
                old = lev.get(c)
                if old is None:
                    if cand <= level:
                        lev[c] = cand
                        if c < i:
                            bisect.insort(agenda, c)
                else:
                    if cand < old:
                        lev[c] = cand
        keep = sorted((c, l) for c, l in lev.items() if l <= level)
        cset = np.array([c for c, _ in keep], dtype=np.int64)
        lset = np.array([l for _, l in keep], dtype=np.float64)
        out_rows.append(np.full(cset.shape[0], i, dtype=np.int64))
        out_cols.append(cset)
        out_levs.append(lset)
        up = cset > i
        upper_cols[i] = cset[up]
        upper_levs[i] = lset[up]
    return coo_to_csr(
        np.concatenate(out_rows), np.concatenate(out_cols),
        np.concatenate(out_levs), (n, n), sum_duplicates=False,
    )


def numeric_ilu(a: CSRMatrix, pattern: CSRMatrix | None = None) -> CSRMatrix:
    """Numeric incomplete factorization on a fixed pattern (IKJ form).

    Returns a CSR matrix ``lu``: strict-lower entries are the ``L``
    multipliers (unit diagonal implicit), upper entries (including the
    diagonal) are ``U``.

    ``pattern=None`` means ILU(0) on ``a``'s own pattern.
    """
    return _factor(a, pattern, Runtime())


def _factor(a: CSRMatrix, pattern: CSRMatrix | None, runtime: Runtime,
            **strategy) -> CSRMatrix:
    """:func:`numeric_ilu` on ``runtime``; a zero pivot or a flag the
    caller's ``np.errstate`` reports hands it to the IKJ loop."""
    kernel, flags = _IKJKernel(a, pattern), []
    loop = runtime.compile(kernel.pattern, **strategy)
    report = {k: "call" for k, v in np.geterr().items() if v != "ignore"}
    with np.errstate(call=lambda kind, flag: flags.append(kind), **report):
        try:
            loop(kernel, backend="serial", with_sim=False)
        except StructureError:  # a narrow level's row met a zero pivot
            flags.append("pivot")
    if flags or np.any(kernel.data[kernel.diag_pos] == 0.0):
        SerialExecutor().run(kernel)
    return kernel.pattern.with_data(kernel.data)


class _IKJKernel(LoopKernel):
    """Row ``i`` of the IKJ elimination reads the finished rows its lower
    pattern names (the Figure 8 graph): a wavefront is one batch."""

    def __init__(self, a: CSRMatrix, pattern: CSRMatrix | None):
        n = self.n = check_square(a.shape)
        made = pattern is None
        pattern = symbolic_ilu(a, 0) if made else pattern
        if pattern.shape != a.shape:
            raise ValidationError("pattern shape must match the matrix")
        if not pattern.has_sorted_indices():
            pattern = pattern.copy().sort_indices()
        # Ours, so its zero level array takes A's values: one array less.
        data = pattern.data if made else np.zeros(pattern.nnz)
        # Scatter A's values: both sides keyed by ``row * n + col``, which
        # the sorted pattern's ``keys`` increase in, so one search places A.
        self.pattern = pattern
        keys = self.keys
        a_rows = a.row_of_nnz()
        a_keys = a_rows * n + a.indices
        pos = np.searchsorted(keys, a_keys)
        found = pos < keys.shape[0]
        found[found] = keys[pos[found]] == a_keys[found]
        if not np.all(found):
            raise StructureError(f"pattern is missing entries of A in row "
                                 f"{a_rows[np.argmin(found)]}; symbolic "
                                 "phase must contain the original pattern")
        data[pos] = a.data

        self.diag_pos = diag_pos = pattern.diagonal_positions()
        if np.any(diag_pos < 0):
            raise StructureError(f"pattern row {np.argmax(diag_pos < 0)} "
                                 "lacks a diagonal entry")
        self.values = data  # A scattered into it
        del self.keys  # rebuilt past the compile's peak

    @cached_property
    def keys(self) -> np.ndarray:
        """Each entry's ``row * n + col``, increasing in a sorted pattern."""
        return self.pattern.row_of_nnz() * self.n + self.pattern.indices

    def start(self) -> None:
        self.data = self.values.copy()

    def execute_index(self, i: int) -> None:
        indptr, indices = self.pattern.indptr, self.pattern.indices
        diag_pos, data = self.diag_pos, self.data
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        dp = diag_pos[i] - lo
        for kk in range(dp):
            k = int(row_cols[kk])
            piv = data[diag_pos[k]]
            if piv == 0.0:
                raise StructureError(f"zero pivot encountered at row {k}")
            lik = data[lo + kk] / piv
            data[lo + kk] = lik
            if lik == 0.0:
                continue
            # Subtract lik * U[k, j] for pattern columns j > k of row i.
            klo, khi = diag_pos[k] + 1, indptr[k + 1]
            if khi > klo:
                ucols = indices[klo:khi]
                upos = np.searchsorted(row_cols, ucols)
                valid = (upos < row_cols.shape[0])
                sel = np.minimum(upos, row_cols.shape[0] - 1)
                valid &= row_cols[sel] == ucols
                data[lo + upos[valid]] -= lik * data[klo:khi][valid]
        if data[diag_pos[i]] == 0.0:
            raise StructureError(f"zero pivot produced at row {i}")

    def execute_batch(self, rows: np.ndarray) -> None:
        """Rank by rank, each row's ``t``-th multiplier is divided and,
        unless exactly zero (skipped), applied to its pivot's upper row."""
        indptr, indices = self.pattern.indptr, self.pattern.indices
        diag_pos, data = self.diag_pos, self.data
        lo = indptr[rows]
        lower = diag_pos[rows] - lo
        for t in range(int(lower.max(initial=0))):
            live = lower > t
            at = lo[live] + t
            k = indices[at]
            data[at] = lik = data[at] / data[diag_pos[k]]
            keep = lik != 0.0
            k, lik = k[keep], lik[keep]
            count = indptr[k + 1] - diag_pos[k] - 1
            src = expand_csr_ranges(diag_pos[k] + 1, count)
            want = np.repeat(rows[live][keep] * self.n, count) + indices[src]
            # Every row holds its diagonal, so no key exceeds the last.
            tgt = np.searchsorted(self.keys, want)
            hit = self.keys[tgt] == want
            data[tgt[hit]] -= np.repeat(lik, count)[hit] * data[src[hit]]

    def result(self) -> np.ndarray:
        return self.data


# ----------------------------------------------------------------------
# Preconditioners
# ----------------------------------------------------------------------

@dataclass
class ILUFactorization:
    """Read-only split factors of an incomplete LU: unit-lower ``L`` as its
    strict part, ``U`` with its diagonal, and that diagonal alone."""

    lu: CSRMatrix
    l_strict: CSRMatrix
    u: CSRMatrix
    u_diag: np.ndarray

    @classmethod
    def from_lu(cls, lu: CSRMatrix) -> "ILUFactorization":
        rows = lu.row_of_nnz()
        return cls(lu=lu, l_strict=select_entries(lu, lu.indices < rows),
                   u=select_entries(lu, lu.indices >= rows),
                   u_diag=read_only(lu.diagonal()))


class ILUPreconditioner:
    """Applies ``(LU)^{-1}``: a factorization plus two compiled loops.

    The factors' sparsity *is* the run-time input: both triangular
    directions are declared as Figure 8 programs and compiled once on
    ``runtime`` (a private default session when omitted), so one
    session's preconditioners over one factor structure share its
    inspections whatever their executor; each :meth:`apply` rebinds a
    right-hand side — zero inspector work — and runs the two loops.

    ``factorization`` hands in the ILU(``level``) factors of ``a`` when
    the caller already holds them (``TestProblem.factorization``);
    ``strategy`` is :meth:`~repro.runtime.Runtime.compile` keywords
    (``executor=``, ``scheduler=``, ...) for both loops and the
    factorization, whose inspection the lower loop's compile hits.
    """

    name = "ilu"

    def __init__(self, a: CSRMatrix, level: int = 0, *,
                 factorization: ILUFactorization | None = None,
                 runtime: Runtime | None = None, **strategy):
        self.level = level = _check_level(level)
        runtime = Runtime() if runtime is None else runtime
        if factorization is None:
            factorization = ILUFactorization.from_lu(
                _factor(a, symbolic_ilu(a, level), runtime, **strategy))
        self.factorization = f = factorization
        self.n = n = a.nrows
        self.lower_loop = runtime.compile(
            LoopProgram.from_csr(f.l_strict, np.zeros(n), unit_diagonal=True,
                                 name=f"ilu{level}-lower"),
            **strategy)
        self.upper_loop = runtime.compile(
            LoopProgram.from_csr(f.u, np.zeros(n), lower=False,
                                 diag=f.u_diag, name=f"ilu{level}-upper"),
            **strategy)

    def triangular_solve(self, b: np.ndarray, *, upper: bool = False,
                         backend: str = "serial") -> np.ndarray:
        """Solve ``L y = b`` (unit-lower factor) or, with ``upper``,
        ``U x = b`` through the compiled loop, on ``backend`` (the
        serial one unless asked, whatever the session default)."""
        loop = self.upper_loop if upper else self.lower_loop
        return loop.rebind(b=b)(backend=backend, with_sim=False).x

    def apply(self, r: np.ndarray, log=None) -> np.ndarray:
        """``z = U^{-1} L^{-1} r``."""
        r = check_vector(r, self.n, "r")
        z = self.triangular_solve(self.triangular_solve(r), upper=True)
        if log is not None:
            f = self.factorization
            log.lower_solve(f.l_strict.nnz)
            log.upper_solve(f.u.nnz)
        return z


class JacobiPreconditioner:
    """Diagonal scaling ``z = D^{-1} r``."""

    name = "jacobi"

    def __init__(self, a: CSRMatrix):
        d = a.diagonal()
        if np.any(d == 0.0):
            raise StructureError("Jacobi preconditioner requires a full diagonal")
        self.inv_diag = 1.0 / d
        self.n = a.nrows

    def apply(self, r: np.ndarray, log=None) -> np.ndarray:
        if log is not None:
            log.scale(self.n)
        return self.inv_diag * r


class IdentityPreconditioner:
    """No preconditioning."""

    name = "none"

    def __init__(self, a: CSRMatrix):
        self.n = a.nrows

    def apply(self, r: np.ndarray, log=None) -> np.ndarray:
        return r


def make_preconditioner(a: CSRMatrix, kind: str | None):
    """Factory: ``"ilu0"``, ``"ilu1"``, ..., ``"jacobi"``, ``None``/``"none"``."""
    if kind is None or kind == "none":
        return IdentityPreconditioner(a)
    if kind == "jacobi":
        return JacobiPreconditioner(a)
    if kind.startswith("ilu"):
        # Digits alone make an integer; a sign, a point or a letter
        # reaches the level check as the text it is.
        level = kind[3:] or "0"
        return ILUPreconditioner(a, int(level) if level.isdecimal() else level)
    raise ValidationError(f"unknown preconditioner {kind!r}")
