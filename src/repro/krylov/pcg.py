"""Preconditioned conjugate gradients.

The classic PCG iteration for symmetric positive definite systems: one
matvec, one preconditioner application, two inner products and three
SAXPYs per iteration — the exact operation mix Appendix 2 of the paper
parallelizes component by component.  Every operation is recorded on an
:class:`~repro.krylov.oplog.OperationLog` so the parallel cost model
can price the solve without re-deriving iteration counts.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..sparse.csr import CSRMatrix
from ..util.validation import check_positive_finite, check_vector
from .oplog import OperationLog

__all__ = ["pcg"]


def pcg(
    a: CSRMatrix,
    b: np.ndarray,
    precond=None,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
    log: OperationLog | None = None,
    callback=None,
) -> tuple[np.ndarray, int, list[float], bool]:
    """Solve ``A x = b`` with preconditioned CG.

    Returns ``(x, iterations, residual_history, converged)`` where the
    history holds relative residual 2-norms (``||r_k|| / ||b||``),
    starting with the initial residual.
    """
    n = a.nrows
    b = check_vector(b, n, "b")
    if maxiter < 0:
        raise ValidationError("maxiter must be non-negative")
    # No comparison with nan is ever true: it would iterate to maxiter.
    tol = check_positive_finite(tol, "tol")
    x = np.zeros(n) if x0 is None else check_vector(x0, n, "x0").copy()
    log = log if log is not None else OperationLog()

    r = b - a.matvec(x)
    log.matvec(a.nnz)
    log.saxpy(n)
    bnorm = float(np.linalg.norm(b))
    log.dot(n)
    if bnorm == 0.0:
        return np.zeros(n), 0, [0.0], True

    history = [float(np.linalg.norm(r)) / bnorm]
    log.dot(n)
    if history[0] <= tol:
        return x, 0, history, True

    z = precond.apply(r, log) if precond is not None else r
    p = z.copy()
    rz = float(np.dot(r, z))
    log.dot(n)

    converged = False
    k = 0
    for k in range(1, maxiter + 1):
        ap = a.matvec(p)
        log.matvec(a.nnz)
        pap = float(np.dot(p, ap))
        log.dot(n)
        if pap <= 0.0:
            # Not SPD (or breakdown); bail out with what we have.
            k -= 1
            break
        alpha = rz / pap
        x += alpha * p
        log.saxpy(n)
        r -= alpha * ap
        log.saxpy(n)
        rnorm = float(np.linalg.norm(r))
        log.dot(n)
        history.append(rnorm / bnorm)
        if callback is not None:
            callback(k, x, rnorm / bnorm)
        if rnorm / bnorm <= tol:
            converged = True
            break
        z = precond.apply(r, log) if precond is not None else r
        rz_new = float(np.dot(r, z))
        log.dot(n)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        log.saxpy(n)
    return x, k, history, converged
