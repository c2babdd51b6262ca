"""Restarted GMRES with Givens rotations.

The paper's reservoir and convection-dominated test problems are
nonsymmetric, so PCGPAK pairs the incomplete factorization with a
nonsymmetric Krylov method.  This is right-preconditioned GMRES(m):
minimises the residual over the Krylov space built with ``A M^{-1}``,
restarting every ``m`` iterations.  Operations are recorded for the
parallel cost model like in :mod:`~repro.krylov.pcg`.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..sparse.csr import CSRMatrix
from ..util.validation import check_positive_finite, check_vector
from .oplog import OperationLog

__all__ = ["gmres"]


def gmres(
    a: CSRMatrix,
    b: np.ndarray,
    precond=None,
    *,
    tol: float = 1e-8,
    maxiter: int = 1000,
    restart: int = 30,
    log: OperationLog | None = None,
) -> tuple[np.ndarray, int, list[float], bool]:
    """Solve ``A x = b`` with right-preconditioned restarted GMRES.

    Returns ``(x, iterations, residual_history, converged)``; the
    history holds relative residual norms per inner iteration.
    """
    n = a.nrows
    b = check_vector(b, n, "b")
    if restart <= 0:
        raise ValidationError("restart must be positive")
    if maxiter < 0:
        raise ValidationError("maxiter must be non-negative")
    tol = check_positive_finite(tol, "tol")
    x = np.zeros(n)
    log = log if log is not None else OperationLog()

    bnorm = float(np.linalg.norm(b))
    log.dot(n)
    if bnorm == 0.0:
        return np.zeros(n), 0, [0.0], True

    history: list[float] = []
    total_iters = 0
    converged = False

    while total_iters < maxiter and not converged:
        r = b - a.matvec(x)
        log.matvec(a.nnz)
        log.saxpy(n)
        beta = float(np.linalg.norm(r))
        log.dot(n)
        if not history:
            history.append(beta / bnorm)
            if history[0] <= tol:
                return x, 0, history, True
        m = min(restart, maxiter - total_iters)
        v = np.zeros((m + 1, n))
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        v[0] = r / beta
        log.scale(n)

        j_used = 0
        for j in range(m):
            w = precond.apply(v[j], log) if precond is not None else v[j]
            w = a.matvec(w)
            log.matvec(a.nnz)
            # Modified Gram–Schmidt.
            for i in range(j + 1):
                h[i, j] = float(np.dot(w, v[i]))
                log.dot(n)
                w = w - h[i, j] * v[i]
                log.saxpy(n)
            hnorm = float(np.linalg.norm(w))
            log.dot(n)
            h[j + 1, j] = hnorm
            if hnorm > 0.0:
                v[j + 1] = w / hnorm
                log.scale(n)
            # Apply accumulated Givens rotations to the new column.
            for i in range(j):
                t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = t
            # New rotation annihilating h[j+1, j].
            denom = float(np.hypot(h[j, j], h[j + 1, j]))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]

            j_used = j + 1
            total_iters += 1
            rel = abs(float(g[j + 1])) / bnorm
            history.append(rel)
            if rel <= tol or hnorm == 0.0:  # hnorm == 0: lucky breakdown
                converged = rel <= tol or hnorm == 0.0
                break
        # Solve the small triangular system and update x.
        if j_used > 0:
            y = np.zeros(j_used)
            for i in range(j_used - 1, -1, -1):
                y[i] = (g[i] - h[i, i + 1 : j_used] @ y[i + 1 : j_used]) / h[i, i]
            update = v[:j_used].T @ y
            log.record("gemv", j_used * n)
            if precond is not None:
                update = precond.apply(update, log)
            x = x + update
            log.saxpy(n)
    return x, total_iters, history, converged
