"""PCGPAK-style solver driver.

"The computation in PCGPAK is carried out by (1) performing a symbolic
incomplete factorization ..., (2) numeric calculation of the incomplete
factorization ... and (3) matrix vector multiplies, SAXPYs, vector
inner products and sparse triangular solves" (Appendix 1.1).
:func:`solve` packages those stages behind one call and returns a
:class:`SolveResult` carrying everything the parallel cost model and
the experiment harness need: the solution, convergence history, and
the full operation log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, ValidationError
from ..sparse.csr import CSRMatrix
from ..util.timing import Stopwatch
from ..util.validation import check_positive_finite
from .gmres import gmres
from .ilu import make_preconditioner
from .oplog import OperationLog
from .pcg import pcg

__all__ = ["solve", "SolveResult"]


@dataclass
class SolveResult:
    """Everything produced by one PCGPAK-style solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    method: str
    precond_kind: str
    log: OperationLog = field(repr=False)
    #: Host seconds: (symbolic+numeric) factorization and iteration loop.
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


def solve(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    method: str = "pcg",
    precond="ilu0",
    tol: float = 1e-8,
    maxiter: int = 1000,
    restart: int = 30,
    raise_on_fail: bool = False,
) -> SolveResult:
    """Solve ``A x = b`` with a preconditioned Krylov method.

    Parameters
    ----------
    method:
        ``"pcg"`` (SPD systems) or ``"gmres"``.
    precond:
        ``"ilu0"``, ``"ilu1"``, ..., ``"jacobi"``, ``"none"``/``None`` —
        or a preconditioner already built (an ``apply(r, log)`` method
        and a ``name``), which is used as it is: nothing is factored.
    raise_on_fail:
        Raise :class:`~repro.errors.ConvergenceError` instead of
        returning an unconverged result.
    """
    # Refused before the factorization is paid for.
    if method not in ("pcg", "gmres"):
        raise ValidationError(f"method must be 'pcg' or 'gmres', got {method!r}")
    check_positive_finite(tol, "tol")
    log = OperationLog()
    sw_setup = Stopwatch()
    with sw_setup:
        m = (precond if hasattr(precond, "apply")
             else make_preconditioner(a, precond))
    pre = None if m.name == "none" else m

    sw_solve = Stopwatch()
    with sw_solve:
        if method == "pcg":
            x, iters, hist, ok = pcg(
                a, b, pre, tol=tol, maxiter=maxiter, log=log)
        else:
            x, iters, hist, ok = gmres(
                a, b, pre, tol=tol, maxiter=maxiter, restart=restart,
                log=log)

    if raise_on_fail and not ok:
        raise ConvergenceError(
            f"{method} failed to reach tol={tol} in {iters} iterations",
            iterations=iters, residual=hist[-1] if hist else float("nan"),
        )
    return SolveResult(
        x=x,
        iterations=iters,
        residuals=hist,
        converged=ok,
        method=method,
        precond_kind=m.name,
        log=log,
        setup_seconds=sw_setup.elapsed,
        solve_seconds=sw_solve.elapsed,
    )
