"""Preconditioned Krylov solver — the PCGPAK stand-in.

PCGPAK, the commercial solver the paper parallelized, consists of
(Appendix 1.1): symbolic incomplete factorization, numeric incomplete
factorization, and the Krylov iteration built from sparse matrix–vector
multiplies, SAXPYs, inner products and sparse triangular solves.  This
package implements all of it:

* :mod:`~repro.krylov.ilu` — symbolic (level-of-fill) and numeric
  incomplete LU factorization, and the preconditioners: an
  :class:`ILUPreconditioner` is one factorization plus its two
  triangular loops compiled once on a :class:`~repro.runtime.Runtime`
  session, applied by rebinding the right-hand side;
* :mod:`~repro.krylov.pcg` — preconditioned conjugate gradients;
* :mod:`~repro.krylov.gmres` — restarted GMRES for the nonsymmetric
  problems;
* :mod:`~repro.krylov.solver` — the PCGPAK-style driver;
* :mod:`~repro.krylov.parallel` — the parallel solver: every component
  cost-accounted on the machine model with the exact decomposition of
  Appendix 2 (blocked partitions for SAXPY/dot/matvec, wavefront
  executors for the solves and the numeric factorization,
  self-scheduling for the symbolic factorization).  It prices the very
  loops its preconditioner runs.
"""

from .ilu import (
    symbolic_ilu,
    numeric_ilu,
    ILUFactorization,
    ILUPreconditioner,
    JacobiPreconditioner,
    IdentityPreconditioner,
    make_preconditioner,
)
from .oplog import OperationLog
from .pcg import pcg
from .gmres import gmres
from .solver import solve, SolveResult
from .parallel import ParallelSolver, ParallelSolveReport, TriangularSolveAnalysis

__all__ = [
    "symbolic_ilu",
    "numeric_ilu",
    "ILUFactorization",
    "ILUPreconditioner",
    "JacobiPreconditioner",
    "IdentityPreconditioner",
    "make_preconditioner",
    "OperationLog",
    "pcg",
    "gmres",
    "solve",
    "SolveResult",
    "ParallelSolver",
    "ParallelSolveReport",
    "TriangularSolveAnalysis",
]
