"""The eight named test problems of Appendix 1 (plus large variants).

==========  ===========================================  =========  ======
Name        Construction                                 Grid       n
==========  ===========================================  =========  ======
SPE1        7-pt, 1 unknown/point (synthetic values)     10×10×10   1000
SPE2        block 7-pt, 6×6 blocks                       6×6×5      1080
SPE3        7-pt                                         35×11×13   5005
SPE4        7-pt                                         16×23×3    1104
SPE5        block 7-pt, 3×3 blocks                       16×23×3    3312
5-PT        variable-coefficient 5-pt (Problem 6)        63×63      3969
9-PT        box-scheme 9-pt (Problem 7)                  63×63      3969
7-PT        variable-coefficient 7-pt 3-D (Problem 8)    20×20×20   8000
L5-PT       Problem 6, large                             200×200    40000
L9-PT       Problem 7, large                             127×127    16129
L7-PT       Problem 8, large                             30×30×30   27000
==========  ===========================================  =========  ======

SPE values are synthetic (the originals are proprietary); their
*structure* — grid, stencil, block size, hence wavefront profile — is
exactly as published.  Use :func:`get_problem`; results are cached
because several experiments share problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import ValidationError
from ..sparse.csr import CSRMatrix
from ..util.rng import default_rng, spawn_rng
from ..util.validation import check_positive_finite
from .blockops import block_seven_point
from .fd2d import five_point_problem6, nine_point_problem7
from .fd3d import seven_point_problem8

__all__ = ["TestProblem", "get_problem", "list_problems", "PROBLEM_NAMES"]


@dataclass(frozen=True)
class TestProblem:
    """A named linear system ``A x = b`` with provenance metadata."""

    name: str
    a: CSRMatrix
    b: np.ndarray
    description: str
    grid_shape: tuple[int, ...]
    block_size: int = 1
    #: Exact discrete solution when one is known (manufactured problems).
    x_exact: np.ndarray | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.a.nrows

    @cached_property
    def factorization(self):
        """The ILU(0) :class:`~repro.krylov.ilu.ILUFactorization` of
        ``a``, computed on first use and kept beside the matrix: what
        reads one problem (solvers, tables, :meth:`loop_program`)
        shares one factorization while :func:`get_problem` keeps it."""
        from ..krylov.ilu import ILUFactorization, numeric_ilu  # deferred: cycle

        return ILUFactorization.from_lu(numeric_ilu(self.a))

    def loop_program(self, *, factored: bool = False):
        """This problem's Figure 8 workload as a declarative program.

        Returns a :class:`~repro.program.LoopProgram` for the forward
        substitution induced by the problem: with ``factored=True`` the
        unit-lower ILU(0) factor (the paper's actual workload — the
        matrix is factored first, then the solve parallelized), else
        the matrix's own strict lower triangle with an implicit unit
        diagonal.  The problem's ``b`` is bound as the right-hand side;
        the program is ready to compile on any
        :class:`~repro.runtime.Runtime` and to ``rebind`` per solve.
        """
        from ..program import LoopProgram  # deferred: import cycle
        from ..sparse.triangular import split_triangular

        if factored:
            return LoopProgram.from_csr(self.factorization.l_strict, self.b,
                                        unit_diagonal=True,
                                        name=f"{self.name}-ilu0-lower")
        l_strict, _, _ = split_triangular(self.a)
        return LoopProgram.from_csr(l_strict, self.b, unit_diagonal=True,
                                    name=f"{self.name}-lower")


#: Canonical problem names in the order the paper's tables list them.
PROBLEM_NAMES = (
    "SPE1", "SPE2", "SPE3", "SPE4", "SPE5",
    "5-PT", "9-PT", "7-PT", "L5-PT", "L9-PT", "L7-PT",
)

_SPE_SPECS = {
    # name: (grid, block size, appendix description)
    "SPE1": ((10, 10, 10), 1, "pressure equation, sequential black oil simulation"),
    "SPE2": ((6, 6, 5), 6, "thermal simulation of a steam injection process"),
    "SPE3": ((35, 11, 13), 1, "IMPES simulation of a black oil model"),
    "SPE4": ((16, 23, 3), 1, "IMPES simulation of a black oil model"),
    "SPE5": ((16, 23, 3), 3, "fully-implicit black oil simulation"),
}

_FD_FAMILIES = {
    # name: (builder, grid dimensions, description)
    "5-PT": (five_point_problem6, 2,
             "5-point central difference, variable coefficients (Problem 6)"),
    "9-PT": (nine_point_problem7, 2, "9-point box scheme (Problem 7)"),
    "7-PT": (seven_point_problem8, 3,
             "7-point central difference on the unit cube (Problem 8)"),
}
#: Points per grid side; an ``L`` problem is its family on a larger grid.
_FD_SIDES = {"5-PT": 63, "9-PT": 63, "7-PT": 20,
             "L5-PT": 200, "L9-PT": 127, "L7-PT": 30}


def list_problems() -> tuple[str, ...]:
    """Names accepted by :func:`get_problem`."""
    return PROBLEM_NAMES


@lru_cache(maxsize=None)
def get_problem(name: str, *, scale: float = 1.0) -> TestProblem:
    """Build (and cache) a named test problem.

    Parameters
    ----------
    name:
        One of :data:`PROBLEM_NAMES` (case-insensitive).
    scale:
        Linear scale factor on the grid dimensions, for fast test runs;
        e.g. ``scale=0.5`` builds 5-PT on a 31×31 grid.  Benchmarks use
        the paper's full sizes (``scale=1``).  Positive and finite; no
        dimension shrinks below 2.
    """
    scale = check_positive_finite(scale, "scale")
    key = name.upper().replace("_", "-")
    if key not in PROBLEM_NAMES:
        raise ValidationError(
            f"unknown test problem {name!r}; choose from {PROBLEM_NAMES}"
        )

    def s(dim: int) -> int:
        return max(2, int(round(dim * scale)))

    if key in _SPE_SPECS:
        (gx, gy, gz), bs, desc = _SPE_SPECS[key]
        a = block_seven_point(s(gx), s(gy), s(gz), bs, seed=default_rng())
        # One stream per problem, derived from its table position —
        # ``hash(name)`` is salted per process.
        rng = spawn_rng(default_rng(), PROBLEM_NAMES.index(key))
        x_true = rng.standard_normal(a.nrows)
        b = a.matvec(x_true)
        return TestProblem(
            name=key, a=a, b=b,
            description=f"{desc} (synthetic values; structure as published)",
            grid_shape=(s(gx), s(gy), s(gz)), block_size=bs, x_exact=x_true,
        )

    build, dims, desc = _FD_FAMILIES[key.removeprefix("L")]
    nx = s(_FD_SIDES[key])
    a, b, u = build(nx)
    return TestProblem(name=key, a=a, b=b, description=desc,
                       grid_shape=(nx,) * dims, x_exact=u)
