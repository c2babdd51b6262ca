"""Two-dimensional finite-difference discretizations (Problems 6 and 7).

Problem 6 (5-PT) of the paper's Appendix 1 is the five-point central
difference discretization of::

    -(e^{xy} u_x)_x - (e^{-xy} u_y)_y
        + 2(x + y)(u_x + u_y) + u / (1 + x + y) = f

on the unit square with Dirichlet boundary conditions and ``f`` chosen
so the exact solution is ``u = x e^{xy} sin(pi x) sin(pi y)``.  The
63×63 grid yields 3969 unknowns; L5-PT uses 200×200.

Problem 7 (9-PT) is a nine-point box-scheme discretization of::

    -(u_xx + u_yy) + 2 u_x + 2 u_y = f

with the same exact solution, on 63×63 (L9-PT: 127×127).

The right-hand side is manufactured by applying the assembled discrete
operator to the sampled exact solution plus the boundary lift, so the
discrete system is satisfied by the sampled exact solution *exactly* —
that gives the test-suite a sharp correctness oracle for the whole
solver stack without worrying about truncation error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ValidationError
from ..sparse.build import coo_to_csr
from ..sparse.csr import CSRMatrix
from .grid import Grid2D

__all__ = [
    "five_point_laplacian",
    "five_point_operator",
    "five_point_problem6",
    "nine_point_problem7",
    "exact_solution_2d",
]


def exact_solution_2d(x, y):
    """The manufactured solution ``u = x e^{xy} sin(pi x) sin(pi y)``."""
    return x * np.exp(x * y) * np.sin(np.pi * x) * np.sin(np.pi * y)


def five_point_laplacian(grid: Grid2D) -> CSRMatrix:
    """The standard 5-point Laplacian stencil matrix on ``grid``.

    This is the *model problem* operator of Section 4.2 of the paper
    (zero-fill factorization of the 5-point template on an m×n mesh).
    Scaled by ``h^2`` so entries are the familiar ``(4, -1, -1, -1, -1)``
    when ``hx == hy``.
    """
    return five_point_operator(
        grid,
        p=lambda x, y: np.ones_like(x),
        q=lambda x, y: np.ones_like(x),
        cx=lambda x, y: np.zeros_like(x),
        cy=lambda x, y: np.zeros_like(x),
        r=lambda x, y: np.zeros_like(x),
        scale_h2=True,
    )


def five_point_operator(
    grid: Grid2D,
    *,
    p: Callable,
    q: Callable,
    cx: Callable,
    cy: Callable,
    r: Callable,
    scale_h2: bool = False,
) -> CSRMatrix:
    """Assemble ``-(p u_x)_x - (q u_y)_y + cx u_x + cy u_y + r u``.

    Conservative differencing with harmonic-free midpoint coefficient
    evaluation for the diffusion terms and central differences for the
    convection terms.  The matrix acts on the interior unknowns; a
    neighbour outside the grid multiplies a Dirichlet boundary value,
    which is zero here (the manufactured solutions vanish on the
    boundary), so it contributes nothing.
    """
    hx, hy = grid.hx, grid.hy
    idx = np.arange(grid.n)
    x, y = grid.xy(idx)

    p_e = p(x + hx / 2, y)  # east midpoint
    p_w = p(x - hx / 2, y)  # west midpoint
    q_n = q(x, y + hy / 2)  # north midpoint
    q_s = q(x, y - hy / 2)  # south midpoint
    cxv = cx(x, y)
    cyv = cy(x, y)
    rv = r(x, y)

    scale = hx * hy if scale_h2 else 1.0
    # hx*hy scaling keeps the 5-point Laplacian entries at the textbook
    # values when hx == hy; the general problems use physical scaling.
    coef_e = (-p_e / hx**2 + cxv / (2 * hx)) * scale
    coef_w = (-p_w / hx**2 - cxv / (2 * hx)) * scale
    coef_n = (-q_n / hy**2 + cyv / (2 * hy)) * scale
    coef_s = (-q_s / hy**2 - cyv / (2 * hy)) * scale
    coef_c = ((p_e + p_w) / hx**2 + (q_n + q_s) / hy**2 + rv) * scale

    rows = [idx]
    cols = [idx]
    vals = [coef_c]
    for dix, diy, coef in (
        (1, 0, coef_e),
        (-1, 0, coef_w),
        (0, 1, coef_n),
        (0, -1, coef_s),
    ):
        points, nbrs = grid.neighbours(dix, diy)
        rows.append(points)
        cols.append(nbrs)
        vals.append(coef[points])
    return coo_to_csr(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (grid.n, grid.n),
    )


def five_point_problem6(nx: int = 63) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Problem 6 (5-PT): the stated variable-coefficient equation.

    Returns ``(A, b, u_exact)`` where ``b = A @ u_exact`` (manufactured
    consistency, see module docstring).
    """
    grid = Grid2D(nx, nx)
    a = five_point_operator(
        grid,
        p=lambda x, y: np.exp(x * y),
        q=lambda x, y: np.exp(-x * y),
        cx=lambda x, y: 2.0 * (x + y),
        cy=lambda x, y: 2.0 * (x + y),
        r=lambda x, y: 1.0 / (1.0 + x + y),
    )
    u = exact_solution_2d(*grid.xy(np.arange(grid.n)))
    return a, a.matvec(u), u


def nine_point_problem7(nx: int = 63, ny: int | None = None) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Problem 7 (9-PT): nine-point box scheme for ``-Δu + 2u_x + 2u_y = f``.

    The compact nine-point ("box") discretization of the Laplacian::

        (1/(6 h^2)) * [ -1 -4 -1 ; -4 20 -4 ; -1 -4 -1 ]

    plus central differences for the convection terms.  What matters for
    the scheduling experiments is the nine-point *connectivity*: each
    row couples to all eight neighbours, which roughly halves the number
    of wavefronts relative to the 5-point operator (diagonal neighbours
    join the same anti-diagonal dependence chain).

    Returns ``(A, b, u_exact)`` with a manufactured right-hand side.
    """
    grid = Grid2D(nx, ny if ny is not None else nx)
    if grid.nx != grid.ny:
        raise ValidationError(
            f"ny must equal nx (the box scheme needs a square grid), got {ny!r}")
    h = grid.hx
    n = grid.n
    idx = np.arange(n)

    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 20.0 / (6.0 * h * h))]

    # (dix, diy) -> Laplacian box weight
    box = {
        (1, 0): -4.0, (-1, 0): -4.0, (0, 1): -4.0, (0, -1): -4.0,
        (1, 1): -1.0, (1, -1): -1.0, (-1, 1): -1.0, (-1, -1): -1.0,
    }
    # Convection: central differences along x and y with coefficient 2.
    conv = {(1, 0): 2.0 / (2 * h), (-1, 0): -2.0 / (2 * h),
            (0, 1): 2.0 / (2 * h), (0, -1): -2.0 / (2 * h)}

    for (dix, diy), w in box.items():
        points, nbrs = grid.neighbours(dix, diy)
        rows.append(points)
        cols.append(nbrs)
        vals.append(np.full(
            points.shape[0], w / (6.0 * h * h) + conv.get((dix, diy), 0.0)))

    a = coo_to_csr(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, n)
    )
    u = exact_solution_2d(*grid.xy(idx))
    return a, a.matvec(u), u
