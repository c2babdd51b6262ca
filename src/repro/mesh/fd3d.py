"""Three-dimensional 7-point discretization (Problem 8).

Problem 8 (7-PT) of Appendix 1 is the seven-point central difference
discretization on the unit cube of::

    -(e^{xy} u_x)_x - (e^{xy} u_y)_y - (e^{xy} u_z)_z
        + 80 (x + y + z) u_x + (40 + 1/(1 + x + y + z)) u = f

with Dirichlet boundary conditions and ``f`` chosen so the exact
solution is ``u = (1-x)(1-y)(1-z)(1-e^{-x})(1-e^{-y})(1-e^{-z})``.
The 20×20×20 grid yields 8000 equations; L7-PT uses 30×30×30.

As in :mod:`repro.mesh.fd2d`, the right-hand side is manufactured as
``b = A @ u_exact`` so the discrete system has a known exact solution.
"""

from __future__ import annotations

import numpy as np

from ..sparse.build import coo_to_csr
from ..sparse.csr import CSRMatrix
from .grid import Grid3D

__all__ = ["seven_point_problem8", "exact_solution_3d"]


def exact_solution_3d(x, y, z):
    """``u = (1-x)(1-y)(1-z)(1-e^{-x})(1-e^{-y})(1-e^{-z})``."""
    return (
        (1.0 - x) * (1.0 - y) * (1.0 - z)
        * (1.0 - np.exp(-x)) * (1.0 - np.exp(-y)) * (1.0 - np.exp(-z))
    )


def seven_point_problem8(nx: int = 20) -> tuple[CSRMatrix, np.ndarray, np.ndarray]:
    """Problem 8 (7-PT) on an ``nx³`` grid. Returns ``(A, b, u_exact)``."""
    grid = Grid3D(nx, nx, nx)
    hx, hy, hz = grid.hx, grid.hy, grid.hz
    n = grid.n
    idx = np.arange(n)
    x, y, z = grid.xyz(idx)

    def kappa(xa, ya, za):
        # Diffusion coefficient e^{xy} (taken isotropic as stated).
        return np.exp(xa * ya)

    k_e = kappa(x + hx / 2, y, z)
    k_w = kappa(x - hx / 2, y, z)
    k_n = kappa(x, y + hy / 2, z)
    k_s = kappa(x, y - hy / 2, z)
    k_u = kappa(x, y, z + hz / 2)
    k_d = kappa(x, y, z - hz / 2)
    conv = 80.0 * (x + y + z)
    react = 40.0 + 1.0 / (1.0 + x + y + z)

    coef = {
        (1, 0, 0): -k_e / hx**2 + conv / (2 * hx),
        (-1, 0, 0): -k_w / hx**2 - conv / (2 * hx),
        (0, 1, 0): -k_n / hy**2,
        (0, -1, 0): -k_s / hy**2,
        (0, 0, 1): -k_u / hz**2,
        (0, 0, -1): -k_d / hz**2,
    }
    center = (
        (k_e + k_w) / hx**2 + (k_n + k_s) / hy**2 + (k_u + k_d) / hz**2 + react
    )

    rows = [idx]
    cols = [idx]
    vals = [center]
    for (dix, diy, diz), c in coef.items():
        points, nbrs = grid.neighbours(dix, diy, diz)
        rows.append(points)
        cols.append(nbrs)
        vals.append(c[points])

    a = coo_to_csr(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, n)
    )
    u = exact_solution_3d(x, y, z)
    b = a.matvec(u)
    return a, b, u
