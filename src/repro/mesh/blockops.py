"""Block seven-point operators — the SPE-matrix stand-ins.

The SPE1–SPE5 matrices in the paper come from proprietary black-oil
reservoir simulations; only their structure is published: a (block)
seven-point operator on a stated grid with a stated number of unknowns
per grid point.  Scheduling behaviour (wavefront profile, phase counts,
load balance) is determined entirely by that structure, so we rebuild
the matrices as synthetic block seven-point operators on the exact grids
and block sizes of Appendix 1, with seeded diagonally dominant values.
"""

from __future__ import annotations

import numpy as np

from ..sparse.build import block_expand, coo_to_csr
from ..sparse.csr import CSRMatrix
from ..util.rng import default_rng
from .grid import Grid3D

__all__ = ["seven_point_structure", "block_seven_point"]


def seven_point_structure(grid: Grid3D, *, seed=None,
                          diag_dominance: float = 0.05) -> CSRMatrix:
    """A scalar seven-point operator with synthetic coefficients.

    Off-diagonal entries are drawn from ``U(-1, -0.25)`` (negative, as
    in a discretized diffusion operator); the diagonal dominates the row
    sum by ``diag_dominance``.  With the default seed this is
    deterministic.
    """
    rng = default_rng(seed)
    n = grid.n
    idx = np.arange(n)
    ix, iy, iz = grid.coords(idx)

    rows = []
    cols = []
    vals = []
    offdiag_sum = np.zeros(n, dtype=np.float64)
    for dix, diy, diz in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ):
        jx, jy, jz = ix + dix, iy + diy, iz + diz
        inside = grid.interior_mask(jx, jy, jz)
        v = rng.uniform(-1.0, -0.25, size=int(inside.sum()))
        rows.append(idx[inside])
        cols.append(grid.index(jx[inside], jy[inside], jz[inside]))
        vals.append(v)
        np.add.at(offdiag_sum, idx[inside], np.abs(v))
    rows.append(idx)
    cols.append(idx)
    # Weakly dominant diagonal: stable ILU(0), non-trivial iteration
    # counts (see repro.sparse.build.block_expand for the rationale).
    vals.append(offdiag_sum * (1.0 + diag_dominance)
                + rng.uniform(0.0, 0.1, size=n))
    return coo_to_csr(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, n)
    )


def block_seven_point(
    nx: int, ny: int, nz: int, block_size: int = 1, *, seed=None
) -> CSRMatrix:
    """A (block) seven-point operator on an ``nx × ny × nz`` grid.

    ``block_size == 1`` returns the scalar operator; larger values
    expand every stencil entry into a dense block
    (:func:`repro.sparse.build.block_expand`), reproducing e.g. SPE2's
    "block seven point operator with 6×6 blocks".
    """
    grid = Grid3D(nx, ny, nz)
    rng = default_rng(seed)
    scalar = seven_point_structure(grid, seed=rng)
    if block_size == 1:
        return scalar
    return block_expand(scalar, block_size, seed=rng)
