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

from ..sparse.build import DIAG_DOMINANCE, block_expand, coo_to_csr
from ..sparse.csr import CSRMatrix
from ..util.rng import default_rng
from .grid import Grid3D

__all__ = ["seven_point_structure", "block_seven_point"]


def seven_point_structure(grid: Grid3D, *, seed=None) -> CSRMatrix:
    """A scalar seven-point operator with synthetic coefficients.

    Off-diagonal entries are drawn from ``U(-1, -0.25)`` (negative, as
    in a discretized diffusion operator); the diagonal dominates the row
    sum by :data:`~repro.sparse.build.DIAG_DOMINANCE`.  With the default
    seed this is deterministic.
    """
    rng = default_rng(seed)
    n = grid.n
    idx = np.arange(n)

    rows = []
    cols = []
    vals = []
    offdiag_sum = np.zeros(n, dtype=np.float64)
    for dix, diy, diz in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    ):
        points, nbrs = grid.neighbours(dix, diy, diz)
        v = rng.uniform(-1.0, -0.25, size=points.shape[0])
        rows.append(points)
        cols.append(nbrs)
        vals.append(v)
        np.add.at(offdiag_sum, points, np.abs(v))
    rows.append(idx)
    cols.append(idx)
    vals.append(offdiag_sum * (1.0 + DIAG_DOMINANCE)
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
