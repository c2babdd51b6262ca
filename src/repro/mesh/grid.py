"""Structured grid index arithmetic.

The paper numbers mesh points in their *natural ordering*; the wavefront
structure of the resulting triangular factors (anti-diagonal strips,
Figure 9) is a direct consequence of that numbering, so the grid classes
pin it down precisely:

* 2-D: point ``(ix, iy)`` has index ``iy * nx + ix`` (x fastest);
* 3-D: point ``(ix, iy, iz)`` has index ``(iz * ny + iy) * nx + ix``.

``neighbours`` is the stencil query built on it: the index is linear in
the coordinates, so a neighbour is its point plus a constant, and the
only question an assembler has to ask is which points keep that
neighbour inside the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.validation import check_positive

__all__ = ["Grid2D", "Grid3D"]


@dataclass(frozen=True)
class Grid2D:
    """A rectangular grid of ``nx × ny`` interior points on the unit square.

    Grid spacing assumes Dirichlet boundaries at 0 and 1, so interior
    point ``ix`` sits at ``x = (ix + 1) * hx`` with ``hx = 1/(nx + 1)``.
    """

    nx: int
    ny: int

    def __post_init__(self):
        check_positive(self.nx, "nx")
        check_positive(self.ny, "ny")

    @property
    def n(self) -> int:
        """Total number of interior points."""
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny + 1)

    def index(self, ix, iy):
        """Natural-ordering index of point ``(ix, iy)`` (vectorised)."""
        return np.asarray(iy) * self.nx + np.asarray(ix)

    def coords(self, idx):
        """Inverse of :meth:`index`: ``(ix, iy)`` of flat index ``idx``."""
        idx = np.asarray(idx)
        return idx % self.nx, idx // self.nx

    def xy(self, idx):
        """Physical coordinates of interior point ``idx``."""
        ix, iy = self.coords(idx)
        return (ix + 1) * self.hx, (iy + 1) * self.hy

    def interior_mask(self, ix, iy):
        """True where ``(ix, iy)`` is inside the grid (vectorised)."""
        ix = np.asarray(ix)
        iy = np.asarray(iy)
        return (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)

    def neighbours(self, dix: int, diy: int):
        """``(points, neighbours)``: every point whose ``(dix, diy)``
        neighbour lies inside the grid, in natural order, and beside
        each the index of that neighbour — one stencil offset's
        ``(row, column)`` pairs."""
        ix, iy = self.coords(np.arange(self.n))
        points = np.flatnonzero(self.interior_mask(ix + dix, iy + diy))
        return points, points + self.index(dix, diy)

    def antidiagonal(self, idx):
        """The anti-diagonal number ``ix + iy`` of a point.

        For the 5-point model problem the wavefront of the zero-fill
        lower factor equals exactly this quantity (Figure 9), which the
        test-suite asserts.
        """
        ix, iy = self.coords(idx)
        return ix + iy


@dataclass(frozen=True)
class Grid3D:
    """A box grid of ``nx × ny × nz`` interior points on the unit cube."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        check_positive(self.nx, "nx")
        check_positive(self.ny, "ny")
        check_positive(self.nz, "nz")

    @property
    def n(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def hx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def hy(self) -> float:
        return 1.0 / (self.ny + 1)

    @property
    def hz(self) -> float:
        return 1.0 / (self.nz + 1)

    def index(self, ix, iy, iz):
        """Natural-ordering index (x fastest, z slowest; vectorised)."""
        return (np.asarray(iz) * self.ny + np.asarray(iy)) * self.nx + np.asarray(ix)

    def coords(self, idx):
        idx = np.asarray(idx)
        ix = idx % self.nx
        rest = idx // self.nx
        return ix, rest % self.ny, rest // self.ny

    def xyz(self, idx):
        ix, iy, iz = self.coords(idx)
        return (ix + 1) * self.hx, (iy + 1) * self.hy, (iz + 1) * self.hz

    def interior_mask(self, ix, iy, iz):
        ix, iy, iz = np.asarray(ix), np.asarray(iy), np.asarray(iz)
        return (
            (ix >= 0) & (ix < self.nx)
            & (iy >= 0) & (iy < self.ny)
            & (iz >= 0) & (iz < self.nz)
        )

    def neighbours(self, dix: int, diy: int, diz: int):
        """``(points, neighbours)`` of one stencil offset, as
        :meth:`Grid2D.neighbours`."""
        ix, iy, iz = self.coords(np.arange(self.n))
        points = np.flatnonzero(
            self.interior_mask(ix + dix, iy + diy, iz + diz))
        return points, points + self.index(dix, diy, diz)

    def antidiagonal(self, idx):
        """``ix + iy + iz`` — the 3-D wavefront number of the 7-pt factor."""
        ix, iy, iz = self.coords(idx)
        return ix + iy + iz
