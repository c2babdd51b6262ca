"""The Section 4.1 synthetic data-dependency workload generator.

The generator operates on a square 2-D mesh of points in natural
ordering.  For each index ``k``:

1. the number of dependency links is drawn from a Poisson distribution
   with parameter ``lambda`` (the "volume of communication");
2. each link's Manhattan distance ``d`` is drawn from a geometric
   distribution ``Pr[X = i] = (1 - p) p^i`` (the "locality of
   communication" — nearby regions interact more intensely);
3. a partner is chosen uniformly among mesh points exactly ``d`` away
   in the Manhattan metric (if any remain), and a dependence edge is
   forged between ``k`` and the partner.

Edges are oriented from the lower index to the higher (the computation
for the later index *uses* the earlier one), so the result is a DAG
whose adjacency is exactly the strict lower triangle of a dependency
matrix — the same shape of input a sparse triangular solve presents.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..mesh.grid import Grid2D
from ..sparse.build import coo_to_csr
from ..sparse.csr import CSRMatrix
from ..util.rng import default_rng
from ..util.validation import check_positive
from .naming import format_workload_name, parse_workload_name

__all__ = ["SyntheticWorkload", "generate_workload"]


@dataclass(frozen=True)
class SyntheticWorkload:
    """A generated dependency workload.

    Attributes
    ----------
    name:
        The paper-style label, e.g. ``"65-4-3"``.
    matrix:
        Lower-triangular CSR matrix: strict lower entries are the
        dependence links (synthetic coefficients), the diagonal is
        dominant, so the matrix doubles as a solvable triangular
        system.
    mesh:
        Mesh side length (``mesh × mesh`` points).
    mean_degree / mean_distance:
        The Poisson and geometric parameters used.
    """

    name: str
    matrix: CSRMatrix
    mesh: int
    mean_degree: float
    mean_distance: float

    @property
    def n(self) -> int:
        return self.matrix.nrows

    def dependence_counts(self) -> np.ndarray:
        """Strictly-lower entry count per row (the realized in-degrees)."""
        rows = self.matrix.row_of_nnz()
        strict = self.matrix.indices < rows
        return np.bincount(rows[strict], minlength=self.n)


@functools.lru_cache(maxsize=128)
def _ring_offsets(d: int) -> tuple:
    """All ``(dx, dy)`` integer offsets at Manhattan distance exactly ``d``,
    ``dx`` ascending and ``+dy`` first: the order a partner is drawn in."""
    offs = []
    for dx in range(-d, d + 1):
        rem = d - abs(dx)
        offs.append((dx, rem))
        if rem:
            offs.append((dx, -rem))
    return tuple(offs)


def generate_workload(
    name_or_mesh,
    mean_degree: float | None = None,
    mean_distance: float | None = None,
    *,
    seed=None,
    max_distance: int = 64,
) -> SyntheticWorkload:
    """Generate a synthetic workload.

    Accepts either a paper-style name (``generate_workload("65-4-3")``)
    or explicit parameters (``generate_workload(65, 4, 3)``).  The
    ``"<n>mesh"`` form produces the lower triangle of the plain 5-point
    mesh matrix instead of random links.

    Parameters
    ----------
    seed:
        RNG seed; default is the library seed (deterministic).
    max_distance:
        A positive integer: geometric draws are truncated here.
    """
    if isinstance(name_or_mesh, str):
        params = parse_workload_name(name_or_mesh)
        mesh = params["mesh"]
        mean_degree = params["mean_degree"]
        mean_distance = params["mean_distance"]
    else:
        mesh = int(name_or_mesh)
    mesh = check_positive(mesh, "mesh")
    max_distance = check_positive(max_distance, "max_distance")
    n = mesh * mesh
    rng = default_rng(seed)

    if (mean_degree is None) != (mean_distance is None):
        raise ValidationError("give both mean_degree and mean_distance, or neither")
    if mean_degree is None:
        return _mesh_workload(mesh, rng)
    if mean_degree < 0:
        raise ValidationError("mean_degree must be non-negative")
    if mean_distance <= 0:
        raise ValidationError("mean_distance must be positive")

    # Geometric Pr[X=i] = (1-p) p^i for i >= 0 has mean p / (1 - p);
    # we want links at distance >= 1, so draw i >= 0 and use d = i + 1,
    # giving mean 1 + p/(1-p).  Solve for p from the requested mean.
    extra = max(mean_distance - 1.0, 1e-9)
    p = extra / (1.0 + extra)

    # The draw order is the output: one geometric draw per row and one
    # unbatched integers pick per link, plus integer arithmetic.
    integers = rng.integers
    rows_l: list[int] = []
    cols_l: list[int] = []
    for k, links in enumerate(rng.poisson(lam=mean_degree, size=n).tolist()):
        if links == 0:
            continue
        ky, kx = divmod(k, mesh)
        for d in rng.geometric(1.0 - p, size=links).tolist():  # geometric >= 1
            d = min(d, max_distance)
            ring = _ring_offsets(d)
            if not (d <= kx < mesh - d and d <= ky < mesh - d):
                # Uniform choice among the ring's in-mesh points, in ring order.
                ring = [(dx, dy) for dx, dy in ring
                        if 0 <= kx + dx < mesh and 0 <= ky + dy < mesh]
                if not ring:
                    continue
            dx, dy = ring[integers(0, len(ring))]
            partner = k + dy * mesh + dx  # never k: d >= 1
            lo, hi = (partner, k) if partner < k else (k, partner)
            rows_l.append(hi)
            cols_l.append(lo)

    name = format_workload_name(mesh, mean_degree, mean_distance)
    return _assemble(name, mesh, mean_degree, mean_distance, n, rows_l, cols_l, rng)


def _assemble(name, mesh, mean_degree, mean_distance, n, rows_l, cols_l, rng):
    rows = np.asarray(rows_l, dtype=np.int64)
    cols = np.asarray(cols_l, dtype=np.int64)
    vals = rng.uniform(-1.0, -0.1, size=rows.shape[0])
    # Duplicate links collapse (summed) in CSR assembly; add a dominant
    # diagonal so the workload is also a solvable triangular system.
    all_rows = np.concatenate([rows, np.arange(n)])
    all_cols = np.concatenate([cols, np.arange(n)])
    diag = np.full(n, float(mean_degree) + 2.0)
    all_vals = np.concatenate([vals, diag])
    matrix = coo_to_csr(all_rows, all_cols, all_vals, (n, n))
    return SyntheticWorkload(
        name=name,
        matrix=matrix,
        mesh=mesh,
        mean_degree=float(mean_degree),
        mean_distance=float(mean_distance),
    )


def _mesh_workload(mesh: int, rng) -> SyntheticWorkload:
    """The ``"<n>mesh"`` workload: lower triangle of the 5-point mesh."""
    grid = Grid2D(mesh, mesh)
    # West, then south: the lower-index dependences, in the order their
    # coefficients are drawn.
    west, south = grid.neighbours(-1, 0), grid.neighbours(0, -1)
    rows = np.concatenate([west[0], south[0]])
    cols = np.concatenate([west[1], south[1]])
    return _assemble(f"{mesh}mesh", mesh, 2.0, 1.0, grid.n, rows, cols, rng)
