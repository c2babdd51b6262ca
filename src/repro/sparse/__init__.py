"""Sparse-matrix substrate.

The paper's workloads are sparse lower/upper triangular systems arising
from incomplete factorizations.  This package provides the compressed
sparse row (CSR) container and the numeric kernels every higher layer
builds on — implemented from scratch (no SciPy dependency) so that the
library is self-contained and the kernels mirror the FORTRAN loops the
paper transforms (Figures 3 and 8).
"""

from .csr import CSRMatrix
from .build import (
    coo_to_csr,
    csr_from_dense,
    identity,
    random_lower_triangular,
    block_expand,
)
from .triangular import (
    split_triangular,
    solve_lower_sequential,
    solve_upper_sequential,
)
from .io import (
    save_csr_npz,
    load_csr_npz,
    write_matrix_market,
    read_matrix_market,
)

__all__ = [
    "save_csr_npz",
    "load_csr_npz",
    "write_matrix_market",
    "read_matrix_market",
    "CSRMatrix",
    "coo_to_csr",
    "csr_from_dense",
    "identity",
    "random_lower_triangular",
    "block_expand",
    "split_triangular",
    "solve_lower_sequential",
    "solve_upper_sequential",
]
