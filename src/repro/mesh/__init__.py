"""Structured-mesh PDE discretizations and the paper's test problems.

Appendix 1 of the paper specifies eight test problems: five reservoir
matrices (SPE1–SPE5, block seven-point operators on small 3-D grids)
and three finite-difference discretizations with fully stated
variable-coefficient PDEs (5-PT, 9-PT, 7-PT, plus large "L" variants).
This package reconstructs all of them:

* the PDE problems are discretized directly from the stated equations;
* the proprietary SPE matrices are replaced by structurally faithful
  synthetic block operators on the exact grids and block sizes the
  appendix gives.
"""

from .grid import Grid2D, Grid3D
from .fd2d import five_point_laplacian, five_point_problem6, nine_point_problem7
from .fd3d import seven_point_problem8
from .blockops import seven_point_structure, block_seven_point
from .problems import TestProblem, get_problem, list_problems, PROBLEM_NAMES

__all__ = [
    "Grid2D",
    "Grid3D",
    "five_point_laplacian",
    "five_point_problem6",
    "nine_point_problem7",
    "seven_point_problem8",
    "seven_point_structure",
    "block_seven_point",
    "TestProblem",
    "get_problem",
    "list_problems",
    "PROBLEM_NAMES",
]
