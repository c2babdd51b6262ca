"""Small shared utilities: validation, RNG handling, ASCII tables, timing."""

from .validation import (
    check_horizon,
    check_index_array,
    check_positive,
    check_square,
    check_vector,
    as_int_array,
    as_float_array,
)
from .rng import default_rng, spawn_rng
from .tables import TextTable
from .timing import Stopwatch

__all__ = [
    "check_horizon",
    "check_index_array",
    "check_positive",
    "check_square",
    "check_vector",
    "as_int_array",
    "as_float_array",
    "default_rng",
    "spawn_rng",
    "TextTable",
    "Stopwatch",
]
