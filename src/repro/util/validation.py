"""Argument validation helpers.

These helpers normalise user input into the canonical dtypes used across
the library (``int64`` for index arrays, ``float64`` for value arrays)
and raise :class:`repro.errors.ValidationError` with a descriptive
message when the input is unusable.  Centralising the checks keeps the
public API functions short and the error messages consistent.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ValidationError

__all__ = [
    "as_int_array",
    "as_float_array",
    "check_index_array",
    "check_horizon",
    "check_positive",
    "check_positive_finite",
    "check_seed",
    "check_square",
    "check_timeout",
    "check_unit_work",
    "check_vector",
]


def as_int_array(a, name: str = "array") -> np.ndarray:
    """Return ``a`` as a contiguous ``int64`` NumPy array.

    Floating-point input is accepted only when it is exactly integral.
    """
    arr = np.asarray(a)
    if arr.dtype.kind == "f":
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ValidationError(f"{name} must contain integers, got fractional values")
        arr = rounded
    elif arr.dtype.kind not in "iu":
        raise ValidationError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_float_array(a, name: str = "array") -> np.ndarray:
    """Return ``a`` as a contiguous ``float64`` NumPy array."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "fiu":
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def check_index_array(a, n: int, name: str = "indices") -> np.ndarray:
    """Validate that ``a`` is a 1-D integer array with entries in ``[0, n)``."""
    arr = as_int_array(a, name)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValidationError(
            f"{name} entries must lie in [0, {n}); found range "
            f"[{arr.min()}, {arr.max()}]"
        )
    return arr


def check_positive(value, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    iv = int(value)
    if iv != value or iv <= 0:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return iv


def check_seed(value, name: str = "seed") -> int:
    """Validate that ``value`` is a non-negative integer — what
    ``numpy.random.default_rng`` takes as a reproducible seed, and what
    an ILU fill level or an iteration index is — and return it as
    ``int``; bools are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 0):
        raise ValidationError(
            f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def check_horizon(value, name: str = "expected_executions") -> float | None:
    """Validate an amortisation horizon: ``None`` (no amortisation) or a
    positive, finite number of executions, returned as a ``float``
    clamped to at least one — part of an execution amortises no more
    of an inspection than one does, so every horizon below one scores,
    and keys, as one."""
    if value is None:
        return None
    return max(1.0, check_positive_finite(value, name))


def check_positive_finite(value, name: str = "value") -> float:
    """Validate that ``value`` is a positive, finite number (a scale, a
    tolerance, a horizon) and return it as a ``float``."""
    x = float(value)
    if not 0.0 < x < float("inf"):  # nan fails both comparisons
        raise ValidationError(
            f"{name} must be positive and finite, got {value!r}")
    return x


def check_timeout(value) -> float:
    """Validate a wall-clock timeout in seconds: positive, finite and at
    most half of :data:`threading.TIMEOUT_MAX`, the longest wait a join
    accepts — the watchdog and the pool wait a margin past it."""
    x = check_positive_finite(value, "timeout")
    if x > threading.TIMEOUT_MAX / 2:
        raise ValidationError(
            f"timeout must be at most {threading.TIMEOUT_MAX / 2:.0f} "
            f"seconds, got {value!r}")
    return x


def check_square(shape, name: str = "matrix") -> int:
    """Validate that ``shape`` is square and return its dimension."""
    n, m = shape
    if n != m:
        raise ValidationError(f"{name} must be square, got shape {shape}")
    return int(n)


def check_vector(x, n: int, name: str = "vector") -> np.ndarray:
    """Validate that ``x`` is a length-``n`` 1-D float vector."""
    arr = as_float_array(x, name)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValidationError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def check_unit_work(unit_work, n: int) -> np.ndarray:
    """Validate a per-iteration work override: a length-``n`` float
    vector of finite entries (negative work is legal); a ``nan`` would
    time as a ``nan`` makespan and fail every tuner candidate."""
    arr = check_vector(unit_work, n, "unit_work")
    if not np.isfinite(arr).all():
        raise ValidationError("unit_work entries must be finite")
    return arr
