"""Index-set partitions: who owns which loop index.

Two assignments from the paper:

* **wrapped** (striped): index ``i`` goes to processor ``i mod p`` —
  used for the triangular solves and numeric factorization, and as the
  fixed initial assignment that *local* scheduling preserves
  (Section 5.1.4 "indices were assigned to processors in a striped
  manner");
* **blocked** (contiguous): indices are split into ``p`` contiguous
  runs of near-equal size — used for the trivially parallel SAXPY /
  inner-product / matvec components (Appendix 2.1).

OpenMP-style assignments extend the open strategy set:

* **chunked**: fixed-size chunks dealt round-robin (OpenMP's
  ``schedule(static, chunk)``) — coarser than wrapped, finer than
  blocked;
* **guided** / **factored** / **trapezoid**: the self-scheduling
  chunk-profile family ("OpenMP Loop Scheduling Revisited") — chunk
  sizes shrink geometrically (guided), in halving batches of ``p``
  (factoring), or linearly (trapezoid self-scheduling), dealt
  round-robin.  They give the :mod:`repro.tuning` search space its
  parameterized middle ground between ``wrapped`` and ``blocked``.

Each returns a fresh, read-only owner array that a schedule holds
without a copy.  All are registered in the
:data:`~repro.runtime.registry.partitioner_registry`, so user-defined
partitions plug in with ``@register_partitioner("name")`` and become
valid ``assignment=`` strings everywhere.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..runtime.registry import register_partitioner
from ..util.validation import check_positive, read_only

__all__ = [
    "wrapped_partition",
    "blocked_partition",
    "chunked_partition",
    "guided_partition",
    "factored_partition",
    "trapezoid_partition",
    "owner_from_assignment",
    "partition_counts",
]

#: The self-scheduling chunk profiles take ``min`` as their spec kwarg
#: (matching the OpenMP literature), which shadows the builtin inside.
min_ = min


@register_partitioner("wrapped")
def wrapped_partition(n: int, nproc: int) -> np.ndarray:
    """Owner array for the wrapped (striped) assignment: ``i mod p``."""
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    if n < 0:
        raise ValidationError("n must be non-negative")
    return read_only(np.arange(n, dtype=np.int64) % nproc)


@register_partitioner("blocked")
def blocked_partition(n: int, nproc: int) -> np.ndarray:
    """Owner array for ``p`` contiguous blocks of near-equal size.

    The first ``n mod p`` blocks get one extra index, matching the
    "divided into p contiguous groups of roughly equal size" rule of
    Appendix 2.1.
    """
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    if n < 0:
        raise ValidationError("n must be non-negative")
    base, extra = divmod(n, nproc)
    sizes = np.full(nproc, base, dtype=np.int64)
    sizes[:extra] += 1
    return read_only(np.repeat(np.arange(nproc, dtype=np.int64), sizes))


@register_partitioner("chunked", param="chunk",
                      params={"chunk": int, "align": int})
def chunked_partition(n: int, nproc: int, chunk: int = 16,
                      align: int = 1) -> np.ndarray:
    """Owner array for round-robin chunks of ``chunk`` consecutive indices.

    OpenMP's ``schedule(static, chunk)``: chunk ``c`` goes to processor
    ``c mod p``.  ``chunk=1`` degenerates to the wrapped assignment,
    very large ``chunk`` to (uneven) blocks.  ``align`` rounds the
    chunk size up to the nearest multiple (cache-line / mesh-row
    alignment), so ``chunk=12, align=8`` deals chunks of 16.

    Both knobs are settable anywhere an assignment string is accepted
    via parameterized specs — the legacy positional form
    ``"chunked:64"`` and the keyword form ``"chunked:chunk=64,align=8"``;
    the plain name ``"chunked"`` keeps the defaults.
    """
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    chunk = check_positive(chunk, "chunk")
    align = check_positive(align, "align")
    if n < 0:
        raise ValidationError("n must be non-negative")
    chunk = -(-chunk // align) * align
    return read_only((np.arange(n, dtype=np.int64) // chunk) % nproc)


def _deal_chunks(sizes: list, n: int, nproc: int) -> np.ndarray:
    """Owner array from a chunk-size sequence dealt round-robin."""
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    chunk_ids = np.arange(sizes_arr.shape[0], dtype=np.int64) % nproc
    return read_only(np.repeat(chunk_ids, sizes_arr)[:n])


@register_partitioner("guided", params={"min": int})
def guided_partition(n: int, nproc: int, min: int = 1) -> np.ndarray:
    """Guided self-scheduling chunks (Polychronopoulos & Kuck), dealt
    round-robin.

    Chunk ``c`` takes ``max(⌈remaining / p⌉, min)`` consecutive indices
    — large chunks early (low bookkeeping), small chunks late (load
    balance), the classic ``schedule(guided)`` profile.  ``min`` floors
    the chunk size (``"guided:min=4"``).
    """
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    min = check_positive(min, "min")
    if n < 0:
        raise ValidationError("n must be non-negative")
    sizes = []
    remaining = n
    while remaining > 0:
        size = max(-(-remaining // nproc), min)
        size = min_(size, remaining)
        sizes.append(size)
        remaining -= size
    return _deal_chunks(sizes, n, nproc)


@register_partitioner("factored", params={"min": int})
def factored_partition(n: int, nproc: int, min: int = 1) -> np.ndarray:
    """Factoring chunks (Hummel, Schonberg & Flynn), dealt round-robin.

    Work is handed out in *batches* of ``p`` equal chunks, each batch
    covering half the remaining iterations — between ``blocked`` (one
    huge batch) and ``guided`` (per-chunk shrink), and the basis of
    OpenMP's ``factoring``/``trapezoid`` research family.
    """
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    min = check_positive(min, "min")
    if n < 0:
        raise ValidationError("n must be non-negative")
    sizes = []
    remaining = n
    while remaining > 0:
        size = max(-(-remaining // (2 * nproc)), min)
        for _ in range(nproc):
            take = min_(size, remaining)
            if take == 0:
                break
            sizes.append(take)
            remaining -= take
    return _deal_chunks(sizes, n, nproc)


@register_partitioner("trapezoid", params={"first": int, "last": int})
def trapezoid_partition(n: int, nproc: int, first: int = 0,
                        last: int = 1) -> np.ndarray:
    """Trapezoid self-scheduling chunks (Tzen & Ni), dealt round-robin.

    Chunk sizes decrease *linearly* from ``first`` (default
    ``⌈n / (2p)⌉``) to ``last`` — cheaper to compute than guided's
    geometric profile while keeping the big-first/small-last shape.
    Both endpoints are spec-settable (``"trapezoid:first=64,last=8"``).
    """
    n = int(n)
    nproc = check_positive(nproc, "nproc")
    if first < 0:
        raise ValidationError("first must be non-negative (0 = auto)")
    last = check_positive(last, "last")
    if n < 0:
        raise ValidationError("n must be non-negative")
    if n == 0:
        return read_only(np.empty(0, dtype=np.int64))
    if first == 0:
        first = max(-(-n // (2 * nproc)), 1)
    first = min_(first, n)
    if first < last:
        last = first
    # Number of chunks N for a linear ramp first..last covering ≥ n:
    # sum = N (first + last) / 2  ⇒  N = ⌈2n / (first + last)⌉.
    num = max(-(-2 * n // (first + last)), 1)
    step = (first - last) / max(num - 1, 1)
    sizes = []
    remaining = n
    c = 0
    while remaining > 0:
        size = max(int(round(first - step * c)), last) if num > 1 else first
        sizes.append(min_(size, remaining))
        remaining -= sizes[-1]
        c += 1
    return _deal_chunks(sizes, n, nproc)


def owner_from_assignment(owner, nproc: int) -> np.ndarray:
    """Validate a user-supplied owner array."""
    owner = np.asarray(owner, dtype=np.int64)
    nproc = check_positive(nproc, "nproc")
    if owner.ndim != 1:
        raise ValidationError("owner must be one-dimensional")
    if owner.size and (owner.min() < 0 or owner.max() >= nproc):
        raise ValidationError(f"owner entries must lie in [0, {nproc})")
    return owner


def partition_counts(owner: np.ndarray, nproc: int) -> np.ndarray:
    """Indices owned per processor."""
    return np.bincount(owner, minlength=nproc)
