"""Seeded random-number-generator helpers.

All stochastic pieces of the library (the synthetic workload generator,
the SPE-like matrix builders, test fixtures) accept either a seed or a
:class:`numpy.random.Generator`; these helpers normalise the two.
Determinism matters here: the experiment drivers must regenerate the
*same* synthetic matrices on every run so that simulated timings are
exactly reproducible.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng", "spawn_rng"]

#: Seed used by the library when the caller does not supply one.
DEFAULT_SEED = 19880070  # ICASE report number 88-70, as a nod to the paper.


def default_rng(seed=None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (use the library default seed — deterministic), an
        integer seed, or an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, key: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and an integer key.

    Used when one logical experiment builds several random objects that
    must not share a stream (e.g. out-degree draws vs. distance draws in
    the workload generator).
    """
    seed_seq = np.random.SeedSequence(entropy=int(rng.integers(0, 2**63)), spawn_key=(key,))
    return np.random.default_rng(seed_seq)
