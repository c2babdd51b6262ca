"""The numpy behaviour the bitwise contract rests on, pinned.

Batched execution, the level-walking simulator and the speculative
price equal their per-index loops bit for bit only because numpy does
five things in a particular way.  Each test here states one of them on inputs where any other way
would show; a numpy upgrade that changes one fails here, loudly, before
it fails somewhere far from the cause.
"""

import numpy as np

RNG = np.random.default_rng(1989)
#: Magnitudes spread so widely that a different summation order rounds
#: differently.
SPREAD = RNG.standard_normal(257) * 10.0 ** RNG.integers(-8, 9, 257)


def sequential_sum(start: float, terms) -> float:
    total = start
    for t in terms:
        total += t
    return total


def test_subtract_at_walks_its_indices_in_order():
    """``LevelGather.sweep`` subtracts a row's operands in CSR order."""
    slots = RNG.integers(0, 5, SPREAD.size)
    acc = np.ones(5)
    np.subtract.at(acc, slots, SPREAD)
    want = np.ones(5)
    for slot, value in zip(slots.tolist(), SPREAD.tolist()):
        want[slot] -= value
    assert acc.tobytes() == want.tobytes()


def test_add_accumulate_along_an_axis_adds_sequentially():
    """The simulator's level walk sums each processor's run in order."""
    rows = SPREAD[:256].reshape(8, 32)
    got = np.add.accumulate(rows, axis=1)
    for row, sums in zip(rows.tolist(), got.tolist()):
        assert sums == [sequential_sum(0.0, row[:k + 1])
                        for k in range(len(row))]
    flat = SPREAD.copy()
    np.add.accumulate(flat, out=flat)
    assert flat[-1] == sequential_sum(0.0, SPREAD.tolist())


def test_stable_argsort_on_narrow_keys_is_lexsort():
    """``_local_lists`` radix-sorts keys of at most 16 bits and relies on
    ties staying in index order."""
    for dtype, top in ((np.uint8, 7), (np.uint16, 300), (np.uint16, 2**16 - 1)):
        key = RNG.integers(0, top + 1, 5_000).astype(dtype)
        want = np.lexsort((np.arange(key.size), key))
        assert np.array_equal(np.argsort(key, kind="stable"), want)


def test_maximum_reduceat_takes_segment_maxima():
    """The level walk's ready times: one maximum per operand segment,
    the last running to the end."""
    values = RNG.standard_normal(100)
    starts = np.sort(RNG.choice(100, 17, replace=False))
    starts[0] = 0
    got = np.maximum.reduceat(values, starts)
    ends = np.append(starts[1:], values.size)
    assert got.tolist() == [values[a:b].max() for a, b in zip(starts, ends)]


def test_weighted_bincount_sums_each_bin_in_order():
    """The speculative price deals its chunk costs round-robin over the
    processors with one weighted ``bincount``: each bin is the
    sequential sum of its weights, in input order."""
    slots = RNG.integers(0, 7, SPREAD.size)
    got = np.bincount(slots, weights=SPREAD, minlength=9)
    assert got.tolist() == [sequential_sum(0.0, SPREAD[slots == b])
                            for b in range(9)]
