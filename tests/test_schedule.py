"""Unit tests for partitions and schedules."""

import heapq
import multiprocessing as mp
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core.dependence import DependenceGraph
from repro.core.partition import (
    blocked_partition,
    owner_from_assignment,
    partition_counts,
    wrapped_partition,
)
from repro.core.schedule import (
    Schedule,
    _local_lists,
    global_schedule,
    identity_schedule,
    local_schedule,
)
from repro.core.wavefront import compute_wavefronts, compute_wavefronts_general
from repro.errors import DeadlockError, ScheduleError, ValidationError
from repro.machine.simulator import simulate_self_executing

from strategies import (backward_dags, general_dags, owned_wavefronts, seeds,
                        simulations)


class TestPartitions:
    def test_wrapped(self):
        np.testing.assert_array_equal(wrapped_partition(7, 3), [0, 1, 2, 0, 1, 2, 0])

    def test_blocked_even(self):
        np.testing.assert_array_equal(blocked_partition(6, 3), [0, 0, 1, 1, 2, 2])

    def test_blocked_remainder_goes_first(self):
        np.testing.assert_array_equal(blocked_partition(7, 3), [0, 0, 0, 1, 1, 2, 2])

    def test_counts(self):
        owner = wrapped_partition(10, 4)
        np.testing.assert_array_equal(partition_counts(owner, 4), [3, 3, 2, 2])

    def test_owner_validation(self):
        with pytest.raises(ValidationError):
            owner_from_assignment([0, 5], 3)
        with pytest.raises(ValidationError):
            owner_from_assignment([[0, 1]], 2)

    def test_more_procs_than_indices(self):
        owner = wrapped_partition(2, 8)
        assert owner.max() < 8


@pytest.fixture(scope="module")
def chain_case():
    """A simple diamond DAG with known wavefronts."""
    dep = DependenceGraph.from_edges(
        [(1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (5, 3)], 6
    )
    wf = compute_wavefronts(dep)
    return dep, wf


class TestGlobalSchedule:
    def test_is_permutation(self, chain_case):
        _, wf = chain_case
        sched = global_schedule(wf, 2)
        flat = sorted(np.concatenate(sched.local_order).tolist())
        assert flat == list(range(6))

    def test_wrapped_dealing(self, chain_case):
        _, wf = chain_case
        # sorted by (wf, idx): 0 | 1 2 | 3 | 4 5 -> deal 0,1,2,3,4,5 round-robin
        sched = global_schedule(wf, 2)
        assert list(sched.local_order[0]) == [0, 2, 4]
        assert list(sched.local_order[1]) == [1, 3, 5]

    def test_local_lists_sorted_by_wavefront(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        sched = global_schedule(wf, 5)
        for lst in sched.local_order:
            assert np.all(np.diff(wf[lst]) >= 0)

    def test_wavefront_balance(self, small_lower_dep):
        """Each wavefront's indices spread evenly (max-min <= 1)."""
        wf = compute_wavefronts(small_lower_dep)
        p = 4
        sched = global_schedule(wf, p)
        for w in range(int(wf.max()) + 1):
            members = np.nonzero(wf == w)[0]
            counts = np.bincount(sched.owner[members], minlength=p)
            assert counts.max() - counts.min() <= 1

    def test_greedy_balance_with_weights(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        weights = 1.0 + small_lower_dep.dep_counts().astype(float)
        sched = global_schedule(wf, 3, weights=weights, balance="greedy")
        sched.validate()

    def test_unknown_balance(self, chain_case):
        _, wf = chain_case
        with pytest.raises(ValidationError):
            global_schedule(wf, 2, balance="nope")


class TestLocalSchedule:
    def test_preserves_owner(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        owner = wrapped_partition(small_lower_dep.n, 4)
        sched = local_schedule(wf, owner, 4)
        np.testing.assert_array_equal(sched.owner, owner)

    def test_sorts_locally(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        owner = wrapped_partition(small_lower_dep.n, 4)
        sched = local_schedule(wf, owner, 4)
        for lst in sched.local_order:
            assert np.all(np.diff(wf[lst]) >= 0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            local_schedule(np.zeros(5, dtype=np.int64), np.zeros(4, dtype=np.int64), 2)


class TestLocalLists:
    @given(owned_wavefronts())
    @settings(max_examples=100, deadline=None)
    def test_one_sort_is_the_three_key_lexsort(self, case):
        """One stable sort of ``owner · span + wavefront`` — radix or
        not, whatever width the key needs — orders each list as a
        ``lexsort`` by (owner, wavefront, index) does."""
        owner, wf, nproc = case
        order, counts = _local_lists(owner, wf, nproc)
        assert order.dtype == np.int64 and not order.flags.writeable
        assert np.array_equal(
            order, np.lexsort((np.arange(owner.shape[0]), wf, owner)))
        assert np.array_equal(counts, np.bincount(owner, minlength=nproc))
        # ``wf=None`` keeps each list in index order: the identity lists.
        order, counts = _local_lists(owner, None, nproc)
        assert np.array_equal(order, np.argsort(owner, kind="stable"))
        assert np.array_equal(counts, np.bincount(owner, minlength=nproc))

    @pytest.mark.parametrize("nproc, span", [
        (1, 256),            # the key type must hold span, not only 255
        (2, 200), (1, 257),  # nproc · span crosses 2^8
        (300, 250), (1, 2**16 + 1)])  # ... and 2^16
    def test_narrow_key_widths(self, nproc, span):
        rng = np.random.default_rng(span)
        n = max(span, 600)
        wf = np.concatenate((np.arange(span), rng.integers(0, span, n - span)))
        owner = rng.integers(0, nproc, n)
        order, _ = _local_lists(owner, wf, nproc)
        assert np.array_equal(order, np.lexsort((np.arange(n), wf, owner)))
        sched = local_schedule(wf, owner, nproc)   # validates
        assert sched.num_wavefronts == span


class TestIdentitySchedule:
    def test_original_order(self, chain_case):
        _, wf = chain_case
        sched = identity_schedule(wf, 2)
        assert list(sched.local_order[0]) == [0, 2, 4]
        assert list(sched.local_order[1]) == [1, 3, 5]
        assert sched.strategy == "identity"

    def test_custom_owner(self, chain_case):
        _, wf = chain_case
        sched = identity_schedule(wf, 2, owner=[0, 0, 0, 1, 1, 1])
        assert list(sched.local_order[0]) == [0, 1, 2]


#: How the property below breaks a drawn schedule's lists: not at all,
#: by moving, repeating or dropping one index, by adding one past ``n``,
#: or by claiming one processor more than there are lists.
BREAKAGES = (None, "move", "repeat", "drop", "past-n", "list-count")


def _outcome(build):
    """What ``build()`` returns, or the type of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc)


def _fields(schedule) -> tuple:
    """Every normalised field, bit for bit, with its write flag."""
    arrays = (schedule.flattened, schedule.lengths, schedule.owner,
              schedule.wavefronts, *schedule.local_order)
    return (schedule.nproc, schedule.strategy, len(schedule.local_order),
            [(a.dtype.str, a.shape, a.tobytes(), a.flags.writeable)
             for a in arrays])


class TestFromFlat:
    @given(simulations(), st.sampled_from(BREAKAGES), seeds)
    @settings(max_examples=200, deadline=None)
    def test_flat_lists_build_what_the_lists_build(self, case, breakage,
                                                   seed):
        """``Schedule.from_flat`` and the list constructor give the same
        fields under the same write flags, or raise the same type — with
        the owner given, or read off the lists (against the list
        constructor handed the owner the lists imply)."""
        schedule = case[0]
        nproc, wf = schedule.nproc, schedule.wavefronts
        lists = [lst.copy() for lst in schedule.local_order]
        owner, implied = schedule.owner.copy(), schedule.owner.copy()
        p, q = np.random.default_rng(seed).integers(0, nproc, 2)
        if breakage == "past-n":
            lists[p] = np.append(lists[p], schedule.n)
        elif breakage == "list-count":
            nproc += 1
        elif breakage is not None and lists[p].size:
            i = lists[p][-1]
            if breakage != "repeat":
                lists[p] = lists[p][:-1]
            if breakage != "drop":
                lists[q] = np.append(lists[q], i)
            if breakage == "move":
                implied[i] = q
        flat, lengths = np.concatenate(lists), [lst.size for lst in lists]
        for given_owner, lists_owner in ((owner, owner), (None, implied)):
            want = _outcome(lambda: Schedule(
                nproc=nproc, owner=lists_owner, local_order=lists,
                wavefronts=wf, strategy=schedule.strategy))
            got = _outcome(lambda: Schedule.from_flat(
                nproc, flat, lengths, wf, schedule.strategy,
                owner=given_owner))
            if isinstance(want, type):
                assert got is want, breakage
            else:
                assert _fields(got) == _fields(want)
                if breakage is None:
                    assert _fields(got) == _fields(schedule)


class TestScheduleValidation:
    def test_index_on_two_processors(self, chain_case):
        _, wf = chain_case
        with pytest.raises(ScheduleError):
            Schedule(
                nproc=2,
                owner=np.array([0, 0, 0, 0, 0, 0]),
                local_order=[np.arange(6), np.array([0])],
                wavefronts=wf,
            )

    def test_missing_index(self, chain_case):
        _, wf = chain_case
        with pytest.raises(ScheduleError):
            Schedule(
                nproc=2,
                owner=np.array([0, 0, 0, 1, 1, 1]),
                local_order=[np.array([0, 1]), np.array([3, 4, 5])],
                wavefronts=wf,
            )

    def test_owner_list_mismatch(self, chain_case):
        _, wf = chain_case
        with pytest.raises(ScheduleError):
            Schedule(
                nproc=2,
                owner=np.array([0, 0, 0, 1, 1, 1]),
                local_order=[np.arange(6), np.array([], dtype=np.int64)],
                wavefronts=wf,
            )

    @pytest.mark.parametrize("lists, message", [
        ([[0, 1], [], [2, 9, 3, 4, 5]],
         "processor 2 schedules out-of-range indices"),
        ([[0, 1], [2, -1], [3, 4, 5]],
         "processor 1 schedules out-of-range indices"),
        ([[0, 1], [2, 4], [3, 5]],
         "processor 1's list contains indices it does not own"),
        ([[0, 3], [1, 2], [4, 5]],
         "processor 0's list contains indices it does not own")])
    def test_the_first_offending_processor_is_named(self, chain_case,
                                                    lists, message):
        _, wf = chain_case
        with pytest.raises(ScheduleError, match=f"^{message}$"):
            Schedule(nproc=3, owner=np.array([0, 0, 1, 2, 2, 2]),
                     local_order=[np.array(l, dtype=np.int64) for l in lists],
                     wavefronts=wf)


class TestScheduleQueries:
    def test_position(self, chain_case):
        _, wf = chain_case
        sched = global_schedule(wf, 2)
        pos = sched.position()
        for lst in sched.local_order:
            np.testing.assert_array_equal(pos[lst], np.arange(lst.size))

    def test_phases_partition(self, small_lower_dep):
        wf = compute_wavefronts(small_lower_dep)
        sched = global_schedule(wf, 4)
        phases = sched.phases()
        total = sum(lst.size for phase in phases for lst in phase)
        assert total == small_lower_dep.n
        for w, phase in enumerate(phases):
            for lst in phase:
                assert np.all(wf[lst] == w)

    def test_phases_reject_unsorted(self, chain_case):
        dep, wf = chain_case
        # An unsorted-by-wavefront list.
        sched = replace(identity_schedule(wf, 1),
                        local_order=[np.array([3, 0, 1, 2, 4, 5])])
        with pytest.raises(ScheduleError):
            sched.phases()

    def test_work_per_processor(self, chain_case):
        _, wf = chain_case
        sched = global_schedule(wf, 2)
        np.testing.assert_array_equal(sched.work_per_processor(), [3.0, 3.0])
        weighted = sched.work_per_processor(np.arange(6, dtype=float))
        assert weighted.sum() == 15.0

    def test_legal_self_executing(self, chain_case):
        dep, wf = chain_case
        assert global_schedule(wf, 2).is_legal_self_executing(dep)
        assert identity_schedule(wf, 2).is_legal_self_executing(dep)

    def test_illegal_self_executing(self, chain_case):
        dep, wf = chain_case
        sched = replace(identity_schedule(wf, 1),  # 3 before its deps
                        local_order=[np.array([3, 0, 1, 2, 4, 5])])
        assert not sched.is_legal_self_executing(dep)

    def test_flattened(self, chain_case):
        _, wf = chain_case
        sched = global_schedule(wf, 2)
        assert sorted(sched.flattened.tolist()) == list(range(6))


def _permuted_legal_schedule(dep, nproc, rng):
    """Random owners, each list in the order of one random linear
    extension of the dependence DAG: legal by construction, yet neither
    wavefront-sorted nor ascending — the shape only the sweep answers."""
    succ_indptr, succ_indices = dep.successors
    indeg = dep.dep_counts().copy()
    prio = rng.random(dep.n)
    heap = [(prio[i], i) for i in np.flatnonzero(indeg == 0)]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, j = heapq.heappop(heap)
        topo.append(j)
        for i in succ_indices[succ_indptr[j]:succ_indptr[j + 1]]:
            indeg[i] -= 1
            if indeg[i] == 0:
                heapq.heappush(heap, (prio[i], int(i)))
    topo = np.asarray(topo, dtype=np.int64)
    owner = rng.integers(0, nproc, dep.n)
    return Schedule(
        nproc=nproc, owner=owner,
        local_order=[topo[owner[topo] == p] for p in range(nproc)],
        wavefronts=compute_wavefronts_general(dep))


def _assert_simulation_order(order, sched, dep):
    """A permutation in which every dependence and every processor's
    consecutive pair points forward."""
    n = dep.n
    assert np.array_equal(np.sort(order), np.arange(n))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    assert np.all(pos[dep.indices] < pos[dep.edge_rows])
    for lst in sched.local_order:
        assert np.all(np.diff(pos[lst]) > 0)


class TestOrdering:
    """``Schedule`` is the one owner of "a legal order": whichever of
    the three shapes answers (wavefront sort, ``arange``, sweep), the
    simulator and the executors get what they need or a
    ``DeadlockError``."""

    @given(st.one_of(backward_dags(unique=False),
                     general_dags(max_n=40, unique=False)),
           st.sampled_from(["global", "local", "identity", "permuted"]),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_orders_are_legal_whichever_shape_answers(self, dep, kind, p,
                                                      seed):
        rng = np.random.default_rng(seed)
        wf = compute_wavefronts_general(dep)
        sched = {
            "global": lambda: global_schedule(wf, p),
            "local": lambda: local_schedule(wf, rng.integers(0, p, dep.n), p),
            "identity": lambda: identity_schedule(wf, p),
            "permuted": lambda: _permuted_legal_schedule(dep, p, rng),
        }[kind]()
        try:
            reference.toposort_plan(sched, dep)
        except DeadlockError:
            # identity lists over a renumbered DAG can wait on
            # themselves; every entry point must say so.
            assert kind == "identity"
            assert not sched.is_legal_self_executing(dep)
            for ask in (sched.simulation_levels, sched.execution_levels,
                        sched.toposort_plan):
                with pytest.raises(DeadlockError):
                    ask(dep)
            return
        assert sched.is_legal_self_executing(dep)
        _assert_simulation_order(sched.toposort_plan(dep), sched, dep)
        for order, bounds in (sched.execution_levels(dep),
                              sched.simulation_levels(dep)):
            assert bounds[0] == 0 and bounds[-1] == dep.n
            assert np.all(np.diff(bounds) > 0)
            _assert_simulation_order(order, sched, dep)
            level_of = np.empty(dep.n, dtype=np.int64)
            level_of[order] = np.repeat(np.arange(bounds.size - 1),
                                        np.diff(bounds))
            assert np.all(level_of[dep.indices] != level_of[dep.edge_rows])
        # The simulator's level walk (the last plan above) also needs
        # each processor's iterations in a level adjacent: one run per
        # (level, owner) pair.
        owners = sched.owner[order]
        heads = np.diff(owners, prepend=-1) != 0
        heads[bounds[:-1]] = True
        assert heads.sum() == len(
            set(zip(level_of[order].tolist(), owners.tolist())))

    def test_cross_processor_wait_cycle(self):
        # 0 waits on 3, which follows 2 on processor 1; 2 waits on 1,
        # which follows 0 on processor 0 — no list is out of order on
        # its own.
        dep = DependenceGraph.from_edges([(0, 3), (2, 1)], 4)
        sched = Schedule(nproc=2, owner=[0, 0, 1, 1],
                         local_order=[[0, 1], [2, 3]],
                         wavefronts=compute_wavefronts_general(dep))
        assert not sched.is_legal_self_executing(dep)
        for ask in (sched.simulation_levels, sched.execution_levels,
                    lambda d: simulate_self_executing(sched, d)):
            with pytest.raises(DeadlockError):
                ask(dep)
        with pytest.raises(DeadlockError):
            reference.toposort_plan(sched, dep)

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                        reason="process backend requires POSIX fork")
    def test_process_solver_needs_no_sweep_on_a_global_schedule(
            self, small_lower, small_lower_dep, monkeypatch):
        from repro.core import schedule as schedule_module
        from repro.machine.processes import ProcessSelfExecutingSolver

        sweeps = []
        real = schedule_module.frontier_sweep
        monkeypatch.setattr(
            schedule_module, "frontier_sweep",
            lambda *a, **k: sweeps.append(1) or real(*a, **k))
        sched = global_schedule(compute_wavefronts(small_lower_dep), 3)
        ProcessSelfExecutingSolver(small_lower, sched, small_lower_dep)
        assert not sweeps  # the shape probe proves it legal
        sched.toposort_plan(small_lower_dep)
        assert len(sweeps) == 1  # ... and the counter does count
