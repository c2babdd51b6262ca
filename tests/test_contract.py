"""The bitwise contract, stated once.

Every way the runtime can compile and run a loop computes exactly what
the serial loop computes.  :func:`assert_contract` is that contract for
one program, compile choice, processor count, source (the program or
its raw dependence graph) and tier; the first property draws all five
from ``tests/strategies.py`` — programs of every kind, every candidate
of the tuner's space plus ``auto`` and ``speculative``, the serial
and threads backends under an optional fault seam (``tests/faults.py``),
and the retired ``sim`` backend's refusal — and pins the
inputs that once broke it as ``@example`` cases.  Other suites call
:func:`assert_contract` on their own named inputs.  The second
property states that what a compile caches is a value: no array its
plan holds can be written, so neither the caller's buffers nor a write
through one loop reach a later compile of the structure.  The third
states what the schedule store promises: equal
structure shares one entry, an edit gets a new one, an entry survives a
restart, and sessions sharing a store count only their own traffic.

``REPRO_FAULT_SEED`` seeds every fault plan (CI sweeps it together
with ``--hypothesis-seed``).
"""

import contextlib
import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faults import FaultPlan, armed
from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.executor import LevelPlan, SerialExecutor
from repro.core.inspector import InspectionResult
from repro.core.schedule import Schedule
from repro.errors import ValidationError
from repro.resilience import RetryPolicy
from repro.runtime import ScheduleCache
from repro.sparse.triangular import LevelGather
from repro.tuning import CandidateSpec, enumerate_space
from strategies import (
    choices,
    generated_program,
    ilu_upper_program,
    loop_programs,
    program_of,
    tiers,
    triangular,
)

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def serial(program):
    """The oracle: the program's kernel walked one index at a time."""
    with np.errstate(all="ignore"):
        out = SerialExecutor().run(program.make_kernel())
    if isinstance(out, dict):
        return {name: x.copy() for name, x in out.items()}
    return out.copy()


def same(got, want) -> bool:
    """Equal bit patterns, array by array (a NaN matches any NaN)."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and set(got) == set(want)
                and all(same(got[k], want[k]) for k in want))
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    nan = np.isnan(want)
    return bool(np.array_equal(nan, np.isnan(got))
                and np.array_equal(got[~nan].view(np.uint8),
                                   want[~nan].view(np.uint8)))


def same_sim(got, want) -> bool:
    """Two ``SimResult`` objects equal field for field."""
    return all(np.array_equal(getattr(got, f.name), getattr(want, f.name))
               for f in dataclasses.fields(want))


def value_entry(program) -> str:
    """The last bound float array that is no index source: what a
    data-only rebind swaps."""
    return [name for name, value in program.data.items()
            if name not in program.structural_names()
            and np.asarray(value).dtype.kind == "f"][-1]


def options(choice, n: int, nproc: int) -> tuple[dict, dict]:
    """``(Runtime keywords, compile keywords)`` of a drawn choice (or of
    a named :class:`CandidateSpec`)."""
    if isinstance(choice, CandidateSpec):
        return {}, choice.compile_kwargs()
    if choice[0] == "space":
        space = enumerate_space(n, nproc)
        return {}, space[choice[1] % len(space)].compile_kwargs()
    if choice[0] == "auto":
        return {"expected_executions": choice[1]}, {"strategy": "auto"}
    return {}, {"strategy": "speculative"}


def run(loop, kernel, backend: str, want):
    """One call, returning its report: refused with a
    ``ValidationError`` where a kernel cannot run on ``backend`` (a
    kernel that is not thread-safe, on ``threads``),
    otherwise bitwise the serial result (``sim`` is no backend: it is
    refused, naming the three, and a ``serial`` call follows)."""
    targets = ([stage.bound_kernel for stage in loop.stage_loops]
               if loop.plan.kind == "staged" else
               [loop.bound_kernel if kernel is None else kernel])
    if backend == "threads" and not all(
            getattr(target, "thread_safe", True) for target in targets):
        with pytest.raises(ValidationError):
            loop(kernel, backend="threads")
        backend = "serial"
    if backend == "sim":
        with pytest.raises(ValidationError, match="'processes', 'serial', "
                                                  "'threads'$"):
            loop(kernel, backend="sim")
        backend = "serial"
    with np.errstate(all="ignore"):
        report = loop(kernel, backend=backend)
    assert same(report.x, want)
    return report


def assert_contract(program, choice, *, nproc: int = 4, raw: bool = False,
                    tier=("serial", None)) -> None:
    """Compile ``program`` (its dependence graph plus a per-call kernel
    when ``raw``) as ``choice`` says and run it on ``tier``: twice, then
    after a data-only rebind, each time bitwise the serial loop; every
    scheduled plan's schedule validates, and a call reports the loop's
    one memoised simulation."""
    backend, seam = tier
    runtime, compile_options = options(choice, program.n, nproc)
    faults = {"kernel": FaultPlan("kernel", seed=SEED),
              "store": FaultPlan("store", seed=SEED)}.get(seam)
    with tempfile.TemporaryDirectory() as directory, \
            armed(faults) if faults else contextlib.nullcontext():
        if seam == "store":
            runtime.update(cache_dir=os.path.join(directory, "schedules"),
                           tuning_dir=os.path.join(directory, "verdicts"))
        rt = Runtime(nproc, recovery=RetryPolicy() if seam else None,
                     **runtime)
        kernel = program.make_kernel() if raw else None
        loop = rt.compile(program.dependence_graph() if raw else program,
                          **compile_options)
        want = serial(program)
        for _ in range(2):  # the budget is spent by the first call
            report = run(loop, kernel, backend, want)
        assert report.sim is loop.simulate()
        plans = ([stage.plan for stage in loop.stage_loops]
                 if loop.plan.kind == "staged" else [loop.plan])
        for plan in plans:
            if plan.kind == "scheduled":
                plan.inspection.schedule.validate()
        if raw:
            return
        name = value_entry(program)
        data = {name: np.random.default_rng(SEED).standard_normal(
            np.shape(program.data[name]))}
        assert loop.rebind(**data) is loop
        run(loop, None, backend, serial(program.with_data(**data)))


#: The backward solve ``strategy="speculative"`` used to restore by
#: element id although iteration ``k`` writes row ``n-1-k``.
UPPER = LoopProgram.from_csr(triangular(5, 3, lower=False),
                             np.arange(1.0, 6.0), lower=False)
#: Writes ``u`` and ``v``: speculation used to refuse a result that was
#: not one array after ``auto`` had already picked it.
TWO_ARRAYS = generated_program(6, 1, False, [
    ("u", "self", ("read", "u", "back"), False),
    ("v", "self", ("read", "u", "back"), False)], 1100)


@given(program=loop_programs(), raw=st.booleans(),
       nproc=st.integers(1, 6), choice=choices, tier=tiers)
@example(program=UPPER, raw=False, nproc=2, choice=("speculative",),
         tier=("serial", None))
@example(program=UPPER, raw=True, nproc=2, choice=("speculative",),
         tier=("serial", None))
@example(program=ilu_upper_program(), raw=False, nproc=8,
         choice=("speculative",), tier=("serial", None))
@example(program=TWO_ARRAYS, raw=False, nproc=6, choice=("auto", 1),
         tier=("serial", None))
@settings(max_examples=100, deadline=None)
def test_every_program_strategy_and_tier_computes_the_serial_loop(
        program, raw, nproc, choice, tier):
    assert_contract(program, choice, nproc=nproc, raw=raw, tier=tier)


# ----------------------------------------------------------------------
# Structures are values
# ----------------------------------------------------------------------

STRUCTURES = (DependenceGraph, Schedule, InspectionResult, LevelPlan,
              LevelGather)


def structure_arrays(value):
    """Every array held by the structure values in ``value`` — graphs,
    schedules, inspections, level and gather plans, and what they
    memoise — but no kernel's data."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from structure_arrays(item)
    elif isinstance(value, STRUCTURES):
        held = (vars(value) if hasattr(value, "__dict__")
                else {name: getattr(value, name) for name in value.__slots__})
        for item in held.values():
            yield from structure_arrays(item)


def scheduled_plans(loop):
    plans = ([stage.plan for stage in loop.stage_loops]
             if loop.plan.kind == "staged" else [loop.plan])
    return [plan for plan in plans if plan.kind == "scheduled"]


def plan_arrays(loop) -> list:
    """The arrays of every scheduled plan of ``loop``: its inspection,
    the executor's schedule, graph, level plan and gather plan."""
    return [a for plan in scheduled_plans(loop) for a in structure_arrays((
        plan.inspection, plan.executor.schedule, plan.executor.dep,
        plan.executor._levels, (plan.executor._gather or (None, None))[1]))]


#: A caller compiles its own CSR buffers, then refills them: a later
#: compile of the original structure used to hit the cache and get the
#: refilled graph — wrong numbers.
REFILLED = dict(program=program_of("simple", 12, 3), nproc=4, raw=True,
                choice=CandidateSpec("self", "local", "wrapped"))
#: Two compiles of one structure share one schedule, whose lists used to
#: be writable: reversing one through the first loop made the next
#: compile of the structure deadlock.
REVERSED = dict(program=program_of("simple", 12, 3), nproc=1, raw=False,
                choice=CandidateSpec("self", "local", "wrapped"))
#: Figure 3 over an index buffer the caller keeps and refills after the
#: first call: the program used to borrow the buffer, so the same loop
#: read the new indices under the old schedule or repair set — wrong
#: numbers on the default strategy, on ``speculative`` and on ``auto``.
REFILLED_INDEX = dict(program=program_of("sparse", 2000, 0), nproc=4,
                      raw=False)


@given(program=loop_programs(), nproc=st.integers(1, 6), choice=choices,
       raw=st.booleans())
@example(**REFILLED)
@example(**REVERSED)
@example(**REFILLED_INDEX, choice=CandidateSpec("self", "local", "wrapped"))
@example(**REFILLED_INDEX, choice=("speculative",))
@example(**REFILLED_INDEX, choice=("auto", None))
@settings(max_examples=40, deadline=None)
def test_a_compiled_structure_is_a_value(program, nproc, choice, raw):
    """Compile a program over index buffers the caller keeps (or, ``raw``,
    a graph over the caller's own CSR buffers) and run it; then refill
    the buffers (and write through the loop's schedule lists): the same
    loop called again and a new compile of the original structure are
    bitwise the serial loop, and every plan array is read-only."""
    runtime, compile_options = options(choice, program.n, nproc)
    rt = Runtime(nproc, **runtime)
    kernel = program.make_kernel() if raw else None
    dep = program.dependence_graph()
    indptr, indices = dep.indptr.copy(), dep.indices.copy()
    buffers = {name: np.array(program.data[name])
               for name in program.structural_names()
               if not isinstance(program.data[name], tuple)}
    program = program.with_data(**buffers)
    want = serial(program)
    first = rt.compile(DependenceGraph(indptr, indices, dep.n) if raw
                       else program, **compile_options)
    run(first, kernel, "serial", want)
    # The caller reuses the buffers it compiled ...
    for buffer in (indptr, indices) if raw else buffers.values():
        buffer[:] = buffer[::-1].copy()
    if not raw:     # ... and writes through the loop's schedule
        for plan in scheduled_plans(first):
            for lst in plan.inspection.schedule.local_order:
                with contextlib.suppress(ValueError):
                    lst[:] = lst[::-1].copy()
    run(first, kernel, "serial", want)
    again = rt.compile(DependenceGraph(dep.indptr, dep.indices, dep.n) if raw
                       else program, **compile_options)
    run(again, kernel, "serial", want)
    assert not [a for loop in (first, again) for a in plan_arrays(loop)
                if a.flags.writeable]


# ----------------------------------------------------------------------
# The schedule store
# ----------------------------------------------------------------------

def observed(rt, *prefixes) -> dict:
    return {name: metric["value"]
            for name, metric in rt.observer.metrics.as_dict().items()
            if name.startswith(prefixes)}


def same_schedule(a, b) -> bool:
    return (a.nproc == b.nproc and a.strategy == b.strategy
            and np.array_equal(a.owner, b.owner)
            and np.array_equal(a.wavefronts, b.wavefronts)
            and len(a.local_order) == len(b.local_order)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.local_order, b.local_order)))


@given(program=loop_programs(), nproc=st.integers(1, 6),
       k=st.integers(0, 2**10))
@settings(max_examples=15, deadline=None)
def test_the_store_keys_on_structure_and_keeps_sessions_apart(
        program, nproc, k):
    scheduled = [spec for spec in enumerate_space(program.n, nproc)
                 if spec.executor != "speculative"]
    compile_options = scheduled[k % len(scheduled)].compile_kwargs()
    name = value_entry(program)
    twin = program.with_data(**{name: program.data[name] + 1.0})
    assert twin.structure_hash() == program.structure_hash()
    with tempfile.TemporaryDirectory() as directory:
        cache = ScheduleCache(8, persist_dir=directory)
        a, b = (Runtime(nproc, cache=cache, observe=True) for _ in range(2))
        with armed(FaultPlan("store", store="schedule", seed=SEED)) as plan:
            first = a.compile(program, **compile_options)
            # Equal structure: one key, one schedule, whichever asks.
            second = b.compile(twin, **compile_options)
        assert second.cache_hit and second.inspection is first.inspection
        # ... and each session counts its own share of the shared store;
        # the scope's one fault hit a's disk write, and no session
        # counts faults.
        assert plan.fired == [{"seam": "store", "store": "schedule"}]
        assert observed(a, "schedule_cache.", "faults.") == {
            "schedule_cache.misses": 1}
        assert observed(b, "schedule_cache.", "faults.") == {
            "schedule_cache.hits": 1}
        # A restart heals the corrupt entry; the next one loads it.
        Runtime(nproc, cache_dir=directory).compile(program, **compile_options)
        fresh = Runtime(nproc, cache_dir=directory)
        loaded = fresh.compile(twin, **compile_options)
        assert fresh.cache_stats.disk_hits == 1
        assert same_schedule(loaded.schedule, first.schedule)
        assert same_sim(loaded.simulate(), first.simulate())
        with np.errstate(all="ignore"):
            assert same(loaded().x, serial(twin))
        # A structural edit (iteration n-1's Figure 3 reference moves)
        # is a new structure and a new key.
        if "ia" in program.structural_names() and program.n > 1:
            ia, last = program.data["ia"].copy(), program.n - 1
            ia[last] = last - 1 if ia[last] != last - 1 else last
            edited = program.with_data(ia=ia)
            assert edited.structure_hash() != program.structure_hash()
            assert not fresh.compile(edited, **compile_options).cache_hit
