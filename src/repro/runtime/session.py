"""The :class:`Runtime` session — the library's canonical public API.

A :class:`Runtime` fixes the machine (processor count, cost model,
default backend) once; :meth:`Runtime.compile` turns run-time
dependence data into a reusable :class:`CompiledLoop`, the
inspector/executor split made explicit::

    rt = Runtime(nproc=8, backend="threads", costs=MULTIMAX_320)
    loop = rt.compile(deps, executor="self", scheduler="local")
    report = loop(kernel)        # RunReport: numbers + timing + costs
    report = loop(kernel)        # inspection amortised: same schedule

Every compile consults the session's :class:`ScheduleCache`, so
repeated compiles of *identical dependence structure* — the PCGPAK
pattern, where one topological sort serves every Krylov iteration —
skip the inspector entirely.  The Table 5 price of an inspection is
computed only when read (``report.inspect_cost``, ``loop.report()``),
once per cached entry.
:class:`RunReport` carries the amortisation counters (``cache_hit``,
``executions``, and the session's ``cache_stats``) that make the
paper's break-even argument checkable at run time.

Strategy strings (``executor``, ``scheduler``, ``assignment``) are
resolved through the open registries of :mod:`repro.runtime.registry`
and validated eagerly — unknown names fail at :meth:`compile` time with
the valid options enumerated.  The backend is not a strategy: it names
one of three entry points of the plan's executor — ``serial``
(``run``), ``threads`` (``run_threaded``) and ``processes``
(``run_processes``) — picked in :meth:`LoopPlan.execute` alone, and
the set is closed.  Timing is no backend: ``loop.simulate()`` (and
``report.sim``) is the machine model's.
``Runtime.compile(deps, strategy="auto")`` delegates the whole choice
to the :mod:`repro.tuning` subsystem: a simulator-pruned search
over the registered strategy space whose verdicts are cached in a
persistent :class:`~repro.tuning.TuningStore`.

One loop type, two plans: whatever the route — explicit strategy
strings, ``strategy="auto"``, ``strategy="speculative"``, raw
dependence data or a :class:`~repro.program.LoopProgram` —
:meth:`Runtime.compile` returns a :class:`CompiledLoop` wrapping one
:class:`LoopPlan`: a :class:`ScheduledPlan` (a registry executor and
its inspection, defined here — a speculative executor is its own) or a
:class:`~repro.program.StagedPlan` (a fission/skew variant run stage by
stage).  The loop owns the call protocol, timing, instrumentation,
reports and counters, and runs the plan its compile chose: only a
rebind replaces ``loop.plan`` for good (a recovery tier swaps it for
one call, then restores it).  Data binding is orthogonal: compiling
a program attaches it and its kernel (``loop()`` executes it,
``loop.rebind(...)`` swaps data without re-inspection) under every
plan alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import SimResult
from ..observe.export import TimelineRecorder
from ..observe.observer import Observer
from ..observe.tracer import maybe_span, now
from ..resilience.recovery import RetryPolicy, run_with_recovery
from ..util.timing import Stopwatch
from ..util.validation import (
    check_horizon,
    check_positive,
    check_timeout,
)
from .cache import CacheStats, ScheduleCache
from .registry import (
    executor_registry,
    partitioner_registry,
    scheduler_registry,
)

__all__ = ["Runtime", "CompiledLoop", "LoopPlan", "ScheduledPlan", "RunReport"]


@dataclass
class RunReport:
    """Normalized outcome of one execution, whatever the backend.

    All three backends return this one shape: the numeric result,
    the machine-model timing, the inspection that produced the
    schedule, and the amortisation counters.
    """

    #: Numeric result (what the kernel's ``result()`` returns).
    x: np.ndarray | None
    #: Simulated machine timing of this execution.
    sim: SimResult | None
    #: Inspector output (schedule, wavefronts, Table 5 costs).
    inspection: object
    #: Backend / strategy names this execution resolved to.
    backend: str
    executor: str
    scheduler: str
    assignment: str
    #: True when the schedule came from the session's ScheduleCache.
    cache_hit: bool
    #: Executions of this CompiledLoop so far (including this one).
    executions: int
    #: Wall-clock seconds of this execution.
    host_seconds: float
    #: Snapshot of the session cache counters at report time.
    cache_stats: CacheStats | None = None
    #: :class:`~repro.speculate.ConflictReport` of a speculative
    #: execution (``None`` on the classic inspected paths).
    speculation: object | None = None
    #: :class:`~repro.observe.PhaseBreakdown` of this call's wall time
    #: (inspect/schedule/tune/execute; only when the session observes).
    phases: object | None = None
    #: :class:`~repro.observe.Timeline` of a recorded threaded run
    #: (only when the session observes and the backend records one).
    timeline: object | None = None
    #: :class:`~repro.resilience.RecoveryRecord` when this result was
    #: produced through retries or a tier fallback (``None`` on clean
    #: first-attempt successes — the overwhelmingly common case).
    recovery: object | None = None

    @property
    def inspect_cost(self) -> float:
        """Model-µs cost of the inspection this run rides on."""
        return self.inspection.pipeline_cost

    @property
    def amortised_inspect_cost(self) -> float:
        """Inspection model-µs charged to each execution so far."""
        from ..analysis.model import amortised_time  # deferred: import cycle

        return amortised_time(0.0, self.inspection, self.executions)

    @property
    def efficiency(self) -> float:
        return self.sim.efficiency if self.sim is not None else float("nan")


class LoopPlan:
    """How a :class:`CompiledLoop` gets its schedule and runs it.

    The one plan protocol, with two implementations:
    :class:`ScheduledPlan` (a registry executor plus its inspection, or
    the optimistic executor standing in for the inspection it skipped)
    and :class:`~repro.program.StagedPlan` (a transform variant run as
    one compiled loop per stage).  The loop owns everything plans have in
    common — call protocol, timing, reports, counters, data binding —
    and replaces ``loop.plan`` only when a rebind changes what runs (a
    recovery tier installs its plan for one call, then restores it).

    A plan is also the read-only summary reports are built from:
    ``executor``, ``executor_name``, ``scheduler_name``, ``assignment``,
    ``balance``, ``cache_hit``, and — through
    :attr:`inspection` — ``strategy``, ``pipeline_cost``,
    ``num_wavefronts``, ``schedule``, ``wavefronts`` and ``dep``.
    """

    #: ``"scheduled"``, ``"speculative"`` or ``"staged"``.
    kind = "abstract"
    _default_sim: SimResult | None = None

    #: Iteration count of the loop the plan runs.
    n = property(lambda self: self.inspection.dep.n)

    @property
    def inspection(self):
        """The inspection summary; plans that inspected nothing (or
        many things) serve as their own."""
        return self

    def execute(self, loop, kernel, backend: str, *, unit_work, timeout,
                timeline=None):
        """One attempt on ``backend`` → ``x``: the one place a backend
        name picks an entry point of the executor.  A threaded run
        stamps ``timeline``."""
        if kernel is None:
            raise ValidationError(
                f"backend {backend!r} executes a kernel; pass one, or "
                "compile a kernel-bearing LoopProgram so the loop is "
                "pre-bound (loop.simulate() times a loop kernel-free)"
            )
        if kernel.n != self.n:
            raise ValidationError(
                f"kernel has n={kernel.n}, the loop has n={self.n}")
        if backend == "serial":
            return self.executor.run(kernel)
        if backend == "processes":
            return self.executor.run_processes(kernel, timeout=timeout)
        return self.executor.run_threaded(kernel, timeout=timeout,
                                          timeline=timeline)

    def simulate(self, unit_work: np.ndarray | None = None) -> SimResult:
        """Machine-model timing; the simulation is exact and
        deterministic, so the default (``unit_work=None``) result is
        computed once per plan."""
        if unit_work is not None:
            return self._simulate(unit_work)
        if self._default_sim is None:
            self._default_sim = self._simulate(None)
        return self._default_sim

    def _simulate(self, unit_work) -> SimResult:
        return self.executor.simulate(unit_work=unit_work)

    def degraded(self, backend: str):
        """The recovery chain as ``(label, plan, backend)`` tiers, the
        requested one first; walked lazily by
        :func:`~repro.resilience.recovery.run_with_recovery`."""
        yield backend, self, backend

    def rebound(self, program, arrays) -> "LoopPlan":
        """The plan serving ``program`` after a data-only rebind of
        ``arrays`` (structure unchanged, so schedules carry over)."""
        return self

    def compile_kwargs(self) -> dict:
        """``Runtime.compile`` keywords that rebuild this kind of plan
        for a new structure (a structural rebind)."""
        return {"executor": self.executor_name,
                "scheduler": self.scheduler_name,
                "assignment": self.assignment, "balance": self.balance}

    def finish(self, loop, report) -> None:
        """Called once per successful ``loop()`` with the finished
        report, outside the timed window."""

    def report(self) -> dict:
        """Plan-specific entries of :meth:`CompiledLoop.report`: the
        executor's numeric batches, and whether its last run went a
        batch per level (``"vectorized"``) or per index (``"flat"``) —
        both ``None`` before the first run."""
        return {
            "numeric_batches": getattr(self.executor, "numeric_batches", None),
            "kernel_path": getattr(self.executor, "kernel_path", None),
        }


class ScheduledPlan(LoopPlan):
    """An executor and the inspection summary it runs: an inspected
    schedule, or a speculative executor standing in for its own."""

    #: Graceful degradation of the parallel backends.
    _DOWN_TIER = {"threads": "serial", "processes": "serial"}
    #: Off the schedule: a report extracts no dependences.
    n = property(lambda self: self.inspection.schedule.n)

    def __init__(self, inspection, executor, *, executor_name: str,
                 scheduler_name: str, assignment: str, balance: str,
                 cache_hit: bool, sim=None, kind: str = "scheduled",
                 classic=None):
        #: ``"scheduled"``, or ``"speculative"`` (nothing inspected).
        self.kind = kind
        #: Builds the last recovery tier's plan (``None``: no such tier).
        self._classic = classic
        self._classic_plan = None
        self._inspection = inspection
        #: The default simulation, when a search handed it over.
        self._default_sim = sim
        #: The executor object (self-executing / pre-scheduled / …).
        self.executor = executor
        self.executor_name = executor_name
        self.scheduler_name = scheduler_name
        self.assignment = assignment
        self.balance = balance
        #: Whether the inspection came from the ScheduleCache.
        self.cache_hit = cache_hit

    @property
    def inspection(self):
        return self._inspection

    def degraded(self, backend: str):
        yield backend, self, backend
        lower = self._DOWN_TIER.get(backend)
        if lower is not None:
            yield lower, self, lower
        if self._classic is not None:  # compiled on first need, once
            if self._classic_plan is None:
                self._classic_plan = self._classic()
            yield "classic", self._classic_plan, "serial"


def _of_plan(name: str, doc: str) -> property:
    return property(lambda self: getattr(self.plan, name), doc=doc)


class CompiledLoop:
    """A reusable compiled loop: plan fixed, executions cheap.

    The only loop type :meth:`Runtime.compile` returns.  What it runs is
    its :attr:`plan` (scheduled, speculative or staged — see
    :class:`LoopPlan`); what it runs *on* is orthogonal: loops compiled
    from a :class:`~repro.program.LoopProgram` carry the program and a
    pre-bound kernel, so ``loop()`` alone executes and
    :meth:`rebind` swaps data without re-inspection.  Call it with a
    kernel to execute raw-dependence compiles (``loop(kernel)``),
    optionally overriding the session's backend per call
    (``loop(kernel, backend="processes")``).
    """

    def __init__(self, runtime: "Runtime", plan: LoopPlan, *, program=None,
                 bound_kernel=None, verdict=None, program_verdict=None):
        self.runtime = runtime
        #: The current :class:`LoopPlan`.  Everything this loop reports
        #: reads through it, so a swap (rebind, recovery tier) can
        #: never leave a stale description behind.
        self.plan = plan
        #: The :class:`~repro.program.LoopProgram` behind a program
        #: compile (``None`` for raw dependence data).
        self.program = program
        #: Kernel attached at compile time; ``loop()`` with no kernel
        #: argument executes it.  ``None`` for raw dependence data,
        #: kernel-free programs and staged plans (whose stage loops
        #: carry their own).
        self.bound_kernel = bound_kernel
        #: The :class:`~repro.tuning.TuningVerdict` behind a
        #: ``strategy="auto"`` compile (``None`` for explicit choices;
        #: the :class:`~repro.tuning.tuner.ProgramVerdict` on staged
        #: winners).
        self.verdict = verdict
        #: The :class:`~repro.tuning.tuner.ProgramVerdict` of a
        #: variants × strategies search (``None`` otherwise).
        self.program_verdict = program_verdict
        #: Executions through this object, across plan swaps.
        self.executions = 0
        #: Data-only rebinds served without any inspector work.
        self.rebinds = 0

    # ------------------------------------------------------------------
    executor = _of_plan("executor", "The plan's executor object "
                        "(``None`` on staged plans).")
    executor_name = _of_plan("executor_name", "Executor registry name.")
    scheduler_name = _of_plan("scheduler_name", "Requested scheduler.")
    assignment = _of_plan("assignment", "Partitioner name.")
    balance = _of_plan("balance", "Balance option.")
    cache_hit = _of_plan("cache_hit", "Whether the plan's schedule(s) "
                         "came from the ScheduleCache.")
    inspection = _of_plan("inspection", "Inspector output, or the plan "
                          "itself standing in for one.")
    variant = _of_plan("variant", "Staged plans only: the transform "
                       ":class:`~repro.program.Variant`.")
    stage_loops = _of_plan("stage_loops", "Staged plans only: the "
                           "mutable list of per-stage loops.")

    @property
    def schedule(self):
        return self.inspection.schedule

    @property
    def dep(self):
        return self.inspection.dep

    @property
    def wavefronts(self) -> np.ndarray:
        return self.inspection.wavefronts

    @property
    def nproc(self) -> int:
        return self.runtime.nproc

    @property
    def costs(self) -> MachineCosts:
        return self.runtime.costs

    # ------------------------------------------------------------------
    def __call__(self, kernel=None, *, backend: str | None = None,
                 unit_work: np.ndarray | None = None,
                 timeout: float = 30.0, with_sim: bool = True) -> RunReport:
        """Execute ``kernel`` on a backend; returns a :class:`RunReport`.

        ``kernel=None`` executes the pre-bound kernel of a
        program-compiled loop (explicit kernels always win).
        ``with_sim=False`` skips the machine-model timing
        (``report.sim`` is ``None``) — use it when only the numbers
        matter.  ``host_seconds`` always measures the backend
        execution alone; the simulation is attached afterwards, and
        the default (``unit_work=None``) simulation is memoized per
        plan.

        ``timeout`` must be positive and finite (wall seconds).
        ``threads`` enforces it with a watchdog
        (:class:`~repro.errors.ExecutionTimeout` on expiry) and
        ``processes`` as a deadline on the worker pool; ``serial``
        validates but does not interrupt (best-effort — a serial kernel
        cannot be cancelled cooperatively).  When the session
        has a recovery policy (``Runtime(recovery=...)``), failures
        and timeouts retry down the plan's degradation chain and the
        report carries ``report.recovery``.
        """
        check_timeout(timeout)
        if kernel is None:
            kernel = self.bound_kernel
        name = (_check_backend(backend) if backend is not None
                else self.runtime.backend)
        plan = self.plan
        policy = self.runtime.recovery
        if policy is None:
            report = self._attempt(kernel, name, unit_work=unit_work,
                                   timeout=timeout, with_sim=with_sim)
        else:
            report = run_with_recovery(self, kernel, name, policy,
                                       unit_work=unit_work, timeout=timeout,
                                       with_sim=with_sim)
        plan.finish(self, report)
        return report

    def _attempt(self, kernel, name: str, *, unit_work, timeout,
                 with_sim) -> RunReport:
        """One attempt of the current plan on backend ``name`` — the
        single place a :class:`RunReport` is built."""
        plan = self.plan
        obs = self.runtime.observer
        recorder = None
        if obs is not None:
            if name == "threads" and plan.executor is not None:
                # A staged plan has no executor of its own to record:
                # its stage loops' attempts record theirs.
                recorder = TimelineRecorder(self.nproc)
            mark = obs.mark()
            t0 = now()
            # Executors count their plan traffic unconditionally (three
            # ints a run); the session mirrors the deltas when armed.
            level_counts = getattr(plan.executor, "level_counts", None)
            counted = level_counts() if level_counts is not None else None
            taped = getattr(kernel, "tape_builds", None)
        sw = Stopwatch().start()
        with maybe_span(obs, "execute", backend=name,
                        executor=plan.executor_name):
            x = plan.execute(self, kernel, name, unit_work=unit_work,
                             timeout=timeout, timeline=recorder)
        sw.stop()
        sim = plan.simulate(unit_work) if with_sim else None
        self.executions += 1
        cache = self.runtime.cache
        inspection = plan.inspection
        speculation = getattr(plan.executor, "speculation", None)
        report = RunReport(
            x=x,
            sim=sim,
            inspection=inspection,
            backend=name,
            executor=plan.executor_name,
            scheduler=inspection.strategy,
            assignment=plan.assignment,
            cache_hit=plan.cache_hit,
            executions=self.executions,
            host_seconds=sw.elapsed,
            cache_stats=cache.stats.snapshot() if cache is not None else None,
            speculation=speculation,
        )
        if obs is not None:
            if speculation is not None:
                obs.record_speculation(speculation)
            timeline = recorder.timeline() if recorder is not None else None
            report.timeline = timeline
            obs.record_execution(name, sw.elapsed, sim=sim,
                                 timeline=timeline)
            if counted is not None:
                for metric, before, after in zip(
                        ("plan_builds", "plan_reuses", "batches"),
                        counted, level_counts()):
                    obs.inc(f"executor.{metric}", after - before)
            if taped is not None:
                obs.inc("executor.tape_builds", kernel.tape_builds - taped)
            # Execute-only window; :meth:`Runtime.run` widens this to
            # the full compile→execute breakdown.
            report.phases = obs.phase_breakdown(mark, now() - t0)
        return report

    #: Named alias for the call protocol.
    run = __call__

    def simulate(self, *, unit_work: np.ndarray | None = None) -> SimResult:
        """Machine-model timing only, without executing a kernel."""
        return self.plan.simulate(unit_work)

    def report(self) -> dict:
        """Amortisation summary (the paper's break-even argument).

        ``break_even_executions`` is the number of executions after
        which the inspection has paid for itself — inspection cost over
        the per-execution saving of the scheduled run against the
        sequential loop (:func:`~repro.analysis.model.break_even`).
        """
        from ..analysis.model import break_even  # deferred: import cycle

        plan = self.plan
        sim = plan.simulate()
        inspect_cost = plan.inspection.pipeline_cost
        return {
            "executor": plan.executor_name,
            "scheduler": plan.inspection.strategy,
            "assignment": plan.assignment,
            "n": plan.n,
            "nproc": self.nproc,
            **plan.report(),
            "num_wavefronts": plan.inspection.num_wavefronts,
            "cache_hit": plan.cache_hit,
            "tuned": self.verdict is not None,
            "executions": self.executions,
            "inspect_cost": inspect_cost,
            "parallel_time": sim.total_time,
            "seq_time": sim.seq_time,
            "efficiency": sim.efficiency,
            "break_even_executions": break_even(inspect_cost, sim.total_time,
                                                sim.seq_time),
        }

    def rebind(self, **arrays) -> "CompiledLoop":
        """Swap data arrays; recompile only if the structure changed.

        Pure data swaps (anything that is not an index source, or index
        sources whose values are unchanged) mutate this loop in place —
        zero inspector work, zero cache traffic — and return ``self``.
        A rebind that actually changes an index array returns a *new*
        loop compiled the way this one's plan was (or a fresh
        ``strategy="auto"`` verdict when this loop was tuned).

        Always use the return value (``loop = loop.rebind(...)``): it
        is the loop bound to the new data in both cases, so callers
        never run a stale schedule by accident.

        Programs that bound a ready-made kernel *instance* cannot be
        rebound — the instance's captured arrays are out of reach, so
        honouring the call would silently keep executing the old data.
        Declare the kernel as a factory (``kernel=lambda **data: ...``)
        to make a program rebindable.
        """
        if self.program is None:
            raise ValidationError(
                "only loops compiled from a LoopProgram can be rebound; "
                "this one was compiled from raw dependence data")
        if arrays and not self.program.rebindable:
            raise ValidationError(
                "this program binds a ready-made kernel instance, so "
                "rebound data could never reach execution; declare the "
                "kernel as a factory (kernel=lambda **data: ...) to "
                "make the program rebindable"
            )
        program = self.program.with_data(**arrays)
        structural = set(arrays) & self.program.structural_names()
        if structural and program.structure_hash() != self.program.structure_hash():
            if self.verdict is not None:
                return self.runtime.compile(program, strategy="auto")
            return self.runtime.compile(program, **self.plan.compile_kwargs())
        # Whatever can refuse the new data runs before anything is
        # stored, so a refused rebind leaves the loop as it was.  A loop
        # that bound no kernel (kernel-free, staged) has none to rebuild.
        kernel = (program.make_kernel() if self.bound_kernel is not None
                  else None)
        self.plan = self.plan.rebound(program, arrays)
        self.program = program
        self.bound_kernel = kernel
        self.rebinds += 1
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = (f"{self.program.name!r}, "
                 if self.program is not None and self.program.name else "")
        return (f"CompiledLoop({label}{self.plan.kind}, n={self.plan.n}, "
                f"nproc={self.nproc}, executor={self.executor_name!r}, "
                f"scheduler={self.inspection.strategy!r}, "
                f"cache_hit={self.cache_hit}, rebinds={self.rebinds})")


def _store_from(name: str, value, persist_dir, store_cls):
    """One of ``Runtime``'s store keywords, validated: an instance is
    adopted (``<name>_dir`` ignored, as documented), a positive int
    builds an LRU of that size over ``persist_dir``, ``None`` disables
    the store — beside which a directory would be silently dropped."""
    if isinstance(value, store_cls):
        return value
    if value is None:
        if persist_dir is not None:
            raise ValidationError(
                f"{name}_dir was given but {name}=None disables the store")
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value <= 0):
        raise ValidationError(
            f"{name} must be a {store_cls.__name__} instance, a positive "
            f"int (LRU size) or None, got {value!r}")
    return store_cls(maxsize=int(value), persist_dir=persist_dir)


#: Where a compiled loop can run: entry points of its executor, picked
#: in :meth:`LoopPlan.execute` — a closed set, not a registry.
_BACKENDS = ("processes", "serial", "threads")


def _check_backend(name) -> str:
    if name not in _BACKENDS:
        raise ValidationError(f"unknown backend {name!r}; valid options "
                              f"are: {', '.join(map(repr, _BACKENDS))}")
    return name


class Runtime:
    """A session binding machine shape, backend and schedule cache.

    Parameters
    ----------
    nproc:
        Simulated (and threaded/process) processor count.
    backend:
        Default execution backend: ``"serial"``, ``"threads"`` or
        ``"processes"``.
    costs:
        Machine cost model for simulation and inspection pricing.
    cache:
        ``ScheduleCache`` instance, a positive int (LRU size), or
        ``None`` to disable inspection caching; anything else is a
        :class:`~repro.errors.ValidationError`.
    cache_dir:
        Optional persistence directory (ignored when ``cache`` is an
        instance, an error beside ``cache=None``) — enables ``.npz``
        write-through so schedules survive process restarts.
    tuning:
        ``TuningStore`` instance, a positive int (LRU size), or
        ``None`` to disable verdict caching for ``strategy="auto"``
        compiles; validated like ``cache``.
    tuning_dir:
        Optional persistence directory for tuning verdicts (ignored
        when ``tuning`` is an instance, an error beside
        ``tuning=None``) — a warm store skips the whole strategy
        search across process restarts.
    expected_executions:
        Amortisation horizon of ``strategy="auto"`` arbitration: the
        number of executions each compiled structure is expected to
        serve, held by the session's tuner.  When set, each candidate
        scores :func:`~repro.analysis.model.amortised_time`, its
        inspection cost over this horizon — so on cold structures
        (horizon 1) the no-inspection speculative arm can win, while
        large horizons recover pure steady-state makespan ranking.
        ``None`` (default) keeps the classic makespan-only scoring;
        anything else must be positive and finite, and a horizon
        below one execution counts as one.
    observe:
        ``True`` builds a fresh :class:`~repro.observe.Observer` and
        threads it through every subsystem (spans on compile/run/tune,
        cache/tuner/speculation metrics, execution timelines on the
        ``threads`` backend — see ``RunReport.phases`` and
        ``observer.export_chrome_trace``).  An ``Observer`` instance
        is adopted as-is (share one across sessions to aggregate).
        ``False`` (default) keeps every hot path exactly as
        uninstrumented: the only cost is an ``is None`` test.
    recovery:
        Retry/fallback discipline for failed executions: a
        :class:`~repro.resilience.RetryPolicy`, ``True`` for the
        default policy, or ``None``/``False`` (default) to propagate
        the first failure unchanged.  When armed, worker crashes and
        watchdog timeouts retry per tier and then degrade
        (threads/processes → serial; a speculative plan then to the
        classic pipeline), recording what happened in ``report.recovery``.
    """

    tune_seed = 0  # nothing is seeded; the ledger's replica reads it

    def __init__(self, nproc: int = 8, *, backend: str = "serial",
                 costs: MachineCosts = MULTIMAX_320,
                 cache: ScheduleCache | int | None = 128,
                 cache_dir=None, tuning=64, tuning_dir=None,
                 expected_executions: float | None = None,
                 observe: bool | Observer = False,
                 recovery: RetryPolicy | bool | None = None):
        from ..core.inspector import Inspector  # deferred: import cycle

        if observe is True:
            self.observer: Observer | None = Observer()
        elif observe is False or observe is None:
            self.observer = None
        elif isinstance(observe, Observer):
            self.observer = observe
        else:
            raise ValidationError(
                "observe must be a bool or an Observer instance")
        self.nproc = check_positive(nproc, "nproc")
        self.backend = _check_backend(backend)
        self.costs = costs
        self.expected_executions = check_horizon(expected_executions)
        from ..tuning.store import TuningStore  # deferred: import cycle

        self.cache: ScheduleCache | None = _store_from(
            "cache", cache, cache_dir, ScheduleCache)
        self.tuning_store: TuningStore | None = _store_from(
            "tuning", tuning, tuning_dir, TuningStore)
        if recovery is None or recovery is False:
            self.recovery: RetryPolicy | None = None
        elif recovery is True:
            self.recovery = RetryPolicy()
        elif isinstance(recovery, RetryPolicy):
            self.recovery = recovery
        else:
            raise ValidationError(
                "recovery must be a repro.resilience.RetryPolicy, a bool, "
                "or None")
        self._tuner = None  # built on the first strategy="auto" compile
        self._inspector = Inspector(costs, observer=self.observer)
        # The stores may be shared with other sessions, so nothing of
        # this one is written onto them: the observer mirrors this
        # session's own share of their counters (``_plan``).

    # ------------------------------------------------------------------
    def compile(self, deps, *, executor: str = "self",
                scheduler: str = "local", assignment: str = "wrapped",
                balance: str = "wrapped",
                strategy: str | None = None) -> CompiledLoop:
        """Inspect (or fetch from cache) and bind an executor.

        ``deps`` is any dependence source the inspector understands: a
        :class:`~repro.core.dependence.DependenceGraph`, a
        lower-triangular CSR matrix, a 1-D/2-D indirection array, or a
        :class:`~repro.program.LoopProgram` (whose declared access
        patterns supply the graph).  All strategy names are validated
        up front against the registries.

        Every route returns a :class:`CompiledLoop`; compiling a
        program attaches the program and its kernel.

        ``strategy="auto"`` hands the choice of all four strategy
        strings to the tuner (:meth:`tune`): the session's
        ``TuningStore`` is consulted first, and only a miss pays for a
        search — the winning verdict is attached to the returned loop
        as ``loop.verdict``.  Explicit ``executor=``/``scheduler=``/
        ``assignment=``/``balance=`` arguments are ignored under
        ``"auto"``.

        ``strategy="speculative"`` skips inspection entirely and
        returns a loop whose plan executes optimistically with
        vectorized conflict detection (:mod:`repro.speculate`) on
        every call, whatever the conflict rate; ``"auto"`` is the one
        arbiter between speculating and inspecting.

        On a multi-statement or shaped program ``"auto"`` also searches
        the legal rewrites (fission, skew, compositions); the search's
        :class:`~repro.tuning.tuner.ProgramVerdict` is attached as
        ``loop.program_verdict``, and a transformed winner runs as a
        staged plan.
        """
        label = strategy or f"{executor}/{scheduler}"
        with maybe_span(self.observer, "compile", strategy=label) as span:
            loop = self._compile_impl(
                deps, executor=executor, scheduler=scheduler,
                assignment=assignment, balance=balance, strategy=strategy)
            span.annotate(executor=loop.executor_name,
                          cache_hit=loop.cache_hit)
        return loop

    def _compile_impl(self, deps, *, executor: str, scheduler: str,
                      assignment: str, balance: str,
                      strategy: str | None) -> CompiledLoop:
        """Choose the strategy, build its plan, wrap it once."""
        program = deps if getattr(deps, "__loop_program__", False) else None
        verdict = program_verdict = winner = None
        if strategy == "speculative":
            executor = "speculative"
        elif strategy == "auto":
            if program is not None and (program.num_statements > 1
                                        or program.shape is not None):
                # Transformable programs tune variants × strategies
                # (identity, fission, skew, compositions); a
                # transformed winner runs staged, an identity winner
                # continues below like any tuned compile.
                program_verdict = self._ensure_tuner().tune_program(program)
                if program_verdict.transformed:
                    return CompiledLoop(
                        self, self._staged_plan(program_verdict),
                        program=program, verdict=program_verdict,
                        program_verdict=program_verdict)
                verdict = program_verdict.stage_verdicts[0]
            else:
                # Normalize once: the tuner's store key and the
                # schedule cache below hash the same graph.
                deps = self._inspector.dependences_of(deps)
                verdict, winner = self._tune(deps)
            executor = verdict.executor
            scheduler = verdict.scheduler
            assignment = verdict.assignment
            balance = verdict.balance
        elif strategy is not None:
            raise ValidationError(
                f"unknown strategy {strategy!r}; valid options are: "
                "'auto', 'speculative' (or omit it and pick executor/"
                "scheduler/assignment/balance explicitly)"
            )
        plan = self._plan(program if program is not None else deps,
                          executor=executor, scheduler=scheduler,
                          assignment=assignment, balance=balance,
                          winner=winner)
        return CompiledLoop(
            self, plan, program=program,
            bound_kernel=program.make_kernel() if program is not None else None,
            verdict=verdict, program_verdict=program_verdict)

    def _plan(self, deps, *, executor: str, scheduler: str,
              assignment: str, balance: str, winner=None,
              held=None) -> ScheduledPlan:
        """The one plan builder: what a strategy bundle runs on ``deps``
        — every compile's, and every search candidate's.

        Speculative-flagged executors never pay for an inspection:
        whether named explicitly or picked by an "auto" verdict, they
        build the no-inspection plan (their scheduler/assignment/
        balance strings are meaningless and ignored).  Any other
        executor is inspected (or fetched from cache) and bound.

        All registry work (:meth:`_resolve`) happens first, before any
        dependence processing.  A search's winner planned on this very
        graph stands in for the inspection a miss would run, and seeds
        the plan's default simulation.  ``held`` is a search rung's
        :class:`~repro.tuning.measure.SharedSims`: a bundle it resolved
        before skips the registry work, and one asking for an
        inspection it planned on ``deps`` binds it — no key, no lookup.
        """
        bundle = (executor, scheduler, assignment, balance)
        resolutions, inspections = (({}, {}) if held is None
                                    else (held.resolved, held.inspections))
        if bundle not in resolutions:
            resolutions[bundle] = self._resolve(*bundle)
        asked = resolutions[bundle]
        if not asked:
            from ..speculate.loop import speculative_plan  # deferred: cycle

            return speculative_plan(self, deps)
        resolved, assignment, keyed = asked
        inspection = inspections.get(asked)
        cache_hit = inspection is not None
        if not cache_hit:
            dep = self._inspector.dependences_of(deps)
            key = ScheduleCache.key_for(
                dep, self.nproc, resolved, assignment, keyed, self.costs,
                # Implementation fingerprints: shadowing a strategy name —
                # here or in a previous run sharing the persistence dir —
                # must not serve schedules another implementation built.
                versions=(scheduler_registry.fingerprint(resolved),
                          partitioner_registry.fingerprint(assignment)),
            )
            cache, obs = self.cache, self.observer
            inspection = (cache.session_get(key, dep, observer=obs)
                          if cache is not None else None)
            cache_hit = inspection is not None
            if winner is not None and winner.plan.inspection.dep is not dep:
                winner = None
            if inspection is None:
                inspection = (winner.plan.inspection if winner is not None
                              else self._inspector.inspect(
                                  dep, self.nproc, strategy=resolved,
                                  assignment=assignment, balance=balance))
                if cache is not None:
                    cache.session_put(key, inspection, observer=obs)
            inspections[asked] = inspection
        return ScheduledPlan(
            inspection,
            executor_registry.get(executor)(inspection, self.nproc, self.costs),
            executor_name=executor, scheduler_name=scheduler,
            assignment=assignment, balance=balance, cache_hit=cache_hit,
            sim=None if cache_hit or winner is None else winner.sim,
        )

    def _resolve(self, executor: str, scheduler: str, assignment: str,
                 balance: str) -> tuple:
        """What a strategy bundle asks the inspector for, validated:
        ``()`` for a speculative-flagged executor, else the scheduler,
        assignment and balance its schedule is inspected and keyed by."""
        executor_registry.validate(executor)
        meta = executor_registry.metadata(executor)
        if meta.get("speculative"):
            return ()
        scheduler_registry.validate(scheduler)
        partitioner_registry.validate(assignment)

        resolved = meta.get("scheduler_override") or scheduler
        # An executor that forces its assignment too (doacross: the
        # wrapped identity) is inspected, cached and reported with the
        # schedule it runs, whatever was requested.
        assignment = meta.get("assignment_override") or assignment
        # A scheduler that declares its balance options (``global``'s
        # ``balance_options`` metadata — plain name or parameterized
        # spec) gets them validated eagerly; other schedulers
        # (including user-registered ones) receive ``balance`` verbatim
        # per the registry contract and may ignore it or define their
        # own values.  Weight-source spec values are likewise checked
        # here, before any dependence processing.
        smeta = scheduler_registry.metadata(resolved)
        options = smeta.get("balance_options")
        if options is not None and balance not in options:
            raise ValidationError(
                f"unknown balance {balance!r}; valid options are: "
                + ", ".join(repr(b) for b in sorted(options))
            )
        weight_source = scheduler_registry.binding(resolved).get("weights")
        if isinstance(weight_source, str):
            self._inspector.check_weight_source(weight_source)
        # ``balance`` enters the cache key only when the resolved
        # scheduler actually consumes it (``consumes_balance``
        # metadata) — otherwise compiles differing only in an ignored
        # balance string would cold-inspect identical structure.
        # Unregistered metadata defaults to consuming (conservative).
        return (resolved, assignment,
                balance if smeta.get("consumes_balance", True) else "")

    def _staged_plan(self, program_verdict):
        """One compiled loop per stage of a transformed winner."""
        from ..program.transform import StagedPlan  # deferred: cycle

        stage_loops = []
        for stage, vd in zip(program_verdict.variant.stages,
                             program_verdict.stage_verdicts):
            loop = self.compile(stage.program, **vd.compile_kwargs())
            loop.verdict = vd
            stage_loops.append(loop)
        return StagedPlan(program_verdict.variant, stage_loops)

    # ------------------------------------------------------------------
    def _ensure_tuner(self):
        if self._tuner is None:
            from ..tuning.tuner import Tuner  # deferred: import cycle

            self._tuner = Tuner(self.nproc, self.costs,
                                store=self.tuning_store,
                                observer=self.observer,
                                expected_executions=self.expected_executions)
        return self._tuner

    def tune(self, deps):
        """Search (or recall) the best strategy bundle for ``deps``.

        Returns a :class:`~repro.tuning.TuningVerdict`.  The session's
        tuner is built lazily and shares its machine shape
        (``nproc``/``costs``) and ``TuningStore``.  A session
        ``expected_executions`` horizon makes the scores
        amortisation-aware.
        """
        return self._tune(deps)[0]

    def _tune(self, deps):
        """:meth:`tune`, and the fresh search's winner (or ``None``)."""
        with maybe_span(self.observer, "tune", entry="runtime"):
            return self._ensure_tuner()._tune(deps)

    # ------------------------------------------------------------------
    def run(self, kernel, deps=None, *, backend: str | None = None,
            unit_work: np.ndarray | None = None, timeout: float = 30.0,
            **compile_options) -> RunReport:
        """One-shot convenience: compile (cached) and execute.

        Accepts a :class:`~repro.program.LoopProgram` in place of the
        kernel (``rt.run(program)``) — the program supplies both the
        dependence data and the kernel.  Otherwise ``deps`` defaults to
        the kernel's own ``dependence_graph()`` when it provides one
        (the library kernels all do).  Repeated calls with identical
        strategy specs hit the session's schedule cache — no
        re-inspection.

        When the session observes, ``report.phases`` covers the whole
        call — compile (inspect/schedule/tune) *and* execute — so the
        phase sum accounts for this call's wall time.

        ``timeout`` is validated before anything compiles; ``threads``
        enforces it with a watchdog thread, ``processes`` as a pool
        deadline, and ``serial`` validates but does not interrupt.
        """
        check_timeout(timeout)
        obs = self.observer
        if obs is None:
            return self._run_impl(kernel, deps, backend=backend,
                                  unit_work=unit_work, timeout=timeout,
                                  **compile_options)
        mark = obs.mark()
        t0 = now()
        with obs.span("run", backend=backend or self.backend):
            report = self._run_impl(kernel, deps, backend=backend,
                                    unit_work=unit_work, timeout=timeout,
                                    **compile_options)
        report.phases = obs.phase_breakdown(mark, now() - t0)
        return report

    def _run_impl(self, kernel, deps, *, backend, unit_work, timeout,
                  **compile_options) -> RunReport:
        if deps is None:
            if getattr(kernel, "__loop_program__", False):
                kernel, deps = None, kernel
            else:
                graph_of = getattr(kernel, "dependence_graph", None)
                if graph_of is None:
                    raise ValidationError(
                        "deps is required: the kernel does not expose a "
                        "dependence_graph() method (or pass a LoopProgram)"
                    )
                deps = graph_of()
        loop = self.compile(deps, **compile_options)
        return loop(kernel, backend=backend, unit_work=unit_work,
                    timeout=timeout)

    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats | None:
        """Counters of the session cache (``None`` when disabled)."""
        return self.cache.stats if self.cache is not None else None

    @property
    def tuning_stats(self) -> CacheStats | None:
        """Counters of the tuning store (``None`` when disabled)."""
        return (self.tuning_store.stats
                if self.tuning_store is not None else None)

    @staticmethod
    def available() -> dict[str, tuple[str, ...]]:
        """Registered strategy names, per registry, and the backends."""
        return {
            "executors": executor_registry.names(),
            "schedulers": scheduler_registry.names(),
            "assignments": partitioner_registry.names(),
            "backends": _BACKENDS,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Runtime(nproc={self.nproc}, backend={self.backend!r}, "
                f"cache={self.cache!r})")
