"""Loop kernels and the serial reference executor.

A *kernel* encapsulates the numeric body of a reorderable loop —
what one iteration computes — independent of the order iterations are
executed in.  Executors (serial, pre-scheduled, self-executing,
doacross, speculative) decide the order and synchronization; kernels do
the arithmetic.  All executors run the same kernel, and all must
reproduce the serial result bit-for-bit on legal schedules: that is the
library's core correctness contract, enforced by the test-suite.

Execution
---------
:class:`ClassicExecutor` is the one base of the self-executing,
pre-scheduled, doacross and speculative executors.  It owns their
constructor state and their one serial run path — each builds a
:class:`LevelPlan` once, a legal total order grouped into mutually
independent batches, and every ``run`` walks it — plus ``simulate``,
``run_threaded`` and ``run_processes``, each dispatching on the
subclass's ``mode``.
A kernel runs on three rungs (:class:`LoopKernel`): one iteration, one
level, or the whole plan — the rung of the structure-compiled kernels,
the triangular ones through a :class:`~repro.sparse.triangular.LevelGather`
(structure and held values) the executor keeps across data rebinds.
Batched arithmetic accumulates each row in CSR order, so every path
agrees with :class:`SerialExecutor` bit for bit.

Kernels
-------
* :class:`GenericLoopKernel` — wraps an arbitrary ``body(i)`` callable;
* :class:`SimpleLoopKernel` — the Figure 3 loop
  ``x[i] = x[i] + b[i] * x[ia[i]]`` with the ``xold`` anti-dependence
  handling of Figure 4;
* :class:`TriangularSolveKernel` — the Figure 8 sparse lower-triangular
  row substitution, with a vectorised batch path for wavefront
  execution.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from ..errors import ScheduleError, ValidationError
from ..machine.costs import MachineCosts, MULTIMAX_320
from ..machine.simulator import (
    SimResult,
    simulate_prescheduled,
    simulate_self_executing,
)
from ..machine.threads import ThreadedMachine
from ..sparse.csr import CSRMatrix
from ..sparse.triangular import LevelGather, resolve_diagonal
from ..util.validation import as_int_array, check_vector, read_only
from .dependence import DependenceGraph

__all__ = [
    "LevelPlan",
    "ClassicExecutor",
    "LoopKernel",
    "GenericLoopKernel",
    "SimpleLoopKernel",
    "TriangularSolveKernel",
    "UpperTriangularSolveKernel",
    "SerialExecutor",
]


#: Level width at or below which a *run* of consecutive levels is
#: walked one index at a time instead of as one batch per level —
#: the same trade the frontier sweep and the simulator make.  A batch
#: costs a handful of numpy calls whatever its size, which is what two
#: or three indices cost one at a time.
FLAT_LEVEL = 2


class LevelPlan:
    """A legal total order grouped into mutually independent batches.

    ``order[bounds[k]:bounds[k+1]]`` is level ``k``: no iteration in it
    depends on another, and everything it depends on sits in an earlier
    level.  Depends on schedule and dependence structure only; a plan an
    executor keeps holds read-only arrays.

    A plan may describe its leading levels as :attr:`runs`: ``runs[k] =
    (lo, hi, keep)`` is level ``k`` as the iterations ``lo +
    flatnonzero(keep)`` — ``keep`` a read-only bool mask over ``lo:hi``,
    or ``None`` for all of it — none of which reads an element an
    earlier iteration writes.  ``order`` is then given for the levels
    past the runs alone (:attr:`rest`, a plan of its own), and the whole
    :attr:`order` is built, and kept, on its first read.
    """

    def __init__(self, order: np.ndarray, bounds: np.ndarray,
                 runs: tuple = ()):
        self.bounds = bounds
        self.runs = runs
        if runs:
            tail = bounds[len(runs):]
            self.rest = LevelPlan(order, read_only(tail - tail[0]))
        else:
            self.order = order

    @cached_property
    def order(self) -> np.ndarray:
        """The plan's total order (a plan with runs lays it out here)."""
        order, cuts = np.empty(self.cuts[-1], dtype=np.int64), self.cuts
        for (lo, hi, keep), a, b in zip(self.runs, cuts, cuts[1:]):
            order[a:b] = lo + (np.arange(hi - lo) if keep is None
                               else np.flatnonzero(keep))
        order[cuts[len(self.runs)]:] = self.rest.order
        return read_only(order)

    @property
    def num_levels(self) -> int:
        return self.bounds.shape[0] - 1

    @cached_property
    def cuts(self) -> list:
        """:attr:`bounds` as Python ints, for slicing in a loop."""
        return self.bounds.tolist()

    @cached_property
    def spans(self) -> list:
        """``(lo, hi, flat)`` runs of levels covering the plan: ``flat``
        runs hold only levels of at most :data:`FLAT_LEVEL` indices."""
        small = np.diff(self.bounds) <= FLAT_LEVEL
        cuts = np.flatnonzero(small[1:] != small[:-1]) + 1
        edges = [0, *cuts.tolist(), self.num_levels]
        return [(lo, hi, bool(small[lo]))
                for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]

    @cached_property
    def num_batched(self) -> int:
        """Levels a vectorized kernel runs as one batch each."""
        return sum(hi - lo for lo, hi, flat in self.spans if not flat)


def flat_walk(kernel, order: np.ndarray) -> None:
    """Run ``order`` one index at a time — the only per-iteration walk
    the executors have."""
    execute_index = kernel.execute_index
    for i in order.tolist():
        execute_index(i)


class LoopKernel(ABC):
    """Numeric body of a reorderable loop.

    Lifecycle: ``start()`` resets working state, iterations run, and
    ``result()`` returns the output.  Iterations run on three rungs:

    1. :meth:`execute_index` performs one iteration;
    2. :meth:`execute_batch` performs one level — indices known to be
       mutually independent — which a hand-written kernel may vectorise;
    3. :meth:`gather_key` / :meth:`compile_levels` /
       :meth:`execute_levels` perform a whole :class:`LevelPlan`.  A
       kernel whose batches need index arrays that depend on structure
       alone builds them in :meth:`compile_levels` and names that
       structure in :meth:`gather_key`; the executor keeps the result
       for as long as the key's objects stay the same.

    Executors hand a :attr:`vectorized` kernel its whole plan through
    :meth:`execute_levels`, whose default gives :meth:`execute_batch`
    each wide level, and walk any other kernel with :func:`flat_walk`.
    """

    #: Number of outer-loop iterations.
    n: int

    @property
    def vectorized(self) -> bool:
        """Whether executors hand this kernel its whole plan
        (:meth:`execute_levels`); by default, whether ``execute_batch``
        is more than the per-index loop."""
        return type(self).execute_batch is not LoopKernel.execute_batch

    @abstractmethod
    def start(self) -> None:
        """Reset working state ahead of a (re-)execution."""

    @abstractmethod
    def execute_index(self, i: int) -> None:
        """Perform iteration ``i``."""

    def execute_batch(self, idx: np.ndarray) -> None:
        """Perform a batch of mutually independent iterations."""
        flat_walk(self, np.asarray(idx))

    def gather_key(self) -> tuple:
        """The structure objects :meth:`compile_levels` reads."""
        return ()

    def compile_levels(self, levels: LevelPlan):
        """Structure-only index arrays for running ``levels``."""
        return None

    def execute_levels(self, levels: LevelPlan, gather=None) -> None:
        """Perform every level of ``levels``; ``gather`` is what
        :meth:`compile_levels` returned for them.  Runs of tiny levels
        go one index at a time, the rest to :meth:`execute_span`."""
        order, cuts = levels.order, levels.cuts
        for a, b, flat in levels.spans:
            if flat:
                flat_walk(self, order[cuts[a]:cuts[b]])
            else:
                self.execute_span(levels, gather, a, b)

    def execute_span(self, levels: LevelPlan, gather, lo: int,
                     hi: int) -> None:
        """Perform levels ``lo .. hi-1``, one batch each."""
        order, cuts = levels.order, levels.cuts
        for k in range(lo, hi):
            self.execute_batch(order[cuts[k]:cuts[k + 1]])

    @abstractmethod
    def result(self) -> np.ndarray:
        """The loop's output after execution."""


class GenericLoopKernel(LoopKernel):
    """Wraps an arbitrary per-iteration callable.

    Parameters
    ----------
    n:
        Iteration count.
    body:
        ``body(i)`` performs iteration ``i``, mutating closed-over
        state.
    setup:
        Optional zero-argument callable invoked by :meth:`start`; must
        reset the closed-over state and (optionally) return the object
        that :meth:`result` reports.
    """

    def __init__(self, n: int, body, *, setup=None):
        if n < 0:
            raise ValidationError("n must be non-negative")
        self.n = int(n)
        self._body = body
        self._setup = setup
        self._result = None

    def start(self) -> None:
        self._result = self._setup() if self._setup is not None else None

    def execute_index(self, i: int) -> None:
        self._body(i)

    def result(self):
        return self._result


class SimpleLoopKernel(LoopKernel):
    """The paper's running example (Figure 3)::

        do i = 1, n
            x(i) = x(i) + b(i) * x(ia(i))

    Sequential semantics: a *backward* reference (``ia[i] < i``) reads
    the updated value; a forward reference reads the original value.
    The kernel therefore keeps ``xold`` (the input vector) alongside the
    in-progress ``x``, exactly as the transformed loop of Figure 4 does,
    which is what makes the loop reorderable in the first place.
    ``xold`` is the input itself (nothing writes it): a run copies ``x``.
    """

    def __init__(self, x0: np.ndarray, b: np.ndarray, ia: np.ndarray):
        x0 = np.asarray(x0, dtype=np.float64)
        self.n = x0.shape[0]
        self.x0 = x0
        self.b = check_vector(b, self.n, "b")
        self.ia = as_int_array(ia, "ia")
        if self.ia.shape[0] != self.n:
            raise ValidationError("ia must have the same length as x")
        if self.ia.size and (self.ia.min() < 0 or self.ia.max() >= self.n):
            raise ValidationError("ia entries out of range")
        self.x: np.ndarray | None = None
        self.xold: np.ndarray | None = None

    def dependence_graph(self) -> DependenceGraph:
        """The loop's run-time dependence structure."""
        return DependenceGraph.from_indirection(self.ia, self.n)

    def start(self) -> None:
        self.xold = self.x0
        self.x = self.x0.copy()

    def execute_index(self, i: int) -> None:
        j = self.ia[i]
        if j >= i:
            self.x[i] = self.xold[i] + self.b[i] * self.xold[j]
        else:
            self.x[i] = self.xold[i] + self.b[i] * self.x[j]

    def execute_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        j = self.ia[idx]
        back, src = j < idx, self.xold[j]
        if back.any():  # a backward reference reads the update
            src = np.where(back, self.x[j], src)
        self.x[idx] = self.xold[idx] + self.b[idx] * src

    def execute_levels(self, levels: LevelPlan, gather=None) -> None:
        """Runs go as slices: every lane of one reads ``xold`` (that is
        the run contract), and a masked store drops the holes' lanes."""
        runs = levels.runs
        for lo, hi, keep in runs:
            t = self.xold[self.ia[lo:hi]]
            np.multiply(self.b[lo:hi], t, out=t)  # the serial operand order
            np.add(self.xold[lo:hi], t, out=t)
            np.copyto(self.x[lo:hi], t, where=True if keep is None else keep)
        super().execute_levels(levels.rest if runs else levels, gather)

    def result(self) -> np.ndarray:
        return self.x


class _SubstitutionKernel(LoopKernel):
    """What the two triangular kernels share: one matrix, one diagonal
    rule and the :class:`~repro.sparse.triangular.LevelGather` batch
    path, which solves a span of levels in level order and writes ``x``
    once, from values it holds while they are read-only.  Subclasses
    map iterations to matrix rows and keep the printed per-row loop as
    ``execute_index``."""

    #: Forward (strictly-lower operands) or backward substitution.
    _lower: bool
    vectorized = True

    def __init__(self, t: CSRMatrix, b: np.ndarray, *, diag=None,
                 unit_diagonal: bool = False):
        self.n = t.nrows
        self._t = t
        self.b = check_vector(b, self.n, "b")
        self.diag = resolve_diagonal(t, diag, unit_diagonal)
        if not unit_diagonal and np.any(self.diag == 0.0):
            raise ValidationError(
                "triangular kernel requires a nonzero diagonal")
        #: What a sweep divides each level by; ``None`` for a unit diagonal.
        self._divisor = None if unit_diagonal else self.diag
        self.x: np.ndarray | None = None

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """Matrix rows solved by iterations ``idx``."""
        raise NotImplementedError

    def start(self) -> None:
        self.x = np.zeros(self.n, dtype=np.float64)

    def gather_key(self) -> tuple:
        return (type(self), self._t.indptr, self._t.indices)

    def compile_levels(self, levels: LevelPlan) -> LevelGather:
        return LevelGather(self._t.indptr, self._t.indices,
                           self._rows(levels.order), levels.bounds,
                           lower=self._lower, flat=FLAT_LEVEL)

    def execute_span(self, levels: LevelPlan, gather: LevelGather,
                     lo: int, hi: int) -> None:
        gather.sweep(self.x, self._t.data, self.b, self._divisor, lo, hi)

    def result(self) -> np.ndarray:
        return self.x


class TriangularSolveKernel(_SubstitutionKernel):
    """Sparse lower-triangular forward substitution (Figure 8)::

        do i = 1, n
            y(i) = rhs(i)
            do j = ija(i), ija(i+1) - 1
                y(i) = y(i) - a(j) * y(ija(j))

    Iteration ``i`` computes ``x[i] = (b[i] - Σ L[i,j] x[j]) / d[i]``
    over the stored strictly-lower entries, subtracting them one by one
    in CSR order — on the batch path too, so batched and per-index
    execution agree bit for bit.
    """

    _lower = True

    def __init__(self, l: CSRMatrix, b: np.ndarray, *, diag=None,
                 unit_diagonal: bool = False):
        super().__init__(l, b, diag=diag, unit_diagonal=unit_diagonal)
        self.l = l

    def dependence_graph(self) -> DependenceGraph:
        return DependenceGraph.from_lower_csr(self.l)

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        return idx

    def execute_index(self, i: int) -> None:
        lo, hi = self.l.indptr[i], self.l.indptr[i + 1]
        acc = self.b[i]
        for k in range(lo, hi):
            j = self.l.indices[k]
            if j < i:
                acc -= self.l.data[k] * self.x[j]
        self.x[i] = acc / self.diag[i]


class UpperTriangularSolveKernel(_SubstitutionKernel):
    """Backward substitution ``U x = b`` as a reorderable forward loop.

    The backward solve visits rows ``n-1 .. 0``; renumbering iteration
    ``k`` to row ``n-1-k`` turns it into a forward loop whose
    dependences all point backwards, so every scheduler and executor
    applies unchanged.  :meth:`dependence_graph` returns the matching
    renumbered graph (the same convention
    :meth:`repro.core.dependence.DependenceGraph.from_upper_csr` uses);
    :meth:`result` reports ``x`` in natural row order.
    """

    _lower = False

    def __init__(self, u: CSRMatrix, b: np.ndarray, *, diag=None,
                 unit_diagonal: bool = False):
        if not u.is_upper_triangular():
            raise ValidationError("matrix must be upper triangular")
        super().__init__(u, b, diag=diag, unit_diagonal=unit_diagonal)
        self.u = u

    def dependence_graph(self) -> DependenceGraph:
        return DependenceGraph.from_upper_csr(self.u)

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        return read_only(self.n - 1 - idx)

    def execute_index(self, k: int) -> None:
        i = self.n - 1 - k
        lo, hi = self.u.indptr[i], self.u.indptr[i + 1]
        acc = self.b[i]
        for p in range(lo, hi):
            j = self.u.indices[p]
            if j > i:
                acc -= self.u.data[p] * self.x[j]
        self.x[i] = acc / self.diag[i]


class ClassicExecutor:
    """One schedule run four ways — what ``self``, ``preschedule``,
    ``doacross`` and ``speculative`` share.

    A subclass names its ``mode`` and adds only what genuinely differs;
    the numeric run, the machine-model timing and the real-thread and
    real-process runs live here, the latter three dispatching on
    ``mode``: barrier phases (:meth:`phases`) for ``"preschedule"``,
    busy-waits for ``"self"`` and ``"doacross"``; ``"speculative"``
    prices itself and deals its own two phases.

    The numeric run is one serial path: :meth:`_build_levels` (where a
    subclass's legality checks live) turns the schedule into ``(order,
    bounds)`` — speculation into its DOALL chunks as runs, then its
    repair set's wavefronts; this class keeps the :class:`LevelPlan`, keeps
    the kernel's gather plan for as long as the kernel names the same
    structure objects — a data-only ``rebind()`` rebuilds the kernel,
    not the structure — and runs kernels through them.

    **Two orders, not one.**  A *numeric* order need respect the
    dependences only — any such order computes the same values, so a
    subclass may batch as widely as they allow (doacross runs
    wavefront-major).  A *simulation* order must also respect each
    processor's program order, because the machine model advances a
    processor's clock item by item.  The level plan is a numeric order;
    :meth:`simulate` hands it to the simulator for ``"self"`` alone,
    whose plan is a topological order of the (program-order ∪
    dependence) DAG and so is both — levels and all: whole wavefronts
    laid out by owner and position, which the simulator walks a level
    at a time.
    """

    #: ``"self"``, ``"preschedule"``, ``"doacross"`` or ``"speculative"``.
    mode: str
    _levels: LevelPlan | None = None
    #: ``(gather_key, gather)`` of the last structure-bearing kernel.
    _gather: tuple | None = None
    #: Level and gather plans built, plans a run found already built,
    #: and levels run as one batch — over the executor's life.
    plan_builds = 0
    plan_reuses = 0
    batches = 0
    #: How the last :meth:`run` drove its kernel: ``"vectorized"``
    #: (a batch per level) or ``"flat"`` (one per-index walk).
    kernel_path: str | None = None

    def __init__(self, schedule, dep: DependenceGraph,
                 costs: MachineCosts = MULTIMAX_320):
        self.schedule = schedule
        self.dep = dep
        self.costs = costs

    def _build_levels(self) -> tuple[np.ndarray, np.ndarray]:
        # A topological order of (program-order ∪ dependence) edges
        # both proves the schedule deadlock-free and gives the numeric
        # engine a legal order to walk.
        return self.schedule.execution_levels(self.dep)

    def level_plan(self) -> LevelPlan:
        """The executor's plan, built on first use."""
        if self._levels is None:
            order, bounds, *leading = self._build_levels()
            self._levels = LevelPlan(read_only(order), read_only(bounds),
                                     *leading)
            self.plan_builds += 1
        return self._levels

    def _gather_for(self, kernel, levels: LevelPlan):
        key = kernel.gather_key()
        if not key:  # nothing structural to keep
            return kernel.compile_levels(levels)
        held = self._gather
        if (held is not None and len(held[0]) == len(key)
                and all(a is b for a, b in zip(held[0], key))):
            self.plan_reuses += 1
            return held[1]
        gather = kernel.compile_levels(levels)
        self.plan_builds += 1
        self._gather = (key, gather)
        return gather

    @property
    def numeric_batches(self) -> int | None:
        """Levels of the plan (``None`` until a run has built it)."""
        return None if self._levels is None else self._levels.num_levels

    def level_counts(self) -> tuple[int, int, int]:
        """``(plan_builds, plan_reuses, batches)`` so far."""
        return self.plan_builds, self.plan_reuses, self.batches

    def run(self, kernel) -> np.ndarray:
        """Numerically execute ``kernel`` in the plan's order.

        Any order that respects the dependences computes the same
        values (the dependence graph fixes the dataflow), and batched
        arithmetic keeps each row's serial operation order, so the
        result equals :class:`SerialExecutor`'s bit for bit.
        """
        if self._levels is not None:
            self.plan_reuses += 1
        levels = self.level_plan()
        kernel.start()
        if getattr(kernel, "vectorized", False):
            kernel.execute_levels(levels, self._gather_for(kernel, levels))
            self.batches += levels.num_batched
            self.kernel_path = "vectorized"
        else:
            flat_walk(kernel, levels.order)
            self.kernel_path = "flat"
        return kernel.result()

    def simulate(self, *, unit_work: np.ndarray | None = None,
                 keep_finish_times: bool = False,
                 bound: float = math.inf) -> SimResult | None:
        """Machine-model timing of this schedule.

        Only the busy-wait modes keep per-iteration finish times, and
        only they honour ``bound`` (``None`` = the makespan exceeds it;
        see :func:`~repro.machine.simulator.simulate_self_executing`):
        the pre-scheduled model works a phase at a time, leaves
        ``finish`` unset and always returns its result.
        """
        if self.mode == "preschedule":
            return simulate_prescheduled(self.schedule, self.dep, self.costs,
                                         unit_work=unit_work)
        # A cold ``loop()`` runs, then simulates: walking the plan a
        # run already built probes and sorts the schedule once.  A
        # timing-only caller builds nothing.
        levels = self._levels if self.mode == "self" else None
        return simulate_self_executing(
            self.schedule, self.dep, self.costs, mode=self.mode,
            unit_work=unit_work, keep_finish_times=keep_finish_times,
            order=None if levels is None else (levels.order, levels.bounds),
            bound=bound,
        )

    def phases(self) -> list | None:
        """``phases()[w][p]``: processor ``p``'s share of barrier phase
        ``w`` (``None`` in the busy-wait modes)."""
        return self.schedule.phases() if self.mode == "preschedule" else None

    def run_threaded(self, kernel, *, timeout: float = 30.0,
                     timeline=None) -> np.ndarray:
        """Execute on real threads under the mode's own synchronization.

        ``timeline`` is an optional
        :class:`~repro.observe.TimelineRecorder` stamping every
        iteration's interval on its processor's lane.  A
        ``thread_safe = False`` kernel (the replay kernel, whose proxies
        keep per-iteration state) is refused: racing on it would
        corrupt numerics without any error.
        """
        if not getattr(kernel, "thread_safe", True):
            raise ValidationError(
                f"kernel {type(kernel).__name__} declares itself not "
                "thread-safe; run it on the 'serial' backend (or time "
                "it with loop.simulate())"
            )
        kernel.start()
        machine = ThreadedMachine(self.schedule.nproc, timeout=timeout)
        phases = self.phases()
        if phases is not None:
            machine.run_prescheduled(kernel, phases, timeline=timeline)
        else:
            machine.run_self_executing(kernel, self.schedule, self.dep,
                                       timeline=timeline)
        return kernel.result()

    def run_processes(self, kernel, *, timeout: float = 30.0) -> np.ndarray:
        """Execute on OS processes over shared memory, under the mode's
        own synchronization — for the paper's flagship workload, the
        sparse lower-triangular solve, alone."""
        from ..machine import processes  # deferred: import cycle

        if not isinstance(kernel, TriangularSolveKernel):
            raise ValidationError(
                "the 'processes' backend supports TriangularSolveKernel "
                f"workloads, got {type(kernel).__name__}"
            )
        phases = self.phases()
        if phases is not None:
            return processes.ProcessPrescheduledSolver(
                kernel.l, self.schedule, diag=kernel.diag).solve(
                    kernel.b, timeout=timeout, phases=phases)
        # Self-executing and doacross both busy-wait on ready flags;
        # doacross simply walks the identity schedule.
        solver = processes.ProcessSelfExecutingSolver(
            kernel.l, self.schedule, self.dep, diag=kernel.diag)
        return solver.solve(kernel.b, timeout=timeout)


class SerialExecutor:
    """Executes a kernel in original index order — the correctness oracle.

    Optionally verifies, against a dependence graph, that original
    order is legal (all dependences backward), which is the paper's
    start-time-schedulable precondition.
    """

    def __init__(self, dep: DependenceGraph | None = None):
        self.dep = dep

    def run(self, kernel: LoopKernel) -> np.ndarray:
        if self.dep is not None and not self.dep.all_backward:
            raise ScheduleError(
                "original order is illegal: a dependence points forward"
            )
        kernel.start()
        for i in range(kernel.n):
            kernel.execute_index(i)
        return kernel.result()
