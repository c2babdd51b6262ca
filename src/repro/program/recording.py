"""Trace recording — derive access descriptors by running the body once.

The fallback front end for loops nobody wants to describe by hand:
:func:`record_trace` executes the body one iteration at a time over
*proxy* arrays that log every element read and write, producing the
ragged access descriptors a :class:`~repro.program.LoopProgram` needs.
This is the paper's Section 2.2 source transformation done dynamically:
instead of parsing the loop, we observe it.

Recording is only sound when the access *pattern* does not depend on
array *values* — the same precondition the paper's inspector has.  The
proxies enforce it: using a traced value in a branch (``if x[i] > 0``),
as a subscript (``x[int(y[i])]``), or converting it to a Python scalar
raises :class:`~repro.errors.ValidationError` immediately, naming the
offense.  Loop bodies may freely branch on the iteration number or any
non-array state.

The same pass keeps what the proxies see of the *arithmetic*: a traced
value carries its expression (reads, constants, ``+ - * /``, unary
``-``, ``abs``), so every statement instance leaves a straight-line
shape behind, and instances of one shape are filed together with the
elements they touch.  :mod:`repro.program.tape` turns those shapes into
the kernels :class:`StatementReplayKernel` runs whole wavefronts with;
a body that does anything else to an array value leaves no shapes and
replays through the per-iteration proxies below, with the Figure 4
renaming applied automatically: a read whose earliest writer is a later
position returns the original value, so any legal reordering reproduces
the sequential result.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..core.executor import LevelPlan, LoopKernel, flat_walk
from ..errors import ValidationError
from ..util.frontier import counts_to_indptr
from ..util.validation import read_only
from .descriptors import At

__all__ = ["record_trace", "StatementTrace", "Shape",
           "StatementReplayKernel"]


_CONTROL_FLOW_MSG = (
    "data-dependent control flow: the loop body used an array value in "
    "a {what} while being trace-recorded.  Recording requires the "
    "access pattern to be independent of array values (the run-time "
    "inspector's precondition) — declare the accesses explicitly with "
    "At(...) descriptors instead"
)

#: The subscript case names its commonest cause and the fix it needs.
_SUBSCRIPT_MSG = _CONTROL_FLOW_MSG.format(what="subscript") + (
    " — or, if the subscript came from an integer index array bound as "
    "data (a.x[a.ia[i]]), leave that array unbound and close over it "
    "(a.x[ia[i]]): index arrays are structure, not values"
)

#: Integer constants convert to ``float`` exactly up to here.
_EXACT_INT = 2 ** 53


class _Traced:
    """Stand-in for an array value during recording.

    Arithmetic composes freely (the result is again traced); anything
    that would let a *value* steer control flow or indexing raises.
    ``_node`` numbers the value's expression in the tracer's node list
    of the statement instance ``_at`` — ``-1`` for a value the tape
    cannot express.
    """

    __slots__ = ("_tracer", "_node", "_at")

    #: numpy scalars defer to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, tracer: "_Tracer", node: int):
        self._tracer = tracer
        self._node = node
        self._at = tracer.serial

    def __bool__(self):
        raise ValidationError(_CONTROL_FLOW_MSG.format(what="branch condition"))

    def __index__(self):
        raise ValidationError(_SUBSCRIPT_MSG)

    def __int__(self):
        raise ValidationError(_CONTROL_FLOW_MSG.format(what="int() conversion"))

    def __float__(self):
        raise ValidationError(
            _CONTROL_FLOW_MSG.format(what="float() conversion"))

    def __iter__(self):
        raise ValidationError(_CONTROL_FLOW_MSG.format(what="iteration"))


def _taped(op: str, reflected: bool = False):
    if reflected:
        return lambda self, other: self._tracer.apply(op, other, self)
    return lambda self, *other: self._tracer.apply(op, self, *other)


def _opaque(self, *_other):
    return _Traced(self._tracer, -1)


# Only correctly-rounded IEEE operations go on the tape: Python floats,
# numpy scalars and float64 arrays then agree bit for bit.
for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"),
                   ("truediv", "/")):
    setattr(_Traced, f"__{_name}__", _taped(_op))
    setattr(_Traced, f"__r{_name}__", _taped(_op, reflected=True))
for _name in ("neg", "pos", "abs"):
    setattr(_Traced, f"__{_name}__", _taped(_name))
for _name in ("floordiv", "rfloordiv", "mod", "rmod", "pow", "rpow",
              "lt", "le", "gt", "ge", "eq", "ne"):
    setattr(_Traced, f"__{_name}__", _opaque)


def _as_constant(value) -> float | None:
    """``value`` as the ``float`` it acts as beside a ``float64``."""
    if isinstance(value, (float, np.float32, np.float16)):
        return float(value)
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -_EXACT_INT <= value <= _EXACT_INT):
        return float(value)
    return None


class Shape:
    """Statement instances with one straight-line shape.

    ``nodes`` is the instance's expression list in evaluation order —
    ``("r", slot)``, ``("c", slot)`` or ``(op, operand nodes…)`` —
    ``read_arrays[k]`` the array read slot ``k`` reads, ``writes`` the
    ``(array, node)`` stored per write slot.  The matrices hold one row
    per instance: its iteration, the elements its read and write slots
    touch, the values of its constant slots.
    """

    def __init__(self, nodes, read_arrays, writes):
        self.nodes = nodes
        self.read_arrays = read_arrays
        self.writes = writes
        self.iterations = array("q")
        self.read_elements = array("q")
        self.write_elements = array("q")
        self.constants = array("d")

    def pack(self) -> None:
        """Buffers → one ``instances × slots`` matrix each."""
        self.iterations = np.array(self.iterations, dtype=np.int64)
        m = self.iterations.shape[0]
        for name, dtype in (("read_elements", np.int64),
                            ("write_elements", np.int64),
                            ("constants", np.float64)):
            flat = np.array(getattr(self, name), dtype=dtype)
            setattr(self, name, flat.reshape(m, flat.shape[0] // m))


class _Tracer:
    """Per-pass recording state: which iteration is running, and the
    expression list of the statement instance in flight."""

    def __init__(self):
        self.iteration = 0
        #: Counts statement instances, so a traced value a body kept
        #: from an earlier iteration is recognised as foreign.
        self.serial = 0
        self.shapes: dict[tuple, Shape] = {}
        #: Set once the body stores a value the tape cannot express.
        self.rejected = False
        self._nodes: list[tuple] = []
        self._read_arrays: list[str] = []
        self._read_elements: list[int] = []
        self._constants: list[float] = []
        self._written: dict[tuple[str, int], int] = {}

    def _operand(self, value) -> int:
        if isinstance(value, _Traced):
            if value._tracer is self and value._at == self.serial:
                return value._node
            return -1
        constant = _as_constant(value)
        if constant is None:
            return -1
        self._constants.append(constant)
        self._nodes.append(("c", len(self._constants) - 1))
        return len(self._nodes) - 1

    def apply(self, op: str, *operands) -> _Traced:
        nodes = [self._operand(v) for v in operands]
        if min(nodes) < 0:
            return _Traced(self, -1)
        self._nodes.append((op, *nodes))
        return _Traced(self, len(self._nodes) - 1)

    def read(self, name: str, element: int) -> _Traced:
        # A read after a write of the same instance sees that value
        # (sequential body semantics), whatever the renaming rule says.
        forwarded = self._written.get((name, element))
        if forwarded is not None:
            return _Traced(self, forwarded)
        self._read_arrays.append(name)
        self._read_elements.append(element)
        self._nodes.append(("r", len(self._read_arrays) - 1))
        return _Traced(self, len(self._nodes) - 1)

    def write(self, name: str, element: int, value) -> None:
        node = self._operand(value)
        if node < 0:
            self.rejected = True
        self._written[(name, element)] = node  # the last store wins

    def close_instance(self) -> None:
        """File the finished instance under its shape."""
        if not self.rejected:
            key = (tuple(self._nodes), tuple(self._read_arrays),
                   tuple([(name, node)
                          for (name, _), node in self._written.items()]))
            shape = self.shapes.get(key)
            if shape is None:
                shape = self.shapes[key] = Shape(*key)
            shape.iterations.append(self.iteration)
            shape.read_elements.extend(self._read_elements)
            shape.write_elements.extend([e for _, e in self._written])
            shape.constants.extend(self._constants)
        self.serial += 1
        self._nodes, self._read_arrays, self._read_elements = [], [], []
        self._constants, self._written = [], {}


def _scalar_key(name: str, key) -> int:
    """A recordable subscript: one concrete integer element."""
    if isinstance(key, _Traced):
        raise ValidationError(_SUBSCRIPT_MSG)
    if isinstance(key, (bool, np.bool_)):
        raise ValidationError(
            f"array {name!r} was subscripted with a boolean while being "
            "trace-recorded; element indices must be integers"
        )
    try:
        k = int(key)
    except (TypeError, ValueError):
        raise ValidationError(
            f"array {name!r} was subscripted with {key!r} while being "
            "trace-recorded; only scalar integer element accesses are "
            "recordable"
        ) from None
    if k < 0:
        raise ValidationError(
            f"array {name!r} was subscripted with the negative index "
            f"{k} while being trace-recorded; use explicit non-negative "
            "element indices"
        )
    return k


class _RecordingArray:
    """Proxy that logs ``(iteration, element)`` read/write events."""

    __slots__ = ("name", "reads", "writes", "_tracer")

    def __init__(self, name: str, tracer: _Tracer):
        self.name = name
        self.reads: list[tuple[int, int]] = []
        self.writes: list[tuple[int, int]] = []
        self._tracer = tracer

    def __getitem__(self, key):
        element = _scalar_key(self.name, key)
        self.reads.append((self._tracer.iteration, element))
        return self._tracer.read(self.name, element)

    def __setitem__(self, key, value):
        element = _scalar_key(self.name, key)
        self.writes.append((self._tracer.iteration, element))
        self._tracer.write(self.name, element, value)


class _Namespace:
    """Attribute- and item-style access to one proxy per array name."""

    def __init__(self, arrays: dict):
        object.__setattr__(self, "_arrays", arrays)

    def __getattr__(self, name):
        try:
            return self._arrays[name]
        except KeyError:
            raise ValidationError(
                f"the loop body accessed an undeclared array {name!r}; "
                f"declared arrays are: {sorted(self._arrays)}"
            ) from None

    __getitem__ = __getattr__


class StatementTrace:
    """The outcome of one recording pass over one statement body."""

    def __init__(self, n: int, reads: dict, writes: dict, shapes):
        self.n = n
        #: name -> (indptr, indices) ragged element accesses.
        self.reads = reads
        self.writes = writes
        #: The body's :class:`Shape` list; ``None`` when it stores a
        #: value built from more than array reads, numeric constants,
        #: ``+ - * /``, unary ``-`` and ``abs``.
        self.shapes = shapes

    def descriptors(self) -> tuple[tuple[At, ...], tuple[At, ...]]:
        """``(reads, writes)`` descriptor tuples for a LoopProgram."""
        return (tuple(At(name, pair) for name, pair in self.reads.items()),
                tuple(At(name, pair) for name, pair in self.writes.items()))


def _pack(n: int, events: list[tuple[int, int]]):
    """(iteration, element) pairs → read-only ragged (indptr, indices)."""
    if not events:
        return (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    its = np.array([e[0] for e in events], dtype=np.int64)
    els = np.array([e[1] for e in events], dtype=np.int64)
    order = np.argsort(its, kind="stable")  # keep in-iteration order
    indptr = counts_to_indptr(np.bincount(its, minlength=n))
    return read_only(indptr), read_only(els[order])


def record_trace(n: int, body, array_names) -> StatementTrace:
    """Run ``body(i, arrays)`` once per iteration over recording proxies.

    ``body`` receives the iteration number and a namespace whose
    attributes (or items) are the declared arrays; every scalar element
    access is logged, and so is the arithmetic between them.  Returns
    the packed trace: descriptors and shapes from the one pass.
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    tracer = _Tracer()
    proxies = {name: _RecordingArray(name, tracer) for name in array_names}
    ns = _Namespace(proxies)
    for i in range(int(n)):
        tracer.iteration = i
        body(i, ns)
        tracer.close_instance()
    reads = {name: _pack(n, p.reads) for name, p in proxies.items() if p.reads}
    writes = {name: _pack(n, p.writes) for name, p in proxies.items() if p.writes}
    shapes = None
    if not tracer.rejected:
        shapes = list(tracer.shapes.values())
        for shape in shapes:
            shape.pack()
    return StatementTrace(int(n), reads, writes, shapes)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

class _ReplayArray:
    """Execution-time proxy with Figure 4 renaming.

    Reads whose element was first written at an *earlier* position see
    the live array; reads whose element is first written at this or a
    later position see the original snapshot (``xold``).  Writes always
    land in the live array.
    """

    __slots__ = ("live", "orig", "_first", "_kernel", "_now")

    def __init__(self, live, orig, first, kernel):
        self.live = live
        self.orig = orig
        self._first = first  # element -> earliest writer position
        self._kernel = kernel
        #: Elements written by the statement instance currently
        #: replaying — reads after them must see them (sequential body
        #: semantics), whatever the renaming rule says.
        self._now: set[int] = set()

    def __getitem__(self, key):
        e = int(key)
        if self.orig is None or e in self._now:
            return self.live[e]
        first = self._first
        if 0 <= e < len(first) and first[e] < self._kernel._current:
            return self.live[e]
        return self.orig[e]

    def __setitem__(self, key, value):
        e = int(key)
        self.live[e] = value
        if self.orig is not None:
            self._now.add(e)


_UNSET = object()


class StatementReplayKernel(LoopKernel):
    """Replays a program's statement bodies with position-level renaming.

    Iteration ``i`` runs every statement body in declaration order; the
    renaming granularity is the *serial position* ``i * S + s`` rather
    than the iteration, so a read sees the live value exactly when its
    element's earliest writer position precedes the reading position —
    the statement-interleaved generalization of Figure 4's ``xold``
    rule, and precisely the semantics the statement-level dependence
    extraction assumes.  The same kernel therefore serves a fissioned
    sub-program unmodified: the sub-program's own (shorter) statement
    list defines its own position space.

    Two ways to run, chosen by what the bodies and the bound arrays
    are.  Bodies the program's :class:`~repro.program.tape.Tape` can
    express, bound to one-dimensional ``float64`` arrays, run *taped*:
    :attr:`vectorized` is true and every batch entry point executes
    steps compiled from the tape (:meth:`compile_levels`).  Anything
    else — and :meth:`execute_index` always — replays the bodies over
    :class:`_ReplayArray` proxies, one iteration at a time.  Everything
    structural (tape, first-writer table) lives on ``structure``, which
    data-only rebinds share, so constructing a kernel costs one pass
    over the bound *names*.

    The proxies keep per-iteration state, so these kernels run on the
    ``serial`` and ``sim`` backends; ``thread_safe = False`` makes the
    ``threads`` backend reject them eagerly instead of racing.
    """

    thread_safe = False

    def __init__(self, n: int, statements, structure, data: dict):
        self.n = int(n)
        self._bodies = tuple(st.body for st in statements)
        self._S = len(self._bodies)
        self._structure = structure
        for name in structure.written:
            if name not in data:
                raise ValidationError(
                    f"program writes array {name!r} but no data was "
                    f"bound for it; bound entries: {sorted(data)}"
                )
        self._data = {k: np.asarray(v) for k, v in data.items()}
        self.live: dict[str, np.ndarray] = {}
        self._current = 0
        self._ns: _Namespace | None = None
        self._replays: list[_ReplayArray] = []
        self._tape = _UNSET
        #: The tape's generated functions → their arrays, this run.
        self.bound: dict = {}

    # ------------------------------------------------------------------
    @property
    def tape_builds(self) -> int:
        """Tapes the shared structure has built so far."""
        return self._structure.tape_builds

    def tape(self):
        """The tape this binding runs with, or ``None`` for the proxy
        walk (built on first use; see the class docstring)."""
        if self._tape is _UNSET:
            tape = self._structure.tape()
            if tape is not None and not tape.fits(self._data):
                tape = None
            self._tape = tape
        return self._tape

    @property
    def vectorized(self) -> bool:
        return self.tape() is not None

    def start(self) -> None:
        written = self._structure.written
        self.live = {name: np.array(self._data[name], copy=True)
                     for name in written}
        self._ns = None
        self.bound = {}

    # ------------------------------------------------------------------
    # The proxy walk: the fallback, and the reference the taped steps
    # are tested against.
    # ------------------------------------------------------------------
    def _proxies(self) -> _Namespace:
        first = self._structure.first_writer()
        arrays = {}
        self._replays = []
        for name, arr in self._data.items():
            live = self.live.get(name)
            if live is None:  # never written: the bound array, no xold
                live, arr, table = arr, None, None
            else:
                table = first[name].tolist()  # scalar lookups: a list
            arrays[name] = _ReplayArray(live, arr, table, self)
            if arr is not None:
                self._replays.append(arrays[name])
        return _Namespace(arrays)

    def execute_index(self, i: int) -> None:
        if self._ns is None:
            self._ns = self._proxies()
        base = i * self._S
        for s, body in enumerate(self._bodies):
            self._current = base + s
            for proxy in self._replays:
                proxy._now.clear()
            body(i, self._ns)

    # ------------------------------------------------------------------
    # Taped execution
    # ------------------------------------------------------------------
    def array(self, source: tuple[str, str]) -> np.ndarray:
        """The array behind one ``(kind, name)`` source of the tape."""
        kind, name = source
        if kind == "live":
            return self.live[name]
        return self._data[name]

    def gather_key(self) -> tuple:
        return (self._structure,)

    def compile_levels(self, levels: LevelPlan):
        return self.tape().compile(levels)

    def execute_levels(self, levels: LevelPlan, gather=None,
                       lo: int = 0, hi: int | None = None) -> None:
        gather.run(self, levels, lo, hi)

    def execute_batch(self, idx: np.ndarray) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        tape = self.tape()
        if tape is None:
            flat_walk(self, idx)
            return
        one_level = LevelPlan(idx, np.array([0, idx.shape[0]]))
        tape.compile(one_level).run(self, one_level, 0, 1)

    def result(self):
        if len(self.live) == 1:
            return next(iter(self.live.values()))
        return dict(self.live)
