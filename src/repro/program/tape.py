"""Tape-compiled replay — the run-time form of Figure 4's transformation.

The paper turns ``x(i) = x(i) + b(i) * x(ia(i))`` into a loop over
``xold`` by rewriting its source.  Here the rewrite happens at run
time, once per *structure*: the recording proxies keep the arithmetic
they see (:mod:`repro.program.recording`), every statement instance
files itself under its straight-line :class:`~repro.program.recording.
Shape`, and :class:`Tape` splits the shapes by which reads the
first-writer rule renames — giving a handful of *classes*, each one
generated function over ``instances × slots`` index matrices.  A
wavefront then runs class by class as fancy-index gather → numpy
ufuncs in the body's own operation order → scatter; a run of narrow
levels runs as one generated scalar loop.

Everything here depends on the access pattern and the bodies alone.
:class:`ReplayStructure` is the holder a :class:`~repro.program.
LoopProgram` shares with its ``with_data`` copies: first-writer table
and tape are built on first use, at most once, and a data-only
``rebind()`` rebuilds nothing.  Only correctly-rounded IEEE operations
are taped, so the three evaluators that can run a class — Python
floats, numpy scalars, ``float64`` arrays — agree bit for bit with the
proxy walk they replace.
"""

from __future__ import annotations

import numpy as np

from ..core.executor import FLAT_LEVEL, LevelPlan
from ..errors import ValidationError
from .recording import record_trace

__all__ = ["ReplayStructure", "Tape"]

#: First-writer position of an element nothing writes.
NEVER = np.iinfo(np.int64).max

#: A flat span runs over ``tolist()`` copies when it holds at least one
#: instance per this many array elements it would have to convert;
#: shorter spans index the arrays directly.  Converting costs ~15 ns an
#: element each way, list arithmetic saves ~105 ns an instance
#: (measured break-even ≈ 7).
LIST_SPAN = 8

_UNBUILT = object()


class ReplayStructure:
    """What replaying a program needs that its structure alone decides.

    One per resolved structure, shared by every data binding of it (the
    :class:`~repro.sparse.csr.CSRMatrix` pattern): replay kernels are
    rebuilt per binding and look everything up here.
    """

    def __init__(self, n: int, statements, resolved, names):
        self.n = int(n)
        self.statements = tuple(statements)
        self.resolved = resolved
        #: Names the bodies may touch: the bound data entries.
        self.names = tuple(names)
        #: Names of the arrays the program writes, declaration order.
        self.written = tuple(dict.fromkeys(
            acc.array for _, ww in resolved for acc in ww))
        #: The recording pass's traces, when the descriptors came from
        #: one (:meth:`LoopProgram.record`) — the tape is then built
        #: from them instead of a second pass over the bodies.
        self.traces = None
        #: Tapes and first-writer tables built so far (0 or 1 each).
        self.tape_builds = 0
        self.writer_builds = 0
        self._first: dict | None = None
        self._tape = _UNBUILT

    def adopt(self, parent: "ReplayStructure", members) -> None:
        """Take over ``parent``'s recorded traces for the statements
        ``members`` of it this structure carries (fission stages)."""
        if parent.traces is not None:
            self.traces = [parent.traces[j] for j in members]

    def first_writer(self) -> dict[str, np.ndarray]:
        """Per written array: element → earliest writer position
        ``i * S + s`` (:data:`NEVER` where nothing writes)."""
        if self._first is None:
            num = len(self.statements)
            events: dict[str, list] = {name: [] for name in self.written}
            for s, (_, ww) in enumerate(self.resolved):
                for acc in ww:
                    it, el = acc.pairs(self.n)
                    events[acc.array].append((el, it * num + s))
            first = {}
            for name, pairs in events.items():
                el = np.concatenate([p[0] for p in pairs])
                table = np.full(int(el.max()) + 1 if el.size else 0, NEVER,
                                dtype=np.int64)
                np.minimum.at(table, el, np.concatenate(
                    [p[1] for p in pairs]))
                first[name] = table
            self._first = first
            self.writer_builds += 1
        return self._first

    def tape(self) -> "Tape | None":
        """The program's tape; ``None`` when a body cannot be taped."""
        if self._tape is _UNBUILT:
            self.tape_builds += 1
            recorded, self.traces = self.traces, None
            traces = recorded or self._trace_bodies()
            if traces is None or any(t.shapes is None for t in traces):
                self._tape = None
            else:
                if recorded is None:  # recorded descriptors are the trace
                    self._check_declared(traces)
                self._tape = Tape(self.n, traces, self.first_writer())
        return self._tape

    def _trace_bodies(self):
        traces = []
        for st in self.statements:
            try:
                traces.append(record_trace(self.n, st.body, self.names))
            except Exception:
                # A body is arbitrary user code run over symbolic
                # values; whatever it raises, it means "cannot be
                # taped", and the proxy walk runs it on real data.
                return None
        return traces

    def _check_declared(self, traces) -> None:
        """Every store, and every read of a written array, a body really
        performs must be declared: extraction orders iterations by the
        declarations, so an undeclared access computes order-dependent
        results."""
        for s, (trace, (rr, ww)) in enumerate(zip(traces, self.resolved)):
            touched: dict[tuple, list] = {}
            for shape in trace.shapes:
                slots = [("reads", name, shape.read_elements[:, k])
                         for k, name in enumerate(shape.read_arrays)]
                slots += [("writes", name, shape.write_elements[:, k])
                          for k, (name, _) in enumerate(shape.writes)]
                for kind, name, el in slots:
                    if kind == "writes" or name in self.written:
                        touched.setdefault((kind, name), []).append(
                            (shape.iterations, el))
            for (kind, name), pairs in touched.items():
                it = np.concatenate([p[0] for p in pairs])
                el = np.concatenate([p[1] for p in pairs])
                declared = [acc.pairs(self.n)
                            for acc in (rr if kind == "reads" else ww)
                            if acc.array == name]
                width = 1 + max(int(d_el.max()) for _, d_el in
                                [(it, el), *declared] if d_el.size)
                known = np.concatenate(
                    [np.empty(0, dtype=np.int64),
                     *(d_it * width + d_el for d_it, d_el in declared)])
                stray = np.flatnonzero(~np.isin(it * width + el, known))
                if stray.size:
                    at = stray[np.argmin(it[stray])]
                    label = self.statements[s].name or f"#{s}"
                    raise ValidationError(
                        f"statement {label!r} {kind[:-1]}s {name}"
                        f"[{int(el[at])}] in iteration {int(it[at])}, "
                        f"which its At(...) {kind} do not declare; the "
                        "dependence analysis cannot order an access it "
                        "was not told about"
                    )


class _Class:
    """Statement instances of one shape and one renaming pattern.

    ``sources[k]`` is where read slot ``k`` gathers from — the
    ``("live", name)`` array or the ``("bound", name)`` one (``xold``
    for written arrays, the bound data for the rest).
    """

    def __init__(self, shape, rows: np.ndarray, sources: tuple):
        self.nodes = shape.nodes
        self.sources = sources
        self.stores = shape.writes
        self.iterations = shape.iterations[rows]
        self.reads = shape.read_elements[rows]
        self.writes = shape.write_elements[rows]
        constants = shape.constants[rows]
        #: Per constant slot: the value every instance shares, as source
        #: text, or ``None`` for a per-instance column.
        self.literals: list[str | None] = []
        #: Constant slot → its column in :attr:`constants`.
        self.column_of: dict[int, int] = {}
        for k in range(constants.shape[1]):
            column = constants[:, k]
            same = (column.view(np.int64) == column[:1].view(np.int64)).all()
            if same and np.isfinite(column[0]):
                self.literals.append(f"({float(column[0])!r})")
            else:
                self.literals.append(None)
                self.column_of[k] = len(self.column_of)
        self.constants = constants[:, list(self.column_of)]

    def columns(self, rows: np.ndarray) -> list[np.ndarray]:
        """The generated functions' per-instance arguments for ``rows``:
        read elements, constant columns, write elements — one
        contiguous array per slot."""
        out = []
        for matrix in (self.reads, self.constants, self.writes):
            out.extend(np.ascontiguousarray(matrix[rows].T))
        return out

    def emit(self, prefix: str, index: str, slot_of: dict) -> list[str]:
        """Source lines of one instance; ``index`` is ``"[k]"`` in the
        scalar loop and empty over whole columns."""
        lines, text = [], []
        stored = {node for _, node in self.stores}
        for j, node in enumerate(self.nodes):
            op = node[0]
            if op == "r":
                expr = (f"A{slot_of[self.sources[node[1]]]}"
                        f"[{prefix}R{node[1]}{index}]")
                if j in stored:
                    # Stores come last; a value read before them must
                    # not be re-read after one.
                    lines.append(f"{prefix}t{j} = {expr}")
                    expr = f"{prefix}t{j}"
            elif op == "c":
                expr = self.literals[node[1]]
                if expr is None:
                    expr = f"{prefix}C{self.column_of[node[1]]}{index}"
            elif op == "pos":
                expr = text[node[1]]
            else:
                if op == "neg":
                    value = f"-{text[node[1]]}"
                elif op == "abs":
                    value = f"abs({text[node[1]]})"
                else:
                    value = f"{text[node[1]]} {op} {text[node[2]]}"
                lines.append(f"{prefix}t{j} = {value}")
                expr = f"{prefix}t{j}"
            text.append(expr)
        for k, (name, node) in enumerate(self.stores):
            lines.append(f"A{slot_of[('live', name)]}[{prefix}W{k}{index}]"
                         f" = {text[node]}")
        return lines

    def arguments(self, prefix: str) -> list[str]:
        """Names of :meth:`columns`' entries in the generated source."""
        return ([f"{prefix}R{k}" for k in range(self.reads.shape[1])]
                + [f"{prefix}C{k}" for k in range(self.constants.shape[1])]
                + [f"{prefix}W{k}" for k in range(self.writes.shape[1])])


class Tape:
    """A program's taped classes and the functions generated from them."""

    def __init__(self, n: int, traces, first: dict):
        self.n = n
        num = len(traces)
        self.classes: list[_Class] = []
        #: Per statement: class and row within it of each iteration.
        self.class_of = np.zeros((num, n), dtype=np.int64)
        self.row_of = np.zeros((num, n), dtype=np.int64)
        #: Per array: the largest element any instance touches.
        self.extent: dict[str, int] = {}
        for s, trace in enumerate(traces):
            for shape in trace.shapes:
                self._classify(s, num, shape, first)
        #: Iterations alike in every statement share a *combination*;
        #: a scalar span walks them with one fused function.
        self.combos, self.combo_of = (
            np.unique(self.class_of.T, axis=0, return_inverse=True)
            if n else (np.empty((0, num), dtype=np.int64),
                       np.empty(0, dtype=np.int64)))
        self.combo_of = self.combo_of.reshape(-1)
        self._functions: dict[tuple, object] = {}

    def _classify(self, s: int, num: int, shape, first: dict) -> None:
        its = shape.iterations
        positions = its * num + s
        live = np.zeros(shape.read_elements.shape, dtype=bool)
        for k, name in enumerate(shape.read_arrays):
            el = shape.read_elements[:, k]
            self._extend(name, el)
            table = first.get(name)
            if table is not None:
                known = el < table.shape[0]
                live[known, k] = table[el[known]] < positions[known]
        for k, (name, _) in enumerate(shape.writes):
            self._extend(name, shape.write_elements[:, k])
        if live.shape[1]:
            patterns, which = np.unique(live, axis=0, return_inverse=True)
            which = which.reshape(-1)
        else:
            patterns, which = live[:1], np.zeros(its.shape[0], dtype=np.int64)
        for p, pattern in enumerate(patterns):
            rows = np.flatnonzero(which == p)
            sources = tuple(("live" if renamed else "bound", name)
                            for renamed, name in zip(pattern,
                                                     shape.read_arrays))
            cls = _Class(shape, rows, sources)
            self.class_of[s, cls.iterations] = len(self.classes)
            self.row_of[s, cls.iterations] = np.arange(rows.shape[0])
            self.classes.append(cls)

    def _extend(self, name: str, el: np.ndarray) -> None:
        if el.size:
            self.extent[name] = max(self.extent.get(name, -1), int(el.max()))

    def fits(self, data: dict) -> bool:
        """Whether the arrays bound in ``data`` can run the tape: every
        one it touches one-dimensional ``float64`` and long enough."""
        for name, top in self.extent.items():
            arr = data.get(name)
            if (arr is None or arr.dtype != np.float64 or arr.ndim != 1
                    or arr.shape[0] <= top):
                return False
        return True

    # ------------------------------------------------------------------
    # Generated functions
    # ------------------------------------------------------------------
    def function(self, classes: tuple, scalar: bool):
        """``run(A, K)`` over ``classes`` — one instance of each, in
        order.  ``A`` holds the arrays of ``run.sources``; ``K`` the
        classes' :meth:`_Class.columns`, as whole arrays, or (scalar)
        as ``lo, hi`` and lists the loop walks from ``lo`` to ``hi``.
        """
        key = (classes, scalar)
        fn = self._functions.get(key)
        if fn is None:
            members = [self.classes[c] for c in classes]
            sources = tuple(dict.fromkeys(
                [src for cls in members for src in cls.sources]
                + [("live", name) for cls in members
                   for name, _ in cls.stores]))
            slot_of = {src: k for k, src in enumerate(sources)}
            names, body = [], []
            for k, cls in enumerate(members):
                names += cls.arguments(f"s{k}_")
                body += cls.emit(f"s{k}_", "[k]" if scalar else "", slot_of)
            head = [f"{', '.join(f'A{k}' for k in range(len(sources)))}, = A"
                    ] if sources else []
            if scalar:
                head.append(f"{', '.join(['lo', 'hi', *names])}, = K")
                body = ["for k in range(lo, hi):",
                        *(f"    {line}" for line in body or ["pass"])]
            elif names:
                head.append(f"{', '.join(names)}, = K")
            source = "def run(A, K):\n" + "".join(
                f"    {line}\n" for line in head + body or ["pass"])
            scope: dict = {}
            exec(compile(source, "<tape>", "exec"), scope)
            fn = self._functions[key] = scope["run"]
            fn.sources = sources
            fn.written = tuple(dict.fromkeys(
                name for cls in members for name, _ in cls.stores))
            #: Python floats raise where numpy yields inf / nan.
            fn.divides = any(node[0] == "/" for cls in members
                             for node in cls.nodes)
        return fn

    # ------------------------------------------------------------------
    # Steps: a level plan compiled against the tape
    # ------------------------------------------------------------------
    def compile(self, levels: LevelPlan) -> list:
        """The calls that run ``levels``: a :class:`_Span` per span."""
        spans = levels.spans
        wide = [(a, b) for a, b, flat in spans if not flat]
        batched, clash = self._batched(levels, wide)
        out = []
        for a, b, flat in spans:
            if flat or clash[a:b].any():
                out.append(self._flat_span(levels, a, b))
            else:
                ops = [op for k in range(a, b) for op in batched.get(k, ())]
                out.append(_Span(False, ops))
        return out

    def _batched(self, levels: LevelPlan, wide: list):
        """Per level of the ``wide`` spans, its ``(function, columns)``
        calls — statement by statement, class by class — and the levels
        two iterations of which store into one element.

        Same-level iterations carry no flow, output or live-read anti
        edge, so gather-all → scatter-all per statement equals the
        serial walk exactly when a level's scatters are distinct; a
        level handed in without that property (a speculative chunk)
        must run in order instead.
        """
        clash = np.zeros(levels.num_levels, dtype=bool)
        if not wide:
            return {}, clash
        cuts = levels.cuts
        at = np.concatenate([np.arange(cuts[a], cuts[b]) for a, b in wide])
        its = np.asarray(levels.order, dtype=np.int64)[at]
        level = np.searchsorted(levels.bounds, at, side="right") - 1
        batched: dict[int, list] = {}
        stores: dict[str, list] = {}
        for s in range(self.class_of.shape[0]):
            cls_at = self.class_of[s, its]
            for c in np.unique(cls_at).tolist():
                cls = self.classes[c]
                mine = np.flatnonzero(cls_at == c)
                rows = self.row_of[s, its[mine]]
                columns = cls.columns(rows)
                for k, (name, _) in enumerate(cls.stores):
                    stores.setdefault(name, []).append(
                        (level[mine], cls.writes[rows, k], its[mine]))
                # ``order`` is level-major, so ``mine`` is too.
                edges = np.flatnonzero(np.diff(level[mine])) + 1
                edges = [0, *edges.tolist(), mine.shape[0]]
                listed = None
                for lo, hi in zip(edges[:-1], edges[1:]):
                    if hi - lo > FLAT_LEVEL:
                        op = (self.function((c,), False),
                              tuple(col[lo:hi] for col in columns))
                    else:
                        if listed is None:
                            listed = [col.tolist() for col in columns]
                        op = (self.function((c,), True), (lo, hi, *listed))
                    batched.setdefault(int(level[mine[lo]]), []).append(op)
        for parts in stores.values():
            lv, el, it = (np.concatenate(p) for p in zip(*parts))
            by = np.lexsort((el, lv))
            lv, el, it = lv[by], el[by], it[by]
            twice = ((lv[1:] == lv[:-1]) & (el[1:] == el[:-1])
                     & (it[1:] != it[:-1]))
            clash[lv[1:][twice]] = True
        return batched, clash

    def _flat_span(self, levels: LevelPlan, a: int, b: int) -> "_Span":
        """Levels ``a .. b-1`` as one in-order scalar walk: a call per
        run of iterations of one combination."""
        cuts = levels.cuts
        its = np.asarray(levels.order[cuts[a]:cuts[b]], dtype=np.int64)
        if not its.shape[0]:
            return _Span(True, [])
        combo = self.combo_of[its]
        starts = [0, *(np.flatnonzero(np.diff(combo)) + 1).tolist()]
        ends = [*starts[1:], its.shape[0]]
        ops = [None] * len(starts)
        first = combo[starts]
        for t in np.unique(combo).tolist():
            classes = tuple(self.combos[t].tolist())
            mine = np.flatnonzero(combo == t)
            listed = [col.tolist()
                      for s, c in enumerate(classes)
                      for col in self.classes[c].columns(
                          self.row_of[s, its[mine]])]
            fn = self.function(classes, True)
            for r in np.flatnonzero(first == t).tolist():
                lo = int(np.searchsorted(mine, starts[r]))
                ops[r] = (fn, (lo, lo + ends[r] - starts[r], *listed))
        return _Span(True, ops)


class _Span:
    """The calls of a run of levels.  A ``flat`` span is an in-order
    scalar walk and may run over list copies of its arrays."""

    def __init__(self, flat: bool, ops: list):
        self.flat, self.ops = flat, ops
        functions = list(dict.fromkeys(fn for fn, _ in ops))
        self.sources = tuple(dict.fromkeys(
            src for fn in functions for src in fn.sources))
        self.written = tuple(dict.fromkeys(
            name for fn in functions for name in fn.written))
        #: Instances a walk over lists would save time on.
        self.listable = 0 if not flat or any(
            fn.divides for fn in functions) else sum(
                K[1] - K[0] for _, K in ops)

    def run(self, kernel) -> None:
        if self.listable and self.listable * LIST_SPAN >= sum(
                kernel.array(src).shape[0] for src in self.sources):
            lists = {src: kernel.array(src).tolist() for src in self.sources}
            bound = {}
            for fn, K in self.ops:
                A = bound.get(fn)
                if A is None:
                    A = bound[fn] = tuple(lists[src] for src in fn.sources)
                fn(A, K)
            for name in self.written:
                kernel.live[name][:] = lists["live", name]
            return
        bound = kernel.bound
        for fn, K in self.ops:
            A = bound.get(fn)
            if A is None:
                A = bound[fn] = tuple(kernel.array(src) for src in fn.sources)
            fn(A, K)

