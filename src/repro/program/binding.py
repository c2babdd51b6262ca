"""`LoopProgram` — declare once, execute many, rebind cheaply.

The paper's whole premise is that the *access pattern* is the run-time
input and everything else — dependence graph, schedule, execution — is
derived.  :class:`LoopProgram` makes that the API: declare ``n``, the
reads and writes (:class:`~repro.program.descriptors.At` descriptors),
and the kernel, and the program owns dependence extraction and kernel
binding.  Compiling through a :class:`~repro.runtime.Runtime` yields a
:class:`~repro.runtime.CompiledLoop` with the program and its kernel
already attached, whatever plan (scheduled, speculative, staged) the
session chose to run it::

    prog = LoopProgram.from_indirection(ia, x=x0, b=b)
    loop = rt.compile(prog)          # schedule + kernel, bound
    report = loop()                  # no kernel argument needed
    loop.rebind(x=x1)                # new data, zero inspector work
    report = loop()

``rebind`` is the paper's amortisation argument made first-class: new
*values* never pay for inspection, and a structure hash over the
descriptors' index arrays guards the reuse — rebinding an index array
(``rebind(ia=ia2)``) recompiles exactly when the indices actually
changed.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import ValidationError
from ..util.digest import structure_digest
from ..util.validation import as_float_array, read_only
from .descriptors import At, Statement
from .extraction import extract_statement_dependences
from .recording import StatementReplayKernel, record_trace
from .tape import ReplayStructure

__all__ = ["LoopProgram"]


def _frozen(value, name: str) -> np.ndarray:
    """A ``float64`` entry its owner's later writes never reach."""
    return read_only(as_float_array(value, name), value)


class LoopProgram:
    """A declarative loop: access patterns in, bound executable out.

    Parameters
    ----------
    n:
        Iteration count.
    reads / writes:
        :class:`~repro.program.descriptors.At` descriptors of every
        array access the body performs.  Descriptors with *named*
        indices resolve against ``data`` and are rebindable.
    kernel:
        Either a ready :class:`~repro.core.executor.LoopKernel`
        instance, or a factory called as ``kernel(**data)`` — the
        factory form is what makes ``loop.rebind`` possible.
        ``None`` declares a dependence-only program (compiling it
        yields an unbound loop that takes the kernel per call).
    data:
        Named arrays the kernel factory (and named indices) bind to.
    name:
        Optional label for reports and reprs.
    statements:
        Alternative to flat ``reads``/``writes``: a sequence of
        :class:`~repro.program.descriptors.Statement` objects giving
        the body statement-level structure.  Serial order interleaves
        statements (every statement of iteration ``i`` precedes every
        statement of iteration ``i+1``), and the transform layer
        (:mod:`repro.program.transform`) can fission along statement
        boundaries.  Statements carrying ``body`` callables make the
        program executable without an explicit kernel.
    shape:
        Optional ``(rows, cols)`` declaring the iteration space as a
        row-major 2-D grid (``rows * cols == n``); this is what makes
        the skew transform applicable.  Purely advisory — it never
        changes the dependence structure.
    """

    #: Duck-type marker, so the Runtime recognizes programs without
    #: importing this module.
    __loop_program__ = True
    #: Entries bound read-only (a writable array copied once when bound).
    _values = frozenset()

    def __init__(self, n: int, *, reads=(), writes=(), kernel=None,
                 data=None, name: str | None = None,
                 statements=None, shape=None):
        if n < 0:
            raise ValidationError("n must be non-negative")
        self.n = int(n)
        self.kernel = kernel
        self.data = dict(data or {})
        self.name = name
        if statements is not None:
            if reads or writes:
                raise ValidationError(
                    "pass either flat reads=/writes= or statements=, "
                    "not both"
                )
            if not statements:
                raise ValidationError("statements= must not be empty")
            self.statements = tuple(self._check_statement(s)
                                    for s in statements)
            self.reads = tuple(a for st in self.statements
                               for a in st.reads)
            self.writes = tuple(a for st in self.statements
                                for a in st.writes)
        else:
            self.reads = tuple(self._check_descriptor(d) for d in reads)
            self.writes = tuple(self._check_descriptor(d) for d in writes)
            self.statements = (Statement(reads=self.reads,
                                         writes=self.writes),)
        self.shape = self._check_shape(shape)
        # Validate every descriptor eagerly: mismatched lengths and
        # dangling index names must fail at declaration, not first use.
        self._resolve_all(self.data)
        self._dep = None
        self._stmt_adj = None
        self._hash: str | None = None

    def _resolve_all(self, data) -> None:
        # An index source is a value: a writable one is copied once, so
        # a caller refilling its buffer never reaches a compiled loop.
        for name in self.structural_names() & data.keys():
            value = data[name]
            data[name] = (tuple(read_only(np.asarray(a), a) for a in value)
                          if isinstance(value, tuple)
                          else read_only(np.asarray(value), value))
        self._stmt_resolved = [
            ([a.resolve(self.n, data) for a in st.reads],
             [a.resolve(self.n, data) for a in st.writes])
            for st in self.statements
        ]
        self._resolved_reads = [a for rr, _ in self._stmt_resolved
                                for a in rr]
        self._resolved_writes = [a for _, ww in self._stmt_resolved
                                 for a in ww]
        # How long a replaced entry must be (with_data): found when an
        # entry is first replaced, shared by every with_data copy.
        self._extents: dict[str, int] = {}
        # What replaying the bodies needs of the structure (first-writer
        # table, tape): built on first execution, shared by every
        # with_data copy, so compiled-and-discarded variants and
        # data-only rebinds never pay for it.
        self._replay = ReplayStructure(self.n, self.statements,
                                       self._stmt_resolved, data)

    @staticmethod
    def _check_descriptor(d) -> At:
        if not isinstance(d, At):
            raise ValidationError(
                f"reads/writes entries must be At(...) descriptors, got "
                f"{type(d).__name__}"
            )
        return d

    @staticmethod
    def _check_statement(s) -> Statement:
        if not isinstance(s, Statement):
            raise ValidationError(
                f"statements entries must be Statement instances, got "
                f"{type(s).__name__}"
            )
        return s

    def _check_shape(self, shape):
        if shape is None:
            return None
        shape = tuple(int(v) for v in shape)
        if len(shape) != 2 or shape[0] <= 0 or shape[1] <= 0:
            raise ValidationError(
                "shape must be a (rows, cols) pair of positive ints"
            )
        if shape[0] * shape[1] != self.n:
            raise ValidationError(
                f"shape {shape} does not cover n={self.n} iterations"
            )
        return shape

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def dependence_graph(self):
        """The extracted dependence graph (cached per structure)."""
        if self._dep is None:
            self._dep, self._stmt_adj = extract_statement_dependences(
                self.n, self._stmt_resolved)
        return self._dep

    def statement_adjacency(self) -> np.ndarray:
        """The ``S × S`` statement conflict adjacency (see
        :func:`~repro.program.extraction.extract_statement_dependences`).
        ``adj[a, b]`` True means statement ``a`` must not be moved
        wholly after statement ``b`` — the relation whose cycles bound
        what fission can split."""
        if self._stmt_adj is None:
            self.dependence_graph()
        return self._stmt_adj

    @property
    def num_statements(self) -> int:
        return len(self.statements)

    def unit_work(self, costs) -> np.ndarray:
        """Per-iteration work (model µs) priced from declared accesses.

        ``t_work_base`` per statement instance plus ``t_work_per_dep``
        per declared read — the access-level analogue of the
        simulator's dependence-count pricing.  The transform tuner uses
        this so *every variant of one program is priced from the same
        source*: dependence counts alone would let a fissioned stage
        hide the work of the statements it dropped.
        """
        w = np.zeros(self.n, dtype=np.float64)
        for rr, _ in self._stmt_resolved:
            w += costs.t_work_base
            for acc in rr:
                w += costs.t_work_per_dep * (np.diff(acc.indptr)
                                             if acc.width is None
                                             else acc.width)
        return w

    def structure_hash(self) -> str:
        """Digest of everything the dependence extraction consumes.

        Two programs with equal hashes have identical dependence
        structure; the hash is what ``loop.rebind`` checks
        before deciding a recompile is needed.  A single-statement
        program hashes like the flat declaration of the same accesses;
        multi-statement programs additionally fold in the statement
        boundaries, which change the interleaved-order extraction.
        A fixed-width access digests its ``indices`` alone, its width
        riding in the shape; only a ragged one digests its ``indptr``.
        """
        if self._hash is None:
            arrays, shape = [], [self.n]
            for kind, accs in (("r", self._resolved_reads),
                               ("w", self._resolved_writes)):
                for acc in accs:
                    shape.append((kind, acc.array, acc.identity, acc.width))
                    if acc.width is None:
                        arrays.append(acc.indptr)
                    if not acc.identity:
                        arrays.append(acc.indices)
            if len(self.statements) > 1:
                shape.append(tuple((len(rr), len(ww))
                                   for rr, ww in self._stmt_resolved))
            self._hash = structure_digest(arrays, tuple(shape))
        return self._hash

    def resolved_accesses(self):
        """The resolved read/write descriptors, as two tuples.

        This is the program's access pattern in CSR form — exactly
        what the speculative shadow logger
        (:class:`repro.speculate.AccessLog`) consumes, without any
        dependence extraction.
        """
        return tuple(self._resolved_reads), tuple(self._resolved_writes)

    def structural_names(self) -> frozenset:
        """Data-entry names that feed the dependence structure."""
        names = [d.index_name for d in self.reads + self.writes
                 if d.index_name is not None]
        return frozenset(names)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    @property
    def rebindable(self) -> bool:
        """Whether new data can reach execution.

        True for factory kernels (rebuilt per binding) and kernel-free
        programs; False for a ready-made kernel *instance*, whose
        captured arrays ``loop.rebind`` cannot replace.
        """
        return self.kernel is None or self._kernel_is_factory()

    def _kernel_is_factory(self) -> bool:
        return (callable(self.kernel)
                and not hasattr(self.kernel, "execute_index"))

    def make_kernel(self):
        """Instantiate the kernel against the currently bound data.

        An explicit ``kernel`` always wins; otherwise statements whose
        ``body`` callables are all present replay through a
        :class:`~repro.program.recording.StatementReplayKernel`.
        """
        if self.kernel is not None:
            if self._kernel_is_factory():
                return self.kernel(**self.data)
            return self.kernel
        bodied = sum(1 for st in self.statements if st.body is not None)
        if bodied == 0:
            return None
        if bodied != len(self.statements):
            raise ValidationError(
                "cannot execute a program with only some statement "
                "bodies bound; give every statement a body (or bind an "
                "explicit kernel)"
            )
        return StatementReplayKernel(self.n, self.statements,
                                     self._replay, self.data)

    def with_data(self, **arrays) -> "LoopProgram":
        """A new program with some data entries replaced.

        Unknown names fail eagerly, as does a replacement that is not an
        array long enough for the accesses declared on its entry.  When
        no structural entry (index source) is touched, the resolved
        descriptors, dependence graph and structure hash all carry over
        — a pure data swap costs one dict merge, nothing proportional to
        the problem size, which is what keeps per-iteration rebinding
        (the Krylov pattern) free.
        A touched index source re-resolves and re-extracts only if its
        values actually changed (checked by hash).
        """
        unknown = sorted(set(arrays) - set(self.data))
        if unknown:
            raise ValidationError(
                f"cannot rebind unknown data entries {unknown}; bound "
                f"entries are: {sorted(self.data)}"
            )
        for name, value in arrays.items():
            if name not in self._extents:
                self._extents[name] = max(
                    (self.n if acc.identity
                     else int(acc.indices.max(initial=-1)) + 1
                     for acc in self._resolved_reads + self._resolved_writes
                     if acc.array == name), default=0)
            need = self._extents[name]
            if need and (np.ndim(value) == 0 or len(value) < need):
                raise ValidationError(
                    f"data entry {name!r} must be an array of at least "
                    f"{need} elements (the declared accesses reach that "
                    f"far), got shape {np.shape(value)}")
        for name in self._values & arrays.keys():
            arrays[name] = _frozen(arrays[name], name)
        data = dict(self.data)
        data.update(arrays)
        fresh = copy.copy(self)
        fresh.data = data
        if set(arrays) & self.structural_names():
            fresh._resolve_all(data)
            fresh._dep = None
            fresh._stmt_adj = None
            fresh._hash = None
            if fresh.structure_hash() == self.structure_hash():
                fresh._dep = self._dep
                fresh._stmt_adj = self._stmt_adj
                fresh._replay = self._replay
        # else: no index source touched — the shallow copy already
        # shares the resolved structure, graph and hash wholesale.
        return fresh

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_indirection(cls, ia, *, x=None, b=None, n: int | None = None,
                         name: str | None = None) -> "LoopProgram":
        """The Figure 3 program ``x[i] = x[i] + b[i] * x[ia[i]]``.

        ``ia`` is bound as a *named* index, so ``rebind(ia=...)`` works
        (with the structure-hash guard deciding whether a recompile is
        due); ``x``/``b`` bind the kernel — omit them for a
        dependence-only program.
        """
        from ..core.executor import SimpleLoopKernel  # deferred: cycle

        ia = np.asarray(ia)
        if n is None:
            n = ia.shape[0]
        data = {"ia": ia}
        kernel = None
        if x is not None or b is not None:
            if x is None or b is None:
                raise ValidationError(
                    "from_indirection binds a kernel only when both x "
                    "and b are given (pass neither for dependences only)"
                )
            data["x"] = np.asarray(x, dtype=np.float64)
            data["b"] = np.asarray(b, dtype=np.float64)
            kernel = lambda x, b, ia: SimpleLoopKernel(x, b, ia)  # noqa: E731
        return cls(
            int(n),
            reads=(At("x", "ia"), At("b")),
            writes=(At("x"),),
            kernel=kernel,
            data=data,
            name=name or "figure3",
        )

    @classmethod
    def from_csr(cls, t, b=None, *, lower: bool = True, diag=None,
                 unit_diagonal: bool = False,
                 name: str | None = None) -> "LoopProgram":
        """The Figure 8 triangular-solve program over a CSR matrix.

        ``lower=False`` declares the backward substitution in the
        library's renumbered convention (iteration ``k`` solves row
        ``n-1-k``), so every scheduler applies unchanged.  ``b`` binds
        the right-hand side — the rebindable data of the Krylov
        pattern; omit it for a dependence-only program.

        The matrix *values* are bound as data entry ``"a"`` (and an
        explicit ``diag`` as ``"diag"``), so
        ``loop.rebind(a=new_values)`` swaps the numeric matrix on the
        same sparsity without rebuilding the program or touching the
        inspector — the ILU-refactorization pattern, where each
        refactorization changes values but never structure.  Both are
        values (:data:`_values`), read once per binding by a solve.
        """
        from ..core.executor import (  # deferred: cycle
            TriangularSolveKernel,
            UpperTriangularSolveKernel,
        )
        from ..util.frontier import counts_to_indptr

        n = t.nrows
        rows = t.row_of_nnz()
        if lower:
            strict = t.indices < rows
            it = rows[strict]
            el = t.indices[strict]
        else:
            strict = t.indices > rows
            it = n - 1 - rows[strict]
            el = n - 1 - t.indices[strict]
        order = np.argsort(it, kind="stable")
        indptr = counts_to_indptr(np.bincount(it, minlength=n))
        reads = (At("x", (read_only(indptr), read_only(el[order]))), At("b"))
        data = {"a": _frozen(t.data, "a")}
        if diag is not None:
            data["diag"] = _frozen(diag, "diag")
        kernel = None
        if b is not None:
            data["b"] = np.asarray(b, dtype=np.float64)
            kernel_cls = (TriangularSolveKernel if lower
                          else UpperTriangularSolveKernel)

            def kernel(b, a, diag=None):
                # Same sparsity, fresh values: rebinding "a" (or
                # "diag") rebuilds only this kernel, never the
                # dependence analysis — and with_data shares the
                # matrix's structure-derived arrays, so nothing
                # proportional to nnz is redone either.
                return kernel_cls(t.with_data(a), b, diag=diag,
                                  unit_diagonal=unit_diagonal)
        prog = cls(n, reads=reads, writes=(At("x"),), kernel=kernel, data=data,
                   name=name or f"figure8-{'lower' if lower else 'upper'}")
        prog._values = frozenset(("a", "diag"))
        return prog

    @classmethod
    def record(cls, n: int, body, *, name: str | None = None,
               shape=None, **arrays) -> "LoopProgram":
        """Trace-record ``body(i, arrays)`` into a program.

        The body runs once per iteration over recording proxies; every
        scalar element access becomes a descriptor, and execution
        replays the body over the real ``arrays`` with Figure 4
        renaming.  Bodies whose access pattern depends on array
        *values* (data-dependent branches, computed subscripts) raise
        :class:`~repro.errors.ValidationError` during recording.

        Passing a *sequence* of bodies records each into its own
        :class:`~repro.program.descriptors.Statement` — a
        multi-statement program (serial order interleaved) that the
        transform layer can fission; one body is the one-statement
        case.  The recording pass also hands the program what it saw of
        the arithmetic, so the replay tape costs no second pass.
        """
        bodies = [body] if callable(body) else list(body)
        traces = [record_trace(n, b, arrays.keys()) for b in bodies]
        statements = []
        for k, (b, trace) in enumerate(zip(bodies, traces)):
            reads, writes = trace.descriptors()
            statements.append(Statement(reads=reads, writes=writes,
                                        body=b, name=f"s{k}"))
        prog = cls(int(n), statements=statements, data=arrays,
                   name=name or "recorded", shape=shape)
        prog._replay.traces = traces
        return prog

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return (f"LoopProgram({label and label + ', '}n={self.n}, "
                f"reads={len(self.reads)}, writes={len(self.writes)}, "
                f"bound={self.kernel is not None})")
