"""Shadow-memory conflict detection — the speculative third leg.

The classic pipeline pays a mandatory wavefront sweep before anything
executes.  Speculation inverts the order: run first, then check.  The
check is what this module provides, LRPD-style, fully vectorized:

* the loop's element accesses are flattened into *event* arrays — one
  ``(iteration, element)`` pair per read and per write — either taken
  directly from a :class:`~repro.program.LoopProgram`'s resolved
  descriptors (no dependence extraction at all) or synthesized from an
  existing :class:`~repro.core.dependence.DependenceGraph`;
* a single pass scatters the writes into one per-element *shadow
  array*, the earliest writer, then one gather/compare flags the
  *violated* iterations — the ones whose optimistic execution may have
  consumed or produced a wrong value.  When the writes are the
  identity (``x[i] = ...``, Figures 3 and 8) element ``e`` has the one
  writer ``e``, so a single compare of each read's element against its
  iteration does it, with no shadow array at all.

An iteration ``i`` is violated when

* **stale read** — it reads an element some earlier iteration writes
  (``first_write[e] < i``): under unordered execution the read may
  see the unwritten (or mid-flight) value;
* **write-after-write** — it writes an element an earlier iteration
  also writes (``first_write[e] < i``): last-writer-wins is not
  guaranteed without ordering.

Reads with *no* earlier writer are safe under the library's kernel
contract (Figure 4 renaming: such reads consume the ``xold`` snapshot,
which no execution order can perturb) — exactly the reads the
dependence extractor leaves edge-free.  So the violated set is the
whole repair set: an unflagged iteration is the first writer of every
element it writes, and every later reader or writer of that element
is flagged, so running the flagged iterations after the rest, in their
own dependence order, gives each element its serial access sequence.

The scan costs a handful of O(events) numpy operations — typically an
order of magnitude cheaper than the wavefront sweep plus schedule sort
it replaces, which is the whole economic argument for speculation on
rarely-dependent loops.  :func:`repro.core.reference.speculation_violations`
is the pure-Python oracle the property suite checks this module
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..program.descriptors import serial_events
from ..util.digest import structure_digest
from ..util.validation import read_only

__all__ = ["AccessLog", "ShadowScan", "scan_accesses"]


@dataclass(frozen=True)
class AccessLog:
    """Flattened element-access events of one loop.

    ``(read_it[k], read_el[k])`` means iteration ``read_it[k]`` reads
    element ``read_el[k]`` of the written array; likewise for writes.
    Only accesses of *written* arrays appear — reads of read-only
    arrays can never conflict (their values never change), mirroring
    the dependence extractor.  A program's log shares one read-only
    ``arange(n)`` and borrows the declared index: Figure 3's is
    ``read_it is write_it is write_el`` plus ``ia``.
    """

    #: Iteration count of the loop.
    n: int
    #: Size of the shadow element space (max touched element + 1).
    n_elements: int
    read_it: np.ndarray
    read_el: np.ndarray
    write_it: np.ndarray
    write_el: np.ndarray
    #: True when the writes are exactly ``x[i] = ...``: ``write_it ==
    #: write_el == arange(n)`` — the Figure 3/8 shape, whose scan needs
    #: no shadow array.
    identity_writes: bool = False
    #: One read per iteration (a lone width-1 access): counts are ones.
    one_read: bool = False
    #: The program or dependence graph the events were read off
    #: (``None`` for a hand-built log) — see :meth:`structure_id`.
    source: object | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def structure_id(self) -> str:
        """Identity of the structure behind the events.

        The source's own memoised identity — a program's
        ``structure_hash()``, a graph's ``digest`` — asked for here,
        not while logging, so a compile that never keys the log never
        hashes.  Either covers everything the events were derived from,
        so equal ids imply equal events; a hand-built log digests its
        four arrays.
        """
        source = self.source
        if source is None:
            return structure_digest(
                (self.read_it, self.read_el, self.write_it, self.write_el),
                (self.n, self.n_elements))
        if getattr(source, "__loop_program__", False):
            return "program:" + source.structure_hash()
        return "graph:" + source.digest

    @property
    def num_events(self) -> int:
        return int(self.read_it.shape[0] + self.write_it.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of the event log (the speculation's shadow footprint),
        each distinct buffer once (identity writes share one)."""
        arrays = (self.read_it, self.read_el, self.write_it, self.write_el)
        return int(sum({id(a): a.nbytes for a in arrays}.values()))

    def range_counts(self, bounds: np.ndarray) -> tuple:
        """``(reads, writes)`` per iteration range ``[lo, hi)`` of the
        ``(k, 2)`` array ``bounds`` (non-empty ranges, any order): the
        range lengths for a one-read log's reads and an identity log's
        writes, with no pass over the events; otherwise one ``bincount``
        summed per range by ``reduceat`` over the interleaved bounds."""
        lengths = bounds[:, 1] - bounds[:, 0]
        return tuple(
            lengths if one_each else np.add.reduceat(
                np.bincount(it, minlength=self.n + 1), bounds.ravel())[::2]
            for it, one_each in ((self.read_it, self.one_read),
                                 (self.write_it, self.identity_writes)))

    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, program) -> "AccessLog":
        """Events straight from a program's resolved descriptors.

        No dependence extraction happens here — this is the
        no-inspection entry point.  Programs writing more than one
        array fall back to :meth:`from_dependences` at the call site.
        """
        reads, writes = program.resolved_accesses()
        written = {acc.array for acc in writes}
        if len(written) != 1:
            raise ValidationError(
                "speculative execution requires a program writing exactly "
                f"one array, got {sorted(written) or '(none)'}"
            )
        n = int(program.n)
        every = read_only(np.arange(n, dtype=np.int64))
        read = [(0, a) for a in reads if a.array in written]
        w_it, w_el = serial_events(n, [(0, a) for a in writes], every=every)
        r_it, r_el = serial_events(n, read, every=every)
        return cls(
            n=n,
            n_elements=_element_space(n, r_el, w_el),
            read_it=r_it, read_el=r_el,
            write_it=w_it, write_el=w_el,
            identity_writes=len(writes) == 1 and writes[0].identity,
            one_read=len(read) == 1 and read[0][1].width == 1,
            source=program,
        )

    @classmethod
    def from_dependences(cls, dep) -> "AccessLog":
        """Synthesize events from an iteration-level dependence graph.

        Edge ``i -> j`` becomes "iteration ``i`` reads element ``j``";
        every iteration writes its own element — precisely the Figure 3
        convention, so the violated set equals the set of iterations
        with at least one incoming dependence.
        """
        n = int(dep.n)
        ident = np.arange(n, dtype=np.int64)
        return cls(
            n=n,
            n_elements=n,
            read_it=dep.edge_rows.astype(np.int64, copy=False),
            read_el=dep.indices.astype(np.int64, copy=False),
            write_it=ident, write_el=ident,
            identity_writes=True,
            source=dep,
        )

    @classmethod
    def from_source(cls, source) -> "AccessLog":
        """Events from any dependence source the runtime accepts.

        Programs use their declared accesses directly (no extraction)
        unless they write several arrays; everything else normalizes
        through :meth:`Inspector.dependences_of
        <repro.core.inspector.Inspector.dependences_of>` — still no
        wavefront sweep, no schedule sort.
        """
        if getattr(source, "__loop_program__", False):
            try:
                return cls.from_program(source)
            except ValidationError:
                return cls.from_dependences(source.dependence_graph())
        from ..core.inspector import Inspector  # deferred: import cycle

        return cls.from_dependences(Inspector.dependences_of(source))


def _element_space(n: int, r_el: np.ndarray, w_el: np.ndarray) -> int:
    m = n
    if r_el.size:
        m = max(m, int(r_el.max()) + 1)
    if w_el.size:
        m = max(m, int(w_el.max()) + 1)
    return m


# ----------------------------------------------------------------------
# The vectorized shadow scan
# ----------------------------------------------------------------------

@dataclass
class ShadowScan:
    """Outcome of one conflict-detection pass.

    The one shadow array is the per-element earliest writer, sentinel
    ``n`` ("never").  A scan of identity writes keeps no shadow:
    ``first_write`` is ``None`` (element ``e`` has the one writer ``e``).
    """

    #: Violated-iteration mask, length ``n``.
    violated: np.ndarray
    #: ``(iterations, elements)`` of the stale reads: the live ones;
    #: ``None`` once the executor's level plan has read them.
    stale: tuple | None
    #: Per-element earliest writer (sentinel ``n``).
    first_write: np.ndarray | None = None

    @property
    def num_violated(self) -> int:
        return int(np.count_nonzero(self.violated))

    @property
    def nbytes(self) -> int:
        return int(sum(a.nbytes for a in (self.violated, self.first_write)
                       if a is not None))


def scan_accesses(log: AccessLog) -> ShadowScan:
    """Flag the iterations an unordered execution of ``[0, n)`` may
    have computed wrongly.

    Identity writes take one compare and allocate no shadow: element
    ``e < n`` has the one writer ``e``, so a read is stale exactly when
    ``read_el < read_it`` (an element ``>= n`` has no writer, and
    ``read_it < n``).
    """
    n, m = log.n, log.n_elements
    violated = np.zeros(n, dtype=bool)
    r_it, r_el = log.read_it, log.read_el
    if log.identity_writes:
        first_write, stale = None, r_el < r_it
    else:
        first_write = np.full(m, n, dtype=np.int64)
        w_it, w_el = log.write_it, log.write_el
        np.minimum.at(first_write, w_el, w_it)
        violated[w_it[first_write[w_el] < w_it]] = True   # WAW
        stale = first_write[r_el] < r_it
    stale = (r_it[stale], r_el[stale])
    violated[stale[0]] = True
    return ShadowScan(violated=violated, stale=stale,
                      first_write=first_write)
