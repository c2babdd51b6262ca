"""Dependence extraction — access descriptors in, dependence graph out.

This is the front half of the paper's inspector made declarative: the
caller states *which elements* each iteration reads and writes, and the
extractor derives the iteration-level dependence graph that the
scheduling machinery consumes.  The semantics follow the transformed
loop of Figure 4 (the library's kernel contract):

* a read of element ``e`` at iteration ``i`` depends on the most
  recent *earlier* write of ``e`` (flow dependence) — a forward
  reference reads the original value (the ``xold`` renaming), so it
  carries no dependence;
* consecutive writes of the same element are chained (output
  dependence), which also orders every earlier writer transitively
  before any reader of the final value;
* a read that *does* have an earlier writer consumes the live value,
  which renaming cannot protect — such reads are additionally ordered
  before their element's next write (anti dependence).  Reads without
  an earlier writer are renamed to the snapshot, so they need no anti
  edge; for the single-identity-write programs of Figures 3/8 no
  element has a second writer and no anti edges arise at all.

All edges therefore point backwards, the paper's start-time
schedulable precondition, and the result is exactly
:meth:`DependenceGraph.from_lower_csr` for the Figure 8 program —
verified by the test-suite — and, built by that factory outright,
:meth:`DependenceGraph.from_indirection` for the Figure 3 program.
"""

from __future__ import annotations

import numpy as np

from ..core.dependence import DependenceGraph
from ..util.frontier import counts_to_indptr
from ..util.validation import read_only
from .descriptors import serial_events

__all__ = ["extract_statement_dependences"]


def _indirection_index(stmt_accesses):
    """``ia`` of the Figure 3 shape, else None: one statement, its only
    write ``x[i]``, and beside identity reads (never an edge) one
    fixed-width-1 read ``x[ia[i]]`` — a 1-D or one-column 2-D index."""
    if len(stmt_accesses) == 1 and len(stmt_accesses[0][1]) == 1:
        reads, (write,) = stmt_accesses[0]
        index = [a for a in reads if a.array == write.array and not a.identity]
        if write.identity and len(index) == 1 and index[0].width == 1:
            return index[0].indices
    return None


def _flow_edges_identity(read_it, read_el):
    """Fast path: a single identity write (each element ``e`` is written
    exactly once, at iteration ``e``) — the Figure 3/8 shape."""
    mask = read_el < read_it
    return read_it[mask], read_el[mask]


def _sorted_writes(n, write_it, write_el):
    """Write events in (element, iteration) order plus composite keys.

    The one O(e log e) sort of the extraction — shared by the flow and
    anti passes, which both binary-search the same ordering.
    """
    order = np.lexsort((write_it, write_el))
    w_el, w_it = write_el[order], write_it[order]
    stride = np.int64(n) + 1
    return w_el, w_it, w_el * stride + w_it, stride


def _flow_edges_general(read_it, read_el, w_el, w_it, w_key, stride):
    """Latest-earlier-writer lookup via one searchsorted.

    Returns ``(dst, src, live)`` where ``live`` masks the reads that
    found an earlier writer — the ones consuming a live value.
    """
    # Composite keys make "latest write of e strictly before i" a
    # single searchsorted: the candidate is the entry just left of
    # (e, i) in (element, iteration) order.
    r_key = read_el * stride + read_it
    pos = np.searchsorted(w_key, r_key) - 1
    valid = pos >= 0
    src = np.where(valid, w_it[np.maximum(pos, 0)], 0)
    src_el = np.where(valid, w_el[np.maximum(pos, 0)], -1)
    valid &= (src_el == read_el) & (src < read_it)
    return read_it[valid], src[valid], valid


def _anti_edges(read_it, read_el, w_el, w_it, w_key, stride):
    """Order each live read before its element's next write.

    Callers pass only the reads with an earlier writer; renamed
    original-value reads never need protecting.
    """
    r_key = read_el * stride + read_it
    # First write strictly after (e, i) in (element, iteration) order.
    pos = np.searchsorted(w_key, r_key, side="right")
    valid = pos < w_key.shape[0]
    sel = np.minimum(pos, max(w_key.shape[0] - 1, 0))
    valid &= (w_el[sel] == read_el) & (w_it[sel] > read_it)
    return w_it[sel][valid], read_it[valid]


def _output_edges(w_el, w_it):
    """Chain consecutive writes of the same element.

    Takes the write events already in (element, iteration) order.
    """
    same = (w_el[1:] == w_el[:-1]) & (w_it[1:] > w_it[:-1])
    return w_it[1:][same], w_it[:-1][same]


def _edges_general(n, read_it, read_el, write_it, write_el, *,
                   all_live=False):
    """Flow, anti and output edges ``(dst, src)`` of one written array;
    ``all_live`` protects every read, not only those with an earlier
    writer among the writes given (a caller that leaves writers out)."""
    if not write_it.size:
        return write_it, write_it
    w_el, w_it, w_key, stride = _sorted_writes(n, write_it, write_el)
    d_f, s_f, live = _flow_edges_general(read_it, read_el, w_el, w_it,
                                         w_key, stride)
    if not all_live:
        read_it, read_el = read_it[live], read_el[live]
    d_a, s_a = _anti_edges(read_it, read_el, w_el, w_it, w_key, stride)
    d_o, s_o = _output_edges(w_el, w_it)
    return np.concatenate((d_f, d_a, d_o)), np.concatenate((s_f, s_a, s_o))


def _distinct(keys):
    """``np.unique(keys)`` by a sort and an adjacent-difference mask —
    the same sorted array, without the hash table NumPy 2 builds for
    integer keys (an order of magnitude slower on Figure 3's 30 k
    pairs)."""
    keys = np.sort(keys)
    fresh = np.empty(keys.shape[0], dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _by_array(stmt_accesses, which: int) -> dict:
    """``{array: [(statement, access), ...]}`` over the reads
    (``which=0``) or writes (``which=1``) of every statement."""
    out: dict[str, list] = {}
    for s, accesses in enumerate(stmt_accesses):
        for acc in accesses[which]:
            out.setdefault(acc.array, []).append((s, acc))
    return out


def _minmax_by_stmt(num_stmts, n_el, pos, el, sentinel):
    """Per-(statement, element) min and max serial position of events."""
    lo = np.full((num_stmts, n_el), sentinel, dtype=np.int64)
    hi = np.full((num_stmts, n_el), -1, dtype=np.int64)
    flat = (pos % num_stmts) * np.int64(n_el) + el
    np.minimum.at(lo.reshape(-1), flat, pos)
    np.maximum.at(hi.reshape(-1), flat, pos)
    return lo, hi


def extract_statement_dependences(
    n: int,
    stmt_accesses: list,
) -> tuple[DependenceGraph, np.ndarray]:
    """Iteration-level graph plus statement adjacency of a statement list.

    The one extraction entry.  ``stmt_accesses`` is a sequence of
    ``(reads, writes)`` pairs of resolved accesses, one per statement;
    a flat declaration is the one-statement list, whose positions are
    its iterations and whose adjacency is the ``1 × 1`` zero.  Arrays
    that are only read contribute no dependences (their values never
    change); each written array contributes flow and anti edges from
    its readers and output edges between its writers.  Extraction runs
    over the *serial position* space ``pos = i * S + s`` (statement
    ``s`` of iteration ``i``), then collapses positions back to
    iterations.  Edges between statements of the *same* iteration are
    dropped — intra-iteration statement order is the kernel's own
    contract, not the scheduler's.

    The second result is the ``S × S`` boolean statement adjacency:
    ``adj[a, b]`` is True when some access of statement ``a`` conflicts
    with (same array, same element, at least one write) an access of
    statement ``b`` at a strictly later serial position — i.e. moving
    every instance of ``a`` after every instance of ``b`` would break
    serial semantics.  Unlike the iteration graph, the adjacency keeps
    anti conflicts of *renamed* reads too: per-iteration renaming
    protects a read inside one program, but not across a fission cut,
    so the legality relation must be conservative.
    """
    ia = _indirection_index(stmt_accesses)
    if ia is not None:  # Figure 3: one compare per iteration, no collapse
        return DependenceGraph.from_indirection(ia, n), np.zeros((1, 1), bool)
    num_stmts = len(stmt_accesses)
    big_n = n * num_stmts
    reads = _by_array(stmt_accesses, 0)

    none = np.empty(0, dtype=np.int64)
    dst_parts, src_parts = [none], [none]
    adj = np.zeros((num_stmts, num_stmts), dtype=bool)
    for name, w_accs in _by_array(stmt_accesses, 1).items():
        r_pos, r_el = serial_events(n, reads.get(name, ()), num_stmts)
        if num_stmts == 1 and len(w_accs) == 1 and w_accs[0][1].identity:
            # One statement whose only write of this array is ``x[i]``
            # (Figure 8's) — flow edges by comparison, nothing else.
            d, s = _flow_edges_identity(r_pos, r_el)
            dst_parts.append(d)
            src_parts.append(s)
            continue
        w_pos, w_el = serial_events(n, w_accs, num_stmts)
        d, s = _edges_general(big_n, r_pos, r_el, w_pos, w_el)
        dst_parts.append(d)
        src_parts.append(s)
        if num_stmts == 1:
            continue  # one statement conflicts with no other

        # --- statement adjacency (conservative, renaming-blind) --------
        n_el = int(max(w_el.max(initial=-1), r_el.max(initial=-1))) + 1
        sentinel = np.int64(big_n + 1)
        min_w, max_w = _minmax_by_stmt(num_stmts, n_el, w_pos, w_el,
                                       sentinel)
        min_r, max_r = _minmax_by_stmt(num_stmts, n_el, r_pos, r_el,
                                       sentinel)
        for a in range(num_stmts):
            for b in range(num_stmts):
                if a == b:
                    continue
                before = ((min_w[a] < max_w[b]) | (min_w[a] < max_r[b])
                          | (min_r[a] < max_w[b]))
                if before.any():
                    adj[a, b] = True

    dst = np.concatenate(dst_parts) // num_stmts
    src = np.concatenate(src_parts) // num_stmts
    keep = dst != src  # intra-iteration order is the kernel's job
    dst, src = dst[keep], src[keep]
    # Collapse duplicates; sorting the encoded pairs also yields
    # ascending dependences within each row, matching the canonical
    # from_indirection / from_lower_csr constructions.
    if dst.size:
        uniq = _distinct(dst * np.int64(n) + src)
        dst, src = uniq // n, uniq % n
    indptr = counts_to_indptr(np.bincount(dst, minlength=n))
    return (DependenceGraph(read_only(indptr), read_only(src), n,
                            check_acyclic=False), adj)
