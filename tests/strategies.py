"""Input generators shared by the property suites.

Hypothesis strategies (random dependence graphs, indirection arrays,
triangular systems, straight-line statement bodies, loop programs of
every kind and the strategies and tiers that compile and run them) and
the seeded program builders their drawn parameters feed.  One
definition each: a property that wants a narrower or wider input passes
an argument, it does not keep a copy.  This is the one module that
defines a ``@st.composite``.
"""

import numpy as np
from hypothesis import strategies as st

from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.core.schedule import global_schedule, identity_schedule, local_schedule
from repro.core.wavefront import compute_wavefronts, compute_wavefronts_general
from repro.krylov.ilu import symbolic_ilu
from repro.machine.costs import MachineCosts
from repro.mesh.problems import get_problem
from repro.program import At, Statement
from repro.sparse.build import csr_from_dense, random_lower_triangular
from repro.sparse.csr import CSRMatrix
from repro.workload.generator import generate_workload

EXECUTORS = ("self", "preschedule", "doacross")

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ----------------------------------------------------------------------
# Dependence structure
# ----------------------------------------------------------------------

@st.composite
def indirection_arrays(draw, max_n=60):
    """An (x0, b, ia) triple defining a Figure 3 loop."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ia = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1),
                 min_size=n, max_size=n)
    )
    rng = np.random.default_rng(draw(seeds))
    return rng.standard_normal(n), rng.standard_normal(n), np.array(ia)


@st.composite
def backward_dags(draw, max_n=50, unique=True, min_n=1):
    """A random backward-only dependence graph; ``unique=False`` lets
    an iteration name one predecessor twice (duplicate edges), and
    ``min_n=0`` admits the empty graph."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 0:
        return DependenceGraph(np.zeros(1, dtype=np.int64),
                               np.empty(0, dtype=np.int64), 0)
    edges = []
    for i in range(1, n):
        k = draw(st.integers(min_value=0, max_value=min(i, 3)))
        if k:
            deps = draw(
                st.lists(st.integers(min_value=0, max_value=i - 1),
                         min_size=k, max_size=k, unique=unique)
            )
            edges.extend((i, j) for j in deps)
    return DependenceGraph.from_edges(edges, n)


@st.composite
def general_dags(draw, max_n=50, unique=True):
    """An arbitrary DAG: a backward DAG relabelled by a random
    permutation, so edges point forwards and backwards but never
    cycle."""
    base = draw(backward_dags(max_n=max_n, unique=unique))
    perm = np.random.default_rng(draw(seeds)).permutation(base.n)
    edges = np.column_stack((perm[base.edge_rows], perm[base.indices]))
    return DependenceGraph.from_edges(edges, base.n)


def poll_costs(t_poll: float) -> MachineCosts:
    """A cost model of round numbers with poll quantum ``t_poll``."""
    return MachineCosts(
        t_work_base=1.0, t_work_per_dep=0.5, t_sync_base=0.0,
        t_sync_per_proc=0.0, t_check=0.25, t_inc=0.125,
        t_sched_access=0.375, t_poll=t_poll, contention_alpha=0.01,
    )


def schedule_for(draw, dep, kind: str, nproc: int):
    """A ``"global"``, ``"local"`` (drawn owners) or ``"identity"``
    schedule of ``dep`` (``draw`` is a hypothesis draw)."""
    wf = (compute_wavefronts(dep) if dep.all_backward
          else compute_wavefronts_general(dep))
    if kind == "global":
        return global_schedule(wf, nproc)
    if kind == "local":
        owner = np.random.default_rng(
            draw(st.integers(min_value=0, max_value=2**31 - 1))
        ).integers(0, nproc, dep.n)
        return local_schedule(wf, owner, nproc)
    return identity_schedule(wf, nproc)


@st.composite
def simulations(draw, max_n=40):
    """``(schedule, dep, costs, mode, unit_work)`` of a self-executing
    or doacross simulation: a backward (possibly empty) or general DAG
    with duplicate edges, a global, local or — on backward graphs, where
    it cannot deadlock — identity schedule on 1 to 8 processors (so
    often more processors than iterations), a poll quantum of 0, 0.7
    or 3, and the default work or a drawn one of either sign."""
    general = draw(st.booleans())
    dep = draw(general_dags(max_n=max_n, unique=False) if general
               else backward_dags(max_n=max_n, unique=False, min_n=0))
    kind = draw(st.sampled_from(("global", "local") if general
                                else ("global", "local", "identity")))
    schedule = schedule_for(draw, dep, kind, draw(st.integers(1, 8)))
    costs = poll_costs(draw(st.sampled_from((0.0, 0.7, 3.0))))
    unit_work = (np.random.default_rng(draw(seeds)).uniform(-2.0, 5.0, dep.n)
                 if draw(st.booleans()) else None)
    return (schedule, dep, costs, draw(st.sampled_from(("self", "doacross"))),
            unit_work)


#: Schedules of :func:`wide_case`: global (wrapped, greedy) or local
#: over wrapped, blocked, drawn or all-on-processor-0 owners.
WIDE_KINDS = ("wrapped", "greedy", "local", "blocked", "drawn", "one")


def wide_case(n: int, nproc: int, kind: str, t_poll: float,
              signed_work: bool, mode: str, seed: int):
    """A :func:`simulations` tuple whose plan is whole wavefronts
    hundreds of iterations wide — what the simulator walks a level at a
    time: a Figure 3 graph of ``n`` iterations (its ≈ log n wavefronts
    average far more than 128 for ``n`` in the thousands) under a
    :data:`WIDE_KINDS` schedule, a poll quantum of ``t_poll``, and the
    default work or, with ``signed_work``, a drawn one of either sign."""
    rng = np.random.default_rng(seed)
    dep = DependenceGraph.from_indirection(rng.integers(0, n, size=n))
    wf = compute_wavefronts(dep)
    if kind in ("wrapped", "greedy"):
        schedule = global_schedule(wf, nproc, balance=kind)
    else:
        owner = {"local": np.arange(n) % nproc,
                 "blocked": np.arange(n) * nproc // n,
                 "drawn": rng.integers(0, nproc, n),
                 "one": np.zeros(n, dtype=np.int64)}[kind]
        schedule = local_schedule(wf, owner, nproc)
    unit_work = rng.uniform(-2.0, 5.0, n) if signed_work else None
    return schedule, dep, poll_costs(t_poll), mode, unit_work


@st.composite
def wide_simulations(draw):
    """A :func:`wide_case` of 2 500 to 4 000 iterations on 1 to 16
    processors, a poll quantum of 0, 0.7 or 7, either mode."""
    return wide_case(draw(st.integers(2_500, 4_000)), draw(st.integers(1, 16)),
                     draw(st.sampled_from(WIDE_KINDS)),
                     draw(st.sampled_from((0.0, 0.7, 7.0))),
                     draw(st.booleans()),
                     draw(st.sampled_from(("self", "doacross"))), draw(seeds))


def waiting_level(width: int, before: int = 1, nproc: int = 1):
    """``(schedule, dep, unit_work)`` of ``before + 1`` wavefronts of
    ``width`` where nothing waits until the last: column ``k`` of the
    first ``before`` runs on processor ``k % nproc`` (work 2 each), each
    iteration reading the one above it, so every operand finished on
    its reader's processor; processor ``nproc`` runs the last wavefront
    (work 1 each), iteration ``k`` of which reads column ``k``'s last.
    Its first iteration busy-waits; with the defaults (two wavefronts,
    one processor before the last) every one does — iteration ``k`` is
    ready at ``2(k + 1)``, about one unit after its predecessor
    finished (under :func:`poll_costs`, whose overheads stay well below
    that unit)."""
    cols = np.arange(width, dtype=np.int64)
    rows = np.arange(width, (before + 1) * width, dtype=np.int64)
    dep = DependenceGraph.from_edges(np.column_stack((rows, rows - width)),
                                     (before + 1) * width)
    owner = np.append(np.tile(cols % nproc, before), np.full(width, nproc))
    schedule = local_schedule(compute_wavefronts(dep), owner, nproc + 1)
    return schedule, dep, np.repeat([2.0, 1.0], [before * width, width])


@st.composite
def late_waits(draw):
    """A :func:`simulations` tuple of a :func:`waiting_level` whose first
    busy-wait falls in a drawn level, 1 to 6, after wait-free levels of
    200 to 600 iterations on 1 to 8 processors — wide enough for the
    level walk — under a poll quantum of 0, 0.7 or 7, either mode."""
    schedule, dep, unit_work = waiting_level(
        draw(st.integers(200, 600)), draw(st.integers(1, 6)),
        draw(st.integers(1, 8)))
    return (schedule, dep, poll_costs(draw(st.sampled_from((0.0, 0.7, 7.0)))),
            draw(st.sampled_from(("self", "doacross"))), unit_work)


@st.composite
def owned_wavefronts(draw):
    """``(owner, wf, nproc)`` for building local lists: up to 300
    iterations on up to 300 processors, wavefront numbers from a narrow
    band to ones whose ``owner · span + wavefront`` key needs more than
    16 bits — sometimes not starting at zero."""
    n = draw(st.integers(0, 300))
    nproc = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(seeds))
    span = draw(st.sampled_from((1, 3, 40, 300, 2**20)))
    wf = rng.integers(0, span, n) + draw(st.sampled_from((0, 7)))
    return rng.integers(0, nproc, n), wf.astype(np.int64), nproc


@st.composite
def bounds_near(draw, total: float):
    """A bound at, one ulp either side of, or anywhere around ``total``
    — or none (``inf``)."""
    return draw(st.sampled_from((
        total, np.nextafter(total, -np.inf), np.nextafter(total, np.inf),
        0.0, -1.0, total - abs(total) * draw(st.floats(0.0, 2.0)),
        total * draw(st.floats(0.0, 1.0)), np.inf)))


@st.composite
def tuner_graphs(draw):
    """A dependence graph to search: a small backward DAG (the final
    rung alone), or a Table 5 synthetic mesh large enough for one
    (33 × 33) or both (65 × 65) pruning rungs."""
    mesh = draw(st.sampled_from((None, 33, 65)))
    if mesh is None:
        return draw(backward_dags())
    matrix = generate_workload(f"{mesh}-4-3", seed=draw(seeds)).matrix
    return DependenceGraph.from_lower_csr(matrix)


@st.composite
def nested_indirections(draw, max_n=30, max_m=4):
    """A Figure 6 nested indirection array ``g`` of shape (n, m)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    return np.random.default_rng(draw(seeds)).integers(0, n, size=(n, m))


@st.composite
def lower_systems(draw):
    """A random sparse lower-triangular system ``(l, b)``."""
    n = draw(st.integers(min_value=1, max_value=40))
    avg = draw(st.floats(min_value=0.0, max_value=4.0))
    seed = draw(seeds)
    l = random_lower_triangular(n, avg_off_diag=avg, seed=seed)
    b = np.random.default_rng(seed ^ 0xABCDEF).standard_normal(n)
    return l, b


@st.composite
def spd_matrices(draw):
    """A random sparse symmetric, strictly diagonally dominant matrix
    (so every incomplete factorization of it has non-zero pivots)."""
    n = draw(st.integers(min_value=2, max_value=25))
    rng = np.random.default_rng(draw(seeds))
    dense = rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.2] = 0.0
    sym = (dense + dense.T) / 2
    sym += np.diag(np.abs(sym).sum(axis=1) + 1.0)
    return csr_from_dense(sym)


@st.composite
def sparse_dense_pairs(draw):
    """A small dense array with about half its entries zeroed."""
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=12))
    dense = np.random.default_rng(draw(seeds)).standard_normal((rows, cols))
    dense[np.abs(dense) < 0.8] = 0.0
    return dense


@st.composite
def csr_matrices(draw, max_dim=6):
    """``(matrix, dense)``: a small CSR matrix exactly as drawn —
    unsorted rows, repeated columns, empty rows, a single column, no
    rows at all, ``nrows != ncols`` — beside the dense array of the
    same triples (repeats summed), accumulated here one entry at a
    time so that it owes nothing to the class under test."""
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    columns = st.lists(st.integers(min_value=0, max_value=ncols - 1),
                       max_size=ncols + 2)
    indptr, indices = [0], []
    for _ in range(nrows):
        indices.extend(draw(columns))
        indptr.append(len(indices))
    # Distinct non-zero values: a misplaced entry cannot cancel out.
    data = np.arange(1.0, len(indices) + 1.0)
    dense = np.zeros((nrows, ncols))
    for i in range(nrows):
        for k in range(indptr[i], indptr[i + 1]):
            dense[i, indices[k]] += data[k]
    matrix = CSRMatrix(indptr, np.array(indices, dtype=np.int64), data,
                       (nrows, ncols))
    return matrix, dense


@st.composite
def ilu_systems(draw, max_n=30):
    """``(a, pattern)``: a random square matrix and its ILU(0) or ILU(1)
    pattern, drawn to reach every branch of the IKJ loop — stored
    ``0.0`` / ``-0.0`` entries (exact-zero multipliers beside signed-zero
    targets), ``inf`` / NaN upper entries, and zero pivots (a diagonal
    the matrix lacks or stores as zero)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    density = draw(st.sampled_from((0.02, 0.1, 0.25, 0.5)))
    special = draw(st.sampled_from(("none", "zeros", "inf", "pivot")))
    level = draw(st.sampled_from((0, 1)))
    rng = np.random.default_rng(draw(seeds))
    mask = rng.random((n, n)) < density
    dense = rng.standard_normal((n, n))
    dense[np.diag_indices(n)] = np.where(rng.random(n) < 0.5, -1.0, 1.0) * (
        1.0 + n * density * rng.random(n))
    if special == "pivot":
        np.fill_diagonal(mask, rng.random(n) < 0.9)
        dense[np.diag_indices(n)] *= rng.random(n) < 0.9
    else:
        np.fill_diagonal(mask, True)
    if special == "zeros":  # off the diagonal: pivots stay non-zero
        zero = ~np.eye(n, dtype=bool)
        dense[zero & (rng.random((n, n)) < 0.2)] = 0.0
        dense[zero & (rng.random((n, n)) < 0.2)] = -0.0
    elif special == "inf":
        upper = np.triu(rng.random((n, n)) < 0.1, 1)
        dense[upper] = rng.choice([np.inf, -np.inf, np.nan], size=upper.sum())
    rows, cols = np.nonzero(mask)
    a = CSRMatrix(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))),
                  cols, dense[rows, cols], (n, n))
    return a, symbolic_ilu(a, level)


# ----------------------------------------------------------------------
# Seeded programs: hand kernels, CSR substitutions, recorded bodies
# ----------------------------------------------------------------------

def triangular(n: int, seed: int, *, lower: bool, inline_diag: bool = True):
    """A random triangular matrix whose rows hold two to four operands
    wherever the triangle has room for them."""
    rng = np.random.default_rng(seed)
    indptr, indices = [0], []
    for i in range(n):
        room = np.arange(i) if lower else np.arange(i + 1, n)
        take = min(room.size, int(rng.integers(2, 5)))
        cols = np.sort(rng.choice(room, size=take, replace=False))
        if inline_diag:
            cols = (np.append(cols, i) if lower
                    else np.concatenate(([i], cols)))
        indices.extend(cols.tolist())
        indptr.append(len(indices))
    data = rng.uniform(0.5, 1.5, size=len(indices)) * rng.choice(
        [-1.0, 1.0], size=len(indices))
    return CSRMatrix(indptr, np.array(indices, dtype=np.int64), data, (n, n))


def level_loop(t, b=None, **csr):
    """The level-scheduled solve of ``t``: its Figure 8 program
    (``from_csr`` keywords in ``csr``), compiled on a fresh session."""
    if b is None:
        b = np.zeros(t.nrows)
    return Runtime(nproc=4).compile(LoopProgram.from_csr(t, b, **csr))


def recorded_program(n: int, seed: int) -> LoopProgram:
    """A trace-recorded two-operand recurrence."""
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, n, size=n).tolist()
    ib = rng.integers(0, n, size=n).tolist()

    def body(i, a):
        a.x[i] = a.x[i] + a.b[i] * a.x[ia[i]] - 0.5 * a.x[ib[i]]

    return LoopProgram.record(n, body, x=rng.standard_normal(n),
                              b=rng.standard_normal(n))


def sparse_conflict_ia(n, num_conflicts, *, seed=0):
    """Mostly-forward indirection with ``num_conflicts`` backward refs.

    Forward (``ia[i] >= i``) references read ``xold`` and never
    conflict; each backward reference makes exactly one iteration read
    another's write.
    """
    rng = np.random.default_rng(seed)
    ia = np.arange(n)
    hot = rng.choice(np.arange(1, n), size=num_conflicts, replace=False)
    for i in hot:
        ia[i] = rng.integers(0, i)
    return ia


def program_of(kind: str, n: int, seed: int, *,
               inline_diag: bool = True) -> LoopProgram:
    """``"simple"`` (Figure 3), ``"chain"`` (its all-conflict
    recurrence), ``"sparse"`` (Figure 3 with ``n // 100`` backward
    references), ``"recorded"``, ``"branchy"`` (a declared body with a
    value branch, which the tape rejects), or ``"lower"`` / ``"upper"``
    (Figure 8 substitution, the diagonal inline or unit)."""
    rng = np.random.default_rng(seed)
    if kind in ("lower", "upper"):
        lower = kind == "lower"
        return LoopProgram.from_csr(
            triangular(n, seed, lower=lower, inline_diag=inline_diag),
            rng.standard_normal(n), lower=lower,
            unit_diagonal=not inline_diag)
    if kind == "recorded":
        return recorded_program(n, seed)
    ia = (np.maximum(np.arange(n) - 1, 0) if kind == "chain"
          else sparse_conflict_ia(n, n // 100, seed=seed) if kind == "sparse"
          else rng.integers(0, n, size=n))
    data = {"x": rng.standard_normal(n), "b": rng.standard_normal(n)}
    if kind != "branchy":
        return LoopProgram.from_indirection(ia, **data)

    def body(i, a):
        v = a.x[int(ia[i])]
        a.x[i] = v * a.b[i] if v > 0 else a.b[i] - v

    return LoopProgram(n, statements=[Statement(
        reads=(At("x", ia), At("b")), writes=(At("x"),), body=body)],
        data=data)


def ilu_upper_program(name: str = "5-PT", scale: float = 0.25) -> LoopProgram:
    """The backward solve an ILU(0) preconditioner of problem ``name``
    compiles: ``ILUPreconditioner(a, 0).upper_loop``'s program."""
    f = get_problem(name, scale=scale).factorization
    return LoopProgram.from_csr(f.u, np.linspace(-1.0, 1.0, f.u.nrows),
                                lower=False, diag=f.u_diag)


# ----------------------------------------------------------------------
# Generated straight-line bodies
# ----------------------------------------------------------------------

WRITTEN, INPUTS = ("u", "v"), ("p", "q")

leaves = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(WRITTEN + INPUTS),
              st.sampled_from(("self", "back", "north", "forward", "any"))),
    st.tuples(st.just("const"),
              st.sampled_from((0.5, -1.25, 3, -0.0, np.float32(0.1), 1e-3))),
)
exprs = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.sampled_from(("neg", "abs")), sub)),
    max_leaves=6)
statements = st.tuples(
    st.sampled_from(WRITTEN),                          # target array
    st.sampled_from(("self", "fold", "wrap")),         # written element
    exprs,
    st.booleans())                                     # read back + restore
#: ``(rows, cols, shaped, specs, seed)`` of :func:`generated_program`.
bodies = st.tuples(
    st.integers(1, 6), st.integers(1, 7), st.booleans(),
    st.lists(statements, min_size=1, max_size=3), seeds)
#: A generated body plus the executor to run it under.
programs = st.tuples(bodies, st.sampled_from(EXECUTORS))


def element(kind: str, i: int, n: int, cols: int, table) -> int:
    if kind == "back":
        return max(i - 1, 0)
    if kind == "north":
        return i - cols if i >= cols else i
    if kind == "forward":
        return min(i + 1, n - 1)
    if kind == "any":
        return int(table[i])
    if kind == "fold":
        return i // 2          # two writers per element
    if kind == "wrap":
        return i % 3           # many writers per element
    return i


def evaluate(expr, i, a, n, cols, table):
    op = expr[0]
    if op == "read":
        return a[expr[1]][element(expr[2], i, n, cols, table)]
    if op == "const":
        return expr[1]
    args = [evaluate(e, i, a, n, cols, table) for e in expr[1:]]
    if op == "neg":
        return -args[0]
    if op == "abs":
        return abs(args[0])
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return args[0] - args[1]
    if op == "*":
        return args[0] * args[1]
    if type(args[1]) in (int, float):
        # A constant denominator: zero must give inf, as array values
        # do, not raise out of the body itself.
        args[1] = np.float64(args[1])
    return args[0] / args[1]


def generated_program(rows, cols, shaped, specs, seed) -> LoopProgram:
    """One recorded statement per drawn spec over a ``rows × cols``
    iteration space."""
    n = rows * cols
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n, size=n)

    def make(spec):
        target, where, expr, again = spec

        def body(i, a):
            e = element(where, i, n, cols, table)
            a[target][e] = evaluate(expr, i, a, n, cols, table)
            if again:
                # Reads what this instance just stored, then stores
                # over a neighbour (or the same element).
                a[target][min(e + i % 2, n - 1)] = a[target][e] * 0.5 - 1.0
        return body

    data = {name: rng.standard_normal(n) for name in WRITTEN + INPUTS}
    with np.errstate(all="ignore"):   # constants may divide by zero
        return LoopProgram.record(
            n, [make(spec) for spec in specs],
            shape=(rows, cols) if shaped else None, **data)


# ----------------------------------------------------------------------
# The contract's inputs: programs of every kind, how they compile and
# where they run
# ----------------------------------------------------------------------

#: Kinds of :func:`program_of`, plus generated bodies.
KINDS = ("simple", "chain", "lower", "upper", "recorded", "branchy",
         "generated")


@st.composite
def loop_programs(draw, max_n=40):
    """A ``LoopProgram`` of any kind: Figure 3 and its all-conflict
    chain, lower and upper Figure 8 substitutions with inline or unit
    diagonals, recorded recurrences, a body the tape rejects, and
    generated multi-statement, shaped, duplicate-writing bodies — at
    n = 0, n below any processor count, and beyond."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "generated":
        return generated_program(*draw(bodies))
    n = draw(st.integers(0, 3) | st.integers(4, max_n))
    return program_of(kind, n, draw(seeds), inline_diag=draw(st.booleans()))


@st.composite
def residue_programs(draw, max_n=40):
    """A recorded one-array loop whose flagged iterations conflict among
    themselves: iteration ``i`` updates ``x[w[i]]`` and then stores
    blindly into ``x[v[i]]``, ``w`` and ``v`` drawn from few elements (so
    most have several writers, every later one flagged), and reads
    ``x[r[i]]``, where a drawn stretch of iterations is a chain — each
    reads what the one before it wrote.  A drawn share of the iterations
    but ``lo`` only reads ``x[r[i]]`` — under a share of one, no flagged
    iteration writes."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(seeds))
    w, v = rng.integers(0, draw(st.integers(1, n)), size=(2, n))
    r = rng.integers(0, n, size=n)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    r[lo + 1:hi] = w[lo:hi - 1]
    quiet = rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    quiet[lo] = False
    w, v, r, quiet = w.tolist(), v.tolist(), r.tolist(), quiet.tolist()

    def body(i, a):
        if quiet[i]:
            return a.x[r[i]]
        a.x[w[i]] = a.x[w[i]] * 0.5 + a.b[i] * a.x[r[i]]
        a.x[v[i]] = a.b[i] - 1.0

    return LoopProgram.record(n, body, x=rng.standard_normal(n),
                              b=rng.standard_normal(n))


#: How a program compiles: ``("space", k)`` is candidate ``k`` (modulo
#: the space's size) of ``tuning.space.enumerate_space(n, nproc)`` —
#: every registered executor, scheduler, partitioner spec and balance,
#: and the speculative arm; ``("auto", horizon)`` is the tuner under
#: ``Runtime(expected_executions=horizon)``; ``("speculative",)`` the
#: no-inspection tier.
choices = st.one_of(
    st.tuples(st.just("space"), st.integers(0, 2**10)),
    st.tuples(st.just("auto"), st.sampled_from((None, 1, 64))),
    st.just(("speculative",)))

#: Where it runs: ``(backend, seam)``.  A seam arms a seeded
#: ``tests/faults.py`` plan at the ``kernel`` or ``store`` seam under a
#: ``RetryPolicy``; ``None`` runs clean.  ``"sim"`` is no backend any
#: more: it is drawn still, so the draws stay the same, and refused.
tiers = st.tuples(st.sampled_from(("serial", "serial", "sim", "threads")),
                  st.sampled_from((None, None, "kernel", "store")))
