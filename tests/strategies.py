"""Input generators shared by the property suites.

Hypothesis strategies (random dependence graphs, indirection arrays,
triangular systems, straight-line statement bodies) and the seeded
program builders their drawn parameters feed.  One definition each: a
property that wants a narrower or wider input passes an argument, it
does not keep a copy.
"""

import numpy as np
from hypothesis import strategies as st

from repro import LoopProgram, Runtime
from repro.core.dependence import DependenceGraph
from repro.sparse.build import csr_from_dense, random_lower_triangular
from repro.sparse.csr import CSRMatrix

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
def backward_dags(draw, max_n=50, unique=True):
    """A random backward-only dependence graph; ``unique=False`` lets
    an iteration name one predecessor twice (duplicate edges)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
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
    edges = np.column_stack((perm[base.edge_rows()], perm[base.indices]))
    return DependenceGraph.from_edges(edges, base.n)


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


def program_of(kind: str, n: int, seed: int) -> LoopProgram:
    """``"simple"`` (Figure 3), ``"recorded"``, ``"lower"`` or
    ``"upper"`` (Figure 8 substitution)."""
    rng = np.random.default_rng(seed)
    if kind == "simple":
        return LoopProgram.from_indirection(
            rng.integers(0, n, size=n), x=rng.standard_normal(n),
            b=rng.standard_normal(n))
    if kind == "recorded":
        return recorded_program(n, seed)
    lower = kind == "lower"
    return LoopProgram.from_csr(triangular(n, seed, lower=lower),
                                rng.standard_normal(n), lower=lower)


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
#: ``(rows, cols, shaped, specs, seed)`` of :func:`generated_program`,
#: plus the executor to run it under.
programs = st.tuples(
    st.integers(1, 6), st.integers(1, 7), st.booleans(),
    st.lists(statements, min_size=1, max_size=3),
    seeds, st.sampled_from(EXECUTORS))


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
