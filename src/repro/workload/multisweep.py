"""Fused multi-sweep workloads — the transform layer's real consumers.

Two recurring patterns from iterative solvers, stated as multi-statement
:class:`~repro.program.LoopProgram` bundles so ``strategy="auto"`` can
rewrite them before scheduling:

* :func:`sweep_program` — a *fused residual sweep*: statement A is a
  prefix-recurrence smoother (a serial chain), statement B evaluates a
  pointwise residual over the smoothed values.  Fused, the DOALL half
  is trapped behind the chain's critical path; fission schedules the
  chain once and runs the residual wide.
* :func:`stencil_program` — a first-order 2-D *grid relaxation* over a
  row-major ``(rows, cols)`` space; each point reads its west and
  north neighbours.  Row-major numbering serializes the order-
  sensitive strategies (every row is a consecutive-index chain); the
  skew pass renumbers to anti-diagonal order and recovers the
  pipeline.

:class:`MultiSweep` wraps either program behind the amortised
compile-once / execute-many / rebind pattern the paper argues for.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..program import At, LoopProgram, Statement

__all__ = ["MultiSweep", "sweep_program", "stencil_program"]


def sweep_program(x: np.ndarray, c: np.ndarray) -> LoopProgram:
    """Fused smoother + residual: ``s[i] = s[i-1] + x[i]; y[i] = s[i]*c[i]``.

    Statement A is an order-1 prefix recurrence (a full dependence
    chain); statement B reads the smoothed value and is embarrassingly
    parallel.  Declared accesses carry the statement structure, so
    fission can split the chain from the DOALL half.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.shape != c.shape or x.ndim != 1:
        raise ValidationError("x and c must be 1-D arrays of equal length")
    n = x.shape[0]

    def smoother(i, a):
        if i:
            a.s[i] = a.s[i - 1] + a.x[i]
        else:
            a.s[i] = a.x[i]

    def residual(i, a):
        a.y[i] = a.s[i] * a.c[i]

    idx = np.arange(n, dtype=np.int64)
    chain_counts = np.minimum(idx, 1)  # iteration 0 reads nothing
    statements = [
        Statement(
            reads=(At.from_counts("s", chain_counts, idx[:-1] if n else idx),
                   At("x")),
            writes=(At("s"),),
            body=smoother,
            name="smoother",
        ),
        Statement(
            reads=(At("s"), At("c")),
            writes=(At("y"),),
            body=residual,
            name="residual",
        ),
    ]
    return LoopProgram(n, statements=statements,
                       data={"s": np.zeros(n), "y": np.zeros(n),
                             "x": x, "c": c},
                       name="fused-sweep")


def stencil_program(h: np.ndarray, shape: tuple) -> LoopProgram:
    """First-order 2-D relaxation: each point sums west + north + input.

    ``g[r, c] = h[r, c] + g[r, c-1] + g[r-1, c]`` over a row-major
    ``shape = (rows, cols)`` grid — the Figure-1 wavefront shape.  The
    declared ``shape`` is what makes the skew pass applicable.
    """
    rows, cols = int(shape[0]), int(shape[1])
    h = np.asarray(h, dtype=np.float64).ravel()
    n = rows * cols
    if h.shape[0] != n:
        raise ValidationError(
            f"h has {h.shape[0]} entries, expected rows*cols={n}")

    def relax(i, a):
        acc = a.h[i]
        if i >= cols:
            acc = acc + a.g[i - cols]
        if i % cols:
            acc = acc + a.g[i - 1]
        a.g[i] = acc

    # Per-iteration neighbour lists in (west, north) order.
    idx = np.arange(n, dtype=np.int64)
    has = np.stack([idx % cols != 0, idx >= cols], axis=1)
    counts = has.sum(axis=1)
    neigh = np.stack([idx - 1, idx - cols], axis=1)[has]
    statements = [
        Statement(
            reads=(At.from_counts("g", counts, neigh), At("h")),
            writes=(At("g"),),
            body=relax,
            name="relax",
        ),
    ]
    return LoopProgram(n, statements=statements,
                       data={"g": np.zeros(n), "h": h},
                       name="grid-relaxation", shape=(rows, cols))


class MultiSweep:
    """Compile-once, execute-many wrapper over a transformable program.

    The first :meth:`run` compiles the program with
    ``strategy="auto"`` (variants × strategies); subsequent runs with
    new data go through :meth:`rebind` — data swaps never repay the
    inspection or the variant search.
    """

    def __init__(self, program: LoopProgram, runtime):
        self.program = program
        self.runtime = runtime
        self.loop = None

    def run(self, **arrays) -> dict:
        """Execute (rebinding ``arrays`` first); returns written arrays."""
        if self.loop is None:
            if arrays:
                self.program = self.program.with_data(**arrays)
            self.loop = self.runtime.compile(self.program, strategy="auto")
        elif arrays:
            self.program = self.program.with_data(**arrays)
            self.loop = self.loop.rebind(**arrays)
        report = self.loop()
        x = report.x
        if isinstance(x, dict):
            return x
        writes = self.program.resolved_accesses()[1]
        return {writes[0].array: x}

    @property
    def variant_name(self) -> str | None:
        """Winning variant of the auto compile (``None`` before it)."""
        if self.loop is None:
            return None
        verdict = self.loop.program_verdict
        # Plain single-statement programs skip the variant search.
        return "identity" if verdict is None else verdict.variant_name

    def serial_reference(self) -> dict:
        """Bitwise serial oracle: the program run on one processor."""
        kernel = self.program.make_kernel()
        kernel.start()
        for i in range(self.program.n):
            kernel.execute_index(i)
        out = kernel.result()
        if isinstance(out, dict):
            return out
        writes = self.program.resolved_accesses()[1]
        return {writes[0].array: out}
