"""Serial oracles of the ledger — plain Python loops, nothing from ``repro``.

Every result the benchmark accepts is compared bit for bit
(``np.array_equal``) with one of these.  They are written against the
*loop definitions* (Figure 3, Figure 8, the fused sweep, the grid
relaxation), not against any executor, kernel or ``core.reference``
routine of the library under test: the only imports are numpy, for the
array conversions at the boundary.  Arithmetic runs on Python floats,
which are IEEE doubles, so a correct library result matches exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["figure3", "forward_substitution", "fused_sweep",
           "grid_relaxation"]


def figure3(x0, b, ia) -> np.ndarray:
    """``do i: x(i) = x(i) + b(i) * x(ia(i))`` in index order.

    A backward reference (``ia[i] < i``) reads the value this sweep
    already updated; any other reference reads the input value.
    """
    old = np.asarray(x0, dtype=np.float64).tolist()
    coef = np.asarray(b, dtype=np.float64).tolist()
    src = np.asarray(ia).tolist()
    x = list(old)
    for i in range(len(x)):
        j = src[i]
        x[i] = old[i] + coef[i] * (x[j] if j < i else old[j])
    return np.asarray(x, dtype=np.float64)


def forward_substitution(indptr, indices, data, b, *, unit_diagonal: bool,
                         dot: bool) -> np.ndarray:
    """Row-order solve of ``L x = b`` over a lower-triangular CSR matrix.

    Floating-point subtraction is not associative, so "the" serial
    answer depends on how a row's terms are combined.  Both textbook
    forms are available:

    * ``dot=False`` — Figure 8 as printed: ``y = b(i)``, then
      ``y = y - a(k) * x(col)`` term by term;
    * ``dot=True`` — ``x(i) = (b(i) - sum a(k) * x(col)) / d(i)`` with
      the sum accumulated left to right first.

    An op is correct when its result equals either one exactly.
    """
    indptr = np.asarray(indptr).tolist()
    indices = np.asarray(indices).tolist()
    data = np.asarray(data, dtype=np.float64).tolist()
    rhs = np.asarray(b, dtype=np.float64).tolist()
    n = len(rhs)
    x = [0.0] * n
    for i in range(n):
        acc = 0.0 if dot else rhs[i]
        d = 1.0
        for k in range(indptr[i], indptr[i + 1]):
            j = indices[k]
            if j < i:
                if dot:
                    acc += data[k] * x[j]
                else:
                    acc -= data[k] * x[j]
            elif j == i and not unit_diagonal:
                d = data[k]
        x[i] = ((rhs[i] - acc) if dot else acc) / d
    return np.asarray(x, dtype=np.float64)


def fused_sweep(x, c) -> dict:
    """``s(i) = s(i-1) + x(i); y(i) = s(i) * c(i)`` (``s(0) = x(0)``)."""
    xs = np.asarray(x, dtype=np.float64).tolist()
    cs = np.asarray(c, dtype=np.float64).tolist()
    n = len(xs)
    s = [0.0] * n
    y = [0.0] * n
    for i in range(n):
        s[i] = s[i - 1] + xs[i] if i else xs[i]
        y[i] = s[i] * cs[i]
    return {"s": np.asarray(s, dtype=np.float64),
            "y": np.asarray(y, dtype=np.float64)}


def grid_relaxation(h, rows: int, cols: int) -> np.ndarray:
    """``g(r,c) = h(r,c) + g(r-1,c) + g(r,c-1)`` over a row-major grid,
    the sum taken left to right (north before west)."""
    hs = np.asarray(h, dtype=np.float64).ravel().tolist()
    g = [0.0] * (rows * cols)
    for i in range(rows * cols):
        acc = hs[i]
        if i >= cols:
            acc = acc + g[i - cols]
        if i % cols:
            acc = acc + g[i - 1]
        g[i] = acc
    return np.asarray(g, dtype=np.float64)
