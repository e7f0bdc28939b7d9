"""Dense primal simplex for small LPs of the form min c.x, A x <= b, 0 <= x <= u.

Upper bounds are appended as explicit rows, so the origin is always a basic
feasible starting point (b >= 0, u >= 0). Entering variables follow the
most-negative-reduced-cost rule; the leaving row is chosen by the
lexicographic ratio test, which rules out cycling on the heavily degenerate
bases these LPs start from.

A pivot touches only the rows it must. Its pivot rule is that of a
full-tableau update with a column-by-column tie-break, and it makes the same
pivots, bit for bit. The ratio test divides the right-hand side by the positive
entries of the entering column alone. Rows whose ratios tie within LEX_TOL go
to the tie-break: it scales their rows by their pivot entries once, in
lexicographic column order, and jumps straight to the first column where the
surviving rows are not all within LEX_TOL of their least value; there the
rows above it drop out, and the walk goes on from the next column. The rank-1
update subtracts the scaled pivot row from the rows with a nonzero entry in
the entering column and leaves the others alone. The tableau starts with
every -0.0 turned into 0.0 and its arithmetic makes no new one (barring
underflow), so a row left alone holds exactly what subtracting a zero
multiple of the pivot row would have left.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
LEX_TOL = 1e-12


class SimplexTooLarge(RuntimeError):
    """The dense tableau would not fit in the configured memory budget."""


class SimplexStall(RuntimeError):
    """Iteration cap reached; carries the best feasible point found so far."""

    def __init__(self, message: str, x: np.ndarray, objective: float, iterations: int):
        super().__init__(message)
        self.x = x
        self.objective = objective
        self.iterations = iterations


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def solve_dense(c, a, b, upper=None, *, iteration_cap: int | None = None,
                max_tableau_entries: int = 20_000_000) -> SimplexResult:
    """Minimize c.x subject to a x <= b, 0 <= x <= upper (default 1).

    b must be nonnegative so that x = 0 is feasible.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nvars = c.shape[0]
    if upper is None:
        upper = np.ones(nvars)
    else:
        upper = np.asarray(upper, dtype=float)
    for name, values in (("c", c), ("a", a), ("b", b), ("upper", upper)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    if np.any(b < 0):
        raise ValueError("rhs b must be nonnegative (origin must be feasible)")
    if np.any(upper < 0):
        raise ValueError("upper must be nonnegative (origin must be feasible)")

    m = a.shape[0] + nvars
    ncols = nvars + m
    if (m + 1) * (ncols + 1) > max_tableau_entries:
        raise SimplexTooLarge(
            f"tableau of {(m + 1)} x {(ncols + 1)} exceeds the dense budget")
    if iteration_cap is None:
        iteration_cap = 10 * m

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[: a.shape[0], :nvars] = a
    tableau[a.shape[0] : m, :nvars] = np.eye(nvars)
    tableau[:m, nvars : nvars + m] = np.eye(m)
    tableau[: a.shape[0], -1] = b
    tableau[a.shape[0] : m, -1] = upper
    tableau[-1, :nvars] = c
    tableau += 0.0  # -0.0 becomes 0.0

    basis = list(range(nvars, nvars + m))
    # lexicographic comparison order: rhs, then the initially-basic (slack)
    # columns whose identity block makes every row lex-positive, then the rest
    lex_order = np.r_[ncols, nvars:ncols, :nvars]
    iterations = 0
    reduced = tableau[-1, :ncols]
    rhs = tableau[:m, -1]

    while True:
        entering = int(reduced.argmin())
        if reduced[entering] >= -PIVOT_TOL:
            break
        if iterations >= iteration_cap:
            x = _extract(tableau, basis, nvars, m)
            raise SimplexStall("iteration cap reached", x, float(c @ x), iterations)

        col = tableau[:, entering]
        positive = (col[:m] > PIVOT_TOL).nonzero()[0]
        if not len(positive):
            # cannot happen for the box-bounded LPs built here
            raise RuntimeError("LP is unbounded")
        ratios = rhs[positive] / col[positive]
        tied = positive[ratios <= ratios.min() + LEX_TOL]
        if len(tied) == 1:
            leaving = int(tied[0])
        else:
            leaving = _lex_leaving(tableau, tied, entering, lex_order)

        row = tableau[leaving]
        row /= row[entering]
        hit = col.nonzero()[0]
        hit = hit[hit != leaving]
        # leaves the entering column a unit column exactly: x - x * 1.0 is
        # 0.0 in the rows hit, and the other rows held 0.0 there already
        tableau[hit] -= col[hit, None] * row
        basis[leaving] = entering
        iterations += 1

    x = _extract(tableau, basis, nvars, m)
    return SimplexResult(x=x, objective=float(c @ x), iterations=iterations)


def _lex_leaving(tableau: np.ndarray, tied: np.ndarray, entering: int,
                 lex_order: np.ndarray) -> int:
    """Among tied rows, the one whose scaled row is lexicographically least.

    At each column in lex_order, the rows more than LEX_TOL above the
    survivors' least value drop out. Every column before the first one where
    a row drops out keeps all rows, so one step finds that column.
    """
    vals = tableau[tied[:, None], lex_order] / tableau[tied, entering, None]
    while vals.shape[1]:
        keep = vals <= np.minimum.reduce(vals) + LEX_TOL
        all_tie = np.logical_and.reduce(keep)
        first = int(all_tie.argmin())
        if all_tie[first]:
            break
        survivors = keep[:, first]
        tied = tied[survivors]
        if len(tied) == 1:
            break
        vals = vals[survivors, first + 1 :]
    return int(tied[0])


def _extract(tableau: np.ndarray, basis: list[int], nvars: int, m: int) -> np.ndarray:
    x = np.zeros(nvars)
    for row, var in enumerate(basis):
        if var < nvars:
            x[var] = tableau[row, -1]
    return x
