"""Dense simplex for small LPs of the form min c.x, A x <= b, 0 <= x <= 1.

A cold solve is a primal simplex. The upper bounds x <= 1 are appended as
explicit rows, so the origin is always a basic feasible starting point
(b >= 0). Entering variables follow the most-negative-reduced-cost rule;
the leaving row is chosen by the lexicographic ratio test, which rules out
cycling on the heavily degenerate bases these LPs start from. If the rows split into blocks
on disjoint variables, each pivot reads and changes one block's entries,
and it is the pivot a solve of that block alone makes next: ties go by
index, and the blocks' columns keep their order. So the cold solve is the
block solves side by side, bar the order in which the objective's rhs cell
sums them; `lp.solve_first_round` builds the first lazy round this way.

A warm solve continues from the optimal tableau of an earlier one and adds
rows to it. Each new row gets its own slack column and is reduced against the
rows of the basic structural variables, so it reads in the current nonbasic
variables and its rhs is minus its violation at the current point. The
reduced costs do not change, so the basis stays dual feasible. A dual simplex
then restores primal feasibility. Its leaving row is the one with the most
negative rhs, and its entering column has the least ratio d_j / |T[r, j]|
over the row's negative entries. A pivot whose least ratio exceeds PIVOT_TOL
raises the objective, and its ties go to the first column. A run of
degenerate pivots, whose least ratio is 0 up to PIVOT_TOL, leaves the
objective as it is; their ties go to a lexicographic dual ratio test whose
cost perturbation is fixed at the run's first pivot (`_lex_entering`). So
the dual phase ends: a basis met before a pivot that raised the objective
has a lower objective than any basis after it, and within a degenerate run
the lexicographic test repeats no basis. The primal loop finishes the solve;
it pivots only if rounding left a reduced cost below -PIVOT_TOL. Its
lexicographic rule rests on rows that start lex-positive, which holds for a
cold tableau and not after rows were appended, so in a warm solve that loop
is bounded by the iteration cap.

A pivot touches only the rows it must, and it makes the same pivots as a
full-tableau update, bit for bit. The ratio test divides the right-hand side
by the positive entries of the entering column alone. Rows whose ratios tie
within LEX_TOL go to the tie-break, which walks the columns in lexicographic
order: at each, the rows more than LEX_TOL above the least of their scaled
entries drop out. The dual tie-break (`_lex_entering`) drops candidate
columns in the same way, one perturbation term at a time. The rank-1 update
subtracts the scaled pivot row from the rows with a nonzero entry in the
entering column and leaves the others alone. The tableau starts with every
-0.0 turned into 0.0 and its arithmetic makes no new one (barring underflow;
a dual pivot row, divided by a negative entry, is reset at once), so a row
left alone holds exactly what subtracting a zero multiple of the pivot row
would have left.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
LEX_TOL = 1e-12


class SimplexStall(RuntimeError):
    """Iteration cap reached; carries the point the solve stopped at.

    In a cold solve that point is feasible. A warm solve that stalls in its
    dual phase stops at a point that may violate the rows it added.
    """

    def __init__(self, message: str, x: np.ndarray, objective: float, iterations: int):
        super().__init__(message)
        self.x = x
        self.objective = objective
        self.iterations = iterations


@dataclass
class SimplexResult:
    """An optimal point and the pivots of this solve, dual and primal.

    `tableau` and `basis` are the final state, which a warm solve continues
    from: rows are the constraints, then the objective row; columns are the
    structural variables, the slacks in row order, then the rhs.
    """

    x: np.ndarray
    objective: float
    iterations: int
    tableau: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)


def solve_dense(c, a, b, *, iteration_cap: int | None = None,
                start: SimplexResult | None = None) -> SimplexResult:
    """Minimize c.x subject to a x <= b, 0 <= x <= 1.

    Without `start`, b must be nonnegative so that x = 0 is feasible. With
    `start`, the result of an optimal solve with the same c, the rows
    a x <= b are added to that solve's rows and the solve continues from its
    tableau, which is left as it was; b may then have any sign.
    iteration_cap bounds the pivots of this call, dual and primal together.
    The caller bounds the tableau's size, as `lp.solve_lp` does.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nvars = c.shape[0]
    for name, values in (("c", c), ("a", a), ("b", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")

    if start is None:
        if np.any(b < 0):
            raise ValueError("rhs b must be nonnegative (origin must be feasible)")
        m = a.shape[0] + nvars
    else:
        m0 = start.tableau.shape[0] - 1
        if start.tableau.shape[1] - 1 - m0 != nvars:
            raise ValueError(f"start solved for {start.tableau.shape[1] - 1 - m0} "
                             f"variables, not {nvars}")
        m = m0 + a.shape[0]
    ncols = nvars + m
    if iteration_cap is None:
        iteration_cap = 10 * m

    if start is None:
        tableau = np.zeros((m + 1, ncols + 1))
        tableau[: a.shape[0], :nvars] = a
        tableau[a.shape[0] : m, :nvars] = np.eye(nvars)
        tableau[:m, nvars : nvars + m] = np.eye(m)
        tableau[: a.shape[0], -1] = b
        tableau[a.shape[0] : m, -1] = 1.0
        tableau[-1, :nvars] = c
        tableau += 0.0  # -0.0 becomes 0.0
        basis = np.arange(nvars, nvars + m)
    else:
        tableau, basis = _append_rows(start, a, b)

    iterations = 0
    reduced = tableau[-1, :ncols]
    rhs = tableau[:m, -1]

    def stall():
        x = _extract(tableau, basis, nvars)
        return SimplexStall("iteration cap reached", x, float(c @ x), iterations)

    if start is not None:
        was_basic = None  # the basis at the first pivot of a degenerate run
        while True:
            leaving = int(rhs.argmin())
            if rhs[leaving] >= -PIVOT_TOL:
                break
            if iterations >= iteration_cap:
                raise stall()
            row = tableau[leaving, :ncols]
            negative = (row < -PIVOT_TOL).nonzero()[0]
            if not len(negative):
                # cannot happen while x = 0 meets every row, as here
                raise RuntimeError("LP is infeasible")
            ratios = reduced[negative] / -row[negative]
            least = ratios.min()
            tied = negative[ratios <= least + LEX_TOL]
            if least > PIVOT_TOL:  # the objective rises; a degenerate run ends
                was_basic = None
                entering = int(tied[0])
            else:
                if was_basic is None:
                    was_basic = np.zeros(ncols, dtype=bool)
                    was_basic[basis] = True
                if len(tied) == 1:
                    entering = int(tied[0])
                else:
                    entering = _lex_entering(tableau, tied, leaving, basis, was_basic)
            _pivot(tableau, leaving, entering)
            tableau[leaving] += 0.0  # dividing by a negative entry made 0.0 -0.0
            basis[leaving] = entering
            iterations += 1

    # lexicographic comparison order: rhs, then the slack columns (initially
    # basic in a cold solve, whose identity block makes every row
    # lex-positive), then the rest
    lex_order = np.r_[ncols, nvars:ncols, :nvars]
    while True:
        entering = int(reduced.argmin())
        if reduced[entering] >= -PIVOT_TOL:
            break
        if iterations >= iteration_cap:
            raise stall()

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
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1

    x = _extract(tableau, basis, nvars)
    return SimplexResult(x=x, objective=float(c @ x), iterations=iterations,
                         tableau=tableau, basis=basis)


def _append_rows(start: SimplexResult, a: np.ndarray, b: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A copy of start's tableau and basis with the rows a x <= b added.

    Each new row gets a slack column, after the old ones, which enters the
    basis. Its entries on the basic structural columns are eliminated with
    the rows of those columns, so the tableau stays in canonical form: the
    row takes away entry times row, one entry at a time in row order. Rows
    of `build_lp` have at most three entries, so this is at most three
    vectorized steps, each on the rows that still have an entry left.
    """
    old, nvars = start.tableau, a.shape[1]
    m0, k = old.shape[0] - 1, a.shape[0]
    ncols0 = old.shape[1] - 1
    tableau = np.zeros((m0 + k + 1, ncols0 + k + 1))
    tableau[:m0, :ncols0] = old[:m0, :ncols0]
    tableau[:m0, -1] = old[:m0, -1]
    tableau[-1, :ncols0] = old[-1, :ncols0]
    tableau[-1, -1] = old[-1, -1]
    new = tableau[m0 : m0 + k]
    new[:, :nvars] = a
    new[:, ncols0 : ncols0 + k] = np.eye(k)
    new[:, -1] = b
    struct_rows = (start.basis < nvars).nonzero()[0]
    coef = new[:, start.basis[struct_rows]]
    rows, cols = coef.nonzero()
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # within its row
    for step in range(rank.max(initial=-1) + 1):
        r, col = rows[rank == step], cols[rank == step]
        new[r] -= coef[r, col, None] * tableau[struct_rows[col]]
    new += 0.0  # -0.0 becomes 0.0
    basis = np.r_[start.basis, ncols0 : ncols0 + k]
    return tableau, basis


def _pivot(tableau: np.ndarray, leaving: int, entering: int) -> None:
    """Rank-1 update making column `entering` basic in row `leaving`."""
    col = tableau[:, entering]
    row = tableau[leaving]
    row /= row[entering]
    hit = col.nonzero()[0]
    hit = hit[hit != leaving]
    # leaves the entering column a unit column exactly: x - x * 1.0 is
    # 0.0 in the rows hit, and the other rows held 0.0 there already
    tableau[hit] -= col[hit, None] * row


def _lex_leaving(tableau: np.ndarray, tied: np.ndarray, entering: int,
                 lex_order: np.ndarray) -> int:
    """Among tied rows, the one whose scaled row is lexicographically least:
    at each column in lex_order, the rows more than LEX_TOL above the least
    value drop out."""
    pivots = tableau[tied, entering]
    for col in lex_order.tolist():
        vals = tableau[tied, col] / pivots
        keep = vals <= vals.min() + LEX_TOL
        tied, pivots = tied[keep], pivots[keep]
        if len(tied) == 1:
            break
    return int(tied[0])


def _lex_entering(tableau: np.ndarray, tied: np.ndarray, leaving: int,
                  basis: np.ndarray, was_basic: np.ndarray) -> int:
    """Among tied columns, the least in the dual lexicographic ratio test.

    The test is that of the costs perturbed to c_k + eps^(p(k)), where p(k) is
    the position of column k in an order fixed at the run's first pivot: the
    columns nonbasic then, then those basic then (`was_basic`), each in
    decreasing index order. Column j's perturbed reduced cost is d_j plus,
    for each column k, eps^(p(k)) times 1 if k = j, minus the entry of column
    j in k's row if k is basic, and 0 otherwise. At the run's first pivot a
    nonbasic column with d_j = 0 has its own +1 term first, so every perturbed
    reduced cost is lexicographically positive. Each pivot takes the least
    perturbed ratio d_j(eps) / |T[r, j]|, which keeps them so and raises the
    perturbed objective by a lexicographically positive amount (rhs[r] < 0,
    T[r, j] < 0). So no basis repeats within the run. The minimum is unique:
    two candidates differ at least at the term of either's own column.

    Only the columns basic now and the candidates' own have a nonzero term.
    The walk goes over those, group by group, as lists: few columns of the
    first group have entered since the run began, and the ties are mostly
    settled there.
    """
    scale = tableau[leaving, tied]
    own = (-1.0 / scale).tolist()
    basic_then = was_basic[tied].tolist()
    survivors = range(len(tied))
    for group in (False, True):  # nonbasic at the run's start, then basic
        rows = (was_basic[basis] == group).nonzero()[0]
        terms = dict(zip(basis[rows].tolist(),
                         (tableau[rows[:, None], tied] / scale).tolist()))
        for k, j in enumerate(tied.tolist()):
            if basic_then[k] == group:
                terms[j] = [0.0] * len(tied)
                terms[j][k] = own[k]
        for col in sorted(terms, reverse=True):
            vals = terms[col]
            least = min(vals[k] for k in survivors)
            survivors = [k for k in survivors if vals[k] <= least + LEX_TOL]
            if len(survivors) == 1:
                return int(tied[survivors[0]])
    return int(tied[survivors[0]])


def _extract(tableau: np.ndarray, basis: np.ndarray, nvars: int) -> np.ndarray:
    x = np.zeros(nvars)
    struct = basis < nvars
    x[basis[struct]] = tableau[: len(basis), -1][struct]
    return x
