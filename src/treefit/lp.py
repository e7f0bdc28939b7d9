"""LP relaxation for hierarchical clustering instances and its cost algebra.

One variable x^(t)_{i,j} in [0,1] per level and unordered pair. Constraints:
per-level triangle inequalities and monotonicity across consecutive levels.
The objective charges x on in-edges and (1 - x) on non-edges, weighted per
level.

`solve_lp` adds the triangle rows lazily. Its first round holds only the
monotonicity and box rows, each on one pair's variables, so it is one small
chain LP per pair. Both backends solve each distinct chain once, with the
dense simplex, and take the round's point from those solves; for the
simplex, `solve_first_round` also places the chain tableaux side by side,
which is the cold solve of those rows. A later HiGHS round solves only the
pairs that its triangle rows couple, with those rows and the pairs'
monotonicity rows; every other pair keeps its chain value. It goes through
scipy's bundled binding with `linprog`'s options (`_solve_highs`), which
gives the same points and iteration counts as `linprog` without its input
handling.
The binding's extension file is loaded on its own (`_highspy`), so the
HiGHS path imports neither `scipy.optimize` nor the rest of scipy.
A fit records the LP behind its bound in its `details["instance"]` and
`["lp_solution"]`, which `--dump-lp` writes.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import EdgeSet, HierarchySequence, all_pairs, clique_edges, sym_diff_size
from .core import _check_tol, _condensed, _pair_ends, _pair_vector
from .simplex import SimplexResult, SimplexStall, solve_dense

DEFAULT_FEAS_TOL = 1e-7

# above this many dense-tableau entries, solve_lp switches to scipy's HiGHS
DENSE_TABLEAU_BUDGET = 1_200_000


class SolverError(RuntimeError):
    """LP solve failed; `best` is a point feasible for the full LP, or None."""

    def __init__(self, message: str, best: "LpSolution | None" = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class HccInstance:
    """Level weights and per-level edge sets over a shared label universe."""

    labels: tuple[str, ...]
    deltas: tuple[float, ...]
    edge_sets: tuple[EdgeSet, ...]

    def __post_init__(self):
        if len(self.deltas) != len(self.edge_sets):
            raise ValueError("one weight per edge set required")
        if not self.deltas:
            raise ValueError("need at least one level")
        for d in self.deltas:
            if not 0 < d < np.inf:
                raise ValueError(f"level weights must be positive and finite, got {d}")
        for es in self.edge_sets:
            if es.universe != self.labels:
                raise ValueError("edge set universe does not match the labels")

    @classmethod
    def from_partitions(cls, labels: Sequence[str], deltas: Sequence[float],
                        partitions) -> "HccInstance":
        """Instance whose edge sets are the clique edges of given partitions."""
        return cls(tuple(labels), tuple(float(d) for d in deltas),
                   tuple(clique_edges(q) for q in partitions))

    @property
    def n_levels(self) -> int:
        return len(self.deltas)

    @property
    def n(self) -> int:
        return len(self.labels)


@functools.lru_cache(maxsize=16)
def _level_triangles(n: int) -> np.ndarray:
    """Pair indices of one level's triangle rows, shape (3 C(n,3), 3).

    Triples (i, j, k) run in `itertools.combinations` order; each gives the
    rows ij <= ik + jk, ik <= ij + jk and jk <= ij + ik, the left side first.
    """
    i, j = _pair_ends(n)
    counts = n - 1 - j
    ii, jj = np.repeat(i, counts), np.repeat(j, counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    kk = jj + 1 + (np.arange(ii.size) - starts)
    ij, ik, jk = _condensed(n, ii, jj), _condensed(n, ii, kk), _condensed(n, jj, kk)
    rows = np.stack([np.stack([ij, ik, jk], axis=1),
                     np.stack([ik, ij, jk], axis=1),
                     np.stack([jk, ij, ik], axis=1)], axis=1).reshape(-1, 3)
    rows.flags.writeable = False
    return rows


def _triangle_lhs(n: int, x: np.ndarray) -> np.ndarray:
    """Left sides x_a - x_b - x_c of the triangle rows at a (levels, pairs)
    point x over n labels, one row per level: its ravel runs in row order."""
    rows = _level_triangles(n)
    return x[:, rows[:, 0]] - x[:, rows[:, 1]] - x[:, rows[:, 2]]


@dataclass
class LinearProgram:
    """Explicit formulation: rows are `coeffs . x <= 0`, x in [0,1].

    All triangle rows come first, then all monotonicity rows; both follow
    from n labels and n_levels, so neither is stored. With P pairs and R rows
    (a, b, c) in `_level_triangles(n)`, row t R + r reads x[t P + a] -
    x[t P + b] - x[t P + c] <= 0, and row n_tri + m reads x[m + P] - x[m] <= 0.
    """

    labels: tuple[str, ...]
    n_levels: int
    c: np.ndarray  # one entry per variable: level-major, pairs in `all_pairs` order
    const: float

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def n_tri(self) -> int:
        n = len(self.labels)
        return self.n_levels * (n * (n - 1) * (n - 2) // 2)

    @property
    def n_rows(self) -> int:
        return self.n_tri + (self.n_levels - 1) * self.n_vars // self.n_levels

    def _coo(self, rows: np.ndarray | None = None):
        """Row, column and coefficient arrays of the given sorted rows, or of
        all, in row order."""
        n_tri, n_pairs = self.n_tri, self.n_vars // self.n_levels
        rows = np.arange(self.n_rows) if rows is None else rows
        per_level = _level_triangles(len(self.labels))
        is_tri = rows < n_tri
        t, r = np.divmod(rows[is_tri], len(per_level))
        m = rows[~is_tri] - n_tri
        cols = np.concatenate([(per_level[r] + (t * n_pairs)[:, None]).ravel(),
                               np.stack([m + n_pairs, m], axis=1).ravel()])
        data = np.concatenate([np.tile([1.0, -1.0, -1.0], len(t)), np.tile([1.0, -1.0], len(m))])
        return np.repeat(np.arange(len(rows)), np.where(is_tri, 3, 2)), cols, data

    def dense_matrix(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Dense matrix of all rows, or of the given sorted row indices only."""
        r, cols, data = self._coo(rows)
        a = np.zeros((self.n_rows if rows is None else len(rows), self.n_vars))
        a[r, cols] = data
        return a

    # Unused by the library, but perfbench/layers.py wraps it by name: it can
    # go only together with that wrap, in a change to the benchmark.
    def sparse_matrix(self, rows: np.ndarray | None = None):
        """CSR matrix of all rows, or of the given sorted row indices only."""
        from scipy.sparse import csr_matrix

        r, cols, data = self._coo(rows)
        n = self.n_rows if rows is None else len(rows)
        return csr_matrix((data, (r, cols)), shape=(n, self.n_vars))

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.c @ x + self.const)

    def dump_text(self, x: np.ndarray | None = None,
                  objective: float | None = None) -> str:
        """Plain-text equation list for cross-checking with an external solver.

        Triangle rows come first, then monotonicity rows, as in the LP."""
        names = [f"x_t{t + 1}_{i}_{j}" for t in range(self.n_levels)
                 for i, j in all_pairs(self.labels)]
        lines = ["# lp-dump v1", f"# vars {self.n_vars} rows {self.n_rows}"]
        if x is not None:
            lines += [f"var {name} = {float(v)!r}" for name, v in zip(names, x, strict=True)]
        terms = " + ".join(f"{c!r}*{name}" for c, name in zip(self.c.tolist(), names))
        lines.append(f"min: {terms} + {float(self.const)!r}")
        tri, mono = np.split(self._coo()[1], [3 * self.n_tri])
        lines += [f"subject_to[triangle]: 1.0*{names[a]} + -1.0*{names[b]} + -1.0*{names[c]}"
                  " <= 0.0" for a, b, c in tri.reshape(-1, 3).tolist()]
        lines += [f"subject_to[monotone]: 1.0*{names[a]} + -1.0*{names[b]} <= 0.0"
                  for a, b in mono.reshape(-1, 2).tolist()]
        lines.append("bounds: 0 <= all_vars <= 1")
        if objective is not None:
            lines.append(f"objective_value: {float(objective)!r}")
        return "\n".join(lines) + "\n"


@dataclass
class LpSolution:
    """Fractional distances per level and pair, clamped into [0,1].

    Row t of `x` is level t, its columns the pairs in `all_pairs(labels)`
    order. `rounds` counts the lazy solves behind the point, `rows_used` the
    rows active in the last one and `pivots` the pivots of all of them (the
    simplex pivots, or HiGHS's iteration counts), on either backend; a point
    built without a solve reports by default 1 round, every row of the full
    LP and 0 pivots.
    """

    labels: tuple[str, ...]
    x: np.ndarray  # shape (n_levels, n_pairs)
    objective: float
    backend: str = "simplex"
    rounds: int = 1
    rows_used: int | None = None
    pivots: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if self.x.ndim != 2 or self.x.shape[1] != n * (n - 1) // 2:
            raise ValueError(f"x of shape {self.x.shape} for the pairs of {n} labels")
        if self.rows_used is None:  # every row: (n-2) C(n,2) per level, C(n,2) per step
            self.rows_used = self.x.shape[1] * (self.n_levels * (n - 1) - 1)

    @property
    def n_levels(self) -> int:
        return self.x.shape[0]

    def value(self, t: int, i: str, j: str) -> float:
        """x^(t)_{i,j} with level t 0-based; x_{i,i} is 0 by convention."""
        if i == j:
            return 0.0
        a, b = sorted((self.labels.index(i), self.labels.index(j)))
        return float(self.x[t, _condensed(len(self.labels), a, b)])

    def max_violation(self, tri_lhs: np.ndarray | None = None) -> dict[str, float]:
        """Largest triangle / monotonicity / box violations of this point;
        tri_lhs holds its triangle rows' left sides when they are known."""
        if tri_lhs is None:
            tri_lhs = _triangle_lhs(len(self.labels), self.x)
        tri = max(0.0, float(tri_lhs.max(initial=0.0)))
        mono = max(0.0, float((self.x[1:] - self.x[:-1]).max(initial=0.0)))
        box = max(0.0, float(np.max(self.x - 1.0)), float(np.max(-self.x)))
        return {"triangle": tri, "monotone": mono, "box": box}


def build_lp(inst: HccInstance) -> LinearProgram:
    """The LP of inst: its level-weighted objective, as its rows follow from its size."""
    edges = np.array([es.mask for es in inst.edge_sets])
    deltas = np.broadcast_to(np.array(inst.deltas)[:, None], edges.shape)
    c = np.where(edges, deltas, -deltas).ravel()
    # summed one variable at a time, as the objective's terms come
    const = functools.reduce(operator.add, deltas[~edges].tolist(), 0.0)
    return LinearProgram(labels=inst.labels, n_levels=inst.n_levels, c=c, const=const)


def solve_lp(lp: LinearProgram, feas_tol: float = DEFAULT_FEAS_TOL, *,
             iteration_cap: int | None = None) -> LpSolution:
    """Solve to optimality; the result is clamped into [0,1] and re-checked.

    The backend is the built-in dense simplex while the tableau of the full
    LP fits DENSE_TABLEAU_BUDGET, and HiGHS beyond that, through scipy's
    bundled binding with `linprog`'s options, so with the same points and
    iteration counts as `linprog`; both are deterministic. The HiGHS path
    loads only the binding's extension file, not `scipy.optimize`, and the
    simplex path never imports scipy. Either backend starts from the
    monotonicity rows alone and adds the violated triangle rows after each
    solve until none is left; the final point is still checked against
    every row, so the objective is the optimum of the full LP. The first
    round, the monotonicity and box rows, is one chain per pair: each
    distinct cost chain is solved once with the dense simplex, cached across
    LPs. The simplex assembles the cold solve's tableau from them
    (`solve_first_round`) and continues each later round from the last
    round's tableau, given the new rows only. Each of those tableaux holds a
    subset of the full LP's rows, so the budget bounds them all. HiGHS takes
    the same first point from the chain solves, so an LP whose chain point
    meets every triangle row makes no HiGHS call. Each later HiGHS round
    solves only the pairs that some active triangle row touches: every
    level of those pairs, under the active triangle rows and the pairs'
    monotonicity rows. The round's rows leave every other pair a chain of
    its own, which the chain round has solved, so the point that keeps its
    chain values there is optimal for the round's rows. The simplex's dual
    rounds leave those chains alone too, as they share no column with the
    rows added, so on both backends the pairs that no added row touches
    hold their chain values.
    iteration_cap bounds the simplex pivots of each round on the simplex
    backend only; a first round that needs more stalls at the origin. An LP
    without pairs (0 or 1 labels) has the empty point.

    The solution's `rounds` is the number of solves, the chain round
    counting as one, its `rows_used` the number of rows active in the last
    one (on HiGHS also those of the pairs it left at their chain values) and
    its `pivots` their pivots summed. A SolverError carries a `best` point
    only if that point satisfies every row of the full LP.
    """
    _check_tol("feas_tol", feas_tol)
    m = lp.n_rows + lp.n_vars
    entries = (m + 1) * (lp.n_vars + m + 1)
    backend = "simplex" if entries <= DENSE_TABLEAU_BUDGET else "highs"
    if not lp.n_vars:
        return _solution(lp, lp.c, backend)

    if backend == "simplex":
        last = None

        def solve_rows(active: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, int]:
            nonlocal last
            if last is None:
                last = solve_first_round(lp, iteration_cap)
            else:
                last = solve_dense(lp.c, lp.dense_matrix(new), np.zeros(len(new)),
                                   iteration_cap=iteration_cap, start=last)
            return last.x, last.iterations
    else:
        chain_x = None

        def solve_rows(active: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, int]:
            nonlocal chain_x
            if chain_x is None:
                _, chain_x, pivots = _solve_chains(*_chain_groups(lp))
                return chain_x, pivots
            rows, cols = _coupled(lp, active)
            x = chain_x.copy()
            x[cols], iterations = _solve_highs(lp, rows, cols)
            return x, iterations

    try:
        x, rounds, rows_used, pivots, tri_lhs = _solve_lazily(lp, solve_rows, feas_tol)
    except SimplexStall as exc:
        # a stalled point need not meet the rows not yet added, and one
        # stalled in a later round's dual phase not even the rows added
        best = _solution(lp, exc.x, backend)
        if max(best.max_violation().values()) > feas_tol:
            best = None
        raise SolverError("simplex hit its iteration cap", best) from exc
    sol = _solution(lp, x, backend, rounds, rows_used, pivots)
    # the last round's triangle sides are those of the solution's point
    worst = max(sol.max_violation(tri_lhs).values())
    if worst > feas_tol:
        raise SolverError(f"solution infeasible by {worst:.3e}")
    return sol


def _coupled(lp: LinearProgram, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of the pairs that the triangle rows among the
    sorted row indices `active` touch: those triangle rows, then the pairs'
    monotonicity rows, and every level of each pair, all in the LP's order."""
    n_tri, n_pairs = lp.n_tri, lp.n_vars // lp.n_levels
    tri = active[active < n_tri]
    touched = np.zeros(n_pairs, dtype=bool)
    per_level = _level_triangles(len(lp.labels))
    touched[per_level[tri % len(per_level)]] = True
    pairs = np.flatnonzero(touched)
    cols = (np.arange(lp.n_levels)[:, None] * n_pairs + pairs).ravel()
    # monotonicity row n_tri + m reads x[m + P] - x[m]: one per column below the top level
    return np.concatenate([tri, n_tri + cols[:len(cols) - len(pairs)]]), cols


def _solve_lazily(lp: LinearProgram, solve_rows, feas_tol: float
                  ) -> tuple[np.ndarray, int, int, int, np.ndarray]:
    """Cutting-plane loop over the triangle rows; returns x, rounds, rows used,
    pivots and the left sides of every triangle row at x clipped into [0,1].

    solve_rows(active, new) solves the LP restricted to the sorted row
    indices `active`, of which `new` joined in this round (all of them in the
    first), and returns its point and pivots. A row joins once the last point
    violates it by more than a hundredth of feas_tol, so the final check
    against all rows has room to spare.
    """
    n_tri = lp.n_tri
    in_active = np.arange(lp.n_rows) >= n_tri
    active = new = np.arange(n_tri, lp.n_rows)
    rounds = pivots = 0
    while True:
        rounds += 1
        x, round_pivots = solve_rows(active, new)
        pivots += round_pivots
        lhs = _triangle_lhs(len(lp.labels), np.clip(x, 0.0, 1.0).reshape(lp.n_levels, -1))
        new = np.flatnonzero((lhs.ravel() > feas_tol / 100) & ~in_active[:n_tri])
        if not len(new):
            return x, rounds, len(active), pivots, lhs
        in_active[new] = True
        active = np.flatnonzero(in_active)


def solve_first_round(lp: LinearProgram, iteration_cap: int | None = None
                      ) -> SimplexResult:
    """The cold simplex solve of lp's monotonicity and box rows.

    Those rows split into one chain per pair p: min c_p.x subject to
    x_{t+1} <= x_t and 0 <= x <= 1 over p's variable at each level t. A
    pivot of the cold solve reads and changes the entries of one chain
    only, and its entering and leaving rules pick the same pivot as a solve
    of that chain alone. So the cold tableau is the chain solves placed side
    by side: chain row r and column j of pair p are row r P + p and column
    j P + p of the full solve (P pairs), whose basis, x and pivot count
    follow. Only the objective's rhs cell, which no pivot reads, is summed
    in another order: over the pairs here, pivot by pivot there.

    Pairs with equal costs share one chain solve, cached across calls. The
    pivots are those of the cold solve; if they exceed iteration_cap (by
    default 10 per row, as in `solve_dense`), the solve stalls at the origin,
    which meets every row. Its tableau is bounded as `solve_lp` says.
    """
    n_levels = lp.n_levels
    n_pairs = lp.n_vars // n_levels
    m = (2 * n_levels - 1) * n_pairs  # n_levels - 1 monotonicity rows, n_levels box rows
    ncols = lp.n_vars + m
    if iteration_cap is None:
        iteration_cap = 10 * m

    chains, group = _chain_groups(lp)
    solved, x, iterations = _solve_chains(chains, group)
    if iterations > iteration_cap:
        raise SimplexStall("iteration cap reached", np.zeros(lp.n_vars), 0.0, 0)

    pair = np.arange(n_pairs)
    rows = np.arange(2 * n_levels) * n_pairs + pair[:, None]
    rows[:, -1] = m
    cols = np.arange(3 * n_levels) * n_pairs + pair[:, None]
    cols[:, -1] = ncols
    tableaux = np.stack([s.tableau for s in solved])[group]
    tableau = np.zeros((m + 1, ncols + 1))
    tableau[rows[:, :, None], cols[:, None, :]] = tableaux
    tableau[-1, -1] = tableaux[:, -1, -1].sum()
    basis = np.empty(m, dtype=np.intp)
    basis[rows[:, :-1]] = np.stack([s.basis for s in solved])[group] * n_pairs + pair[:, None]
    return SimplexResult(x=x, objective=float(lp.c @ x), iterations=iterations,
                         tableau=tableau, basis=basis)


def _chain_groups(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """lp's distinct cost chains, one row of levels each, and the index of
    each pair's chain among them."""
    n_levels = lp.n_levels
    n_pairs = lp.n_vars // n_levels
    chains = lp.c.reshape(n_levels, n_pairs).T
    order = np.lexsort(chains.T[::-1])
    ranked = chains[order]
    first = np.ones(n_pairs, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(n_pairs, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return ranked[first], group


def _solve_chains(chains: np.ndarray, group: np.ndarray
                  ) -> tuple[list[SimplexResult], np.ndarray, int]:
    """The first lazy round from its chain solves, on either backend: the
    solves of the distinct `chains`, the round's point in lp's variable
    order and its pivots, each chain's once per pair that shares it."""
    solved = [_solve_chain(cost.tobytes()) for cost in chains]
    iterations = int(np.bincount(group) @ [s.iterations for s in solved])
    x = np.stack([s.x for s in solved])[group].T.ravel()
    return solved, x, iterations


@functools.lru_cache(maxsize=128)
def _solve_chain(cost: bytes) -> SimplexResult:
    """Cold solve of one chain, min c.x s.t. x_{t+1} <= x_t, 0 <= x <= 1,
    for the float64 costs c in `cost`; its arrays are read-only. The cache
    holds the 73 distinct chains that fitting three random n=16 tables of
    values 1..4 as tree metrics, every pivot, uses, so that a second pass
    over them solves none again."""
    c = np.frombuffer(cost)
    steps = np.arange(len(c) - 1)
    a = np.zeros((len(steps), len(c)))
    a[steps, steps + 1] = 1.0
    a[steps, steps] = -1.0
    res = solve_dense(c, a, np.zeros(len(steps)))
    for values in (res.x, res.tableau, res.basis):
        values.flags.writeable = False
    return res


def _highspy():
    """scipy's bundled HiGHS binding, `scipy.optimize._highspy._core`.

    The extension file is loaded on its own, which imports neither scipy nor
    `scipy.optimize`, and registered in `sys.modules` under its own name, so
    a later `import scipy.optimize` uses this module and its pybind11 types
    are registered once; a module already there is returned as it is.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = Path(scipy.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no HiGHS extension module in {folder}", name=name)
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, str(path)))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def _highs_options():
    """The options `linprog(method="highs")` sets: presolve on, no output or
    logging, no debug checks, dual simplex."""
    highspy = _highspy()
    options = highspy.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = highspy.kHighsDebugLevelNone
    options.simplex_strategy = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _solve_highs(lp: LinearProgram, rows: np.ndarray, cols: np.ndarray
                 ) -> tuple[np.ndarray, int]:
    """HiGHS's point over the sorted variable indices `cols` and its simplex
    iterations, for lp restricted to the sorted row indices `rows`, whose
    every variable is among `cols`, and to those variables.

    It drives the binding that `scipy.optimize.linprog(method="highs")`
    calls, with the options linprog sets, so the point and the iteration
    count are linprog's on the costs `c[cols]` and the matrix
    `A[rows][:, cols]`; the rows go in row-wise, from `_coo`. The vectors go
    in as lists, which the binding copies faster than arrays.
    """
    highspy = _highspy()
    r, at, data = lp._coo(rows)
    n_rows, n_cols = len(rows), len(cols)
    model = highspy.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_cols
    model.num_row_ = model.a_matrix_.num_row_ = n_rows
    model.col_cost_ = lp.c[cols].tolist()
    model.col_lower_ = [0.0] * n_cols
    model.col_upper_ = [1.0] * n_cols
    model.row_lower_ = [-np.inf] * n_rows
    model.row_upper_ = [0.0] * n_rows
    model.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
    model.a_matrix_.start_ = np.searchsorted(r, np.arange(n_rows + 1)).tolist()
    model.a_matrix_.index_ = np.searchsorted(cols, at).tolist()
    model.a_matrix_.value_ = data.tolist()

    highs = highspy._Highs()
    highs.passOptions(_highs_options())
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        raise SolverError(f"highs failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value), highs.getInfo().simplex_iteration_count


def _solution(lp: LinearProgram, x: np.ndarray, backend: str, rounds: int = 1,
              rows_used: int | None = None, pivots: int = 0) -> LpSolution:
    x = np.clip(x, 0.0, 1.0)
    return LpSolution(labels=lp.labels, x=x.reshape(lp.n_levels, -1).copy(),
                      objective=lp.objective_value(x), backend=backend,
                      rounds=rounds, rows_used=rows_used, pivots=pivots)


# ---------------------------------------------------------------------------
# LP cost algebra
# ---------------------------------------------------------------------------

@dataclass
class LpCost:
    """Per-level and per-species LP costs of a fractional point."""

    inst: HccInstance
    sol: LpSolution
    pair_cost: np.ndarray = field(init=False)  # (n_levels, n_pairs)

    def __post_init__(self):
        deltas = np.array(self.inst.deltas)[:, None]
        x = self.sol.x
        edges = np.array([es.mask for es in self.inst.edge_sets])
        self.pair_cost = np.where(edges, deltas * x, deltas * (1.0 - x))

    @property
    def per_level(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.pair_cost.sum(axis=1))

    @property
    def total(self) -> float:
        return float(self.pair_cost.sum())

    def species(self, t: int, i: str) -> float:
        """cost of all pairs containing species i at level t (0-based)."""
        k = self.sol.labels.index(i)
        a, b = _pair_ends(len(self.sol.labels))
        return float(self.pair_cost[t, (a == k) | (b == k)].sum())


def lp_cost(inst: HccInstance, sol: LpSolution) -> LpCost:
    if sol.labels != inst.labels:
        raise ValueError("solution labels do not match the instance")
    if sol.n_levels != inst.n_levels:
        raise ValueError("solution level count does not match the instance")
    return LpCost(inst, sol)


def cost_edges(edges: EdgeSet, x) -> float:
    """Unweighted LP cost of an arbitrary edge set against one level row of
    `LpSolution.x`, summed pair by pair in `all_pairs` order."""
    x = _pair_vector(x, len(edges.universe))
    return functools.reduce(operator.add, np.where(edges.mask, x, 1.0 - x).tolist(), 0.0)


def hierarchy_cost(inst: HccInstance, hierarchy: HierarchySequence) -> float:
    """Integral objective: sum_t delta^(t) |E^(t) sym-diff cliques(P^(t))|."""
    if len(hierarchy) != inst.n_levels:
        raise ValueError("hierarchy level count does not match the instance")
    total = 0.0
    for t, part in enumerate(hierarchy.levels):
        total += inst.deltas[t] * sym_diff_size(inst.edge_sets[t], clique_edges(part))
    return total
