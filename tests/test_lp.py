import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from treefit import DistanceMatrix, fit_tree_metric, fit_ultrametric
from treefit.core import EdgeSet, HierarchySequence, Partition, all_pairs
import treefit.lp as lp_module
from treefit.lp import (
    DENSE_TABLEAU_BUDGET,
    HccInstance,
    LinearProgram,
    LpSolution,
    SolverError,
    build_lp,
    cost_edges,
    hierarchy_cost,
    lp_cost,
    solve_first_round,
    solve_lp,
)
from treefit.oracle import exact_hcc
import treefit.simplex as simplex_module
from treefit.simplex import (
    LEX_TOL,
    PIVOT_TOL,
    SimplexResult,
    SimplexStall,
    solve_dense,
)
from treefit.ultrametric import hcc_instance_from_distances
from conftest import (feasible_lp_maps, integral_solution, random_matrix, random_partition,
                      solve_on)

LABELS3 = ("a", "b", "c")


def es(universe, pairs):
    return EdgeSet.from_pairs(universe, pairs)


def random_instance(rng, n, n_levels, universe=None) -> HccInstance:
    universe = universe or tuple(f"s{k}" for k in range(n))
    pool = list(all_pairs(universe))
    sets = []
    for _ in range(n_levels):
        chosen = [p for p in pool if rng.random() < rng.uniform(0.2, 0.8)]
        sets.append(es(universe, chosen))
    deltas = tuple(rng.uniform(0.3, 2.5) for _ in range(n_levels))
    return HccInstance(universe, deltas, tuple(sets))


class TestHccInstanceEquality:
    def test_instances_compare_by_value(self, rng):
        inst = random_instance(rng, 5, 3)
        again = HccInstance(inst.labels, inst.deltas, tuple(
            EdgeSet(e.universe, e.mask.copy()) for e in inst.edge_sets))
        assert inst == again and hash(inst) == hash(again)
        flipped = inst.edge_sets[0].mask.copy()
        flipped[0] = not flipped[0]
        assert inst != HccInstance(inst.labels, inst.deltas,
                                   (EdgeSet(inst.labels, flipped),) + inst.edge_sets[1:])
        assert inst != HccInstance(inst.labels, (9.0,) + inst.deltas[1:], inst.edge_sets)
        # the fit's instance of a table equals a fresh slicing of it
        d = random_matrix(rng, inst.labels, range(1, 5))
        assert fit_ultrametric(d).details["instance"] == hcc_instance_from_distances(d)[0]


class TestBuildLp:
    def test_counts_single_level(self):
        inst = HccInstance(LABELS3, (1.0,), (es(LABELS3, [("a", "b"), ("b", "c")]),))
        lp = build_lp(inst)
        assert lp.n_vars == 3
        assert lp.n_tri == 3
        assert lp.n_rows - lp.n_tri == 0

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_weight_not_positive_and_finite(self, delta):
        with pytest.raises(ValueError, match="positive and finite"):
            HccInstance(LABELS3, (1.0, delta), (es(LABELS3, []), es(LABELS3, [])))

    def test_counts_two_levels(self):
        inst = HccInstance(LABELS3, (1.0, 1.0),
                           (es(LABELS3, []), es(LABELS3, [("a", "b")])))
        lp = build_lp(inst)
        assert lp.n_vars == 6
        assert lp.n_tri == 6
        assert lp.n_rows - lp.n_tri == 3

    def test_stores_no_row_arrays(self, rng):
        # the rows follow from the label count and n_levels, so only the
        # objective is held: no array larger than c
        assert [f.name for f in dataclasses.fields(LinearProgram)] == [
            "labels", "n_levels", "c", "const"]
        lp = build_lp(random_instance(rng, 40, 3))
        assert lp.n_rows > lp.n_vars
        arrays = [v for v in vars(lp).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.nbytes <= lp.c.nbytes for a in arrays)

    def test_two_point_objective(self):
        inst = HccInstance(("a", "b"), (2.0,), (es("ab", [("a", "b")]),))
        lp = build_lp(inst)
        assert lp.const == 0.0
        assert list(lp.c) == [2.0]
        assert solve_lp(lp).objective == pytest.approx(0.0)


class TestSolveLp:
    def test_path_optimum(self):
        # brute force over all integral hierarchies on 3 labels gives 1 and
        # the relaxation matches it (an integral vertex is optimal)
        inst = HccInstance(LABELS3, (1.0,), (es(LABELS3, [("a", "b"), ("b", "c")]),))
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_conflicting_levels_optimum(self):
        # edges at the bottom level, none at the top: monotonicity makes the
        # single pair pay at one of the two levels, so the optimum is 1
        inst = HccInstance(("a", "b"), (1.0, 1.0),
                           (es("ab", [("a", "b")]), es("ab", [])))
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_nested_cliques_zero_and_integral(self):
        q1 = Partition.from_parts("abcd", [{"a", "b"}, {"c"}, {"d"}])
        q2 = Partition.from_parts("abcd", [{"a", "b", "c"}, {"d"}])
        inst = HccInstance.from_partitions("abcd", (1.0, 2.0), [q1, q2])
        sol = solve_lp(build_lp(inst))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.all((sol.x == 0.0) | (sol.x == 1.0))

    def test_feasibility_post_solve(self, rng):
        for _ in range(15):
            inst = random_instance(rng, rng.randint(3, 6), rng.randint(1, 3))
            sol = solve_lp(build_lp(inst))
            worst = sol.max_violation()
            assert max(worst.values()) <= 1e-7

    def test_lower_bounds_every_integral_hierarchy(self, rng):
        for _ in range(8):
            inst = random_instance(rng, rng.randint(3, 5), rng.randint(1, 3))
            sol = solve_lp(build_lp(inst))
            _, best = exact_hcc(inst)
            assert sol.objective <= best + 1e-6

    def test_backends_agree(self, rng):
        for _ in range(6):
            inst = random_instance(rng, rng.randint(3, 6), rng.randint(1, 2))
            lp = build_lp(inst)
            a = solve_on("simplex", lp).objective
            b = solve_on("highs", lp).objective
            assert a == pytest.approx(b, abs=1e-6)

    def test_objective_scaling(self, rng):
        inst = random_instance(rng, 5, 2)
        factor = 7.5
        scaled = HccInstance(inst.labels,
                             tuple(d * factor for d in inst.deltas),
                             inst.edge_sets)
        sol = solve_lp(build_lp(inst))
        # same point costs exactly factor times more on the scaled instance
        direct = sum(
            scaled.deltas[t] * cost_edges(scaled.edge_sets[t], sol.x[t])
            for t in range(scaled.n_levels))
        assert direct == pytest.approx(factor * sol.objective, rel=1e-9)
        resolved = solve_lp(build_lp(scaled))
        assert resolved.objective == pytest.approx(factor * sol.objective, rel=1e-6)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_bad_feasibility_tolerance(self, tol):
        inst = HccInstance(LABELS3, (1.0,), (es(LABELS3, [("a", "b"), ("b", "c")]),))
        with pytest.raises(ValueError, match="feas_tol"):
            solve_lp(build_lp(inst), tol)

    def test_later_round_stall_keeps_only_a_feasible_best(self, rng, monkeypatch):
        # solve_dense's iteration cap bounds a later round's pivots, dual and
        # primal together: under a smaller cap, set here on the later rounds
        # only, the rounds go as without it up to the first that needs more
        # pivots, which stops after exactly cap of them. It continues from
        # the last tableau, so its point may violate the rows it added; it
        # is handed back only if it meets every row of the full LP. A loose
        # feas_tol lets some stalled points pass.
        seen = set()
        for feas_tol in (lp_module.DEFAULT_FEAS_TOL, 0.5):
            for _ in range(20):
                lp = build_lp(table_instance(rng, rng.randint(5, 8), False))
                rounds = record_rounds(monkeypatch)
                solve_on("simplex", lp, feas_tol)
                per_round = [pivots for _, pivots in rounds]
                for cap in range(per_round[0], max(per_round[1:], default=0)):
                    rounds = record_rounds(monkeypatch, cap)
                    with pytest.raises(SolverError) as err:
                        solve_on("simplex", lp, feas_tol)
                    stalled_round = next(k for k, p in enumerate(per_round) if p > cap)
                    assert stalled_round >= 1
                    assert [pivots for _, pivots in rounds] == per_round[:stalled_round]
                    assert err.value.__cause__.iterations == cap
                    stalled = np.clip(err.value.__cause__.x, 0.0, 1.0)
                    point = LpSolution(labels=lp.labels,
                                       x=stalled.reshape(lp.n_levels, -1), objective=0.0)
                    feasible = max(point.max_violation().values()) <= feas_tol
                    if feasible:
                        assert np.array_equal(err.value.best.x, point.x)
                    else:
                        assert err.value.best is None
                    seen.add((feas_tol, feasible))
        assert {(lp_module.DEFAULT_FEAS_TOL, False), (0.5, False), (0.5, True)} <= seen

    def test_xii_is_zero_by_convention(self):
        inst = HccInstance(LABELS3, (1.0,), (es(LABELS3, []),))
        sol = solve_lp(build_lp(inst))
        assert sol.value(0, "a", "a") == 0.0


class TestLpCost:
    def test_integral_match_is_free(self):
        q = Partition.from_parts("abcd", [{"a", "b"}, {"c", "d"}])
        inst = HccInstance.from_partitions("abcd", (3.0,), [q])
        sol = integral_solution(inst, HierarchySequence((q,)))
        assert lp_cost(inst, sol).total == 0.0

    def test_half_everywhere(self):
        labels = tuple("abcd")
        inst = HccInstance(labels, (1.0,), (es(labels, [("a", "b")]),))
        sol = integral_solution(inst, HierarchySequence((Partition.singletons(labels),)))
        sol.x[:] = 0.5
        assert lp_cost(inst, sol).total == pytest.approx(0.5 * 6)

    def test_species_costs_double_count(self, rng):
        inst = random_instance(rng, 5, 2)
        sol = solve_lp(build_lp(inst))
        costs = lp_cost(inst, sol)
        for t in range(inst.n_levels):
            total_i = sum(costs.species(t, i) for i in inst.labels)
            assert total_i == pytest.approx(2.0 * costs.per_level[t], rel=1e-9)

    def test_hierarchy_cost_equals_integral_point_objective(self, rng):
        labels = tuple(f"s{k}" for k in range(5))
        inst = random_instance(rng, 5, 2, universe=labels)
        chain = [random_partition(rng, labels)]
        parts = list(chain[0].parts)
        merged = [set(parts[0])]
        for p in parts[1:]:
            merged[0] |= p
        chain.append(Partition.from_parts(labels, merged))
        h = HierarchySequence(tuple(chain))
        assert hierarchy_cost(inst, h) == pytest.approx(
            integral_solution(inst, h).objective, rel=1e-12)


class TestCostEdges:
    def test_exact_match_zero(self):
        universe = tuple("abc")
        e = es(universe, [("a", "b")])
        x = np.array([0.0, 1.0, 1.0])  # ab, ac, bc
        assert cost_edges(e, x) == 0.0

    def test_empty_edges_all_ones(self):
        universe = tuple("abc")
        x = np.ones(3)
        assert cost_edges(es(universe, []), x) == 0.0

    def test_rejects_a_row_of_the_wrong_length(self):
        e = es(tuple("abc"), [("a", "b")])
        for bad in (np.ones(2), np.ones(4), np.ones((1, 3))):
            with pytest.raises(ValueError, match="for the pairs of 3 labels"):
                cost_edges(e, bad)

    def test_cost_difference_bounded_by_sym_diff(self, rng):
        # |cost(E1,x) - cost(E2,x)| <= |E1 sym-diff E2| for fractional x,
        # which gives the delta-weighted comparison for any level weight
        universe = tuple(f"s{k}" for k in range(6))
        pool = list(all_pairs(universe))
        for _ in range(50):
            e1 = es(universe, [p for p in pool if rng.random() < 0.5])
            e2 = es(universe, [p for p in pool if rng.random() < 0.5])
            maps = feasible_lp_maps(rng, universe, 1)[0]
            x = np.array([maps[p] for p in pool])
            c1, c2 = cost_edges(e1, x), cost_edges(e2, x)
            diff = len(e1.edges ^ e2.edges)
            assert abs(c1 - c2) <= diff + 1e-9


# ---------------------------------------------------------------------------
# Reference simplex: the full-tableau loop with the column-by-column tie-break
# ---------------------------------------------------------------------------

def reference_solve_dense(c, a, b, *, iteration_cap=None):
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nvars = c.shape[0]
    if np.any(b < 0):
        raise ValueError("rhs must be nonnegative (origin must be feasible)")

    m = a.shape[0] + nvars
    ncols = nvars + m
    if iteration_cap is None:
        iteration_cap = 10 * m

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[: a.shape[0], :nvars] = a
    tableau[a.shape[0] : m, :nvars] = np.eye(nvars)
    tableau[:m, nvars : nvars + m] = np.eye(m)
    tableau[: a.shape[0], -1] = b
    tableau[a.shape[0] : m, -1] = 1.0
    tableau[-1, :nvars] = c

    basis = list(range(nvars, nvars + m))
    return reference_primal(tableau, basis, c, 0, iteration_cap)


def reference_primal(tableau, basis, c, iterations, iteration_cap):
    """The primal loop from the given tableau, after `iterations` pivots."""
    nvars = len(c)
    m = tableau.shape[0] - 1
    ncols = tableau.shape[1] - 1
    lex_order = [ncols] + list(range(nvars, ncols)) + list(range(nvars))

    while True:
        reduced = tableau[-1, :ncols]
        entering = int(np.argmin(reduced))
        if reduced[entering] >= -PIVOT_TOL:
            break
        if iterations >= iteration_cap:
            x = reference_extract(tableau, basis, nvars)
            raise SimplexStall("iteration cap reached", x, float(c @ x), iterations)

        col = tableau[:m, entering]
        rhs = tableau[:m, -1]
        positive = col > PIVOT_TOL
        if not positive.any():
            raise RuntimeError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = rhs[positive] / col[positive]
        best = ratios.min()
        candidates = np.nonzero(ratios <= best + LEX_TOL)[0]
        if len(candidates) == 1:
            leaving = int(candidates[0])
        else:
            leaving = reference_lex_leaving(tableau, candidates, entering, lex_order)
        reference_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1

    x = reference_extract(tableau, basis, nvars)
    return SimplexResult(x=x, objective=float(c @ x), iterations=iterations,
                         tableau=tableau, basis=np.array(basis))


def reference_pivot(tableau, leaving, entering):
    """Full-tableau pivot: every row takes its multiple of the pivot row."""
    pivot = tableau[leaving, entering]
    row = tableau[leaving]
    np.divide(row, pivot, out=row)
    factor = tableau[:, entering].copy()
    factor[leaving] = 0.0
    np.subtract(tableau, factor[:, None] * row[None, :], out=tableau)
    tableau[:, entering] = 0.0
    tableau[leaving, entering] = 1.0


def reference_warm_solve(start, c, a, b, *, iteration_cap=None):
    """Rows a x <= b added to start's tableau, the full-tableau dual loop,
    then the primal loop. The dual loop's ties go to the first column when
    the objective rises, and otherwise to a term-by-term lexicographic test
    in the order fixed at the first pivot of the degenerate run."""
    c = np.asarray(c, dtype=float)
    nvars = len(c)
    old = start.tableau
    m0, ncols0, k = old.shape[0] - 1, old.shape[1] - 1, len(a)
    m, ncols = m0 + k, ncols0 + k
    if iteration_cap is None:
        iteration_cap = 10 * m

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m0, :ncols0] = old[:m0, :ncols0]
    tableau[:m0, -1] = old[:m0, -1]
    tableau[-1, :ncols0] = old[-1, :ncols0]
    tableau[-1, -1] = old[-1, -1]
    for i in range(k):
        tableau[m0 + i, :nvars] = a[i]
        tableau[m0 + i, ncols0 + i] = 1.0
        tableau[m0 + i, -1] = b[i]
    # the new rows in the current nonbasic variables: each takes away its
    # entry times the row of every basic structural column, in row order
    for i in range(k):
        row = tableau[m0 + i]
        for r, v in enumerate(start.basis):
            if v < nvars and row[v] != 0.0:
                row -= row[v] * tableau[r]
    basis = list(start.basis) + list(range(ncols0, ncols))

    perturb = None
    iterations = 0
    while True:
        rhs = tableau[:m, -1]
        leaving = int(np.argmin(rhs))
        if rhs[leaving] >= -PIVOT_TOL:
            break
        if iterations >= iteration_cap:
            x = reference_extract(tableau, basis, nvars)
            raise SimplexStall("iteration cap reached", x, float(c @ x), iterations)
        row = tableau[leaving, :ncols]
        negative = row < -PIVOT_TOL
        if not negative.any():
            raise RuntimeError("LP is infeasible")
        ratios = np.full(ncols, np.inf)
        ratios[negative] = tableau[-1, :ncols][negative] / -row[negative]
        candidates = np.nonzero(ratios <= ratios.min() + LEX_TOL)[0]
        if ratios.min() > PIVOT_TOL:  # the objective rises: first tied column
            perturb = None
            entering = int(candidates[0])
        else:  # a degenerate pivot: lexicographic, in the order of the run's start
            if perturb is None:
                perturb = perturbation_order(basis, ncols)
            entering = reference_lex_entering(tableau, candidates, leaving, basis, perturb)
        reference_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1
    return reference_primal(tableau, basis, c, iterations, iteration_cap)


def perturbation_order(basis, ncols):
    """The nonbasic columns, then the basic ones, each in decreasing index order."""
    basic = set(basis)
    nonbasic = [j for j in range(ncols) if j not in basic]
    return nonbasic[::-1] + sorted(basic, reverse=True)


def reference_lex_entering(tableau, candidates, leaving, basis, perturb):
    """The candidate least in the perturbed reduced costs over the tableau's
    row, one perturbation term at a time: column k's term in candidate j is
    T[row of k, j] / T[leaving, j] if k is basic, -1 / T[leaving, j] if k
    is j, and 0 otherwise."""
    row_of = {v: r for r, v in enumerate(basis)}
    cands = list(candidates)
    for k in perturb:
        if k in row_of:
            vals = np.array([tableau[row_of[k], j] / tableau[leaving, j] for j in cands])
        else:
            vals = np.array([-1.0 / tableau[leaving, j] if j == k else 0.0 for j in cands])
        keep = vals <= vals.min() + LEX_TOL
        cands = [j for j, kept in zip(cands, keep) if kept]
        if len(cands) == 1:
            break
    return int(cands[0])


def reference_lex_leaving(tableau, candidates, entering, lex_order):
    cands = np.asarray(candidates)
    piv = tableau[cands, entering]
    for col in lex_order:
        vals = tableau[cands, col] / piv
        best = vals.min()
        keep = vals <= best + LEX_TOL
        cands = cands[keep]
        piv = piv[keep]
        if len(cands) == 1:
            break
    return int(cands[0])


def reference_extract(tableau, basis, nvars):
    x = np.zeros(nvars)
    for row, var in enumerate(basis):
        if var < nvars:
            x[var] = tableau[row, -1]
    return x


def lex_drop_columns(tableau, candidates, entering, lex_order) -> int:
    """Columns at which the reference tie-break drops some of its rows."""
    cands = np.asarray(candidates)
    piv = tableau[cands, entering]
    drops = 0
    for col in lex_order:
        vals = tableau[cands, col] / piv
        keep = vals <= vals.min() + LEX_TOL
        drops += not keep.all()
        cands, piv = cands[keep], piv[keep]
        if len(cands) == 1:
            break
    return drops


def simplex_outcome(solve, c, a, cap):
    """x bytes and pivot count of a solve, or of the point it stalled at."""
    try:
        res = solve(c, a, np.zeros(len(a)), iteration_cap=cap)
    except SimplexStall as stall:
        return "stall", stall.x.tobytes(), stall.iterations
    return "optimal", res.x.tobytes(), res.iterations


def lazy_row_sets(lp) -> list[np.ndarray]:
    """The row subsets a cutting-plane loop of cold solves takes to lp's optimum."""
    seen = []

    def solve_rows(active, new):
        seen.append(active)
        res = solve_dense(lp.c, lp.dense_matrix(active), np.zeros(len(active)))
        return res.x, res.iterations

    lp_module._solve_lazily(lp, solve_rows, lp_module.DEFAULT_FEAS_TOL)
    return seen


def warm_outcome(solve, start, c, a, cap):
    """x bytes and pivot count of a warm solve, or of the point it stalled at."""
    try:
        res = solve(start, c, a, np.zeros(len(a)), iteration_cap=cap)
    except SimplexStall as stall:
        return "stall", stall.x.tobytes(), stall.iterations
    return "optimal", res.x.tobytes(), res.iterations


def kernel_warm_solve(start, c, a, b, *, iteration_cap=None):
    return solve_dense(c, a, b, iteration_cap=iteration_cap, start=start)


def lex_entering_drops(tableau, candidates, leaving, basis, perturb, n_first):
    """Perturbation terms at which the reference dual tie-break drops some of
    its candidates, and whether it goes past the first n_first terms."""
    row_of = {v: r for r, v in enumerate(basis)}
    cands = list(candidates)
    drops = 0
    for pos, k in enumerate(perturb):
        if k in row_of:
            vals = np.array([tableau[row_of[k], j] / tableau[leaving, j] for j in cands])
        else:
            vals = np.array([-1.0 / tableau[leaving, j] if j == k else 0.0 for j in cands])
        keep = vals <= vals.min() + LEX_TOL
        drops += not keep.all()
        cands = [j for j, kept in zip(cands, keep) if kept]
        if len(cands) == 1:
            break
    return drops, pos >= n_first


# tableau entries times pivots squared, above which a solve is checked at a
# spread of caps instead of at every one
EVERY_CAP_WORK = 2e7


class TestSimplexDirect:
    def test_tiny_lp(self):
        # min -x - y st x + y <= 1.5, x,y in [0,1] -> -1.5
        res = solve_dense(np.array([-1.0, -1.0]),
                          np.array([[1.0, 1.0]]), np.array([1.5]))
        assert res.objective == pytest.approx(-1.5)

    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError):
            solve_dense(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "a", "b"])
    def test_rejects_non_finite_input(self, name, bad):
        args = {"c": [-1.0, -1.0], "a": [[1.0, 1.0]], "b": [1.5]}
        values = np.array(args[name])
        values.flat[0] = bad
        args[name] = values
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_dense(args["c"], args["a"], args["b"])

    def test_warm_start_needs_the_same_variables(self):
        res = solve_dense([-1.0, -1.0], [[1.0, 1.0]], [1.5])
        with pytest.raises(ValueError, match="start solved for 2 variables, not 3"):
            solve_dense([-1.0, -1.0, 0.0], np.zeros((1, 3)), [0.0], start=res)

    def test_warm_start_adds_rows(self):
        # min -x - y st x + y <= 1.5, then x - y <= -0.25: the warm solve
        # reaches the optimum of both rows, whose point meets the new row,
        # and leaves the first result as it was
        first = solve_dense([-1.0, -1.0], [[1.0, 1.0]], [1.5])
        kept = first.tableau.copy()
        res = solve_dense([-1.0, -1.0], [[1.0, -1.0]], [-0.25], start=first)
        assert res.objective == pytest.approx(-1.5)
        assert res.x[0] - res.x[1] <= -0.25 + 1e-12
        assert res.iterations >= 1
        assert np.array_equal(first.tableau, kept)
        assert res.tableau.shape == (first.tableau.shape[0] + 1, first.tableau.shape[1] + 1)

    def test_stall_exception_carries_point(self):
        with pytest.raises(SimplexStall) as err:
            solve_dense(np.array([-1.0, -1.0]),
                        np.array([[1.0, 1.0]]), np.array([1.5]),
                        iteration_cap=0)
        assert err.value.x.shape == (2,)

    def test_negative_zero_inputs_solve_as_zero(self, rng):
        for _ in range(10):
            lp = build_lp(random_instance(rng, rng.randint(3, 6), rng.randint(1, 3)))
            active = lazy_row_sets(lp)[-1]
            a = lp.dense_matrix(active)
            b = np.zeros(len(active))
            want = solve_dense(lp.c, a, b)
            got = solve_dense(lp.c, np.where(a == 0.0, -0.0, a), -b)
            assert got.iterations == want.iterations
            assert got.x.tobytes() == want.x.tobytes()

    def test_pivot_path_matches_reference(self, rng, monkeypatch):
        drops = []
        kernel_lex = simplex_module._lex_leaving

        def checked_lex(tableau, tied, entering, lex_order):
            leaving = kernel_lex(tableau, tied, entering, lex_order)
            order = lex_order.tolist()
            assert leaving == reference_lex_leaving(tableau, tied, entering, order)
            drops.append(lex_drop_columns(tableau, tied, entering, order))
            return leaving

        solves = capped = 0
        for _ in range(12):
            lp = build_lp(random_instance(rng, rng.randint(3, 9), rng.randint(1, 4)))
            row_sets = lazy_row_sets(lp)
            if lp.n_rows <= 300:
                row_sets.append(np.arange(lp.n_rows))
            for active in row_sets:
                a = lp.dense_matrix(active)
                want = simplex_outcome(reference_solve_dense, lp.c, a, None)
                with monkeypatch.context() as patch:
                    patch.setattr(simplex_module, "_lex_leaving", checked_lex)
                    assert simplex_outcome(solve_dense, lp.c, a, None) == want
                pivots = want[2]
                entries = (len(a) + lp.n_vars + 1) * (len(a) + 2 * lp.n_vars + 1)
                if entries * pivots ** 2 <= EVERY_CAP_WORK:
                    caps = range(pivots)
                else:
                    caps = sorted({pivots * k // 8 for k in range(8)})
                for cap in caps:
                    assert (simplex_outcome(solve_dense, lp.c, a, cap)
                            == simplex_outcome(reference_solve_dense, lp.c, a, cap))
                solves += 1
                capped += len(caps)
        # tie-breaks that drop rows at two or more columns, not only at the first
        assert sum(d >= 2 for d in drops) >= 100
        assert solves >= 30 and capped >= 400

    def test_warm_rounds_match_reference(self, rng, monkeypatch):
        # every later round of the lazy loop continues from the last tableau;
        # its points, pivot counts, final tableaux and capped stall points
        # equal those of the full-tableau dual-then-primal reference
        drops = []
        kernel_lex = simplex_module._lex_entering

        def checked_lex(tableau, tied, leaving, basis, was_basic):
            entering = kernel_lex(tableau, tied, leaving, basis, was_basic)
            perturb = perturbation_order(np.flatnonzero(was_basic).tolist(), len(was_basic))
            args = (tableau, tied, leaving, basis.tolist(), perturb)
            assert entering == reference_lex_entering(*args)
            drops.append(lex_entering_drops(*args, len(was_basic) - was_basic.sum()))
            return entering

        monkeypatch.setattr(simplex_module, "_lex_entering", checked_lex)
        later = capped = 0
        for _ in range(30):
            lp = build_lp(random_instance(rng, rng.randint(3, 9), rng.randint(1, 4)))
            states = []

            def solve_rows(active, new):
                nonlocal later, capped
                a = lp.dense_matrix(new)
                if not states:  # round 1 is cold, as test_pivot_path_matches_reference pins
                    got = solve_dense(lp.c, a, np.zeros(len(a)))
                    want = reference_solve_dense(lp.c, a, np.zeros(len(a)))
                else:
                    start_got, start_want = states[-1]
                    got = kernel_warm_solve(start_got, lp.c, a, np.zeros(len(a)))
                    want = reference_warm_solve(start_want, lp.c, a, np.zeros(len(a)))
                    pivots = want.iterations
                    entries = want.tableau.size
                    if entries * pivots ** 2 <= EVERY_CAP_WORK:
                        caps = range(pivots)
                    else:
                        caps = sorted({pivots * k // 8 for k in range(8)})
                    for cap in caps:
                        assert (warm_outcome(kernel_warm_solve, start_got, lp.c, a, cap)
                                == warm_outcome(reference_warm_solve, start_want, lp.c, a,
                                                cap))
                    later += 1
                    capped += len(caps)
                assert got.x.tobytes() == want.x.tobytes()
                assert got.iterations == want.iterations
                assert got.tableau.tobytes() == want.tableau.tobytes()
                assert np.array_equal(got.basis, want.basis)
                states.append((got, want))
                return got.x, got.iterations

            lp_module._solve_lazily(lp, solve_rows, lp_module.DEFAULT_FEAS_TOL)
        # dual tie-breaks that drop candidates at two or more terms
        assert sum(d >= 2 for d, _ in drops) >= 250
        assert later >= 40 and capped >= 300

    def test_dual_tie_break_matches_reference(self, rng):
        # tableaux of small integers, whose ties are exact, and bases a few
        # pivots away from the run's start, so that candidates which left
        # the basis in the run often tie through every column nonbasic at
        # the start and are told apart only by the columns basic then
        second = 0
        for _ in range(400):
            m, extra = rng.randint(3, 9), rng.randint(3, 9)
            ncols = m + extra
            cols = list(range(ncols))
            rng.shuffle(cols)
            basis, nonbasic = cols[:m], cols[m:]
            tableau = np.array([[float(rng.choice((-2, -1, 0, 0, 0, 1, 2)))
                                 for _ in range(ncols + 1)] for _ in range(m + 1)])
            tableau[:m, basis] = np.eye(m)
            leaving = rng.randrange(m)
            tableau[leaving, nonbasic] = [-float(rng.randint(1, 2)) for _ in nonbasic]
            swaps = rng.randint(2, min(m, extra))
            left, entered = nonbasic[:swaps], rng.sample(basis, swaps)
            was_basic = np.zeros(ncols, dtype=bool)
            was_basic[[j for j in basis if j not in entered] + left] = True
            for j in entered:  # most rows of entered columns miss the left ones
                if basis.index(j) != leaving and rng.random() < 0.7:
                    tableau[basis.index(j), left] = 0.0
            tied = np.array(sorted(set(left) | set(rng.sample(nonbasic, rng.randint(1, extra)))))
            perturb = perturbation_order(np.flatnonzero(was_basic).tolist(), ncols)
            got = simplex_module._lex_entering(tableau, tied, leaving, np.array(basis),
                                               was_basic)
            assert got == reference_lex_entering(tableau, tied, leaving, basis, perturb)
            second += lex_entering_drops(tableau, tied, leaving, basis, perturb,
                                         ncols - m)[1]
        assert second >= 100


class TestDump:
    def test_dump_roundtrip_values(self):
        inst = HccInstance(LABELS3, (1.0,), (es(LABELS3, [("a", "b"), ("b", "c")]),))
        lp = build_lp(inst)
        sol = solve_lp(lp)
        text = lp.dump_text(sol.x.reshape(-1), sol.objective)
        assert "min:" in text and "subject_to[triangle]" in text
        assert f"objective_value: {sol.objective!r}" in text


# ---------------------------------------------------------------------------
# Reference formulation: the per-entry loops the array builder replaced
# ---------------------------------------------------------------------------

def canon_pair(idx, i, j):
    """The pair ordered by label position, as the reference's dict keys are."""
    return (i, j) if idx[i] < idx[j] else (j, i)


def var_name(inst: HccInstance, v: int) -> str:
    """The reference name of LP variable v: level, then pair."""
    pairs = list(all_pairs(inst.labels))
    t, p = divmod(v, len(pairs))
    i, j = pairs[p]
    return f"x_t{t + 1}_{i}_{j}"


def lp_rows(lp):
    """The LP's rows as (columns, coefficients) and kinds, read from the
    coordinate arrays `_coo` derives: the first `n_tri` are triangle rows."""
    r, cols, data = lp._coo()
    ends = np.searchsorted(r, np.arange(lp.n_rows + 1))
    rows = [(tuple(cols[a:b].tolist()), tuple(data[a:b].tolist()))
            for a, b in zip(ends[:-1], ends[1:])]
    return rows, ["triangle"] * lp.n_tri + ["monotone"] * (lp.n_rows - lp.n_tri)


def reference_rows(inst: HccInstance):
    pairs = tuple(all_pairs(inst.labels))
    pair_index = {p: k for k, p in enumerate(pairs)}
    n_pairs = len(pairs)
    idx = {lab: k for k, lab in enumerate(inst.labels)}
    rows, kinds = [], []
    for t in range(inst.n_levels):
        base = t * n_pairs
        for i, j, k in itertools.combinations(inst.labels, 3):
            vij = base + pair_index[canon_pair(idx, i, j)]
            vik = base + pair_index[canon_pair(idx, i, k)]
            vjk = base + pair_index[canon_pair(idx, j, k)]
            rows.append(((vij, vik, vjk), (1.0, -1.0, -1.0)))
            rows.append(((vik, vij, vjk), (1.0, -1.0, -1.0)))
            rows.append(((vjk, vij, vik), (1.0, -1.0, -1.0)))
            kinds.extend(["triangle"] * 3)
    for t in range(inst.n_levels - 1):
        for p in range(n_pairs):
            rows.append((((t + 1) * n_pairs + p, t * n_pairs + p), (1.0, -1.0)))
            kinds.append("monotone")
    return rows, kinds


def reference_sparse(rows, n_vars):
    data, rows_ix, cols_ix = [], [], []
    for r, (cols, coefs) in enumerate(rows):
        for col, coef in zip(cols, coefs):
            rows_ix.append(r)
            cols_ix.append(col)
            data.append(coef)
    return csr_matrix((data, (rows_ix, cols_ix)), shape=(len(rows), n_vars))


def reference_dump(inst, lp, rows, kinds, x=None, objective=None):
    lines = ["# lp-dump v1", f"# vars {lp.n_vars} rows {len(rows)}"]
    if x is not None:
        for v in range(lp.n_vars):
            lines.append(f"var {var_name(inst, v)} = {float(x[v])!r}")
    terms = " + ".join(
        f"{float(lp.c[v])!r}*{var_name(inst, v)}" for v in range(lp.n_vars))
    lines.append(f"min: {terms} + {float(lp.const)!r}")
    for (cols, coefs), kind in zip(rows, kinds):
        lhs = " + ".join(f"{float(coef)!r}*{var_name(inst, col)}"
                         for col, coef in zip(cols, coefs))
        lines.append(f"subject_to[{kind}]: {lhs} <= 0.0")
    lines.append("bounds: 0 <= all_vars <= 1")
    if objective is not None:
        lines.append(f"objective_value: {float(objective)!r}")
    return "\n".join(lines) + "\n"


def reference_max_violation(labels, pairs, x):
    pair_index = {p: k for k, p in enumerate(pairs)}
    idx = {lab: k for k, lab in enumerate(labels)}

    def value(t, i, j):
        return float(x[t, pair_index[canon_pair(idx, i, j)]])

    tri = 0.0
    for t in range(x.shape[0]):
        for i, j, k in itertools.combinations(labels, 3):
            xij, xik, xjk = value(t, i, j), value(t, i, k), value(t, j, k)
            tri = max(tri, xij - xik - xjk, xik - xij - xjk, xjk - xij - xik)
    mono = 0.0
    for t in range(x.shape[0] - 1):
        mono = max(mono, float(np.max(x[t + 1] - x[t])))
    box = max(0.0, float(np.max(x - 1.0)), float(np.max(-x)))
    return {"triangle": tri, "monotone": mono, "box": box}


class TestArrayBuilderMatchesReference:
    def test_rows_matrices_objective_and_dump(self, rng):
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 8), rng.randint(1, 4))
            lp = build_lp(inst)
            rows, kinds = reference_rows(inst)
            assert lp_rows(lp) == (rows, kinds)
            assert lp.n_rows == len(rows)

            dense = np.zeros((len(rows), lp.n_vars))
            for r, (cols, coefs) in enumerate(rows):
                dense[r, list(cols)] = coefs
            assert np.array_equal(lp.dense_matrix(), dense)
            got, want = lp.sparse_matrix(), reference_sparse(rows, lp.n_vars)
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))

            c, const = np.zeros(lp.n_vars), 0.0
            pairs = list(all_pairs(inst.labels))
            for t in range(inst.n_levels):
                for p, pair in enumerate(pairs):
                    if pair in inst.edge_sets[t].edges:
                        c[t * len(pairs) + p] = inst.deltas[t]
                    else:
                        c[t * len(pairs) + p] = -inst.deltas[t]
                        const += inst.deltas[t]
            assert np.array_equal(lp.c, c) and lp.const == const

            x = np.array([rng.random() for _ in range(lp.n_vars)])
            assert lp.dump_text(x, 1.25) == reference_dump(inst, lp, rows, kinds, x, 1.25)
            assert lp.dump_text() == reference_dump(inst, lp, rows, kinds)

    def test_solution_needs_one_column_per_pair(self):
        for bad in (np.zeros((1, 2)), np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(ValueError, match="for the pairs of 3 labels"):
                LpSolution(labels=LABELS3, x=bad, objective=0.0)

    def test_max_violation_identical_floats(self, rng):
        for _ in range(40):
            n, n_levels = rng.randint(2, 8), rng.randint(1, 4)
            labels = tuple(f"s{k}" for k in range(n))
            pairs = tuple(all_pairs(labels))
            x = np.array([[rng.uniform(-0.2, 1.2) for _ in pairs]
                          for _ in range(n_levels)])
            sol = LpSolution(labels=labels, x=x, objective=0.0)
            assert sol.max_violation() == reference_max_violation(labels, pairs, x)

    def test_row_subset_matrix(self, rng):
        inst = random_instance(rng, 6, 3)
        lp = build_lp(inst)
        chosen = np.sort(rng.sample(range(lp.n_rows), 40))
        full = lp.sparse_matrix().toarray()
        assert np.array_equal(lp.sparse_matrix(chosen).toarray(), full[chosen])

    def test_dense_row_subset_matches_sparse(self, rng):
        for _ in range(20):
            lp = build_lp(random_instance(rng, rng.randint(3, 7), rng.randint(1, 3)))
            for size in (0, rng.randint(1, lp.n_rows), lp.n_rows):
                chosen = np.array(sorted(rng.sample(range(lp.n_rows), size)), dtype=int)
                assert np.array_equal(lp.dense_matrix(chosen),
                                      lp.sparse_matrix(chosen).toarray())


# ---------------------------------------------------------------------------
# Lazy triangle rows, on both backends
# ---------------------------------------------------------------------------

def table_instance(rng, n, continuous):
    labels = tuple(f"s{k}" for k in range(n))
    if continuous:
        d = random_matrix(rng, labels, [round(rng.uniform(1.0, 9.0), 3)
                                        for _ in range(n * n)])
    else:
        d = random_matrix(rng, labels, range(1, 5))
    inst, _ = hcc_instance_from_distances(d)
    return inst


def full_row_objective(lp) -> float:
    res = linprog(lp.c, A_ub=lp.sparse_matrix(), b_ub=np.zeros(lp.n_rows),
                  bounds=(0.0, 1.0), method="highs")
    assert res.success
    return float(res.fun + lp.const)


def record_rounds(monkeypatch, cap: int | None = None) -> list[tuple[np.ndarray, int]]:
    """The rows added and the pivots of each simplex round solved from now
    on: lp.solve_first_round makes the first round and lp.solve_dense, given
    a start, each later one (the first round's chain solves get no start).
    A cap is passed to the later rounds' solve_dense as its iteration_cap."""
    rounds = []

    def first_round(lp):
        res = solve_first_round(lp)
        rounds.append((lp.dense_matrix(np.arange(lp.n_tri, lp.n_rows)), res.iterations))
        return res

    def later_round(c, a, b, **kwargs):
        if kwargs.get("start") is None:
            return solve_dense(c, a, b, **kwargs)
        res = solve_dense(c, a, b, iteration_cap=cap, **kwargs)
        rounds.append((a, res.iterations))
        return res

    monkeypatch.setattr(lp_module, "solve_first_round", first_round)
    monkeypatch.setattr(lp_module, "solve_dense", later_round)
    return rounds


def record_active(monkeypatch) -> list[np.ndarray]:
    """The sorted row indices of each lazy round solved from now on, on
    either backend."""
    actives = []
    real_solve_lazily = lp_module._solve_lazily

    def recording_solve_lazily(lp, solve_rows, feas_tol):
        def recording_solve_rows(active, new):
            actives.append(active)
            return solve_rows(active, new)

        return real_solve_lazily(lp, recording_solve_rows, feas_tol)

    monkeypatch.setattr(lp_module, "_solve_lazily", recording_solve_lazily)
    return actives


def touched_pairs(lp, rows) -> np.ndarray:
    """The pairs, as indices into one level, that the given triangle rows touch."""
    return np.unique(lp.dense_matrix(rows).nonzero()[1] % (lp.n_vars // lp.n_levels))


def tiny_weight_instance(seed) -> HccInstance:
    """Nested threshold edge sets of a random integer table, with some level
    weights near 1e-12, as near-tied values give: chains whose costs tie
    within HiGHS's tolerances."""
    rng = random.Random(seed)
    n, n_levels = rng.randint(4, 10), rng.randint(2, 6)
    labels = tuple(f"s{k}" for k in range(n))
    deltas = tuple(rng.choice([1.0, 2.0, 1e-12, 0.7e-12]) for _ in range(n_levels))
    values = {p: rng.randint(1, n_levels + 1) for p in all_pairs(labels)}
    return HccInstance(labels, deltas, tuple(
        es(labels, [p for p, v in values.items() if v <= t + 1]) for t in range(n_levels)))


def fits_dense_budget(lp) -> bool:
    m = lp.n_rows + lp.n_vars
    return (m + 1) * (lp.n_vars + m + 1) <= DENSE_TABLEAU_BUDGET


class TestLazyRows:
    def test_objective_matches_full_row_solve(self, rng):
        for n in range(3, 13):
            for continuous in (False, True):
                inst = table_instance(rng, n, continuous)
                lp = build_lp(inst)
                sol = solve_on("highs", lp)
                assert sol.objective == pytest.approx(full_row_objective(lp),
                                                      rel=1e-9, abs=1e-12)
                assert max(sol.max_violation().values()) <= 1e-7
                if fits_dense_budget(lp):
                    sol = solve_on("simplex", lp)
                    full = solve_dense(lp.c, lp.dense_matrix(), np.zeros(lp.n_rows))
                    assert sol.objective == pytest.approx(full.objective + lp.const,
                                                          rel=1e-9, abs=1e-12)
                    assert max(sol.max_violation().values()) <= 1e-7

    def test_final_check_reuses_the_last_rounds_triangle_sides(self, rng, monkeypatch):
        # the sides the last round computed are those of the solution's
        # point, bit for bit, so the final check computes no side again
        real_lhs, real_lazily = lp_module._triangle_lhs, lp_module._solve_lazily
        calls, last = [], []

        def counting_lhs(n, x):
            calls.append(n)
            return real_lhs(n, x)

        def recording_lazily(*args):
            out = real_lazily(*args)
            last.append(out[-1])
            return out

        monkeypatch.setattr(lp_module, "_triangle_lhs", counting_lhs)
        monkeypatch.setattr(lp_module, "_solve_lazily", recording_lazily)
        for n in range(3, 9):
            for continuous in (False, True):
                lp = build_lp(table_instance(rng, n, continuous))
                for backend in ("highs", "simplex"):
                    calls.clear()
                    last.clear()
                    sol = solve_on(backend, lp)
                    assert len(calls) == sol.rounds
                    assert last[0].tobytes() == real_lhs(n, sol.x).tobytes()
                    assert max(sol.max_violation().values()) <= 1e-7

    def test_warm_rounds_reach_the_full_and_the_cold_optimum(self, rng, monkeypatch):
        # the simplex continues each later round from the last tableau; its
        # optimum is that of HiGHS on every row and of a cold solve on the
        # rows the rounds added
        added = record_rounds(monkeypatch)
        rounds = []
        for _ in range(40):
            n, n_levels = rng.randint(3, 9), rng.randint(1, 4)
            inst = random_instance(rng, n, n_levels)
            if rng.random() < 0.5:  # integer level weights
                inst = HccInstance(inst.labels, tuple(float(rng.randint(1, 3))
                                                      for _ in range(n_levels)),
                                   inst.edge_sets)
            lp = build_lp(inst)
            added.clear()
            sol = solve_on("simplex", lp)
            assert max(sol.max_violation().values()) <= 1e-7
            assert sol.objective == pytest.approx(full_row_objective(lp), rel=1e-9, abs=1e-12)
            final = np.vstack([rows for rows, _ in added])
            assert len(final) == sol.rows_used
            cold = solve_dense(lp.c, final, np.zeros(len(final)))
            assert sol.objective == pytest.approx(cold.objective + lp.const,
                                                  rel=1e-9, abs=1e-12)
            rounds.append(sol.rounds)
        assert sum(r >= 2 for r in rounds) >= 20

    def test_solve_dense_hook_sees_every_round_and_pivot(self, rng, monkeypatch):
        # the benchmark times and counts the simplex by wrapping
        # lp.solve_dense: it sees one call per later round and, with the
        # chain cache empty, one per distinct cost chain of the first round;
        # each chain's pivots count once per pair it stands for
        chains, warm = [], []

        def recording_solve_dense(c, a, b, **kwargs):
            res = solve_dense(c, a, b, **kwargs)
            if kwargs.get("start") is None:
                chains.append((np.asarray(c).tobytes(), res.iterations))
            else:
                warm.append(res.iterations)
            return res

        monkeypatch.setattr(lp_module, "solve_dense", recording_solve_dense)
        rounds = []
        for _ in range(12):
            lp = build_lp(table_instance(rng, rng.randint(4, 8), rng.random() < 0.3))
            if not fits_dense_budget(lp):
                continue
            chains.clear()
            warm.clear()
            lp_module._solve_chain.cache_clear()
            sol = solve_lp(lp)
            assert sol.backend == "simplex"
            assert len(warm) == sol.rounds - 1
            costs = [col.tobytes() for col in lp.c.reshape(lp.n_levels, -1).T]
            pivots = dict(chains)
            assert len(pivots) == len(chains) and set(pivots) == set(costs)
            assert sum(pivots[cost] for cost in costs) + sum(warm) == sol.pivots
            rounds.append(sol.rounds)
        assert max(rounds) >= 2

    def test_pivots_per_backend(self, rng, monkeypatch):
        nits = []
        real_solve_highs = lp_module._solve_highs

        def recording_solve_highs(lp, rows, cols):
            x, nit = real_solve_highs(lp, rows, cols)
            nits.append(nit)
            return x, nit

        monkeypatch.setattr(lp_module, "_solve_highs", recording_solve_highs)
        lp = build_lp(table_instance(rng, 8, False))
        sol = solve_on("highs", lp)
        # the chain round makes no HiGHS call and counts the chain pivots
        assert len(nits) == sol.rounds - 1 and sum(nits) > 0
        assert sol.pivots == solve_first_round(lp).iterations + sum(nits)
        assert solve_on("simplex", lp).pivots > 0
        q = Partition.from_parts("abcd", [{"a", "b"}, {"c", "d"}])
        inst = HccInstance.from_partitions("abcd", (3.0, 1.0), [q, q])
        assert integral_solution(inst, HierarchySequence((q, q))).pivots == 0

    def test_rounds_and_rows_used(self, rng):
        rounds = {"highs": [], "simplex": []}
        for _ in range(12):
            inst = table_instance(rng, rng.randint(4, 10), rng.random() < 0.3)
            lp = build_lp(inst)
            for backend in ("highs", "simplex"):
                if backend == "simplex" and lp.n_rows > 400:
                    continue
                sol = solve_on(backend, lp)
                assert sol.rounds >= 1
                assert 0 <= sol.rows_used <= lp.n_rows
                if inst.n_levels > 1:  # the monotonicity rows are always used
                    assert sol.rows_used >= 1
                rounds[backend].append(sol.rounds)
        assert max(rounds["highs"]) >= 2
        assert max(rounds["simplex"]) >= 2

    @pytest.mark.parametrize("backend", ["simplex", "highs"])
    def test_untouched_pairs_hold_the_chain_point(self, backend, rng, monkeypatch):
        # the rows a solve adds couple only the pairs they touch; every
        # other pair keeps its chain-round value bit for bit, on both
        # backends, among them a pair whose chain costs tie within HiGHS's
        # tolerances, which a HiGHS solve of every pair moves
        actives = record_active(monkeypatch)
        lps = [build_lp(tiny_weight_instance(7))]
        while len(lps) < 40:
            n = rng.randint(4, 12)
            lp = build_lp(table_instance(rng, n, False) if len(lps) % 2 else
                          first_round_instance(rng, n, rng.randint(1, 5), len(lps) % 4 == 0))
            if lp.n_rows <= 1500:
                lps.append(lp)
        held = []
        for lp in lps:
            actives.clear()
            sol = solve_on(backend, lp)
            assert len(actives) == sol.rounds
            added = actives[-1][actives[-1] < lp.n_tri]
            untouched = np.setdiff1d(np.arange(lp.n_vars // lp.n_levels),
                                     touched_pairs(lp, added))
            chain = np.clip(solve_first_round(lp).x, 0.0, 1.0).reshape(lp.n_levels, -1)
            assert sol.x[:, untouched].tobytes() == chain[:, untouched].tobytes()
            held.append(len(untouched) if sol.rounds >= 2 else 0)
        assert held[0] >= 1 and sum(held) >= 50

    @pytest.mark.parametrize("backend", ["simplex", "highs"])
    @pytest.mark.parametrize("labels", [(), ("a",)])
    def test_lp_without_pairs_has_the_empty_point(self, backend, labels):
        inst = HccInstance(labels, (1.0, 2.0), (es(labels, []), es(labels, [])))
        lp = build_lp(inst)
        sol = solve_on(backend, lp)
        assert sol.x.shape == (2, 0) and sol.objective == lp.const
        assert (sol.rounds, sol.pivots, sol.rows_used, sol.backend) == (1, 0, 0, backend)

    def test_an_active_row_never_joins_again(self):
        # the second point violates the row the first one added by 1e-8, more
        # than a hundredth of feas_tol: were it added again, the loop would
        # solve the same rows forever
        lp = build_lp(HccInstance(LABELS3, (1.0,), (es(LABELS3, []),)))
        points = [np.array([0.5, 0.0, 0.0]), np.array([1e-8, 0.0, 0.0])]
        calls = []

        def solve_rows(active, new):
            if not points:
                raise AssertionError("a third round")
            calls.append((active.tolist(), new.tolist()))
            return points.pop(0), 0

        _, rounds, rows_used, _, _ = lp_module._solve_lazily(
            lp, solve_rows, lp_module.DEFAULT_FEAS_TOL)
        assert (rounds, rows_used) == (2, 1)
        assert calls == [([], []), ([0], [0])]

    def test_no_rows_needed_for_one_clique_level(self):
        q = Partition.from_parts("abcdef", [{"a", "b", "c"}, {"d", "e"}, {"f"}])
        inst = HccInstance.from_partitions("abcdef", (2.0,), [q])
        lp = build_lp(inst)
        sol = solve_on("highs", lp)
        assert (sol.rounds, sol.rows_used) == (1, 0)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_integral_point_describes_full_lp(self):
        q = Partition.from_parts("abcd", [{"a", "b"}, {"c", "d"}])
        inst = HccInstance.from_partitions("abcd", (3.0, 1.0), [q, q])
        sol = integral_solution(inst, HierarchySequence((q, q)))
        assert (sol.rounds, sol.rows_used) == (1, build_lp(inst).n_rows)

    def test_lazy_dump_accepted_by_external_checker(self, rng, tmp_path):
        inst = table_instance(rng, 9, False)
        lp = build_lp(inst)
        sol = solve_on("highs", lp)
        assert sol.rows_used < lp.n_rows
        dump = tmp_path / "lp.txt"
        dump.write_text(lp.dump_text(sol.x.reshape(-1), sol.objective))
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_lp_dump.py"
        proc = subprocess.run([sys.executable, str(script), str(dump)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout


def first_round_instance(rng, n, n_levels, integer) -> HccInstance:
    """A seeded instance of the bound LP's kind (nested threshold edge sets
    of a random integer table) or the agreement LP's (clique edges of
    random partitions), with integer or continuous level weights."""
    labels = tuple(f"s{k}" for k in range(n))
    if integer:  # tied prefix sums of the chains' costs
        deltas = [float(rng.randint(1, 3)) for _ in range(n_levels)]
    else:
        deltas = [rng.uniform(0.3, 2.5) for _ in range(n_levels)]
    if rng.random() < 0.5:
        values = {p: rng.randint(1, n_levels + 1) for p in all_pairs(labels)}
        sets = tuple(es(labels, [p for p, v in values.items() if v <= t + 1])
                     for t in range(n_levels))
        return HccInstance(labels, tuple(deltas), sets)
    return HccInstance.from_partitions(
        labels, deltas, [random_partition(rng, labels) for _ in range(n_levels)])


class TestFirstRound:
    def test_matches_cold_solve(self, rng):
        # the chain solves placed side by side are the cold solve of the
        # monotonicity and box rows, bit for bit, but for the objective's rhs
        for k in range(240):
            lp = build_lp(first_round_instance(rng, rng.randint(2, 9), rng.randint(1, 6),
                                               k % 2 == 0))
            mono = np.arange(lp.n_tri, lp.n_rows)
            want = solve_dense(lp.c, lp.dense_matrix(mono), np.zeros(len(mono)))
            for got in (solve_first_round(lp), solve_first_round(lp)):  # then cached
                assert got.tableau.shape == want.tableau.shape
                same = np.ones(want.tableau.shape, dtype=bool)
                same[-1, -1] = False
                assert got.tableau[same].tobytes() == want.tableau[same].tobytes()
                assert got.tableau[-1, -1] == pytest.approx(want.tableau[-1, -1],
                                                            rel=1e-12, abs=1e-12)
                assert np.array_equal(got.basis, want.basis)
                assert got.x.tobytes() == want.x.tobytes()
                assert got.iterations == want.iterations
                assert got.objective == want.objective

    def test_chain_cache_holds_a_tree_fit_pass(self):
        # three n=16 tables of values 1..4, drawn as the tree-pivots benchmark
        # draws them, fitted as tree metrics over every pivot: the first pass
        # solves 73 distinct chains, and the second finds every one cached
        rng = random.Random("tree-pivots:0")
        labels = tuple(f"s{k}" for k in range(16))
        tables = [DistanceMatrix.from_pairs(labels, {p: float(rng.randint(1, 4))
                                                     for p in all_pairs(labels)})
                  for _ in range(3)]
        lp_module._solve_chain.cache_clear()
        misses = []
        for _ in range(2):
            before = lp_module._solve_chain.cache_info().misses
            for d in tables:
                fit_tree_metric(d)
            misses.append(lp_module._solve_chain.cache_info().misses - before)
        assert misses == [73, 0]

    def test_every_tableau_fits_the_dense_budget(self, rng, monkeypatch):
        # each tableau of a simplex solve holds a subset of the full LP's
        # rows, so on LPs whose full tableau sits just under the budget that
        # picks the simplex, every tableau built stays within it
        sizes = []

        def first_round(lp):
            res = solve_first_round(lp)
            sizes.append(res.tableau.size)
            return res

        def recording_solve_dense(c, a, b, **kwargs):
            res = solve_dense(c, a, b, **kwargs)
            sizes.append(res.tableau.size)
            return res

        monkeypatch.setattr(lp_module, "solve_first_round", first_round)
        monkeypatch.setattr(lp_module, "solve_dense", recording_solve_dense)
        for n, n_levels in ((7, 7), (9, 3), (13, 1)):
            lp = build_lp(random_instance(rng, n, n_levels))
            m = lp.n_rows + lp.n_vars
            assert 0.75 < (m + 1) * (lp.n_vars + m + 1) / DENSE_TABLEAU_BUDGET <= 1.0
            sizes.clear()
            sol = solve_lp(lp)
            assert sol.backend == "simplex" and sol.rounds >= 2
            assert len(sizes) >= sol.rounds
            assert max(sizes) <= DENSE_TABLEAU_BUDGET

    def test_desk_fit_imports_neither_scipy_nor_numpy_ma(self):
        # the simplex path and its lazy-row bookkeeping stay within numpy's core
        code = (
            "import random, sys\n"
            "from treefit import DistanceMatrix, fit_ultrametric\n"
            "from treefit.core import all_pairs\n"
            "rng = random.Random(0)\n"
            "labels = tuple(f's{k}' for k in range(8))\n"
            "d = DistanceMatrix.from_pairs(labels, {p: float(rng.randint(1, 3))\n"
            "                                       for p in all_pairs(labels)})\n"
            "fit = fit_ultrametric(d)\n"
            "print(fit.details['lp_solution'].rounds,\n"
            "      *[m for m in ('scipy', 'numpy.ma') if m in sys.modules])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              check=True)
        rounds, *imported = proc.stdout.split()
        assert int(rounds) >= 2 and imported == []

    def test_highs_fit_loads_only_the_binding(self):
        # a fit that reaches HiGHS loads scipy's HiGHS extension alone; a
        # later scipy.optimize import reuses that module, and linprog works
        code = (
            "import random, sys\n"
            "from treefit import DistanceMatrix, fit_tree_metric\n"
            "from treefit.core import all_pairs\n"
            "rng = random.Random(0)\n"
            "labels = tuple(f's{k}' for k in range(16))\n"
            "d = DistanceMatrix.from_pairs(labels, {p: float(rng.randint(1, 4))\n"
            "                                       for p in all_pairs(labels)})\n"
            "fit = fit_tree_metric(d, pivot_mode='fixed', pivot='s0')\n"
            "name = 'scipy.optimize._highspy._core'\n"
            "core = sys.modules.get(name)\n"
            "print(core is not None,\n"
            "      *[m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])\n"
            "from scipy.optimize import linprog\n"
            "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method='highs')\n"
            "print(res.status, res.x.tolist(), sys.modules[name] is core)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              check=True)
        assert proc.stdout.splitlines() == ["True", "0 [1.0, 0.0] True"]


class TestHighsRounds:
    def test_starts_from_the_chain_point(self, rng, monkeypatch):
        # HiGHS takes round 1 from the chain solves: that round makes no
        # HiGHS call and its point is the simplex's first-round point bit
        # for bit, and the lazy objective is that of one linprog on every row
        calls, points = [], []
        real_solve_highs = lp_module._solve_highs
        real_solve_chains = lp_module._solve_chains

        def recording_solve_highs(lp, rows, cols):
            calls.append(1)
            return real_solve_highs(lp, rows, cols)

        def recording_solve_chains(chains, group):
            got = real_solve_chains(chains, group)
            points.append(got[1])
            return got

        monkeypatch.setattr(lp_module, "_solve_highs", recording_solve_highs)
        monkeypatch.setattr(lp_module, "_solve_chains", recording_solve_chains)
        rounds = []
        for k in range(140):
            n_levels = rng.randint(1, 5) if k < 100 else rng.randint(8, 14)
            lp = build_lp(first_round_instance(rng, rng.randint(3, 16), n_levels, k % 2 == 0))
            calls.clear()
            points.clear()
            sol = solve_on("highs", lp)
            assert len(points) == 1 and len(calls) == sol.rounds - 1
            assert points[0].tobytes() == solve_first_round(lp).x.tobytes()
            assert sol.objective == pytest.approx(full_row_objective(lp), rel=1e-9, abs=1e-12)
            rounds.append(sol.rounds)
        assert rounds.count(1) >= 10 and sum(r >= 2 for r in rounds) >= 50

    def test_solves_only_the_coupled_pairs(self, rng, monkeypatch):
        # a later round hands HiGHS every level of the pairs that its
        # triangle rows touch, in the LP's variable order, under those rows
        # and then those pairs' monotonicity rows, in row order
        actives = record_active(monkeypatch)
        calls = []
        real_solve_highs = lp_module._solve_highs

        def recording_solve_highs(lp, rows, cols):
            calls.append((rows, cols))
            return real_solve_highs(lp, rows, cols)

        monkeypatch.setattr(lp_module, "_solve_highs", recording_solve_highs)
        fewer = 0
        for k in range(60):
            n_levels = rng.randint(1, 5) if k < 40 else rng.randint(8, 14)
            lp = build_lp(first_round_instance(rng, rng.randint(3, 16), n_levels, k % 2 == 0))
            actives.clear()
            calls.clear()
            solve_on("highs", lp)
            assert len(calls) == len(actives) - 1
            n_pairs = lp.n_vars // lp.n_levels
            for active, (rows, cols) in zip(actives[1:], calls):
                tri = active[active < lp.n_tri]
                pairs = touched_pairs(lp, tri)
                assert cols.tolist() == [t * n_pairs + p for t in range(lp.n_levels)
                                         for p in pairs]
                assert rows.tolist() == tri.tolist() + [
                    lp.n_tri + t * n_pairs + p for t in range(lp.n_levels - 1) for p in pairs]
                fewer += len(pairs) < n_pairs
        assert fewer >= 20

    def test_solves_an_lp_over_the_dense_budget(self, rng, monkeypatch):
        # the HiGHS path never builds the first-round tableau
        def no_tableau(*args, **kwargs):
            raise AssertionError("built the first-round tableau on the HiGHS path")

        monkeypatch.setattr(lp_module, "solve_first_round", no_tableau)
        labels = tuple(f"s{k}" for k in range(48))
        lp = build_lp(HccInstance.from_partitions(
            labels, (1.0, 2.0, 1.5, 1.0), [random_partition(rng, labels) for _ in range(4)]))
        m = (2 * lp.n_levels - 1) * (lp.n_vars // lp.n_levels)
        assert (m + 1) * (lp.n_vars + m + 1) > DENSE_TABLEAU_BUDGET
        sol = solve_on("highs", lp)
        assert sol.backend == "highs" and sol.rounds >= 2
        assert max(sol.max_violation().values()) <= 1e-7


class TestHighsBinding:
    def test_matches_linprog(self, rng, monkeypatch):
        # _solve_highs drives scipy's private HiGHS binding with linprog's
        # options: on every call of a lazy HiGHS solve, each on the coupled
        # pairs' sub-model, and on all rows and columns of the smaller LPs,
        # its point and iteration count are linprog's, so a scipy release
        # that changes the binding fails here
        real_solve_highs = lp_module._solve_highs
        budgets = []

        def linprog_outcome(lp, rows, cols):
            res = linprog(lp.c[cols], A_ub=lp.sparse_matrix(rows)[:, cols],
                          b_ub=np.zeros(len(rows)), bounds=(0.0, 1.0), method="highs")
            return res.x.tobytes(), res.nit

        def compared_solve_highs(lp, rows, cols):
            x, nit = real_solve_highs(lp, rows, cols)
            assert (x.tobytes(), nit) == linprog_outcome(lp, rows, cols)
            budgets.append(fits_dense_budget(lp))
            return x, nit

        monkeypatch.setattr(lp_module, "_solve_highs", compared_solve_highs)
        for k in range(60):
            n_levels = rng.randint(1, 5) if k < 40 else rng.randint(8, 14)
            lp = build_lp(first_round_instance(rng, rng.randint(3, 16), n_levels, k % 2 == 0))
            solve_on("highs", lp)
            if lp.n_rows <= 2000:
                rows, cols = np.arange(lp.n_rows), np.arange(lp.n_vars)
                x, nit = real_solve_highs(lp, rows, cols)
                assert (x.tobytes(), nit) == linprog_outcome(lp, rows, cols)
        # calls on LPs that solve_lp gives the simplex and on LPs over
        # its budget, which it gives HiGHS
        assert len(budgets) >= 40 and any(budgets) and not all(budgets)

    def test_a_status_other_than_optimal_raises(self, rng, monkeypatch):
        from scipy.optimize._highspy import _core as highspy

        class Infeasible(highspy._Highs):
            def getModelStatus(self):
                return highspy.HighsModelStatus.kInfeasible

        monkeypatch.setattr(highspy, "_Highs", Infeasible)
        lp = build_lp(table_instance(rng, 8, False))
        with pytest.raises(SolverError, match="^highs failed: Infeasible$"):
            lp_module._solve_highs(lp, np.arange(lp.n_rows), np.arange(lp.n_vars))
        with pytest.raises(SolverError, match="^highs failed: Infeasible$"):
            solve_on("highs", lp)
