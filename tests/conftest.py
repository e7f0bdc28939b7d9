"""Shared generators (planted ultrametrics, random tree metrics, partitions),
reference versions of replaced library code, and the checkers and helpers
that only the tests run: components of pairs, the structural invariants of
an agreement run and the flattening of a tree onto the values 1 and 2."""
from __future__ import annotations

import functools
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

import treefit.lp as lp_module
from treefit.core import (
    DEFAULT_TOL,
    DistanceMatrix,
    HierarchySequence,
    Partition,
    UltraNode,
    UltrametricTree,
    WeightedTree,
    _level_steps,
    _nth_pair,
    _pair_ends,
    _pair_position,
    _square,
    _union_steps,
    all_pairs,
    clique_edges,
    sym_diff_size,
)
from treefit.hca import (
    BALL_FAR,
    BALL_NEAR,
    HALF_FRACTION,
    OUTSIDE_FRACTION,
    _ball_tests,
    check_hierarchy_friendly,
)


def planted_ultrametric(rng: random.Random, labels, values) -> DistanceMatrix:
    """Random hierarchy realized with the given strictly increasing values."""
    labels = list(labels)
    values = list(values)
    groups = [{lab} for lab in labels]
    mapping: dict[tuple[str, str], float] = {}
    for t, value in enumerate(values):
        if t == len(values) - 1:
            merged = [set().union(*groups)]
        elif len(groups) <= 2:
            merged = [set(g) for g in groups]  # hold for the top merge
        else:
            rng.shuffle(groups)
            k = rng.randint(2, len(groups) - 1)
            merged = [set(g) for g in groups[:k]]
            for g in groups[k:]:
                merged[rng.randrange(k)] |= g
        for grp in merged:
            for i, j in itertools.combinations(sorted(grp), 2):
                key = (i, j)
                if key not in mapping:
                    mapping[key] = value
        groups = merged
    return DistanceMatrix.from_pairs(sorted(labels), mapping)


def random_ultrametric_map(rng: random.Random, labels) -> dict:
    """Random ultrametric with arbitrary positive heights (binary merges)."""
    groups = [[lab] for lab in labels]
    mapping = {}
    h = 0.0
    while len(groups) > 1:
        h += rng.uniform(0.05, 1.0)
        a = groups.pop(rng.randrange(len(groups)))
        b = groups.pop(rng.randrange(len(groups)))
        for i in a:
            for j in b:
                mapping[(i, j) if i < j else (j, i)] = h
        groups.append(a + b)
    return mapping


def random_tree_metric(rng: random.Random, n: int, lo=0.3, hi=3.0):
    """Distance matrix of a random positively weighted binary tree."""
    labels = [f"t{k:02d}" for k in range(n)]
    nodes = list(labels)
    edges = []
    counter = 0
    while len(nodes) > 1:
        rng.shuffle(nodes)
        a, b = nodes.pop(), nodes.pop()
        name = f"i{counter}"
        counter += 1
        edges.append((a, name, round(rng.uniform(lo, hi), 6)))
        edges.append((b, name, round(rng.uniform(lo, hi), 6)))
        nodes.append(name)
    tree = WeightedTree(labels=tuple(labels), edges=tuple(edges), root=nodes[0])
    return DistanceMatrix.from_pairs(labels, tree.distance_map()), tree


def partition_tree(levels, values) -> UltrametricTree:
    """The tree of nested partitions, built level by level as UltraNodes: the
    reference for `UltrametricTree._from_joins`. Pairs first together at level t sit at
    distance values[t]; a part of level t that joins several parts of the
    level below becomes a node at height values[t] / 2, its children in the
    order of their first labels. The top level must be a single part."""
    assert len(values) == len(levels) and len(levels.levels[-1].parts) == 1
    below = [(k, UltraNode(0.0, (), lab)) for k, lab in enumerate(levels.universe)]
    for level, value in zip(levels.levels, values):
        children = [[] for _ in level.parts]
        for k, node in below:
            children[level.part_of[k]].append((k, node))
        below = [kids[0] if len(kids) == 1
                 else (kids[0][0], UltraNode(value / 2.0, tuple(nd for _, nd in kids)))
                 for kids in children]
    return UltrametricTree(levels.universe, below[0][1])


def path_sum_distances(tree) -> list[float]:
    """Distances of a WeightedTree, one traversal per label with each path
    summed from its earlier label: the reference for the two-sweep fill."""
    adj: dict[str, list[tuple[str, float]]] = {lab: [] for lab in tree.labels}
    for u, v, w in tree.edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    out: list[float] = []
    for k, src in enumerate(tree.labels):
        dist = {src: 0.0}
        stack = [src]
        while stack:
            cur = stack.pop()
            for nxt, w in adj[cur]:
                if nxt not in dist:
                    dist[nxt] = dist[cur] + w
                    stack.append(nxt)
        out.extend(dist[other] for other in tree.labels[k + 1:])
    return out


def random_newick(rng: random.Random, n: int) -> str:
    """Newick text of a random rooted tree over n labels: some internal nodes
    are labels too, some edges have length 0 or none, the root may be a
    label, and n = 1 gives a single node."""
    names = [f"n{k}" for k in range(n)]
    rng.shuffle(names)
    inner = names[:rng.randint(0, n // 3)]  # labels on internal nodes
    items = names[len(inner):] or [inner.pop()]

    def length() -> str:
        return rng.choice(["", ":0", ":0.0", ":0.5", ":1.25", f":{rng.uniform(0.01, 3.0)!r}"])

    items = [name + length() for name in items]
    while len(items) > 1:
        rng.shuffle(items)
        k = rng.randint(2, min(3, len(items)))
        name = inner.pop() if inner and rng.random() < 0.7 else ""
        items = items[k:] + [f"({','.join(items[:k])}){name}{length()}"]
    text = items[0]
    while inner:  # the labels left name unary nodes above the root
        text = f"({text}){inner.pop()}{length()}"
    return text + ";"


def random_partition(rng: random.Random, labels) -> Partition:
    k = rng.randint(1, len(labels))
    buckets: dict[int, set[str]] = {}
    for lab in labels:
        buckets.setdefault(rng.randrange(k), set()).add(lab)
    return Partition.from_parts(labels, buckets.values())


def random_hierarchy(rng: random.Random, labels, n_levels: int) -> list[Partition]:
    """A random refinement chain, finest level first."""
    chain = [random_partition(rng, labels)]
    for _ in range(n_levels - 1):
        prev = chain[-1]
        parts = list(prev.parts)
        rng.shuffle(parts)
        k = rng.randint(1, len(parts))
        merged: list[set[str]] = [set(p) for p in parts[:k]]
        for p in parts[k:]:
            merged[rng.randrange(k)] |= p
        chain.append(Partition.from_parts(labels, merged))
    return chain


def random_matrix(rng: random.Random, labels, choices) -> DistanceMatrix:
    values = {p: float(rng.choice(choices)) for p in all_pairs(tuple(labels))}
    return DistanceMatrix.from_pairs(labels, values)


def feasible_lp_maps(rng: random.Random, labels, n_levels: int) -> list[dict]:
    """Feasible fractional distances: scaled ultrametrics shifted per level.

    Clipping an ultrametric from below at 0 and above at 1 keeps the strong
    triangle inequality, and increasing shifts with the level keep the
    monotonicity constraint satisfied.
    """
    base = random_ultrametric_map(rng, sorted(labels))
    top = max(base.values())
    scale = rng.uniform(0.6, 1.6) / top
    shifts = sorted(rng.uniform(0.0, 0.8) for _ in range(n_levels))
    out = []
    for t in range(n_levels):
        shift = shifts[t]
        out.append({pair: min(1.0, max(0.0, v * scale - shift))
                    for pair, v in base.items()})
    out.reverse()  # larger shifts (smaller x) at higher levels
    return out


def first_occurrence_strings(n: int) -> list[tuple[int, ...]]:
    """Every set partition of n positions, by brute force: the sorted distinct
    renumberings, parts numbered by first occurrence, of all n^n
    assignments of the positions to n parts."""
    def renumbered(assignment):
        first: dict[int, int] = {}
        return tuple(first.setdefault(k, len(first)) for k in assignment)

    return sorted({renumbered(a) for a in itertools.product(range(n), repeat=n)})


def iter_partitions(items):
    """All set partitions of items, in restricted-growth-string order, parts
    ordered by first occurrence: the reference for `core.partition_table`."""
    n = len(items)
    if n == 0:
        yield ()
        return
    a = [0] * n
    while True:
        nparts = max(a) + 1
        parts: list[list[str]] = [[] for _ in range(nparts)]
        for k, lab in enumerate(items):
            parts[a[k]].append(lab)
        yield tuple(frozenset(p) for p in parts)
        k = n - 1
        while k > 0:
            if a[k] <= max(a[:k]):
                a[k] += 1
                for m in range(k + 1, n):
                    a[m] = 0
                break
            a[k] = 0
            k -= 1
        else:
            return


def reference_level_steps(n: int, level, n_levels: int) -> list[list[tuple[int, int]]]:
    """For each level t < n_levels, pairs of label positions that join the
    same components as all the pairs of level t, on top of the levels below:
    the pairs of a minimum spanning tree of the levels (Prim's algorithm).
    The reference for `core._level_steps`, which lists every pair."""
    joined = np.iinfo(np.intp).max  # the level to a label already in the tree
    square = _square(np.asarray(level, dtype=np.intp), n)
    square[:, 0] = joined
    best = square[0].copy()  # the least level from each label to the tree
    near = np.zeros(n, dtype=np.intp)  # the tree label that level leads to
    steps: list[list[tuple[int, int]]] = [[] for _ in range(n_levels)]
    for _ in range(n - 1):
        v = int(best.argmin())
        if best[v] < n_levels:
            steps[best[v]].append((int(near[v]), v))
        square[:, v] = best[v] = joined
        near[square[v] < best] = v
        np.minimum(best, square[v], out=best)
    return steps


def _level_index(values: tuple[float, ...], labels, dist: np.ndarray,
                 tol: float) -> np.ndarray:
    """Index of the level value each pair's distance snaps to.

    dist holds one distance per pair of labels, in `all_pairs` order. Each
    snaps to the nearest value, the lower one on a tie; a distance farther
    than tol from every value is an error.
    """
    vals = np.asarray(values)
    above = np.searchsorted(vals, dist).clip(max=len(vals) - 1)
    below = (above - 1).clip(min=0)
    level = np.where(np.abs(vals[below] - dist) <= np.abs(vals[above] - dist),
                     below, above)
    off = np.flatnonzero(np.abs(vals[level] - dist) > tol)
    if len(off):
        pair = _nth_pair(labels, off[0])
        raise ValueError(f"distance {dist[off[0]]} for {pair} is not one of the level values")
    return level


def integral_solution(inst, hierarchy: HierarchySequence) -> lp_module.LpSolution:
    """The 0/1 point encoding a hierarchical sequence; feasible by construction."""
    x = np.array([~clique_edges(part).mask for part in hierarchy.levels], dtype=float)
    return lp_module.LpSolution(labels=inst.labels, x=x,
                                objective=lp_module.hierarchy_cost(inst, hierarchy),
                                backend="integral")


def ultrametric_to_hierarchy(tree: UltrametricTree, levels) -> HierarchySequence:
    """Inverse of `ultrametric.hierarchy_to_ultrametric`: level-t parts are
    the components under <= D^(t) of the tree's distances."""
    level = _level_index(levels.values, tree.labels, tree.distances(), DEFAULT_TOL)
    return HierarchySequence(tuple(nested_components(tree.labels, level, levels.n_levels)))


@functools.lru_cache(maxsize=8)
def _reference_lattice(labels) -> tuple[list[Partition], list[list[bool]]]:
    """The partitions of `iter_partitions(labels)` and the relation
    refines[i][j], one `refines` call per pair; kept across calls."""
    partitions = [Partition(labels, parts) for parts in iter_partitions(labels)]
    return partitions, [[fine.refines(coarse) for coarse in partitions]
                        for fine in partitions]


def reference_exact_hcc(inst) -> tuple[HierarchySequence, float]:
    """The level DP over `iter_partitions`, partition by partition: the
    reference for `oracle.exact_hcc` (without its cap)."""
    partitions, refines = _reference_lattice(inst.labels)
    n_levels = inst.n_levels
    level_cost = [
        [inst.deltas[t] * sym_diff_size(inst.edge_sets[t], clique_edges(p))
         for p in partitions]
        for t in range(n_levels)]

    n_parts = len(partitions)
    best_tail = level_cost[n_levels - 1][:]
    choice: list[list[int]] = [[-1] * n_parts for _ in range(n_levels)]
    for t in range(n_levels - 2, -1, -1):
        new_tail = [0.0] * n_parts
        for i in range(n_parts):
            best_j = -1
            best_val = None
            for j in range(n_parts):
                if refines[i][j]:
                    if best_val is None or best_tail[j] < best_val:
                        best_val, best_j = best_tail[j], j
            assert best_val is not None
            new_tail[i] = level_cost[t][i] + best_val
            choice[t][i] = best_j
        best_tail = new_tail
    start = min(range(n_parts), key=lambda i: best_tail[i])
    total = best_tail[start]
    chain = [start]
    for t in range(n_levels - 1):
        chain.append(choice[t][chain[-1]])
    hierarchy = HierarchySequence(tuple(partitions[i] for i in chain))
    return hierarchy, float(total)


def components(universe, pairs) -> Partition:
    """Connected components of the pairs, as a partition of the universe."""
    idx = {lab: k for k, lab in enumerate(universe)}
    level = np.ones(len(idx) * (len(idx) - 1) // 2, dtype=np.intp)
    level[[_pair_position(idx, i, j) for i, j in pairs]] = 0
    return nested_components(universe, level, 1)[0]


def nested_components(universe, level: np.ndarray, n_levels: int) -> list[Partition]:
    """Partition t is the components of the pairs whose level is <= t, level
    holding each pair's level in `all_pairs(universe)` order."""
    out, current = [], Partition.singletons(universe)
    for joined, find in _union_steps(len(universe), _level_steps(len(universe), level, n_levels)):
        if joined:
            groups: dict[int, list[str]] = {}
            for k, lab in enumerate(universe):
                groups.setdefault(find(k), []).append(lab)
            current = Partition.from_parts(universe, groups.values())
        out.append(current)
    return out


# ---------------------------------------------------------------------------
# Structural invariants of a full agreement run (`hca.fit_hca_report`)
# ---------------------------------------------------------------------------

CORE_GROWTH_LIMIT = 0.3       # |extended \ core| <= 0.3 |core|
CORE_SHRINK_LIMIT = 0.1       # |lp_cluster \ core| < 0.1 |core|
DIAMETER_LIMIT = 2 * BALL_NEAR
REMOVED_COST_FACTOR = min(BALL_NEAR * HALF_FRACTION,
                          (1.0 - BALL_FAR) * OUTSIDE_FRACTION)


def cleaned_subset(sol, t: int, cluster: frozenset[str]) -> frozenset[str]:
    """Members of one input cluster that pass both ball tests at level t."""
    inside = [lab in cluster for lab in sol.labels]
    part_of = np.array([inside], dtype=np.intp)
    keep = _ball_tests(_square(sol.x[t], len(inside))[None], part_of)[0]
    return frozenset(lab for lab, a, ok in zip(sol.labels, inside, keep) if a and ok)


def node_cluster(families, node):
    """The cleaned cluster that made an internal forest node: the cluster of
    its level that holds its core, or None. Same-level clusters are disjoint
    and cores are not empty, so at most one does."""
    return next((c for c in families.levels[node.level - 1] if node.core <= c), None)


def descendant_leaves(forest, k: int) -> frozenset[str]:
    """The labels of the level-0 nodes below node k of the forest."""
    out: set[str] = set()
    stack = [k]
    while stack:
        nd = forest.nodes[stack.pop()]
        if nd.level == 0:
            out |= nd.core
        stack.extend(nd.children)
    return frozenset(out)


def invariant_violations(result, slack: float = 1e-6) -> list[str]:
    """Check every structural invariant of a full (non-fast-path) run.

    A node's LP cluster is the cleaned cluster that holds its core, and its
    input cluster the part of `result.partitions` at its level that does."""
    if result.fast_path:
        return []
    assert result.forest is not None and result.families is not None
    assert result.lp is not None
    forest, families, sol = result.forest, result.families, result.lp
    problems: list[str] = []

    if not check_hierarchy_friendly(families):
        problems.append("cleaned families are not hierarchy-friendly")

    for below, above in zip(result.hierarchy.levels, result.hierarchy.levels[1:]):
        if not below.refines(above):
            problems.append("output partitions do not refine upward")

    root_union: set[str] = set()
    for root in forest.nodes:
        if root.parent is not None:
            continue
        if root_union & root.extended:
            problems.append("root extended-clusters overlap")
        root_union |= root.extended
    if root_union != set(forest.universe):
        problems.append("root extended-clusters do not cover the universe")

    for k, node in enumerate(forest.nodes):
        if node.level == 0:
            continue
        lp_cluster = node_cluster(families, node) or frozenset()
        input_cluster = next((part for part in result.partitions[node.level - 1].parts
                              if node.core <= part), frozenset())
        if not (node.core <= lp_cluster <= input_cluster):
            problems.append(f"node {k}: core/LP/input nesting broken")
        if not node.core <= node.extended:
            problems.append(f"node {k}: core not within extended")
        if descendant_leaves(forest, k) != node.extended:
            problems.append(f"node {k}: extended != descendant leaves")
        grown = node.extended - node.core
        shrunk = lp_cluster - node.core
        if len(grown) > CORE_GROWTH_LIMIT * len(node.core):
            problems.append(f"node {k}: extension exceeds 0.3 |core|")
        if not len(shrunk) < CORE_SHRINK_LIMIT * len(node.core) + 1e-12:
            problems.append(f"node {k}: removal exceeds 0.1 |core|")
        if shrunk & grown:
            problems.append(f"node {k}: removal and extension overlap")
        inside = np.array([lab in lp_cluster for lab in sol.labels], dtype=bool)
        i, j = _pair_ends(len(inside))
        wide = sol.x[node.level - 1:, inside[i] & inside[j]] >= DIAMETER_LIMIT + slack
        for t in np.flatnonzero(wide.any(axis=1)) + node.level:
            problems.append(f"node {k}: LP diameter >= {DIAMETER_LIMIT} at level {t}")

    costs = lp_module.lp_cost(result.instance, sol)
    for t, q in enumerate(result.partitions):
        for cluster in q.parts:
            survivors = cleaned_subset(sol, t, cluster)
            bound = REMOVED_COST_FACTOR * result.instance.deltas[t] * len(cluster)
            for i in sorted(cluster - survivors):
                if costs.species(t, i) < bound - slack:
                    problems.append(
                        f"species {i} removed at level {t + 1} but its LP cost "
                        f"{costs.species(t, i):.6f} is below {bound:.6f}")
    return problems


# ---------------------------------------------------------------------------
# Flattening onto two distance values
# ---------------------------------------------------------------------------

def _interior_nodes(tree: UltrametricTree):
    """Internal nodes whose merge value lies strictly inside (1, 2), children
    before parents.

    Yields (value, min_leaf, cross, parent_value, max_child_value), where
    cross lists the `all_pairs` positions of the pairs meeting at that node:
    the pairs below it at its value.
    """
    parent, label, end = tree._parent.tolist(), tree._label, tree._end
    value = (2.0 * tree._height).tolist()
    i, j = _pair_ends(len(tree.labels))
    found = []
    for v in reversed(range(len(parent))):
        if label[v] >= 0 or not 1.0 < value[v] < 2.0:
            continue
        below = np.zeros(len(tree.labels), dtype=bool)
        below[label[v:end[v]][label[v:end[v]] >= 0]] = True
        cross = np.flatnonzero(below[i] & below[j] & (tree.distances() == value[v]))
        found.append((value[v], int(np.argmax(below)), cross.tolist(),
                      value[parent[v]] if v else 2.0, max(value[v + 1:end[v]])))
    return found


def flatten_to_12(tree: UltrametricTree, d: DistanceMatrix) -> UltrametricTree:
    """Push all tree distances into {1, 2} without increasing the error vs d.

    Distances below 1 rise to 1 and above 2 drop to 2. Each remaining node
    with a merge value strictly inside (1, 2) then moves to its parent's
    value when at least half of its pairs prefer distance 2, and down onto
    its highest child otherwise; every move merges the node away, so the
    loop terminates with all values in {1, 2} and the error never increased.
    """
    if np.any((d.values != 1.0) & (d.values != 2.0)):
        raise ValueError("reference distances must be exactly 1 or 2")
    values = np.clip(tree.distances_in(d.labels), 1.0, 2.0)
    while True:
        current = UltrametricTree.from_distances(d.labels, values)
        interior = _interior_nodes(current)
        if not interior:
            return current
        _, _, cross, parent_value, max_child = min(
            interior, key=lambda item: (item[0], item[1]))
        ones = int(np.count_nonzero(d.values[cross] == 1.0))
        twos = len(cross) - ones
        values[cross] = parent_value if twos >= ones else max(1.0, max_child)


def solve_on(backend: str, lp, *args, **kwargs):
    """solve_lp on the given backend: a dense-tableau budget of inf gives
    every LP to the simplex, one of 0 every LP to HiGHS."""
    budget = {"simplex": math.inf, "highs": 0}[backend]
    with mock.patch.object(lp_module, "DENSE_TABLEAU_BUDGET", budget):
        return lp_module.solve_lp(lp, *args, **kwargs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
