"""Shared generators: planted ultrametrics, random tree metrics, partitions."""
from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import pytest

import treefit.lp as lp_module
from treefit.core import (
    DistanceMatrix,
    Partition,
    UltraNode,
    UltrametricTree,
    WeightedTree,
    all_pairs,
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


def solve_on(backend: str, lp, *args, **kwargs):
    """solve_lp on the given backend: a dense-tableau budget of inf gives
    every LP to the simplex, one of 0 every LP to HiGHS."""
    budget = {"simplex": math.inf, "highs": 0}[backend]
    with mock.patch.object(lp_module, "DENSE_TABLEAU_BUDGET", budget):
        return lp_module.solve_lp(lp, *args, **kwargs)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
