"""Correlation clustering: partition a label set to minimize edge disagreements.

The default strategy is a deterministic pivot sweep: run the pivot recursion
once per choice of first pivot, with later pivots taken in label order, and
keep the cheapest run. A seeded randomized pivot variant and exact enumeration
(small n) are also available.
"""
from __future__ import annotations

import random
from typing import Sequence

from .core import EdgeSet, Partition, clique_edges, iter_partitions, sym_diff_size

EXACT_CAP = 9


def corr_cluster_cost(edges: EdgeSet, partition: Partition) -> int:
    """Disagreements |E sym-diff cliques(P)|."""
    if edges.universe != partition.universe:
        raise ValueError("edge set and partition universes differ")
    return sym_diff_size(edges, clique_edges(partition))


def _pivot_rounds(universe: Sequence[str], neighbors: dict[str, set[str]],
                  pivot_order: list[str]) -> list[frozenset[str]]:
    remaining = list(universe)
    remaining_set = set(remaining)
    clusters = []
    for pivot in pivot_order:
        if pivot not in remaining_set:
            continue
        cluster = {pivot} | (neighbors[pivot] & remaining_set)
        clusters.append(frozenset(cluster))
        remaining_set -= cluster
    return clusters


def _neighbor_map(universe: Sequence[str], edges: EdgeSet) -> dict[str, set[str]]:
    nbrs: dict[str, set[str]] = {lab: set() for lab in universe}
    for i, j in edges.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def exact_corr_cluster(universe: Sequence[str], edges: EdgeSet) -> tuple[Partition, int]:
    """Minimum-disagreement partition by full enumeration; ties by first found."""
    universe = tuple(universe)
    if len(universe) > EXACT_CAP:
        raise ValueError(f"exact correlation clustering capped at n={EXACT_CAP}")
    if edges.universe != universe:
        raise ValueError("edge set universe does not match")
    best: Partition | None = None
    best_cost: int | None = None
    for parts in iter_partitions(universe):
        p = Partition(universe, parts)
        cost = corr_cluster_cost(edges, p)
        if best_cost is None or cost < best_cost:
            best, best_cost = p, cost
    assert best is not None and best_cost is not None
    return best, best_cost


def corr_cluster(universe: Sequence[str], edges: EdgeSet, *,
                 strategy: str = "pivot-sweep", seed: int | None = None) -> Partition:
    """Cluster the universe against the edge set.

    strategy:
      pivot-sweep  deterministic; best of n pivot runs (one per first pivot)
      kwik         randomized pivots drawn from the given seed
      exact        exact_corr_cluster, n <= EXACT_CAP
    """
    universe = tuple(universe)
    if edges.universe != universe:
        raise ValueError("edge set universe does not match")
    if strategy == "exact":
        return exact_corr_cluster(universe, edges)[0]

    nbrs = _neighbor_map(universe, edges)
    if strategy == "kwik":
        rng = random.Random(seed)
        order = list(universe)
        rng.shuffle(order)
        return Partition(universe, tuple(_pivot_rounds(universe, nbrs, order)))

    if strategy != "pivot-sweep":
        raise ValueError(f"unknown strategy {strategy!r}")
    best = None
    best_cost = None
    for first in universe:
        order = [first] + [lab for lab in universe if lab != first]
        parts = Partition(universe, tuple(_pivot_rounds(universe, nbrs, order)))
        cost = corr_cluster_cost(edges, parts)
        if best_cost is None or cost < best_cost:
            best, best_cost = parts, cost
    assert best is not None
    return best
