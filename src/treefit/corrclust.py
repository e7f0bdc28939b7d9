"""Correlation clustering: partition a label set to minimize edge disagreements.

The default strategy is a deterministic pivot sweep: run the pivot recursion
once per choice of first pivot, with later pivots taken in label order, and
keep the first cheapest run. A seeded randomized pivot variant and exact
enumeration (small n) are also available.

Pivot runs work on bitmasks over universe positions: nb[v] holds the
neighbours of label v, and a pivot p still remaining takes the cluster
(nb[p] & remaining) | bit(p). A run's disagreements are counted without
building its clique edges, as |E| + sum of s(s-1)/2 over its clusters minus
sum of popcount(nb[v] & cluster) over every label v in a cluster (each inside
edge counted twice). Only the winning run becomes a Partition.
"""
from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import EdgeSet, Partition, _pair_ends, clique_edges, iter_partitions, sym_diff_size

EXACT_CAP = 9


def corr_cluster_cost(edges: EdgeSet, partition: Partition) -> int:
    """Disagreements |E sym-diff cliques(P)|."""
    return sym_diff_size(edges, clique_edges(partition))


def _members(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pivot_rounds(nb: list[int], pivot_order: Iterable[int]) -> list[int]:
    """Cluster masks of the pivot recursion; pivots already taken are skipped."""
    remaining = (1 << len(nb)) - 1
    clusters = []
    for p in pivot_order:
        if remaining >> p & 1:
            cluster = (nb[p] & remaining) | (1 << p)
            clusters.append(cluster)
            remaining &= ~cluster
    return clusters


def _disagreements(nb: list[int], n_edges: int, clusters: list[int]) -> int:
    clique_pairs = sum(c.bit_count() * (c.bit_count() - 1) // 2 for c in clusters)
    inside_twice = sum((nb[v] & c).bit_count() for c in clusters for v in _members(c))
    return n_edges + clique_pairs - inside_twice


def exact_corr_cluster(universe: Sequence[str], edges: EdgeSet) -> tuple[Partition, int]:
    """Minimum-disagreement partition by full enumeration; ties by first found."""
    universe = tuple(universe)
    if len(universe) > EXACT_CAP:
        raise ValueError(f"exact correlation clustering capped at n={EXACT_CAP}")
    if edges.universe != universe:
        raise ValueError("edge set universe does not match")
    best = min((Partition(universe, parts) for parts in iter_partitions(universe)),
               key=lambda p: corr_cluster_cost(edges, p))
    return best, corr_cluster_cost(edges, best)


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

    n = len(universe)
    i, j = _pair_ends(n)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[i, j] = adjacent[j, i] = edges.mask
    nb = [int.from_bytes(row.tobytes(), "little")
          for row in np.packbits(adjacent, axis=1, bitorder="little")]
    if strategy == "kwik":
        # shuffling positions draws the same permutation as shuffling labels
        order = list(range(n))
        random.Random(seed).shuffle(order)
        best = _pivot_rounds(nb, order)
    elif strategy == "pivot-sweep":
        # min keeps the first of the cheapest runs
        n_edges = len(edges)
        best = min((_pivot_rounds(nb, [first, *range(n)]) for first in range(n)),
                   key=lambda clusters: _disagreements(nb, n_edges, clusters),
                   default=[])
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return Partition(universe, tuple(
        frozenset(universe[v] for v in _members(cluster)) for cluster in best))
