"""Correlation clustering: partition a label set to minimize edge disagreements.

The default strategy is a deterministic pivot sweep: run the pivot recursion
once per choice of first pivot, with later pivots taken in label order, and
keep the first cheapest run. A seeded randomized pivot variant and exact
enumeration (small n) are also available.

Pivot runs work on Python int bitmasks over universe positions: nb[v] holds
the neighbours of label v, and a pivot p still remaining takes the cluster
(nb[p] & remaining) | bit(p). After the first pivot a sweep run takes pivots
in label order, so its next pivot is always the lowest bit of remaining, and
the run ends once remaining is empty. A run's disagreements are counted
without building its clique edges, as |E| plus each cluster's cost: s(s-1)/2
minus the sum of popcount(nb[v] & cluster) over its labels v (each inside
edge counted twice), scored as the run makes the cluster. Only the winning
run's masks become a Partition, its `reps` written from each mask's lowest
bit. (Numpy runs for all first pivots at once were measured slower at the
sizes fits meet.)

The sweep does not repeat work. After its first cluster nb[first] | bit(first)
a run takes pivots in label order, so first pivots with the same first
cluster give the same run: it is made once, from the earliest such pivot, and
the others are skipped. A cluster's cost does not depend on the run that
emits it, so each distinct cluster is scored once per call. The sweep stops at
the first run with no disagreements: no run costs less and every earlier run
cost more, so that run is the first cheapest one.
"""
from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

from .core import (EdgeSet, Partition, _square, clique_edges, partition_disagreements,
                   partition_of_row, sym_diff_size)

EXACT_CAP = 9
STRATEGIES = ("pivot-sweep", "kwik", "exact")


def check_strategy(strategy: str, n: int) -> None:
    """Reject a strategy `corr_cluster` does not know, or "exact" over
    EXACT_CAP labels."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exact" and n > EXACT_CAP:
        raise ValueError(f"exact correlation clustering capped at n={EXACT_CAP}")


def corr_cluster_cost(edges: EdgeSet, partition: Partition) -> int:
    """Disagreements |E sym-diff cliques(P)|."""
    return sym_diff_size(edges, clique_edges(partition))


def _members(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pivot_run(nb: list[int], first: int, costs: dict[int, int]) -> tuple[list[int], int]:
    """The sweep's pivot recursion from pivot first, each later pivot the
    lowest label not yet taken, until every label is: its cluster masks and
    the sum of their costs, scored as they are made; costs caches each
    cluster's cost by its mask."""
    remaining = (1 << len(nb)) - 1
    p, pivot, clusters, total = first, 1 << first, [], 0
    while remaining:
        cluster = nb[p] & remaining | pivot
        clusters.append(cluster)
        remaining ^= cluster
        cost = costs.get(cluster)
        if cost is None:
            size, inside, rest = cluster.bit_count(), 0, cluster
            while rest:
                low = rest & -rest
                inside += (nb[low.bit_length() - 1] & cluster).bit_count()
                rest ^= low
            cost = costs[cluster] = size * (size - 1) // 2 - inside
        total += cost
        pivot = remaining & -remaining
        p = pivot.bit_length() - 1
    return clusters, total


def exact_corr_cluster(universe: Sequence[str], edges: EdgeSet) -> tuple[Partition, int]:
    """Minimum-disagreement partition by full enumeration of
    `partition_table`, every partition scored at once; ties by first found."""
    universe = tuple(universe)
    n = len(universe)
    check_strategy("exact", n)
    if edges.universe != universe:
        raise ValueError("edge set universe does not match")
    costs = partition_disagreements(edges.mask[None], n)[0]
    best = int(costs.argmin())
    return partition_of_row(universe, best), int(costs[best])


def corr_cluster(universe: Sequence[str], edges: EdgeSet, *,
                 strategy: str = "pivot-sweep", seed: int | None = None) -> Partition:
    """Cluster the universe against the edge set.

    strategy:
      pivot-sweep  deterministic; first cheapest of the runs from each first
                   pivot, stopping at a run with no disagreements
      kwik         randomized pivots drawn from the given seed
      exact        exact_corr_cluster, n <= EXACT_CAP
    """
    universe = tuple(universe)
    n = len(universe)
    check_strategy(strategy, n)
    if edges.universe != universe:
        raise ValueError("edge set universe does not match")
    if strategy == "exact":
        return exact_corr_cluster(universe, edges)[0]

    nb = [int.from_bytes(row.tobytes(), "little")
          for row in np.packbits(_square(edges.mask, n), axis=1, bitorder="little")]
    if strategy == "kwik":
        # shuffling positions draws the same permutation as shuffling labels
        order = list(range(n))
        random.Random(seed).shuffle(order)
        best, remaining = [], (1 << n) - 1
        for p in order:
            if remaining >> p & 1:
                best.append(nb[p] & remaining | 1 << p)
                remaining ^= best[-1]
    else:  # pivot-sweep
        # the earliest first pivot of each distinct first cluster; keep the
        # first of the cheapest runs, and stop at a run with no disagreements
        firsts: dict[int, int] = {}
        for v in range(n):
            firsts.setdefault(nb[v] | 1 << v, v)
        n_edges, costs = len(edges), {}
        best, best_cost = [], None
        for first in firsts.values():
            clusters, cost = _pivot_run(nb, first, costs)
            cost += n_edges  # the run's disagreements
            if best_cost is None or cost < best_cost:
                best, best_cost = clusters, cost
                if not cost:
                    break
    reps = [0] * n
    for cluster in best:
        first = (cluster & -cluster).bit_length() - 1  # a cluster's first label is its lowest bit
        for v in _members(cluster):
            reps[v] = first
    return Partition.from_reps(universe, reps)
