"""Exact brute-force solvers for desk-scale verification.

The hierarchical solvers run a dynamic program over the full partition
lattice: the objective splits per level, so the cheapest chain through the
refinement relation is found level by level instead of enumerating chains.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    DistanceMatrix,
    HierarchySequence,
    Partition,
    UltrametricTree,
    _pair_ends,
    clique_edges,
    iter_partitions,
    lp_norm_error,
    sym_diff_size,
)
from .corrclust import exact_corr_cluster  # noqa: F401 (re-exported)
from .lp import HccInstance
from .ultrametric import (
    TrivialInstance,
    hcc_instance_from_distances,
    hierarchy_to_ultrametric,
    star_tree,
)

ULTRAMETRIC_CAP = 7
HCA_CAP_N = 6
HCA_CAP_LEVELS = 3


def exact_hcc(inst: HccInstance, cap: int = ULTRAMETRIC_CAP) -> tuple[HierarchySequence, float]:
    """Exact optimum of the level-weighted hierarchical objective."""
    if inst.n > cap:
        raise ValueError(f"exact hierarchical solver capped at n={cap}")
    partitions = [Partition(inst.labels, parts)
                  for parts in iter_partitions(inst.labels)]
    refines = [[fine.refines(coarse) for coarse in partitions] for fine in partitions]
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


def exact_hca(universe: Sequence[str], partitions: Sequence[Partition],
              deltas: Sequence[float]) -> tuple[HierarchySequence, float]:
    """Exact hierarchical agreement optimum (clique edge sets per level)."""
    universe = tuple(universe)
    if len(universe) > HCA_CAP_N:
        raise ValueError(f"exact agreement solver capped at n={HCA_CAP_N}")
    if len(partitions) > HCA_CAP_LEVELS:
        raise ValueError(f"exact agreement solver capped at {HCA_CAP_LEVELS} levels")
    inst = HccInstance.from_partitions(universe, deltas, partitions)
    return exact_hcc(inst, cap=HCA_CAP_N)


def exact_ultrametric_l1(d: DistanceMatrix) -> tuple[UltrametricTree, float]:
    """Best ultrametric restricted to input values; optimal overall for L1.

    Some optimal ultrametric uses only distances present in the input, so
    searching chains over the input's own levels is exact.
    """
    if d.n > ULTRAMETRIC_CAP:
        raise ValueError(f"exact ultrametric solver capped at n={ULTRAMETRIC_CAP}")
    try:
        inst, levels = hcc_instance_from_distances(d)
    except TrivialInstance as trivial:
        tree = star_tree(d.labels, trivial.levels.values[0])
    else:
        hierarchy, _ = exact_hcc(inst, cap=ULTRAMETRIC_CAP)
        tree = hierarchy_to_ultrametric(hierarchy, levels)
    return tree, lp_norm_error(tree, d, 1)


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
