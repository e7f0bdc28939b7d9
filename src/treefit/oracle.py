"""Exact brute-force solvers for desk-scale verification.

The hierarchical solvers run a dynamic program over the full partition
lattice: the objective splits per level, so the cheapest chain through the
refinement relation is found level by level instead of enumerating chains.
The lattice is `core.partition_table`: every level is scored over all its
partitions at once, and partition a refines b when no pair is together in a
and apart in b. Only the chosen chain becomes `Partition`s.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import (
    DistanceMatrix,
    EdgeSet,
    HierarchySequence,
    Partition,
    UltrametricTree,
    _pair_ends,
    lp_norm_error,
    partition_disagreements,
    partition_of_row,
    partition_table,
)
from .corrclust import exact_corr_cluster  # noqa: F401 (re-exported)
from .lp import HccInstance
from .ultrametric import UltrametricLevels, hierarchy_to_ultrametric, star_tree

ULTRAMETRIC_CAP = 7
HCA_CAP_N = 6
HCA_CAP_LEVELS = 3


@functools.lru_cache(maxsize=8)
def _refines(n: int) -> np.ndarray:
    """refines[a, b]: no pair is together in partition a of
    `partition_table(n)` and apart in partition b."""
    same = partition_table(n)[1].astype(np.int64)
    refines = same @ (1 - same).T == 0
    refines.flags.writeable = False
    return refines


def exact_hcc(inst: HccInstance, cap: int = ULTRAMETRIC_CAP) -> tuple[HierarchySequence, float]:
    """Exact optimum of the level-weighted hierarchical objective.

    Ties go to the first chain in table order: each level keeps the first
    cheapest coarser partition, and the first cheapest finest one starts.
    """
    if inst.n > cap:
        raise ValueError(f"exact hierarchical solver capped at n={cap}")
    refines = _refines(inst.n)
    level_cost = np.array(inst.deltas)[:, None] * partition_disagreements(
        [e.mask for e in inst.edge_sets], inst.n)
    best_tail = level_cost[-1]
    choices = []
    for cost in level_cost[-2::-1]:
        choice = np.where(refines, best_tail, np.inf).argmin(axis=1)
        best_tail = cost + best_tail[choice]
        choices.append(choice)
    chain = [int(best_tail.argmin())]
    for choice in reversed(choices):
        chain.append(int(choice[chain[-1]]))
    hierarchy = HierarchySequence(tuple(partition_of_row(inst.labels, r) for r in chain))
    return hierarchy, float(best_tail[chain[0]])


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
    searching chains over the input's own distinct values is exact. They are
    sliced unmerged: every fit's tree, whose values are kept input values,
    lies in the search space, however close two values are.
    """
    if d.n > ULTRAMETRIC_CAP:
        raise ValueError(f"exact ultrametric solver capped at n={ULTRAMETRIC_CAP}")
    values = tuple(np.unique(d.values).tolist()) or (0.0,)  # one label: its star at 0.0
    if len(values) == 1:
        tree = star_tree(d.labels, values[0])
    else:
        levels = UltrametricLevels(values)
        inst = HccInstance(d.labels, levels.deltas(), tuple(
            EdgeSet(d.labels, d.values <= v) for v in values[:-1]))
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
