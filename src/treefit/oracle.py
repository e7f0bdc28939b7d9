"""Exact brute-force solvers for desk-scale verification.

The hierarchical solvers run a dynamic program over the full partition
lattice: the objective splits per level, so the cheapest chain through the
refinement relation is found level by level instead of enumerating chains.
The lattice is `core.partition_table`: every level is scored over all its
partitions at once, and partition a refines b when no pair is together in a
and apart in b. Only the chosen chain becomes `Partition`s. The ultrametric
oracle cuts the raw distinct values with the fit's `ultrametric.slice_levels`.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import (
    DistanceMatrix,
    HierarchySequence,
    Partition,
    UltrametricTree,
    lp_norm_error,
    partition_disagreements,
    partition_of_row,
    partition_table,
)
from .corrclust import exact_corr_cluster  # noqa: F401 (re-exported)
from .lp import HccInstance
from .ultrametric import hierarchy_to_ultrametric, slice_levels, star_tree

ULTRAMETRIC_CAP = 7


@functools.lru_cache(maxsize=8)
def _refines(n: int) -> np.ndarray:
    """refines[a, b]: no pair is together in partition a of
    `partition_table(n)` and apart in partition b."""
    same = partition_table(n)[1].astype(np.int64)
    refines = same @ (1 - same).T == 0
    refines.flags.writeable = False
    return refines


def exact_hcc(inst: HccInstance) -> tuple[HierarchySequence, float]:
    """Exact optimum of the level-weighted hierarchical objective.

    Ties go to the first chain in table order: each level keeps the first
    cheapest coarser partition, and the first cheapest finest one starts.
    """
    if inst.n > ULTRAMETRIC_CAP:
        raise ValueError(f"exact hierarchical solver capped at n={ULTRAMETRIC_CAP}")
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
    """Exact agreement optimum: `exact_hcc` on the partitions' clique edge sets."""
    return exact_hcc(HccInstance.from_partitions(universe, deltas, partitions))


def exact_ultrametric_l1(d: DistanceMatrix) -> tuple[UltrametricTree, float]:
    """Best ultrametric restricted to input values; optimal overall for L1.

    Some optimal ultrametric uses only distances present in the input, so
    searching chains over the input's own distinct values is exact. They are
    sliced unmerged: every fit's tree, whose values are kept input values,
    lies in the search space, however close two values are.
    """
    if d.n > ULTRAMETRIC_CAP:
        raise ValueError(f"exact ultrametric solver capped at n={ULTRAMETRIC_CAP}")
    values, level = np.unique(d.values, return_inverse=True)
    inst, levels = slice_levels(d.labels, values.tolist(), level)
    if inst is None:
        tree = star_tree(d.labels, levels.values[0])
    else:
        tree = hierarchy_to_ultrametric(exact_hcc(inst)[0], levels)
    return tree, lp_norm_error(tree, d, 1)
