"""Fitting distance matrices by ultrametrics, via hierarchical clustering.

A matrix with distinct values D^(1) < ... < D^(l+1) turns into l weighted
levels: level t has weight D^(t+1) - D^(t) and contains every pair at
distance <= D^(t). A hierarchy over those levels maps back to an ultrametric
tree with exactly the same total error, which is what makes the reduction
lossless.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DistanceMatrix,
    EdgeSet,
    FittedTree,
    HierarchySequence,
    Partition,
    UltrametricTree,
    components,
    lp_norm_error,
)
from .hcc import HccResult, fit_hcc
from .lp import HccInstance

VALUE_TOL = 1e-9


class TrivialInstance(Exception):
    """All distances equal: a star at that height fits with zero error."""

    def __init__(self, levels: "UltrametricLevels"):
        super().__init__("single distinct distance")
        self.levels = levels


@dataclass(frozen=True)
class UltrametricLevels:
    """The distinct distances of the input, smallest first."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("need at least one distance value")
        for lo, hi in zip(self.values, self.values[1:]):
            if not hi > lo:
                raise ValueError("values must be strictly increasing")

    @property
    def delta0(self) -> float:
        return self.values[0]

    @property
    def n_levels(self) -> int:
        return len(self.values) - 1

    def deltas(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.values, self.values[1:]))


def _level_index(values: tuple[float, ...], v: float, tol: float) -> int:
    """Index of the level value v snaps to; error beyond tol."""
    best = min(range(len(values)), key=lambda k: abs(values[k] - v))
    if abs(values[best] - v) > tol:
        raise ValueError(f"distance {v} is not one of the level values")
    return best


def hcc_instance_from_distances(d: DistanceMatrix) -> tuple[HccInstance, UltrametricLevels]:
    """Level weights from consecutive value gaps; level edges by thresholding.

    Each pair is snapped to its own (tie-merged) value, so near-duplicate
    values cannot leak into the wrong level.
    """
    levels = UltrametricLevels(d.distinct_values())
    if levels.n_levels == 0:
        raise TrivialInstance(levels)
    index = {}
    for i, j, v in d.pairs():
        index[(i, j)] = _level_index(levels.values, v, 2e-12)
    edge_sets = []
    for t in range(levels.n_levels):
        pairs = [pair for pair, k in index.items() if k <= t]
        edge_sets.append(EdgeSet.from_pairs(d.labels, pairs))
    inst = HccInstance(d.labels, levels.deltas(), tuple(edge_sets))
    return inst, levels


def hierarchy_to_ultrametric(hierarchy: HierarchySequence,
                             levels: UltrametricLevels) -> UltrametricTree:
    """Realize a hierarchy as a tree: lca on level t means distance D^(t).

    The hierarchy is completed with singletons below and the whole set above,
    so pairs never merged by the hierarchy end up at the largest value.
    """
    if len(hierarchy) != levels.n_levels:
        raise ValueError("hierarchy level count does not match the values")
    whole = Partition.from_parts(hierarchy.universe, [hierarchy.universe])
    return UltrametricTree.from_partitions(
        HierarchySequence(hierarchy.levels + (whole,)), levels.values)


def star_tree(labels: Sequence[str], height_distance: float) -> UltrametricTree:
    whole = Partition.from_parts(labels, [labels])
    return UltrametricTree.from_partitions(HierarchySequence((whole,)), (height_distance,))


def ultrametric_to_hierarchy(tree: UltrametricTree,
                             levels: UltrametricLevels) -> HierarchySequence:
    """Inverse construction: level-t parts are components under <= D^(t)."""
    labels = tree.labels
    mapping = tree.distance_map()
    index = {}
    for pair, v in mapping.items():
        try:
            index[pair] = _level_index(levels.values, v, VALUE_TOL)
        except ValueError:
            raise ValueError(
                f"tree distance {v} for {pair} is not an input value") from None
    return HierarchySequence(tuple(
        components(labels, (pair for pair, k in index.items() if k <= t))
        for t in range(levels.n_levels)))


def fit_ultrametric(d: DistanceMatrix, *, strategy: str = "pivot-sweep",
                    seed: int | None = None, feas_tol: float = 1e-7,
                    lower_bound: bool = True) -> FittedTree:
    """Fit an ultrametric minimizing total error, reporting the LP lower bound."""
    if d.n == 1:
        return FittedTree(kind="ultrametric", tree=star_tree(d.labels, 0.0),
                          l1_error=0.0, lp_lower_bound=0.0, num_levels=0,
                          details={"fast_path": True, "hcc_cost": 0.0})
    try:
        inst, levels = hcc_instance_from_distances(d)
    except TrivialInstance as trivial:
        # values merged within VALUE_MERGE_TOL still differ from the star
        tree = star_tree(d.labels, trivial.levels.values[0])
        return FittedTree(kind="ultrametric", tree=tree,
                          l1_error=lp_norm_error(tree, d, 1),
                          lp_lower_bound=0.0, num_levels=0,
                          details={"fast_path": True, "hcc_cost": 0.0})
    result: HccResult = fit_hcc(inst, strategy=strategy, seed=seed,
                                feas_tol=feas_tol, lower_bound=lower_bound)
    tree = hierarchy_to_ultrametric(result.hierarchy, levels)
    error = lp_norm_error(tree, d, 1)
    return FittedTree(kind="ultrametric", tree=tree, l1_error=error,
                      lp_lower_bound=result.lp_lower_bound,
                      num_levels=levels.n_levels,
                      details={"fast_path": result.hca.fast_path,
                               "hcc_cost": result.cost,
                               "hcc": result})
