"""Fitting distance matrices by ultrametrics, via hierarchical clustering.

A matrix with distinct values D^(1) < ... < D^(l+1) turns into l weighted
levels: level t has weight D^(t+1) - D^(t) and contains every pair at
distance <= D^(t). A hierarchy over those levels maps back to an ultrametric
tree with exactly the same total error, which is what makes the reduction
lossless. `slice_levels` is the one cut, of the fit's merged values and of
the raw ones `oracle.exact_ultrametric_l1` searches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DistanceMatrix,
    EdgeSet,
    FittedTree,
    HierarchySequence,
    UltrametricTree,
    _nth_pair,
    lp_norm_error,
    merge_ties,
    nested_components,
)
from .hcc import fit_hcc
from .lp import DEFAULT_FEAS_TOL, HccInstance


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
    def n_levels(self) -> int:
        return len(self.values) - 1

    def deltas(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.values, self.values[1:]))


def _level_index(values: tuple[float, ...], labels: Sequence[str],
                 dist: np.ndarray, tol: float) -> np.ndarray:
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


def slice_levels(labels: Sequence[str], values: Sequence[float],
                 level: np.ndarray) -> tuple[HccInstance | None, UltrametricLevels]:
    """Level weights from consecutive value gaps; level edges by thresholding.

    `values` are the sorted level values and level[k] the index of the value
    the k-th pair of `all_pairs(labels)` sits on; level t holds the pairs on
    values 0..t. With at most one value there is no level and no instance:
    `(None, levels)`, where one label's levels hold 0.0, its star's value.
    """
    levels = UltrametricLevels(tuple(values) or (0.0,))
    if levels.n_levels == 0:
        return None, levels
    edge_sets = tuple(EdgeSet(labels, level <= t) for t in range(levels.n_levels))
    return HccInstance(labels, levels.deltas(), edge_sets), levels


def hcc_instance_from_distances(d: DistanceMatrix) -> tuple[HccInstance | None, UltrametricLevels]:
    """The fit's levels: `slice_levels` on the values `d.distinct_values()`
    keeps, each pair on the kept value its distance merged into (see
    merge_ties), so a near tie cannot leak into another level."""
    return slice_levels(d.labels, *merge_ties(d.values))


def hierarchy_to_ultrametric(hierarchy: HierarchySequence,
                             levels: UltrametricLevels) -> UltrametricTree:
    """Realize a hierarchy as a tree: lca on level t means distance D^(t).

    The hierarchy is completed with singletons below and the whole set above,
    so pairs never merged by the hierarchy end up at the largest value. Level
    t joins the first label of each part below to the first label of the part
    holding it, which is the first of those it holds.
    """
    if len(hierarchy) != levels.n_levels:
        raise ValueError("hierarchy level count does not match the values")
    n = len(hierarchy.universe)
    steps, firsts = [], range(n)  # the first label of each part below
    for level in hierarchy.levels:
        head: dict[int, int] = {}  # the first label of each part above
        steps.append([(head.setdefault(level.part_of[k], k), k) for k in firsts])
        firsts = head.values()
    steps.append([(0, k) for k in firsts])
    return UltrametricTree._from_joins(hierarchy.universe, levels.values, steps)


def star_tree(labels: Sequence[str], height_distance: float) -> UltrametricTree:
    return UltrametricTree._from_joins(
        tuple(labels), (height_distance,), [[(0, k) for k in range(1, len(labels))]])


def ultrametric_to_hierarchy(tree: UltrametricTree,
                             levels: UltrametricLevels) -> HierarchySequence:
    """Inverse construction: level-t parts are components under <= D^(t)."""
    level = _level_index(levels.values, tree.labels, tree.distances(), DEFAULT_TOL)
    return HierarchySequence(tuple(nested_components(tree.labels, level, levels.n_levels)))


def fit_ultrametric(d: DistanceMatrix, *, strategy: str = "pivot-sweep",
                    seed: int | None = None, feas_tol: float = DEFAULT_FEAS_TOL,
                    lower_bound: bool = True) -> FittedTree:
    """Fit an ultrametric minimizing total error, reporting the LP lower bound."""
    inst, levels = hcc_instance_from_distances(d)
    if inst is None:
        # values merged within VALUE_MERGE_TOL still differ from the star
        tree = star_tree(d.labels, levels.values[0])
        bound, details = 0.0, {"fast_path": True, "hcc_cost": 0.0}
    else:
        result = fit_hcc(inst, strategy=strategy, seed=seed,
                         feas_tol=feas_tol, lower_bound=lower_bound)
        tree = hierarchy_to_ultrametric(result.hierarchy, levels)
        bound, details = result.lp_lower_bound, {
            "fast_path": result.hca.fast_path, "hcc_cost": result.cost, "hcc": result}
    return FittedTree(kind="ultrametric", tree=tree, l1_error=lp_norm_error(tree, d, 1),
                      lp_lower_bound=bound, num_levels=levels.n_levels, details=details)
