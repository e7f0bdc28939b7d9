"""Fitting distance matrices by ultrametrics, via hierarchical clustering.

A matrix with distinct values D^(1) < ... < D^(l+1) turns into l weighted
levels: level t has weight D^(t+1) - D^(t) and contains every pair at
distance <= D^(t). A hierarchy over those levels maps back to an ultrametric
tree with exactly the same total error, which is what makes the reduction
lossless. `slice_levels` is the one cut, of the fit's merged values and of
the raw ones `oracle.exact_ultrametric_l1` searches.

An input that is already an ultrametric, up to merged values, skips the
clustering: each of its levels is a union of cliques, which is the partition
every strategy finds at cost 0 and a hierarchy as it stands, so the tree is
read straight off the levels with error 0 against the merged values and
bound 0. It is the tree the clustering pipeline gives, built by the same
join steps. A table with one value is the case without levels: its tree is
the star at that value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DistanceMatrix,
    EdgeSet,
    FittedTree,
    HierarchySequence,
    UltrametricTree,
    _check_tol,
    _pair_ends,
    _square,
    lp_norm_error,
    merge_ties,
)
from .corrclust import check_strategy
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


def _first_labels(part_of: Sequence[int]) -> list[int]:
    """The position of the first label of each label's part, part_of[k]
    being the index of label k's part."""
    first: dict[int, int] = {}
    return [first.setdefault(part, k) for k, part in enumerate(part_of)]


def clique_levels(inst: HccInstance) -> list[list[int]] | None:
    """The first labels of every level's parts when each level's edge set is
    a union of cliques, else None, checked level by level up to the first
    that is not.

    With joined[a, b] true when level t holds the pair {a, b} or a == b,
    rep[a] is the first label joined to a. The level is a union of cliques
    exactly when every label is joined to the same labels as its rep: then
    joined labels share their rep, and so are joined to the same labels.
    """
    n_levels = inst.n_levels
    # the levels holding each pair, counted: the edge sets nest upward
    held = _square(np.sum([es.mask for es in inst.edge_sets], axis=0), len(inst.labels))
    np.fill_diagonal(held, n_levels)
    reps = []
    for t in range(n_levels):
        joined = held >= n_levels - t
        rep = joined.argmax(axis=1)
        if not np.array_equal(joined, joined[rep]):
            return None
        reps.append(rep.tolist())
    return reps


def levels_to_ultrametric(labels: Sequence[str], levels: UltrametricLevels,
                          reps: Sequence[Sequence[int]]) -> UltrametricTree:
    """The tree of nested parts given, level by level, as the first label of
    each label's part (see `_first_labels`): lca on level t means distance
    D^(t), and labels never joined meet at the largest value.

    Level t joins the first label of each part below to the first label of
    the part holding it, which is the first of those it holds.
    """
    steps, firsts = [], range(len(labels))  # the first label of each part below
    for rep in reps:
        steps.append([(rep[k], k) for k in firsts])
        firsts = [k for k in firsts if rep[k] == k]
    steps.append([(0, k) for k in firsts])
    return UltrametricTree._from_joins(tuple(labels), levels.values, steps)


def hierarchy_to_ultrametric(hierarchy: HierarchySequence,
                             levels: UltrametricLevels) -> UltrametricTree:
    """Realize a hierarchy as a tree: lca on level t means distance D^(t).

    The hierarchy is completed with singletons below and the whole set above,
    so pairs never merged by the hierarchy end up at the largest value.
    """
    if len(hierarchy) != levels.n_levels:
        raise ValueError("hierarchy level count does not match the values")
    return levels_to_ultrametric(hierarchy.universe, levels,
                                 [_first_labels(level.part_of) for level in hierarchy.levels])


def star_tree(labels: Sequence[str], height_distance: float) -> UltrametricTree:
    return levels_to_ultrametric(labels, UltrametricLevels((height_distance,)), [])


def check_fit_args(d: DistanceMatrix, strategy: str, feas_tol: float) -> None:
    """Reject an empty table, a bad strategy or a bad tolerance before any
    shortcut skips the calls that would."""
    if not d.n:
        raise ValueError("cannot fit a table with no labels")
    _check_tol("feas_tol", feas_tol)
    check_strategy(strategy, d.n)


def fit_levels(d: DistanceMatrix, *, strategy: str = "pivot-sweep",
               seed: int | None = None, feas_tol: float = DEFAULT_FEAS_TOL,
               lower_bound: bool = True) -> tuple[UltrametricLevels, list, float, dict]:
    """The fit up to its tree: the levels, each level's first labels (see
    `levels_to_ultrametric`), the bound and the details of `fit_ultrametric`.

    When every level is already a union of cliques (and when there is no
    level), those cliques are the hierarchy each strategy finds, at cost 0:
    bound 0, no `hcc` entry. Otherwise `fit_hcc` finds the hierarchy.
    """
    check_fit_args(d, strategy, feas_tol)
    inst, levels = hcc_instance_from_distances(d)
    reps = [] if inst is None else clique_levels(inst)
    if reps is not None:
        bound, details = 0.0, {"fast_path": True, "hcc_cost": 0.0, "lp_solution": None}
    else:
        result = fit_hcc(inst, strategy=strategy, seed=seed,
                         feas_tol=feas_tol, lower_bound=lower_bound)
        reps = [_first_labels(level.part_of) for level in result.hierarchy.levels]
        bound, details = result.lp_lower_bound, {
            "fast_path": result.hca.fast_path, "hcc_cost": result.cost, "hcc": result,
            "lp_solution": result.lp_solution}
    details["instance"] = inst
    return levels, reps, bound, details


def level_distances(n: int, levels: UltrametricLevels,
                    reps: Sequence[Sequence[int]]) -> np.ndarray:
    """The distances of `levels_to_ultrametric` over n labels, in `all_pairs`
    order and equal to its tree's `distances()` bit for bit: a pair sits on
    the value of the first level whose parts join it, or on the largest."""
    i, j = _pair_ends(n)
    apart = np.array(reps, dtype=np.intp).reshape(len(reps), n)
    first = np.count_nonzero(apart[:, i] != apart[:, j], axis=0)
    # the tree halves each value into a height and doubles it back
    return 2.0 * (np.array(levels.values) / 2.0)[first]


def fit_ultrametric(d: DistanceMatrix, *, strategy: str = "pivot-sweep",
                    seed: int | None = None, feas_tol: float = DEFAULT_FEAS_TOL,
                    lower_bound: bool = True) -> FittedTree:
    """Fit an ultrametric minimizing total error, reporting the LP lower bound.

    The tree is built from the parts `fit_levels` finds, straight from the
    cliques when every level is already a union of them: bound 0, no `hcc`
    entry. The LP behind the bound and its point are `details["instance"]`
    and `["lp_solution"]`, None without levels and without a solve.
    """
    levels, reps, bound, details = fit_levels(d, strategy=strategy, seed=seed,
                                              feas_tol=feas_tol, lower_bound=lower_bound)
    # values merged within VALUE_MERGE_TOL still differ from the tree
    tree = levels_to_ultrametric(d.labels, levels, reps)
    return FittedTree(kind="ultrametric", tree=tree, l1_error=lp_norm_error(tree, d, 1),
                      lp_lower_bound=bound, num_levels=levels.n_levels, details=details)
