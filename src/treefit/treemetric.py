"""Tree-metric fitting by reduction to ultrametric fitting.

For a pivot a with heights h_i = D(a,i) and M = max h_i, the transformed
distances M - (h_i + h_j - D(i,j))/2 need an ultrametric that stays above the
per-point floors beta_i = M - h_i and pins the pivot at gamma = M. The floors
are enforced after an unrestricted fit by clipping, which neither breaks the
ultrametric property nor increases the error. Mapping back yields a tree in
which the pivot's distances are preserved exactly.

Mapping back gives T - D = 2 (U - t) on every pair, U being the clamped
ultrametric and t the transform, and 0 on the pivot's pairs. So the tree
error of each pivot is scored in closed form, 2 sum |U - t|, from the pair
values of its sub-fit, and only the pivots that score within a rounding
slack of the least are realized as trees. `details["per_pivot_error"]` holds
those scores; they equal the tree errors on integer and half-integer tables,
and `pre_fix_error` is the kept pivot's realized tree error.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    VALUE_MERGE_TOL,
    DistanceMatrix,
    FittedTree,
    UltrametricTree,
    WeightedTree,
    _nth_pair,
    _pair_ends,
    _pair_vector,
    _square,
    lp_norm_error,
)
from .hcc import lp_lower_bound
from .lp import DEFAULT_FEAS_TOL
from .ultrametric import check_fit_args, fit_levels, level_distances
# Unused here, but perfbench/layers.py wraps `treemetric.fit_ultrametric` by
# name: it can go only together with that wrap, in a change to the benchmark.
from .ultrametric import fit_ultrametric  # noqa: F401

RESTRICTION_TOL = 1e-6


@dataclass(frozen=True)
class RestrictedInstance:
    """Pivot, cap and the transformed matrix. `heights` and `betas` hold
    h_i and the floor beta_i of each label, in `transformed.labels` order;
    `floors` holds max(beta_i, beta_j) of every pair, in `all_pairs` order."""

    pivot: str
    gamma: float
    betas: np.ndarray
    heights: np.ndarray
    floors: np.ndarray
    transformed: DistanceMatrix

    def __post_init__(self):
        for k in np.flatnonzero(self.betas > self.gamma + RESTRICTION_TOL)[:1]:
            raise ValueError(f"floor for {self.transformed.labels[k]!r} exceeds the cap")


def gromov_transform(d: DistanceMatrix, pivot: str) -> RestrictedInstance:
    """Pivot-based transform of a distance matrix into (almost) an ultrametric."""
    if pivot not in d.labels:
        raise ValueError(f"pivot {pivot!r} is not a label")
    p = d.index[pivot]
    h = _square(d.values, d.n)[p].copy()  # 0 at the pivot
    m = float(h.max())
    betas = m - h
    betas[p] = m
    i, j = _pair_ends(d.n)
    # halved term by term, exactly, so that h[i] + h[j] cannot overflow
    out = m - (h[i] / 2.0 + h[j] / 2.0 - d.values / 2.0)
    out[(i == p) | (j == p)] = m
    transformed = DistanceMatrix(d.labels, out)
    return RestrictedInstance(pivot=pivot, gamma=m, betas=betas, heights=h,
                              floors=np.maximum(betas[i], betas[j]),
                              transformed=transformed)


def clamp_to_restricted(u: np.ndarray, r: RestrictedInstance) -> np.ndarray:
    """Force an ultrametric, given in `all_pairs` order, to satisfy the floors
    and the cap; it stays ultrametric."""
    return np.minimum(r.gamma, np.maximum(u, r.floors))


def pivot_subproblem(r: RestrictedInstance) -> DistanceMatrix:
    """The table a pivot's ultrametric sub-fit fits: the transform clamped
    to the floors and the cap."""
    return DistanceMatrix(r.transformed.labels, clamp_to_restricted(r.transformed.values, r))


def restricted_to_tree(u: np.ndarray, r: RestrictedInstance,
                       d: DistanceMatrix) -> WeightedTree:
    """Invert the pivot transform: T(i,j) = 2 U(i,j) - 2 gamma + h_i + h_j.

    u is in `all_pairs` order. Realized on the ultrametric tree of U: a node
    merging pairs at value v sits at path-distance gamma - v from the pivot,
    and each species hangs at total path-distance h_i. Zero-weight edges may
    appear (pseudometric).
    """
    labels = r.transformed.labels
    u = _pair_vector(u, len(labels))
    i, j = _pair_ends(len(labels))
    p = r.transformed.index[r.pivot]
    outside = (u > r.gamma + RESTRICTION_TOL) | (u < r.floors - RESTRICTION_TOL)
    off_cap = ((i == p) | (j == p)) & (np.abs(u - r.gamma) > RESTRICTION_TOL)
    for k in np.flatnonzero(outside | off_cap)[:1]:
        if outside[k]:
            raise ValueError("pair (%s,%s) violates the restriction" % _nth_pair(labels, k))
        raise ValueError("pivot distances must equal the cap")
    utree = UltrametricTree.from_distances(labels, u, tol=RESTRICTION_TOL)
    if abs(utree.top_distance() - r.gamma) > RESTRICTION_TOL:
        raise ValueError("top of the fitted tree does not reach the cap")

    # in preorder: the root is the pivot itself, an internal node sits at
    # depth gamma - 2 * height and each other species at its height
    label, parent = utree._label, utree._parent
    depth = np.where(label >= 0, r.heights[label], r.gamma - 2.0 * utree._height)
    depth[0] = 0.0
    keep = np.flatnonzero(label != p)[1:]  # every edge but the pivot's own
    weights = (depth - depth[parent])[keep]
    if np.any(weights <= -RESTRICTION_TOL):
        raise ValueError("restriction violation produced a negative edge")
    label_set = set(labels)
    fresh = (name for name in (f"v{k}" for k in itertools.count())
             if name not in label_set)
    names = [r.pivot] + [labels[k] if k >= 0 else next(fresh) for k in label[1:].tolist()]
    cleaned = tuple(zip([names[a] for a in parent[keep].tolist()],
                        [names[v] for v in keep.tolist()],
                        np.where(weights > 0.0, weights, 0.0).tolist()))
    return WeightedTree(labels=d.labels, edges=cleaned, root=r.pivot)


def pseudometric_to_metric(tree: WeightedTree, d: DistanceMatrix,
                           alpha: float) -> WeightedTree:
    """Contract zero edges, then hang coinciding species on tiny private stems.

    The stem length alpha * d_min / (8 n) keeps the error within a (1 + alpha)
    factor for every norm; exact fits pass through unchanged.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    # contract zero-weight edges: single-species groups keep the species
    # name; groups hosting several species become fresh hubs and every
    # species gets its own stem
    names, parent, length = tree._names, tree._parent.tolist(), tree._length.tolist()
    top = list(range(len(names)))  # the highest node each node contracts into
    groups: dict[int, list[str]] = {}
    for v, name in enumerate(names):
        if v and length[v] == 0.0:
            top[v] = top[parent[v]]
        groups.setdefault(top[v], []).append(name)
    label_set, taken = set(tree.labels), set(names)
    fresh = (f"hub{k}" for k in itertools.count())
    rep: dict[str, str] = {}
    pending: dict[str, list[str]] = {}
    for members in sorted(groups.values(), key=min):
        species = sorted(m for m in members if m in label_set)
        if len(species) == 1:
            name = species[0]
        elif len(species) > 1:
            name = next(n for n in fresh if n not in taken)
            pending[name] = species
        else:
            name = min(members)
        for m in members:
            rep[m] = name

    edges = [(rep[names[parent[v]]], rep[names[v]], length[v])
             for v in range(1, len(names)) if length[v] != 0.0]
    if pending:
        gaps = np.abs(tree.distances_in(d.labels) - d.values)
        gaps = gaps[gaps > 0]
        if not len(gaps):
            raise ValueError("coinciding species cannot occur in an exact fit")
        eps = alpha * float(gaps.min()) / (8.0 * len(d.labels))
        for name, species in sorted(pending.items()):
            for lab in species:
                edges.append((name, lab, eps))
    root = rep.get(tree.root, None) if tree.root else None
    return WeightedTree(labels=d.labels, edges=tuple(edges), root=root)


def fit_tree_metric(d: DistanceMatrix, *, pivot_mode: str = "all",
                    pivot: str | None = None, strategy: str = "pivot-sweep",
                    seed: int | None = None, feas_tol: float = DEFAULT_FEAS_TOL) -> FittedTree:
    """Fit a weighted tree spanning the labels, minimizing total error.

    pivot_mode "all" tries every label as the pivot and keeps the best
    candidate (the approximation guarantee needs this); "fixed" uses one
    pivot and is faster but forfeits the guarantee. The bound and its record
    are those of the kept pivot's subproblem (see `fit_ultrametric`), from
    one `lp_lower_bound` call, which alone skips the solve, on no levels or
    cost 0.
    """
    check_fit_args(d, strategy, feas_tol)
    if pivot_mode not in ("all", "fixed"):
        raise ValueError(f"unknown pivot_mode {pivot_mode!r}")
    if pivot_mode == "fixed":
        if pivot is None or pivot not in d.labels:
            raise ValueError("fixed pivot_mode needs a valid pivot label")
        pivots: tuple[str, ...] = (pivot,)
    else:
        pivots = d.labels

    # A score and its tree's error differ by rounding, a few ulps of max D
    # per pair and per edge on the pair's tree path, which stays below
    # 1e-9 (sum D) / 2 while n max D / mean D is under about 1e5, and by the
    # values within VALUE_MERGE_TOL that `restricted_to_tree` merges, at most
    # 2 VALUE_MERGE_TOL per pair. The slack exceeds twice that gap, so a
    # pivot scoring more than the least plus the slack has a larger tree
    # error than the least-scoring pivot, and cannot win.
    total, merges = float(np.sum(d.values)), 4.0 * VALUE_MERGE_TOL * len(d.values)

    def within(score: float, least: float) -> bool:
        return score <= least + 1e-9 * (total + least) + merges

    per_pivot: dict[str, float] = {}
    least = math.inf
    near: list[tuple[float, str, RestrictedInstance, np.ndarray, int, dict]] = []
    for a in pivots:
        r = gromov_transform(d, a)
        levels, reps, details = fit_levels(
            pivot_subproblem(r), strategy=strategy, seed=seed, feas_tol=feas_tol)
        clamped = clamp_to_restricted(level_distances(d.n, levels, reps), r)
        score = 2.0 * float(np.abs(clamped - r.transformed.values).sum())
        per_pivot[a] = score
        least = min(least, score)
        # only the pivots still within the slack of the least are held
        near = [c for c in near if within(c[0], least)]
        if within(score, least):
            near.append((score, a, r, clamped, levels.n_levels, details))

    # the first pivot with the least realized tree error wins
    best: tuple[float, str, WeightedTree, int, dict] | None = None
    for _, a, r, clamped, num_levels, details in near:
        candidate = restricted_to_tree(clamped, r, d)
        err = lp_norm_error(candidate, d, 1)
        if best is None or err < best[0]:
            best = (err, a, candidate, num_levels, details)
    assert best is not None
    err, chosen, tree, num_levels, sub = best
    # only the winning pivot's bound is reported, so only its LP is solved
    inst = sub["instance"]
    bound, lp_solution = lp_lower_bound(inst, sub["hcc_cost"], feas_tol=feas_tol)
    fixed = pseudometric_to_metric(tree, d, 1.0 / len(d.labels))
    final_err = lp_norm_error(fixed, d, 1)
    return FittedTree(kind="tree", tree=fixed, l1_error=final_err,
                      lp_lower_bound=bound,
                      num_levels=num_levels,
                      details={"pivot": chosen, "per_pivot_error": per_pivot,
                               "pre_fix_error": err, "instance": inst,
                               "lp_solution": lp_solution, "hcc": sub.get("hcc")})
