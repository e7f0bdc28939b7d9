"""Tree-metric fitting by reduction to ultrametric fitting.

For a pivot a with heights h_i = D(a,i) and M = max h_i, the transformed
distances M - (h_i + h_j - D(i,j))/2 need an ultrametric that stays above the
per-point floors beta_i = M - h_i and pins the pivot at gamma = M. The floors
are enforced after an unrestricted fit by clipping, which neither breaks the
ultrametric property nor increases the error. Mapping back yields a tree in
which the pivot's distances are preserved exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
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
from .ultrametric import fit_ultrametric

RESTRICTION_TOL = 1e-6


@dataclass(frozen=True)
class RestrictedInstance:
    """Pivot, cap, per-point floors, and the transformed matrix."""

    pivot: str
    gamma: float
    betas: dict[str, float]
    heights: dict[str, float]
    transformed: DistanceMatrix

    def __post_init__(self):
        for lab, beta in self.betas.items():
            if beta > self.gamma + RESTRICTION_TOL:
                raise ValueError(f"floor for {lab!r} exceeds the cap")

    def floors(self) -> np.ndarray:
        """max(beta_i, beta_j) of every pair, in `all_pairs` order."""
        beta = np.array([self.betas[lab] for lab in self.transformed.labels])
        i, j = _pair_ends(len(beta))
        return np.maximum(beta[i], beta[j])


def gromov_transform(d: DistanceMatrix, pivot: str) -> RestrictedInstance:
    """Pivot-based transform of a distance matrix into (almost) an ultrametric."""
    if pivot not in d.labels:
        raise ValueError(f"pivot {pivot!r} is not a label")
    p = d.index[pivot]
    h = _square(d.values, d.n)[p]  # 0 at the pivot
    heights = dict(zip(d.labels, h.tolist()))
    m = max(heights.values())
    betas = {lab: m - v for lab, v in heights.items()}
    betas[pivot] = m
    i, j = _pair_ends(d.n)
    # halved term by term, exactly, so that h[i] + h[j] cannot overflow
    out = m - (h[i] / 2.0 + h[j] / 2.0 - d.values / 2.0)
    out[(i == p) | (j == p)] = m
    transformed = DistanceMatrix(d.labels, out)
    return RestrictedInstance(pivot=pivot, gamma=m, betas=betas,
                              heights=heights, transformed=transformed)


def clamp_to_restricted(u: np.ndarray, r: RestrictedInstance) -> np.ndarray:
    """Force an ultrametric, given in `all_pairs` order, to satisfy the floors
    and the cap; it stays ultrametric."""
    return np.minimum(r.gamma, np.maximum(u, r.floors()))


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
    outside = (u > r.gamma + RESTRICTION_TOL) | (u < r.floors() - RESTRICTION_TOL)
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
    heights = np.array([r.heights[lab] for lab in labels])
    depth = np.where(label >= 0, heights[label], r.gamma - 2.0 * utree._height)
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
    pivot and is faster but forfeits the guarantee.
    """
    if pivot_mode not in ("all", "fixed"):
        raise ValueError(f"unknown pivot_mode {pivot_mode!r}")
    if pivot_mode == "fixed":
        if pivot is None or pivot not in d.labels:
            raise ValueError("fixed pivot_mode needs a valid pivot label")
        pivots: tuple[str, ...] = (pivot,)
    else:
        pivots = d.labels

    best: tuple[float, str, WeightedTree, FittedTree] | None = None
    per_pivot: dict[str, float] = {}
    for a in pivots:
        r = gromov_transform(d, a)
        clamped_input = DistanceMatrix(d.labels, clamp_to_restricted(r.transformed.values, r))
        sub = fit_ultrametric(clamped_input, strategy=strategy, seed=seed,
                              feas_tol=feas_tol, lower_bound=False)
        assert isinstance(sub.tree, UltrametricTree)
        clamped = clamp_to_restricted(sub.tree.distances_in(d.labels), r)
        candidate = restricted_to_tree(clamped, r, d)
        err = lp_norm_error(candidate, d, 1)
        per_pivot[a] = err
        if best is None or err < best[0]:
            best = (err, a, candidate, sub)
    assert best is not None
    err, chosen, tree, sub = best
    # only the winning pivot's bound is reported, so only its LP is solved
    bound, lp_solution = 0.0, None
    hcc_result = sub.details.get("hcc")
    if hcc_result is not None:
        bound, lp_solution = lp_lower_bound(hcc_result.instance, hcc_result.cost,
                                            feas_tol=feas_tol)
        hcc_result.lp_lower_bound, hcc_result.lp_solution = bound, lp_solution
    fixed = pseudometric_to_metric(tree, d, 1.0 / len(d.labels))
    final_err = lp_norm_error(fixed, d, 1)
    return FittedTree(kind="tree", tree=fixed, l1_error=final_err,
                      lp_lower_bound=bound,
                      num_levels=sub.num_levels,
                      details={"pivot": chosen, "per_pivot_error": per_pivot,
                               "pre_fix_error": err, "lp_solution": lp_solution,
                               "hcc": hcc_result})
