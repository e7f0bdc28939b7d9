"""Hierarchical correlation clustering driver.

Each level's edge set is first clustered independently; the resulting
partitions go through the hierarchical cluster agreement solver. The LP of
the original instance is solved separately so every run reports a true lower
bound next to the achieved cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HierarchySequence, Partition, _pair_ends, clique_edges, sym_diff_size
from .corrclust import corr_cluster, corr_cluster_cost
from .hca import HcaResult, fit_hca_report, is_hierarchical
from .lp import HccInstance, LpSolution, build_lp, hierarchy_cost, solve_lp


@dataclass
class HccResult:
    hierarchy: HierarchySequence
    cost: float
    lp_lower_bound: float
    lp_solution: LpSolution | None
    partitions: tuple[Partition, ...]
    level_costs: tuple[int, ...]
    hca: HcaResult
    instance: HccInstance


def _clique_hierarchy(inst: HccInstance) -> HierarchySequence | None:
    """If every E^(t) is a disjoint clique set and the levels nest, return it.

    first[v] is the lowest position in the closed neighbourhood of label v.
    A level is a disjoint clique set exactly when two labels are adjacent iff
    their first positions agree; the labels sharing a first position are then
    the parts.
    """
    i, j = _pair_ends(inst.n)
    parts = []
    for es in inst.edge_sets:
        first = np.arange(inst.n)
        np.minimum.at(first, j[es.mask], i[es.mask])
        if not np.array_equal(first[i] == first[j], es.mask):
            return None
        groups: dict[int, list[str]] = {}
        for lab, f in zip(inst.labels, first.tolist()):
            groups.setdefault(f, []).append(lab)
        parts.append(Partition.from_parts(inst.labels, groups.values()))
    if not is_hierarchical(parts):
        return None
    return HierarchySequence(tuple(parts))


def lp_lower_bound(inst: HccInstance, *, feas_tol: float = 1e-7,
                   fast_path: bool = True) -> tuple[float, LpSolution | None]:
    """Optimum of the instance's LP relaxation, and the point reaching it.

    With fast_path, nested disjoint cliques skip the solve: their integral
    point costs 0, so the bound is 0 and no point is returned.
    """
    if fast_path and _clique_hierarchy(inst) is not None:
        return 0.0, None
    solution = solve_lp(build_lp(inst), feas_tol)
    return solution.objective, solution


def fit_hcc(inst: HccInstance, *, strategy: str = "pivot-sweep",
            seed: int | None = None, feas_tol: float = 1e-7,
            fast_path: bool = True, lower_bound: bool = True) -> HccResult:
    """Cluster each level, then reconcile the levels into a hierarchy."""
    partitions = tuple(
        corr_cluster(inst.labels, es, strategy=strategy, seed=seed)
        for es in inst.edge_sets)
    level_costs = tuple(
        corr_cluster_cost(es, q) for es, q in zip(inst.edge_sets, partitions))
    hca = fit_hca_report(inst.labels, partitions, inst.deltas,
                         feas_tol=feas_tol, fast_path=fast_path)
    cost = hierarchy_cost(inst, hca.hierarchy)

    lp_solution = None
    bound = 0.0
    if lower_bound:
        bound, lp_solution = lp_lower_bound(inst, feas_tol=feas_tol,
                                            fast_path=fast_path)
    return HccResult(hierarchy=hca.hierarchy, cost=cost, lp_lower_bound=bound,
                     lp_solution=lp_solution, partitions=partitions,
                     level_costs=level_costs, hca=hca, instance=inst)


def triangle_switch_holds(result: HccResult) -> bool:
    """|E sdiff P| <= |E sdiff Q| + |Q sdiff P| per level, always exact."""
    for t in range(result.instance.n_levels):
        e = result.instance.edge_sets[t]
        q = clique_edges(result.partitions[t])
        p = clique_edges(result.hierarchy.levels[t])
        if sym_diff_size(e, p) > sym_diff_size(e, q) + sym_diff_size(q, p):
            return False
    return True
