"""Hierarchical correlation clustering driver.

Each level's edge set is first clustered independently; the resulting
partitions go through the hierarchical cluster agreement solver.
`lp_lower_bound` solves the LP of the original instance, the true lower
bound a fit reports next to its cost. That bound lies between 0 and the cost
of any hierarchy for the instance, so a fit of cost 0 needs no solve.
`lp_lower_bound` alone skips the solve, on no levels or cost 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import HierarchySequence
from .corrclust import corr_cluster
from .hca import HcaResult, fit_hca_report
from .lp import DEFAULT_FEAS_TOL, HccInstance, LpSolution, build_lp, hierarchy_cost, solve_lp


@dataclass
class HccResult:
    """The hierarchy, its cost and the agreement solver's report, whose
    `partitions` are the levels' clusterings."""

    hierarchy: HierarchySequence
    cost: float
    hca: HcaResult


def lp_lower_bound(inst: HccInstance | None, cost: float, *,
                   feas_tol: float = DEFAULT_FEAS_TOL) -> tuple[float, LpSolution | None]:
    """Optimum of the instance's LP relaxation, and the point reaching it.

    cost is that of a hierarchy for the instance. The optimum lies between 0
    and that cost, so a cost of 0 skips the solve, as does an instance of
    None (no levels): the bound is 0 and no point is returned.
    """
    if inst is None or cost == 0.0:
        return 0.0, None
    solution = solve_lp(build_lp(inst), feas_tol)
    return solution.objective, solution


def fit_hcc(inst: HccInstance, *, strategy: str = "pivot-sweep",
            seed: int | None = None, feas_tol: float = DEFAULT_FEAS_TOL,
            fast_path: bool = True) -> HccResult:
    """Cluster each level, then reconcile the levels into a hierarchy; the
    bound is `lp_lower_bound` of the instance and this cost."""
    partitions = tuple(
        corr_cluster(inst.labels, es, strategy=strategy, seed=seed)
        for es in inst.edge_sets)
    hca = fit_hca_report(inst.labels, partitions, inst.deltas,
                         feas_tol=feas_tol, fast_path=fast_path)
    return HccResult(hierarchy=hca.hierarchy, cost=hierarchy_cost(inst, hca.hierarchy), hca=hca)
