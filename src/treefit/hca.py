"""Hierarchical cluster agreement: LP-guided cleaning plus bottom-up assembly.

Input: one partition per level plus level weights. The LP relaxation is
solved once; each input cluster is then cleaned independently using the
fractional distances (species must be near half their own cluster and far
from almost everything else), and the surviving clusters are stitched into a
hierarchy by an incremental forest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import HierarchySequence, Partition, _pair_ends, _square
from .lp import (
    HccInstance,
    LpSolution,
    build_lp,
    hierarchy_cost,
    lp_cost,
    solve_lp,
)

# cleaning thresholds: ball radii, in-cluster majority, outside budget,
# survivor fraction. Ball membership is strict (<), the half test strict (>),
# the outside test non-strict (<=), the keep test non-strict (>=).
BALL_NEAR = 0.1
BALL_FAR = 0.6
HALF_FRACTION = 0.5
OUTSIDE_FRACTION = 0.05
KEEP_FRACTION = 0.9


@dataclass(frozen=True)
class LpCluster:
    """A cleaned cluster, remembering the input cluster it came from."""

    members: frozenset[str]
    input_cluster: frozenset[str]


@dataclass(frozen=True)
class LpClusterFamilies:
    """Per level, the disjoint clusters that survived cleaning."""

    universe: tuple[str, ...]
    levels: tuple[tuple[LpCluster, ...], ...]

    def __post_init__(self):
        for fam in self.levels:
            seen: set[str] = set()
            for cluster in fam:
                if cluster.members & seen:
                    raise ValueError("same-level clusters overlap")
                seen |= cluster.members

    def n_levels(self) -> int:
        return len(self.levels)


def _ball_tests(sol: LpSolution, t: int, part_of: np.ndarray) -> list[bool]:
    """Whether each label passes both ball tests at level t in its cluster,
    part_of[k] being the cluster of sol.labels[k]. The square matrix has a
    zero diagonal, so a label is near itself, as in LpSolution.value."""
    x = _square(sol.x[t], len(part_of))
    same = part_of[:, None] == part_of
    size = np.bincount(part_of)[part_of]
    near_inside = np.count_nonzero(same & (x < BALL_NEAR), axis=1)
    far_outside = np.count_nonzero(~same & (x < BALL_FAR), axis=1)
    return ((near_inside > HALF_FRACTION * size)
            & (far_outside <= OUTSIDE_FRACTION * size)).tolist()


def cleaned_subset(sol: LpSolution, t: int, cluster: frozenset[str]) -> frozenset[str]:
    """Members of one input cluster that pass both ball tests at level t."""
    inside = [lab in cluster for lab in sol.labels]
    keep = _ball_tests(sol, t, np.array(inside, dtype=np.intp))
    return frozenset(lab for lab, a, ok in zip(sol.labels, inside, keep) if a and ok)


def lp_cleaning(partitions: Sequence[Partition], sol: LpSolution) -> LpClusterFamilies:
    """Clean every input cluster independently; drop clusters losing > 10%."""
    if len(partitions) != sol.n_levels:
        raise ValueError("one partition per LP level required")
    universe = partitions[0].universe
    if sol.labels != universe:
        raise ValueError("solution labels do not match the partitions")
    levels = []
    for t, q in enumerate(partitions):
        if q.universe != universe:
            raise ValueError("partitions over different universes")
        survivors: list[list[str]] = [[] for _ in q.parts]
        for lab, k, ok in zip(universe, q.part_of, _ball_tests(sol, t, np.array(q.part_of))):
            if ok:
                survivors[k].append(lab)
        fam = []
        for cluster, kept in zip(q.parts, survivors):
            if len(kept) >= KEEP_FRACTION * len(cluster):
                fam.append(LpCluster(members=frozenset(kept), input_cluster=cluster))
        levels.append(tuple(fam))
    return LpClusterFamilies(universe=tuple(universe), levels=tuple(levels))


def check_hierarchy_friendly(families: LpClusterFamilies) -> bool:
    """No lower-level cluster may intersect two distinct same-level clusters."""
    for t_low in range(families.n_levels()):
        for low in families.levels[t_low]:
            for t_high in range(t_low + 1, families.n_levels()):
                hits = sum(1 for high in families.levels[t_high]
                           if low.members & high.members)
                if hits >= 2:
                    return False
    return True


# ---------------------------------------------------------------------------
# Forest assembly
# ---------------------------------------------------------------------------

@dataclass
class ForestNode:
    node_id: int
    level: int
    core: frozenset[str]
    extended: frozenset[str]
    lp_cluster: frozenset[str] | None
    input_cluster: frozenset[str] | None
    parent: int | None = None
    children: tuple[int, ...] = ()


@dataclass
class ClusterForest:
    universe: tuple[str, ...]
    nodes: list[ForestNode] = field(default_factory=list)

    def roots(self) -> list[ForestNode]:
        return [nd for nd in self.nodes if nd.parent is None]

    def internal(self) -> list[ForestNode]:
        return [nd for nd in self.nodes if nd.level > 0]

    def descendant_leaves(self, node: ForestNode) -> frozenset[str]:
        out: set[str] = set()
        stack = [node.node_id]
        while stack:
            nd = self.nodes[stack.pop()]
            if nd.level == 0:
                out |= nd.core
            stack.extend(nd.children)
        return frozenset(out)


def derive_hierarchy(universe: Sequence[str], families: LpClusterFamilies, *,
                     order: str = "canonical") -> tuple[HierarchySequence, ClusterForest]:
    """Assemble hierarchical partitions bottom-up from cleaned clusters.

    order "canonical" processes same-level clusters by (size desc, smallest
    label); "given" keeps the order stored in the families, which is useful
    for exercising order invariance.
    """
    universe = tuple(universe)
    if families.universe != universe:
        raise ValueError("family universe does not match")
    if not check_hierarchy_friendly(families):
        raise ValueError("families are not hierarchy-friendly")
    if order not in ("canonical", "given"):
        raise ValueError(f"unknown order {order!r}")

    label_pos = {lab: k for k, lab in enumerate(universe)}
    forest = ClusterForest(universe=universe)
    root_ids: list[int] = []
    for lab in universe:
        nid = len(forest.nodes)
        forest.nodes.append(ForestNode(
            node_id=nid, level=0, core=frozenset([lab]),
            extended=frozenset([lab]), lp_cluster=None, input_cluster=None))
        root_ids.append(nid)

    out_levels: list[Partition] = []
    for t in range(families.n_levels()):
        fam = families.levels[t]
        if order == "canonical":
            fam = tuple(sorted(
                fam, key=lambda c: (-len(c.members),
                                    min(label_pos[x] for x in c.members))))
        for cluster in fam:
            core = set(cluster.members)
            removers = []
            children = []
            for rid in root_ids:
                root = forest.nodes[rid]
                if root.core & cluster.members:
                    children.append(rid)
                else:
                    removers.append(rid)
            for rid in removers:
                core -= forest.nodes[rid].extended
            if not core:
                # outside the guarantees of cleaned input; an empty core would
                # make an empty part, so the cluster is skipped
                continue
            extended = set(core)
            for rid in children:
                extended |= forest.nodes[rid].extended
            nid = len(forest.nodes)
            forest.nodes.append(ForestNode(
                node_id=nid, level=t + 1, core=frozenset(core),
                extended=frozenset(extended), lp_cluster=cluster.members,
                input_cluster=cluster.input_cluster, children=tuple(children)))
            for rid in children:
                forest.nodes[rid].parent = nid
            root_ids = [r for r in root_ids if r not in set(children)]
            root_ids.append(nid)
        out_levels.append(Partition(
            universe, tuple(forest.nodes[r].extended for r in root_ids)))
    return HierarchySequence(tuple(out_levels)), forest


# ---------------------------------------------------------------------------
# Full solver
# ---------------------------------------------------------------------------

@dataclass
class HcaResult:
    hierarchy: HierarchySequence
    cost: float
    instance: HccInstance
    partitions: tuple[Partition, ...]
    lp: LpSolution | None
    families: LpClusterFamilies | None
    forest: ClusterForest | None
    fast_path: bool


def is_hierarchical(partitions: Sequence[Partition]) -> bool:
    return all(a.refines(b) for a, b in zip(partitions, partitions[1:]))


def fit_hca_report(universe: Sequence[str], partitions: Sequence[Partition],
                   deltas: Sequence[float], *, feas_tol: float = 1e-7,
                   fast_path: bool = True) -> HcaResult:
    """Solve LP, clean, derive; returns the hierarchy with diagnostics.

    Already-hierarchical inputs short-circuit: the LP optimum is then the
    integral zero-cost point, cleaning keeps everything and assembly returns
    the input itself, so the pipeline is skipped (verified against the full
    run in the tests).
    """
    universe = tuple(universe)
    partitions = tuple(partitions)
    inst = HccInstance.from_partitions(universe, deltas, partitions)
    if fast_path and is_hierarchical(partitions):
        hierarchy = HierarchySequence(partitions)
        return HcaResult(hierarchy=hierarchy, cost=0.0, instance=inst,
                         partitions=partitions, lp=None, families=None,
                         forest=None, fast_path=True)
    sol = solve_lp(build_lp(inst), feas_tol)
    families = lp_cleaning(partitions, sol)
    hierarchy, forest = derive_hierarchy(universe, families)
    cost = hierarchy_cost(inst, hierarchy)
    return HcaResult(hierarchy=hierarchy, cost=cost, instance=inst,
                     partitions=partitions, lp=sol, families=families,
                     forest=forest, fast_path=False)


def fit_hca(universe: Sequence[str], partitions: Sequence[Partition],
            deltas: Sequence[float], **kwargs) -> HierarchySequence:
    return fit_hca_report(universe, partitions, deltas, **kwargs).hierarchy


# ---------------------------------------------------------------------------
# Structural invariants (used by the test suite on every pipeline run)
# ---------------------------------------------------------------------------

CORE_GROWTH_LIMIT = 0.3       # |extended \ core| <= 0.3 |core|
CORE_SHRINK_LIMIT = 0.1       # |lp_cluster \ core| < 0.1 |core|
DIAMETER_LIMIT = 2 * BALL_NEAR
REMOVED_COST_FACTOR = min(BALL_NEAR * HALF_FRACTION,
                          (1.0 - BALL_FAR) * OUTSIDE_FRACTION)


def invariant_violations(result: HcaResult, slack: float = 1e-6) -> list[str]:
    """Check every structural invariant of a full (non-fast-path) run."""
    if result.fast_path:
        return []
    assert result.forest is not None and result.families is not None
    assert result.lp is not None
    forest, families, sol = result.forest, result.families, result.lp
    problems: list[str] = []

    if not check_hierarchy_friendly(families):
        problems.append("cleaned families are not hierarchy-friendly")

    for below, above in zip(result.hierarchy.levels, result.hierarchy.levels[1:]):
        if not below.refines(above):
            problems.append("output partitions do not refine upward")

    root_union: set[str] = set()
    for root in forest.roots():
        if root_union & root.extended:
            problems.append("root extended-clusters overlap")
        root_union |= root.extended
    if root_union != set(forest.universe):
        problems.append("root extended-clusters do not cover the universe")

    for node in forest.internal():
        assert node.lp_cluster is not None and node.input_cluster is not None
        if not (node.core <= node.lp_cluster <= node.input_cluster):
            problems.append(f"node {node.node_id}: core/LP/input nesting broken")
        if not node.core <= node.extended:
            problems.append(f"node {node.node_id}: core not within extended")
        if forest.descendant_leaves(node) != node.extended:
            problems.append(f"node {node.node_id}: extended != descendant leaves")
        grown = node.extended - node.core
        shrunk = node.lp_cluster - node.core
        if len(grown) > CORE_GROWTH_LIMIT * len(node.core):
            problems.append(f"node {node.node_id}: extension exceeds 0.3 |core|")
        if not len(shrunk) < CORE_SHRINK_LIMIT * len(node.core) + 1e-12:
            problems.append(f"node {node.node_id}: removal exceeds 0.1 |core|")
        if shrunk & grown:
            problems.append(f"node {node.node_id}: removal and extension overlap")
        inside = np.array([lab in node.lp_cluster for lab in sol.labels], dtype=bool)
        i, j = _pair_ends(len(inside))
        wide = sol.x[node.level - 1:, inside[i] & inside[j]] >= DIAMETER_LIMIT + slack
        for t in np.flatnonzero(wide.any(axis=1)) + node.level:
            problems.append(
                f"node {node.node_id}: LP diameter >= {DIAMETER_LIMIT} at level {t}")

    costs = lp_cost(result.instance, sol)
    for t, q in enumerate(result.partitions):
        for cluster in q.parts:
            survivors = cleaned_subset(sol, t, cluster)
            bound = REMOVED_COST_FACTOR * result.instance.deltas[t] * len(cluster)
            for i in sorted(cluster - survivors):
                if costs.species(t, i) < bound - slack:
                    problems.append(
                        f"species {i} removed at level {t + 1} but its LP cost "
                        f"{costs.species(t, i):.6f} is below {bound:.6f}")
    return problems
