"""Hierarchical cluster agreement: LP-guided cleaning plus bottom-up assembly.

Input: one partition per level plus level weights. The LP relaxation is
solved once; each input cluster is then cleaned independently using the
fractional distances (species must be near half their own cluster and far
from almost everything else), and the surviving clusters are stitched into a
hierarchy, bottom up. A map from each label to the forest root above it
gives each cluster's children, the roots whose cores it meets.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import HierarchySequence, Partition, _pair_ends, _square
from .lp import (
    DEFAULT_FEAS_TOL,
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
        universe = set(self.universe)
        for t, fam in enumerate(self.levels):
            seen: set[str] = set()
            for cluster in fam:
                if not cluster.members:
                    raise ValueError(f"empty cluster at level {t + 1}")
                outside = cluster.members - universe
                if outside:
                    raise ValueError(f"label {min(outside)!r} outside the universe")
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
    # per level above the first, the index of the cluster holding each label
    owners = [{x: k for k, cluster in enumerate(fam) for x in cluster.members}
              for fam in families.levels[1:]]
    for t, fam in enumerate(families.levels):
        for low in fam:
            for owner in owners[t:]:
                if len({owner[x] for x in low.members if x in owner}) >= 2:
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


def derive_hierarchy(universe: Sequence[str], families: LpClusterFamilies
                     ) -> tuple[HierarchySequence, ClusterForest]:
    """Assemble hierarchical partitions bottom-up from cleaned clusters.

    Each level's clusters are taken in the order the families store them. A
    cluster's children are the current roots whose cores meet it, its core
    its members below them and its extended set every label below them. A
    cluster that meets no root's core would have an empty core and is
    skipped. On hierarchy-friendly families a root's core meets at most one
    cluster of a level, so the order changes only how nodes are numbered.
    """
    universe = tuple(universe)
    if families.universe != universe:
        raise ValueError("family universe does not match")
    if not check_hierarchy_friendly(families):
        raise ValueError("families are not hierarchy-friendly")

    forest = ClusterForest(universe=universe)
    nodes = forest.nodes
    for k, lab in enumerate(universe):
        nodes.append(ForestNode(
            node_id=k, level=0, core=frozenset([lab]),
            extended=frozenset([lab]), lp_cluster=None, input_cluster=None))
    root = {lab: k for k, lab in enumerate(universe)}  # the root above each label

    out_levels: list[Partition] = []
    for t, fam in enumerate(families.levels):
        for cluster in fam:
            # ids only grow, so sorted ids are the order the roots were made in
            children = sorted({root[x] for x in cluster.members if x in nodes[root[x]].core})
            if not children:
                # outside the guarantees of cleaned input; an empty core would
                # make an empty part, so the cluster is skipped
                continue
            nid = len(nodes)
            extended = frozenset().union(*(nodes[c].extended for c in children))
            nodes.append(ForestNode(
                node_id=nid, level=t + 1, core=cluster.members & extended,
                extended=extended, lp_cluster=cluster.members,
                input_cluster=cluster.input_cluster, children=tuple(children)))
            for c in children:
                nodes[c].parent = nid
            root.update(dict.fromkeys(extended, nid))
        out_levels.append(Partition(
            universe, tuple(nodes[r].extended for r in dict.fromkeys(root.values()))))
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
                   deltas: Sequence[float], *, feas_tol: float = DEFAULT_FEAS_TOL,
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
