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

from .core import HierarchySequence, Partition, _square
from .lp import (
    DEFAULT_FEAS_TOL,
    HccInstance,
    LpSolution,
    build_lp,
    hierarchy_cost,
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
class LpClusterFamilies:
    """Per level, the disjoint label sets that survived cleaning."""

    universe: tuple[str, ...]
    levels: tuple[tuple[frozenset[str], ...], ...]

    def __post_init__(self):
        universe = set(self.universe)
        for t, fam in enumerate(self.levels):
            seen: set[str] = set()
            for cluster in fam:
                if not cluster:
                    raise ValueError(f"empty cluster at level {t + 1}")
                outside = cluster - universe
                if outside:
                    raise ValueError(f"label {min(outside)!r} outside the universe")
                if cluster & seen:
                    raise ValueError("same-level clusters overlap")
                seen |= cluster


def _ball_tests(sol: LpSolution, t: int, part_of: np.ndarray) -> np.ndarray:
    """Whether each label passes both ball tests at level t in its cluster,
    part_of[k] >= 0 naming the cluster of sol.labels[k], as `reps` does. The
    square matrix has a zero diagonal, so a label is near itself, as in
    LpSolution.value."""
    x = _square(sol.x[t], len(part_of))
    same = part_of[:, None] == part_of
    size = np.bincount(part_of)[part_of]
    near_inside = np.count_nonzero(same & (x < BALL_NEAR), axis=1)
    far_outside = np.count_nonzero(~same & (x < BALL_FAR), axis=1)
    return (near_inside > HALF_FRACTION * size) & (far_outside <= OUTSIDE_FRACTION * size)


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
        ok = _ball_tests(sol, t, q.reps)
        # by first label: each cluster's size and how many of its labels pass
        size, passed = (np.bincount(r, minlength=len(universe)) for r in (q.reps, q.reps[ok]))
        kept = (size > 0) & (passed >= KEEP_FRACTION * size)
        members: dict[int, list[str]] = {first: [] for first in np.flatnonzero(kept).tolist()}
        for k in np.flatnonzero(ok & kept[q.reps]).tolist():
            members[int(q.reps[k])].append(universe[k])
        levels.append(tuple(map(frozenset, members.values())))
    return LpClusterFamilies(universe=tuple(universe), levels=tuple(levels))


def check_hierarchy_friendly(families: LpClusterFamilies) -> bool:
    """No lower-level cluster may intersect two distinct same-level clusters."""
    # per level above the first, the index of the cluster holding each label
    owners = [{x: k for k, cluster in enumerate(fam) for x in cluster}
              for fam in families.levels[1:]]
    for t, fam in enumerate(families.levels):
        for low in fam:
            for owner in owners[t:]:
                if len({owner[x] for x in low if x in owner}) >= 2:
                    return False
    return True


# ---------------------------------------------------------------------------
# Forest assembly
# ---------------------------------------------------------------------------

@dataclass
class ForestNode:
    """A node of the assembly forest; parent and children are positions in
    `ClusterForest.nodes`. Level 0 holds one node per label."""

    level: int
    core: frozenset[str]
    extended: frozenset[str]
    parent: int | None = None
    children: tuple[int, ...] = ()


@dataclass
class ClusterForest:
    universe: tuple[str, ...]
    nodes: list[ForestNode] = field(default_factory=list)

    def internal(self) -> list[ForestNode]:
        return [nd for nd in self.nodes if nd.level > 0]


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
    for lab in universe:
        nodes.append(ForestNode(level=0, core=frozenset([lab]), extended=frozenset([lab])))
    root = {lab: k for k, lab in enumerate(universe)}  # the root above each label

    out_levels: list[Partition] = []
    for t, fam in enumerate(families.levels):
        for cluster in fam:
            # positions only grow, so sorted ones are the order the roots were made in
            children = sorted({root[x] for x in cluster if x in nodes[root[x]].core})
            if not children:
                # outside the guarantees of cleaned input; an empty core would
                # make an empty part, so the cluster is skipped
                continue
            nid = len(nodes)
            extended = frozenset().union(*(nodes[c].extended for c in children))
            nodes.append(ForestNode(level=t + 1, core=cluster & extended,
                                    extended=extended, children=tuple(children)))
            for c in children:
                nodes[c].parent = nid
            root.update(dict.fromkeys(extended, nid))
        # each label's part starts at the first label below its root
        first: dict[int, int] = {}
        out_levels.append(Partition.from_reps(
            universe, [first.setdefault(root[lab], k) for k, lab in enumerate(universe)]))
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
