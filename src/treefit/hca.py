"""Hierarchical cluster agreement: LP-guided cleaning plus bottom-up assembly.

Input: one partition per level plus level weights. The LP relaxation is
solved once; each input cluster is then cleaned independently using the
fractional distances (species must be near half their own cluster and far
from almost everything else), and the surviving clusters are stitched into a
hierarchy, bottom up.

Both steps work on int vectors over universe positions, as partitions do
(`core.Partition.reps`). Cleaning runs the ball tests of every level in one
batched pass over the (levels, n, n) square of the LP point and keeps the
survivors as `LpClusterFamilies.owners`: per level and label, the first label
of the input cluster the label survived in, or -1. Assembly keeps, per label,
the forest root above it and whether the label is in that root's core. On
hierarchy-friendly families a root's core meets at most one cluster of a
level, so a level's clusters are independent and each level is a few array
operations; the forest is held as node arrays. The label sets,
`LpClusterFamilies.levels` and `ClusterForest.nodes`, are built only when
read.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
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

# the largest (lower level, level, label) block the friendliness check
# builds at once; it bounds the check's memory when there are many levels
FRIENDLY_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False, init=False)
class LpClusterFamilies:
    """Per level, the disjoint label sets that survived cleaning.

    They are held as `owners`, a read-only (levels, n) intp array:
    owners[t, k] names the level-t cluster holding universe[k] by a label
    position, or is -1 where no cluster holds it. Cleaning names a cluster
    by the first label of the input cluster it came from, which may itself
    have been dropped; families built from label sets name each by its own
    first label. Families compare and hash by universe and owners. `levels`,
    each level's label sets in the order of their owners, is built when
    first read.
    """

    universe: tuple[str, ...]
    owners: np.ndarray

    def __init__(self, universe: Sequence[str], levels: Sequence[Sequence[frozenset[str]]]):
        universe = tuple(universe)
        index = {lab: k for k, lab in enumerate(universe)}
        owners = np.full((len(levels), len(universe)), -1, dtype=np.intp)
        for t, fam in enumerate(levels):
            for cluster in fam:
                if not cluster:
                    raise ValueError(f"empty cluster at level {t + 1}")
                outside = set(cluster) - index.keys()
                if outside:
                    raise ValueError(f"label {min(outside)!r} outside the universe")
                where = [index[lab] for lab in cluster]
                if (owners[t, where] >= 0).any():
                    raise ValueError("same-level clusters overlap")
                owners[t, where] = min(where)
        self._set(universe, owners)

    def _set(self, universe: tuple[str, ...], owners: np.ndarray) -> None:
        owners.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "owners", owners)

    @classmethod
    def _from_owners(cls, universe: tuple[str, ...], owners: np.ndarray) -> "LpClusterFamilies":
        families = cls.__new__(cls)
        families._set(universe, owners)
        return families

    def __eq__(self, other) -> bool:
        if not isinstance(other, LpClusterFamilies):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(self.owners, other.owners)

    def __hash__(self) -> int:
        return hash((self.universe, self.owners.tobytes()))

    @functools.cached_property
    def levels(self) -> tuple[tuple[frozenset[str], ...], ...]:
        out = []
        for row in self.owners.tolist():
            members: dict[int, list[str]] = {}
            for lab, owner in zip(self.universe, row):
                if owner >= 0:
                    members.setdefault(owner, []).append(lab)
            out.append(tuple(frozenset(members[owner]) for owner in sorted(members)))
        return tuple(out)


def _ball_tests(x: np.ndarray, part_of: np.ndarray) -> np.ndarray:
    """Whether each label passes both ball tests in its cluster, level by
    level: x is the (levels, n, n) square of an LP point and part_of[t, k],
    a label position as in `reps`, names the level-t cluster of the k-th
    label. The squares have a zero diagonal, so a label is near itself, as
    in LpSolution.value."""
    levels, n = part_of.shape
    same = part_of[:, :, None] == part_of[:, None, :]
    flat = part_of + n * np.arange(levels)[:, None]  # each level's clusters apart
    size = np.bincount(flat.ravel(), minlength=flat.size)[flat]
    near_inside = np.count_nonzero(same & (x < BALL_NEAR), axis=2)
    far_outside = np.count_nonzero(~same & (x < BALL_FAR), axis=2)
    return (near_inside > HALF_FRACTION * size) & (far_outside <= OUTSIDE_FRACTION * size)


def lp_cleaning(partitions: Sequence[Partition], sol: LpSolution) -> LpClusterFamilies:
    """Clean every input cluster independently; drop clusters losing > 10%."""
    if len(partitions) != sol.n_levels:
        raise ValueError("one partition per LP level required")
    universe = partitions[0].universe
    if sol.labels != universe:
        raise ValueError("solution labels do not match the partitions")
    if any(q.universe != universe for q in partitions):
        raise ValueError("partitions over different universes")
    n = len(universe)
    reps = np.stack([q.reps for q in partitions])
    ok = _ball_tests(_square(sol.x, n), reps)
    # by level and first label: each cluster's size and how many of its labels pass
    flat = reps + n * np.arange(len(reps))[:, None]
    size, passed = (np.bincount(f, minlength=flat.size) for f in (flat.ravel(), flat[ok]))
    kept = passed >= KEEP_FRACTION * size
    return LpClusterFamilies._from_owners(universe, np.where(ok & kept[flat], reps, -1))


def check_hierarchy_friendly(families: LpClusterFamilies) -> bool:
    """No lower-level cluster may intersect two distinct same-level clusters.

    For each level s and each level t above it, every label held at both
    scatters its level-t owner to a slot of its level-s cluster; gathered
    back, each must read its own: one owner per slot. Lower levels go in
    blocks of at most FRIENDLY_BLOCK slots."""
    owners = families.owners
    levels, n = owners.shape
    step = max(1, FRIENDLY_BLOCK // max(1, levels * n))
    for s in range(0, levels, step):
        low = owners[s:s + step, None]  # (block, 1, n) against (levels, n)
        above = np.arange(levels) > np.arange(s, s + len(low))[:, None]
        both = (low >= 0) & (owners >= 0) & above[:, :, None]
        slot = (low + n * np.arange(len(low) * levels).reshape(len(low), levels, 1))[both]
        high = np.broadcast_to(owners, both.shape)[both]
        owner = np.empty(both.size, dtype=np.intp)
        owner[slot] = high
        if (owner[slot] != high).any():
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


@dataclass(frozen=True, eq=False)
class ClusterForest:
    """The assembly forest as one array over node slots: slot k < n is the
    leaf of the k-th label, and slot (t + 1) n + c the node of the level-t
    cleaned cluster whose owner in `families.owners` is c, used if the
    cluster has children. parent[v] is the slot of v's parent, or -1. A
    node's extended set is the labels below it, its core those of them in
    its cluster. `nodes`, the forest as `ForestNode`s, the used slots in
    order, is built when first read.
    """

    families: LpClusterFamilies
    parent: np.ndarray

    @property
    def universe(self) -> tuple[str, ...]:
        return self.families.universe

    @functools.cached_property
    def nodes(self) -> list[ForestNode]:
        universe, owners, parent = self.universe, self.families.owners.tolist(), self.parent.tolist()
        n = len(universe)
        below: list[list[int]] = [[v] if v < n else [] for v in range(len(parent))]
        children: list[list[int]] = [[] for _ in parent]
        for v, up in enumerate(parent):  # a node's children come before it
            if up >= 0:
                below[up] += below[v]
                children[up].append(v)
        used = [v for v in range(len(parent)) if v < n or children[v]]
        position = {v: k for k, v in enumerate(used)}
        nodes = []
        for v in used:
            t, c = divmod(v, n)
            nodes.append(ForestNode(
                level=t, extended=frozenset(universe[k] for k in below[v]),
                core=frozenset(universe[k] for k in below[v] if not t or owners[t - 1][k] == c),
                parent=position.get(parent[v]), children=tuple(map(position.get, children[v]))))
        return nodes

    def internal(self) -> list[ForestNode]:
        return [nd for nd in self.nodes if nd.level > 0]


def derive_hierarchy(universe: Sequence[str], families: LpClusterFamilies
                     ) -> tuple[HierarchySequence, ClusterForest]:
    """Assemble hierarchical partitions bottom-up from cleaned clusters.

    A level's clusters take as children the current roots whose cores meet
    them; a cluster's core is its members below them and its extended set
    every label below them. A cluster that meets no root's core would have
    an empty core and is skipped. On hierarchy-friendly families a root's
    core meets at most one cluster of a level, so a level's clusters are
    independent: they are assembled at once, in a node slot per cluster.
    Each level's part of a label starts at the first label below its root.
    """
    universe = tuple(universe)
    if families.universe != universe:
        raise ValueError("family universe does not match")
    if not check_hierarchy_friendly(families):
        raise ValueError("families are not hierarchy-friendly")

    owners = families.owners
    n = len(universe)
    # node slots as in ClusterForest; slots without children stay unused
    parent = np.full(n + owners.size, -1, dtype=np.intp)
    first = np.full(n + owners.size, n, dtype=np.intp)  # the first label below a slot
    first[:n] = np.arange(n)
    root = np.arange(n)  # the root slot above each label
    in_core = np.ones(n, dtype=bool)  # whether a label is in its root's core

    out_levels: list[Partition] = []
    for t, owner in enumerate(owners):
        base = (t + 1) * n
        meets = in_core & (owner >= 0)  # the labels through which cores meet clusters
        child, slot = root[meets], owner[meets] + base
        parent[child] = slot
        np.minimum.at(first, slot, first[child])
        up = parent[root]
        moved = up >= 0
        root = np.where(moved, up, root)
        in_core = np.where(moved, owner == root - base, in_core)
        out_levels.append(Partition.from_reps(universe, first[root]))
    return HierarchySequence(tuple(out_levels)), ClusterForest(families, parent)


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
