"""Shared domain types: distance matrices, edge sets, partitions and trees.

Labels are opaque strings; every iteration order in the package derives from
the order of first appearance of the labels, so all operations are
deterministic.

Pair order: `all_pairs(labels)` lists the C(n,2) unordered pairs as
`itertools.combinations` does, and `_condensed(n, i, j)` is the position of
the pair of label positions i < j in that list. The same order indexes
`EdgeSet.mask`, the columns of `LpSolution.x`, and each level's block of LP
variables. A partition's `part_of[k]` is the index, in `parts`, of the part
holding the k-th universe label.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Pair = tuple[str, str]

DEFAULT_TOL = 1e-9
VALUE_MERGE_TOL = 1e-12


class UniverseMismatch(ValueError):
    """Raised when two objects over different label universes are combined."""


def canon_pair(index: Mapping[str, int], i: str, j: str) -> Pair:
    """Order a label pair by label position so dicts hold one key per pair."""
    if i == j:
        raise ValueError(f"self-pair {i!r} is not a valid unordered pair")
    return (i, j) if index[i] < index[j] else (j, i)


def all_pairs(labels: Sequence[str]) -> Iterator[Pair]:
    return itertools.combinations(labels, 2)


def _condensed(n: int, i, j):
    """Index of pair (i, j), i < j, in `all_pairs` order (scipy's squareform)."""
    return n * i - i * (i + 1) // 2 + (j - i - 1)


@functools.lru_cache(maxsize=16)
def _pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Label positions i and j of every pair i < j, in `all_pairs` order."""
    ends = np.triu_indices(n, 1)
    for a in ends:
        a.flags.writeable = False
    return ends


def lookup_pair(mapping: Mapping, i: str, j: str) -> float:
    """Fetch a pair value from a dict keyed by tuples in either orientation."""
    try:
        return mapping[(i, j)]
    except KeyError:
        return mapping[(j, i)]


# ---------------------------------------------------------------------------
# Distance matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric strictly-positive pairwise distances with ordered labels."""

    labels: tuple[str, ...]
    d: dict[Pair, float]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        idx = {lab: k for k, lab in enumerate(self.labels)}
        object.__setattr__(self, "_index", idx)
        expected = set(all_pairs(self.labels))
        if set(self.d) != expected:
            missing = expected - set(self.d)
            extra = set(self.d) - expected
            raise ValueError(f"bad pair keys: missing={sorted(missing)[:3]} extra={sorted(extra)[:3]}")
        for pair, v in self.d.items():
            if not (v > 0.0) or not math.isfinite(v):
                raise ValueError(f"distance for {pair} must be finite and > 0, got {v}")

    @classmethod
    def from_pairs(cls, labels: Sequence[str], values: Mapping) -> "DistanceMatrix":
        """Build from any mapping keyed by 2-element tuples or frozensets."""
        labels = tuple(labels)
        idx = {lab: k for k, lab in enumerate(labels)}
        d: dict[Pair, float] = {}
        for key, v in values.items():
            i, j = tuple(key)
            d[canon_pair(idx, i, j)] = float(v)
        return cls(labels, d)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def index(self) -> Mapping[str, int]:
        return self._index  # type: ignore[attr-defined]

    def value(self, i: str, j: str) -> float:
        return self.d[canon_pair(self._index, i, j)]  # type: ignore[attr-defined]

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        """All pairs, ordered by label position."""
        for i, j in all_pairs(self.labels):
            yield i, j, self.d[(i, j)]

    def distinct_values(self) -> tuple[float, ...]:
        """Sorted distinct distances, with near ties merged (see merge_ties)."""
        return merge_ties(self.d.values())


def merge_ties(values: Iterable[float]) -> tuple[float, ...]:
    """Sorted distinct values; a value within VALUE_MERGE_TOL of the last kept
    value merges into it."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > VALUE_MERGE_TOL:
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Edge sets and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeSet:
    """A set of unordered label pairs over a fixed universe.

    mask[k] is True when the k-th pair of `all_pairs(universe)` is an edge.
    """

    universe: tuple[str, ...]
    mask: np.ndarray

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("duplicate labels in universe")
        mask = np.asarray(self.mask, dtype=bool)
        n = len(self.universe)
        if mask.shape != (n * (n - 1) // 2,):
            raise ValueError(f"mask of shape {mask.shape} for {n} labels")
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_pairs(cls, universe: Sequence[str], pairs: Iterable) -> "EdgeSet":
        universe = tuple(universe)
        idx = {lab: k for k, lab in enumerate(universe)}
        edges = {canon_pair(idx, *tuple(p)) for p in pairs}
        return cls(universe, [pair in edges for pair in all_pairs(universe)])

    @property
    def edges(self) -> frozenset[Pair]:
        return frozenset(itertools.compress(all_pairs(self.universe), self.mask.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty label sets covering the universe.

    `parts` are ordered by their first labels in the universe, and
    part_of[k] is the index in `parts` of the part holding universe[k].
    """

    universe: tuple[str, ...]
    parts: tuple[frozenset[str], ...]
    part_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = {lab: k for k, lab in enumerate(self.universe)}
        owner = [-1] * len(self.universe)  # index of each label's given part
        for k, part in enumerate(self.parts):
            if not part:
                raise ValueError("empty part")
            for lab in part:
                if lab not in idx:
                    raise ValueError(f"label {lab!r} outside the universe")
                if owner[idx[lab]] >= 0:
                    raise ValueError(f"label {lab!r} in two parts")
                owner[idx[lab]] = k
        if -1 in owner:
            raise ValueError("parts do not cover the universe")
        # renumber the given parts in the order of their first labels
        rank = {k: r for r, k in enumerate(dict.fromkeys(owner))}
        object.__setattr__(self, "parts", tuple(self.parts[k] for k in rank))
        object.__setattr__(self, "part_of", tuple(rank[k] for k in owner))

    @classmethod
    def from_parts(cls, universe: Sequence[str], parts: Iterable[Iterable[str]]) -> "Partition":
        return cls(tuple(universe), tuple(frozenset(p) for p in parts))

    @classmethod
    def singletons(cls, universe: Sequence[str]) -> "Partition":
        return cls(tuple(universe), tuple(frozenset([x]) for x in universe))

    def refines(self, other: "Partition") -> bool:
        """True if every part of self is contained in some part of other."""
        if self.universe != other.universe:
            raise UniverseMismatch("partitions over different universes")
        host: dict[int, int] = {}
        return all(host.setdefault(a, b) == b for a, b in zip(self.part_of, other.part_of))

    def same_part(self, i: str, j: str) -> bool:
        return any(i in part and j in part for part in self.parts)


@dataclass(frozen=True)
class HierarchySequence:
    """Partitions P^(1..l) where each level refines the next."""

    levels: tuple[Partition, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        for below, above in zip(self.levels, self.levels[1:]):
            if not below.refines(above):
                raise ValueError("levels are not hierarchical")

    @property
    def universe(self) -> tuple[str, ...]:
        return self.levels[0].universe

    def __len__(self) -> int:
        return len(self.levels)


def components(universe: Sequence[str], pairs: Iterable[Pair]) -> Partition:
    """Connected components of the pairs, as a partition of the universe."""
    parent = {lab: lab for lab in universe}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    groups: dict[str, set[str]] = {}
    for lab in universe:
        groups.setdefault(find(lab), set()).add(lab)
    return Partition.from_parts(universe, groups.values())


def iter_partitions(items: Sequence[str]) -> Iterator[tuple[frozenset[str], ...]]:
    """All set partitions of items, in restricted-growth-string order.

    Parts come out ordered by first occurrence, which is the canonical
    partition order used for deterministic tie-breaking.
    """
    n = len(items)
    if n == 0:
        yield ()
        return
    a = [0] * n
    while True:
        nparts = max(a) + 1
        parts: list[list[str]] = [[] for _ in range(nparts)]
        for k, lab in enumerate(items):
            parts[a[k]].append(lab)
        yield tuple(frozenset(p) for p in parts)
        k = n - 1
        while k > 0:
            if a[k] <= max(a[:k]):
                a[k] += 1
                for m in range(k + 1, n):
                    a[m] = 0
                break
            a[k] = 0
            k -= 1
        else:
            return


# ---------------------------------------------------------------------------
# Edge-set algebra
# ---------------------------------------------------------------------------

def clique_edges(p: Partition) -> EdgeSet:
    """Union of all within-part pairs of a partition."""
    part_of = np.array(p.part_of, dtype=np.intp)
    i, j = _pair_ends(len(part_of))
    return EdgeSet(p.universe, part_of[i] == part_of[j])


def sym_diff_size(a: EdgeSet, b: EdgeSet) -> int:
    """|A symmetric-difference B| for edge sets over the same universe."""
    if a.universe != b.universe:
        raise UniverseMismatch("edge sets over different universes")
    return int(np.count_nonzero(a.mask != b.mask))


# ---------------------------------------------------------------------------
# Ultrametric trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UltraNode:
    height: float
    children: tuple["UltraNode", ...] = ()
    label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class UltrametricTree:
    """Rooted tree; leaves are labels at height 0, dist(i,j) = 2 * height(lca)."""

    labels: tuple[str, ...]
    root: UltraNode

    def __post_init__(self):
        leaves = tuple(self._iter_leaves(self.root))
        if sorted(leaves) != sorted(self.labels):
            raise ValueError("tree leaves do not match the label set")
        self._check_heights(self.root)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(self.labels)})
        object.__setattr__(self, "_dist", None)

    @staticmethod
    def _iter_leaves(root: UltraNode) -> Iterator[str]:
        """Leaf labels, left to right."""
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.label is None:
                    raise ValueError("leaf without a label")
                yield node.label
            else:
                stack.extend(reversed(node.children))

    @staticmethod
    def _check_heights(root: UltraNode) -> None:
        """Raise on the first bad height in preorder."""
        stack: list[tuple[UltraNode, float | None]] = [(root, None)]
        while stack:
            node, parent_height = stack.pop()
            if parent_height is not None and node.height >= parent_height:
                raise ValueError("heights must strictly increase child to parent")
            if node.is_leaf:
                if node.height != 0.0:
                    raise ValueError("leaves must sit at height 0")
                continue
            if node.height <= 0.0:
                raise ValueError("internal node height must be positive")
            stack.extend((child, node.height) for child in reversed(node.children))

    @classmethod
    def from_partitions(cls, levels: HierarchySequence,
                        values: Sequence[float]) -> "UltrametricTree":
        """The tree of nested partitions: pairs first together at level t sit
        at distance values[t].

        One pass over the levels. A part of level t that joins several parts
        of the level below becomes a node at height values[t] / 2, with its
        children in the order of their first labels in the universe. The top
        level must be a single part.
        """
        if len(values) != len(levels):
            raise ValueError("need one value per level")
        if len(levels.levels[-1].parts) != 1:
            raise ValueError("top level must be a single part")
        # the nodes of the level below, each with the universe position of
        # one of its labels, in the order of their first labels in the
        # universe, as Partition.parts is
        below = [(k, UltraNode(0.0, (), lab)) for k, lab in enumerate(levels.universe)]
        for level, value in zip(levels.levels, values):
            children: list[list[tuple[int, UltraNode]]] = [[] for _ in level.parts]
            for k, node in below:
                children[level.part_of[k]].append((k, node))
            below = [kids[0] if len(kids) == 1
                     else (kids[0][0], UltraNode(value / 2.0, tuple(nd for _, nd in kids)))
                     for kids in children]
        return cls(levels.universe, below[0][1])

    @classmethod
    def from_map(cls, labels: Sequence[str], mapping: Mapping, *,
                 tol: float = DEFAULT_TOL) -> "UltrametricTree":
        """Build the canonical tree realizing an ultrametric pair map.

        Level v of the tree holds the components of the pairs at distance
        <= v, for each distinct (tie-merged) value v; the realized distances
        are then verified against the input within tol.
        """
        labels = tuple(labels)
        if len(labels) == 1:
            return cls(labels, UltraNode(0.0, (), labels[0]))
        pairs = [(i, j, lookup_pair(mapping, i, j)) for i, j in all_pairs(labels)]
        values = merge_ties(v for _, _, v in pairs)
        levels = HierarchySequence(tuple(
            components(labels, ((i, j) for i, j, w in pairs if w <= v + VALUE_MERGE_TOL))
            for v in values))
        tree = cls.from_partitions(levels, values)
        realized = tree.distance_map()
        for i, j, v in pairs:
            if abs(realized[(i, j)] - v) > tol:
                raise ValueError(
                    f"map is not an ultrametric: pair ({i},{j}) realized "
                    f"{realized[(i, j)]} vs {v}")
        return tree

    def distance_map(self) -> dict[Pair, float]:
        cached = self._dist  # type: ignore[attr-defined]
        if cached is None:
            cached = {}
            self._fill_distances(self.root, self._index, cached)  # type: ignore[attr-defined]
            object.__setattr__(self, "_dist", cached)
        return cached

    @staticmethod
    def _fill_distances(root: UltraNode, idx, out: dict[Pair, float]) -> None:
        """Set every pair's distance, node by node in postorder."""
        done: list[list[str]] = []  # leaf labels of each finished subtree
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                done.append([node.label])  # type: ignore[list-item]
            elif not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node.children))
            else:
                groups = done[-len(node.children):]
                del done[-len(node.children):]
                for a in range(len(groups)):
                    for b in range(a + 1, len(groups)):
                        for i in groups[a]:
                            for j in groups[b]:
                                out[canon_pair(idx, i, j)] = 2.0 * node.height
                done.append([lab for g in groups for lab in g])

    def distance(self, i: str, j: str) -> float:
        return self.distance_map()[canon_pair(self._index, i, j)]  # type: ignore[attr-defined]

    def top_distance(self) -> float:
        return 2.0 * self.root.height


# ---------------------------------------------------------------------------
# Weighted trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedTree:
    """Undirected tree spanning the labels; dist = path weight sum.

    Edge weights >= 0 are accepted; a weight of 0 flags a pseudometric.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    root: str | None = None

    def __post_init__(self):
        nodes = set(self.labels)
        for u, v, w in self.edges:
            if u == v:
                raise ValueError("self-loop")
            if w < 0:
                raise ValueError("negative edge weight")
            nodes.add(u)
            nodes.add(v)
        if len(self.edges) != len(nodes) - 1 and len(nodes) > 1:
            raise ValueError("edge count does not match a tree")
        adj: dict[str, list[tuple[str, float]]] = {node: [] for node in nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        # connectivity check from any node
        if nodes:
            start = next(iter(sorted(nodes)))
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt, _ in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if seen != nodes:
                raise ValueError("tree is not connected")
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(self.labels)})
        object.__setattr__(self, "_dist", None)

    def has_zero_weight(self) -> bool:
        return any(w == 0.0 for _, _, w in self.edges)

    def adjacency(self) -> Mapping[str, list[tuple[str, float]]]:
        return self._adj  # type: ignore[attr-defined]

    def distance_map(self) -> dict[Pair, float]:
        """Pairwise label distances, computed by one traversal per label."""
        cached = self._dist  # type: ignore[attr-defined]
        if cached is None:
            idx = self._index  # type: ignore[attr-defined]
            adj = self._adj  # type: ignore[attr-defined]
            cached = {}
            label_set = set(self.labels)
            for src in self.labels:
                dist = {src: 0.0}
                stack = [src]
                while stack:
                    cur = stack.pop()
                    for nxt, w in adj[cur]:
                        if nxt not in dist:
                            dist[nxt] = dist[cur] + w
                            stack.append(nxt)
                for other in label_set:
                    if other != src and idx[other] > idx[src]:
                        cached[(src, other)] = dist[other]
            object.__setattr__(self, "_dist", cached)
        return cached

    def distance(self, i: str, j: str) -> float:
        return self.distance_map()[canon_pair(self._index, i, j)]  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# Fit results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedTree:
    """Result of a fitting run: the tree plus its error and LP lower bound."""

    kind: str  # "ultrametric" or "tree"
    tree: UltrametricTree | WeightedTree
    l1_error: float
    lp_lower_bound: float | None
    num_levels: int
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Norm evaluation and the ultrametric predicate
# ---------------------------------------------------------------------------

def lp_norm_error(tree, d: DistanceMatrix, p: float) -> float:
    """(sum |dist_T(i,j) - D(i,j)|^p)^(1/p); max when p is infinite."""
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    if isinstance(tree, (UltrametricTree, WeightedTree)):
        if sorted(tree.labels) != sorted(d.labels):
            raise UniverseMismatch("tree labels do not match the distance matrix")
        realized = tree.distance_map()
    elif isinstance(tree, Mapping):
        realized = tree
    else:
        raise TypeError(f"cannot evaluate distances of {type(tree)!r}")
    diffs = [abs(lookup_pair(realized, i, j) - v) for i, j, v in d.pairs()]
    if p == math.inf:
        return max(diffs) if diffs else 0.0
    if p == 1:
        return sum(diffs)
    return sum(x ** p for x in diffs) ** (1.0 / p)


def is_ultrametric(mapping: Mapping, tol: float = DEFAULT_TOL) -> bool:
    """True iff U(i,j) <= max(U(i,k), U(k,j)) + tol for all triples."""
    labels = sorted({x for key in mapping for x in tuple(key)})
    for i, j, k in itertools.combinations(labels, 3):
        dij = lookup_pair(mapping, i, j)
        dik = lookup_pair(mapping, i, k)
        djk = lookup_pair(mapping, j, k)
        top, mid, _ = sorted((dij, dik, djk), reverse=True)
        if top > mid + tol:
            return False
    return True
