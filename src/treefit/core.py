"""Shared domain types: distance matrices, edge sets, partitions and trees.

Labels are opaque strings; every iteration order in the package derives from
the order of first appearance of the labels, so all operations are
deterministic.

Pair order: `all_pairs(labels)` lists the C(n,2) unordered pairs as
`itertools.combinations` does, and `_condensed(n, i, j)` is the position of
the pair of label positions i < j in that list. The same order indexes
`DistanceMatrix.values`, the trees' `distances()` (over their own labels),
`EdgeSet.mask`, the columns of `LpSolution.x`, and each level's block of LP
variables; the LP layer keeps no pair list of its own. Only this module
turns label pairs into positions. A partition's `part_of[k]` is the index,
in `parts`, of the part holding the k-th universe label.
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


def _pair_position(index: Mapping[str, int], i: str, j: str) -> int:
    """Position of the unordered pair {i, j} in `all_pairs` order."""
    a, b = index[i], index[j]
    if a == b:
        raise ValueError(f"self-pair {i!r} is not a valid unordered pair")
    return _condensed(len(index), min(a, b), max(a, b))


def _nth_pair(labels: Sequence[str], k: int) -> Pair:
    return next(itertools.islice(all_pairs(labels), k, None))


def _pair_vector(values, n: int) -> np.ndarray:
    """values as a float64 vector with one entry per pair of n labels."""
    out = np.asarray(values, dtype=np.float64)
    if out.shape != (n * (n - 1) // 2,):
        raise ValueError(f"values of shape {out.shape} for the pairs of {n} labels")
    return out


def _square(values: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix of a condensed vector, with a zero diagonal."""
    out = np.zeros((n, n), dtype=values.dtype)
    i, j = _pair_ends(n)
    out[i, j] = values
    out[j, i] = values
    return out


def lookup_pair(mapping: Mapping, i: str, j: str) -> float:
    """Fetch a pair value from a dict keyed by tuples in either orientation."""
    try:
        return mapping[(i, j)]
    except KeyError:
        return mapping[(j, i)]


# ---------------------------------------------------------------------------
# Distance matrices
# ---------------------------------------------------------------------------

def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    index = {lab: k for k, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate labels")
    return index


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric strictly-positive pairwise distances with ordered labels;
    values[k] is the distance of the k-th pair of `all_pairs(labels)`."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "_index", _label_index(labels))
        values = _pair_vector(self.values, len(labels)).copy()
        bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
        if len(bad):
            raise ValueError(f"distance for {_nth_pair(labels, bad[0])} must be finite"
                             f" and > 0, got {float(values[bad[0]])}")
        values.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_pairs(cls, labels: Sequence[str], values: Mapping) -> "DistanceMatrix":
        """Build from any mapping keyed by 2-element tuples or frozensets."""
        labels = tuple(labels)
        idx = _label_index(labels)
        keyed = {_pair_position(idx, *tuple(key)): float(v) for key, v in values.items()}
        missing = [p for k, p in enumerate(all_pairs(labels)) if k not in keyed]
        if missing:
            raise ValueError(f"bad pair keys: missing={missing[:3]}")
        return cls(labels, [keyed[k] for k in range(len(keyed))])

    @functools.cached_property
    def d(self) -> dict[Pair, float]:
        """The distances keyed by label pairs, each pair in label order."""
        return dict(zip(all_pairs(self.labels), self.values.tolist()))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def index(self) -> Mapping[str, int]:
        return self._index  # type: ignore[attr-defined]

    def value(self, i: str, j: str) -> float:
        return float(self.values[_pair_position(self.index, i, j)])

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        """All pairs, ordered by label position."""
        for (i, j), v in zip(all_pairs(self.labels), self.values.tolist()):
            yield i, j, v

    def distinct_values(self) -> tuple[float, ...]:
        """Sorted distinct distances, with near ties merged (see merge_ties)."""
        return merge_ties(self.values.tolist())


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
        mask = np.zeros(len(universe) * (len(universe) - 1) // 2, dtype=bool)
        mask[[_pair_position(idx, *tuple(p)) for p in pairs]] = True
        return cls(universe, mask)

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
    idx = {lab: k for k, lab in enumerate(universe)}
    level = np.ones(len(idx) * (len(idx) - 1) // 2, dtype=np.intp)
    level[[_pair_position(idx, i, j) for i, j in pairs]] = 0
    return nested_components(universe, level, 1)[0]


def nested_components(universe: Sequence[str], level: np.ndarray,
                      n_levels: int) -> list[Partition]:
    """Partition t is the components of the pairs whose level is <= t, level
    holding each pair's level in `all_pairs(universe)` order: one union-find
    pass over the pairs in level order."""
    parent = list(range(len(universe)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = np.argsort(level, kind="stable")
    i, j = _pair_ends(len(universe))
    pairs = list(zip(i[order].tolist(), j[order].tolist()))
    out, current, start = [], Partition.singletons(universe), 0
    for end in np.searchsorted(level[order], np.arange(n_levels), side="right").tolist():
        joined = False
        for a, b in pairs[start:end]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
                joined = True
        if joined:
            groups: dict[int, list[str]] = {}
            for k, lab in enumerate(universe):
                groups.setdefault(find(k), []).append(lab)
            current = Partition.from_parts(universe, groups.values())
        out.append(current)
        start = end
    return out


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

class _TreeDistances:
    """A tree's distances, cached from its `_fill_distances`, and adapters."""

    def distances(self) -> np.ndarray:
        """Read-only distances of all label pairs, in `all_pairs(labels)` order."""
        if self._dist is None:  # type: ignore[attr-defined]
            dist = self._fill_distances()  # type: ignore[attr-defined]
            dist.flags.writeable = False
            object.__setattr__(self, "_dist", dist)
        return self._dist  # type: ignore[attr-defined]

    def distances_in(self, labels: Sequence[str]) -> np.ndarray:
        """distances() in `all_pairs(labels)` order, labels being a reordering."""
        labels = tuple(labels)
        if sorted(labels) != sorted(self.labels):  # type: ignore[attr-defined]
            raise UniverseMismatch("tree labels do not match the distance matrix")
        if labels == self.labels:  # type: ignore[attr-defined]
            return self.distances()
        pos = [self._index[lab] for lab in labels]  # type: ignore[attr-defined]
        return _square(self.distances(), len(pos))[np.ix_(pos, pos)][_pair_ends(len(pos))]

    def distance_map(self) -> dict[Pair, float]:
        return dict(zip(all_pairs(self.labels), self.distances().tolist()))  # type: ignore[attr-defined]

    def distance(self, i: str, j: str) -> float:
        return float(self.distances()[_pair_position(self._index, i, j)])  # type: ignore[attr-defined]


@dataclass(frozen=True)
class UltraNode:
    height: float
    children: tuple["UltraNode", ...] = ()
    label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class UltrametricTree(_TreeDistances):
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
        """from_distances of a pair map keyed in either orientation."""
        labels = tuple(labels)
        return cls.from_distances(
            labels, [lookup_pair(mapping, i, j) for i, j in all_pairs(labels)], tol=tol)

    @classmethod
    def from_distances(cls, labels: Sequence[str], values, *,
                       tol: float = DEFAULT_TOL) -> "UltrametricTree":
        """Build the canonical tree realizing an ultrametric given in
        `all_pairs(labels)` order.

        Level v of the tree holds the components of the pairs at distance
        <= v, for each distinct (tie-merged) value v; the realized distances
        are then verified against the input within tol.
        """
        labels = tuple(labels)
        if len(labels) == 1:
            return cls(labels, UltraNode(0.0, (), labels[0]))
        values = np.asarray(values, dtype=np.float64)
        merged = merge_ties(values.tolist())
        # each pair joins at the first value it is within VALUE_MERGE_TOL of
        level = np.searchsorted(np.add(merged, VALUE_MERGE_TOL), values)
        levels = HierarchySequence(tuple(nested_components(labels, level, len(merged))))
        tree = cls.from_partitions(levels, merged)
        realized = tree.distances()
        off = np.flatnonzero(np.abs(realized - values) > tol)
        if len(off):
            i, j = _nth_pair(labels, off[0])
            raise ValueError(f"map is not an ultrametric: pair ({i},{j}) realized "
                             f"{float(realized[off[0]])} vs {float(values[off[0]])}")
        return tree

    def _fill_distances(self) -> np.ndarray:
        """2 * height(lca): in the left-to-right leaf order, the lca of two
        leaves is the highest lca of two neighbours between them."""
        leaves: list[int] = []  # label positions, left to right
        gaps: list[float] = []  # height of each leaf's lca with the leaf before
        stack = [(self.root, 0.0)]
        while stack:
            node, gap = stack.pop()
            if node.is_leaf:
                leaves.append(self._index[node.label])  # type: ignore[attr-defined]
                gaps.append(gap)
            else:
                stack.extend((child, node.height if k else gap)
                             for k, child in reversed(list(enumerate(node.children))))
        n = len(leaves)
        # row a: the running max of the gaps after leaf a, zero up to it
        square = np.maximum.accumulate(np.triu(np.tile(gaps, (n, 1)), 1), axis=1)
        out = np.zeros((n, n))
        out[np.ix_(leaves, leaves)] = square + square.T
        return 2.0 * out[_pair_ends(n)]

    def top_distance(self) -> float:
        return 2.0 * self.root.height


# ---------------------------------------------------------------------------
# Weighted trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedTree(_TreeDistances):
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

    def _fill_distances(self) -> np.ndarray:
        """One traversal per label; each path is summed from its earlier label."""
        adj = self._adj  # type: ignore[attr-defined]
        out: list[float] = []
        for k, src in enumerate(self.labels):
            dist = {src: 0.0}
            stack = [src]
            while stack:
                cur = stack.pop()
                for nxt, w in adj[cur]:
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + w
                        stack.append(nxt)
            out.extend(dist[other] for other in self.labels[k + 1:])
        return np.array(out, dtype=np.float64)


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
    """(sum |dist_T(i,j) - D(i,j)|^p)^(1/p); max when p is infinite.

    tree is a tree over d's labels, in any order, or a vector in
    `all_pairs(d.labels)` order; the terms are summed one by one in that order.
    """
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    if isinstance(tree, _TreeDistances):
        realized = tree.distances_in(d.labels)
    elif isinstance(tree, np.ndarray):
        realized = _pair_vector(tree, d.n)
    else:
        raise TypeError(f"cannot evaluate distances of {type(tree)!r}")
    diffs = np.abs(realized - d.values).tolist()
    if p == math.inf:
        return max(diffs) if diffs else 0.0
    if p == 1:
        return sum(diffs, 0.0)
    return sum(x ** p for x in diffs) ** (1.0 / p)


def is_ultrametric(mapping: Mapping, tol: float = DEFAULT_TOL) -> bool:
    """True iff U(i,j) <= max(U(i,k), U(k,j)) + tol for all triples: in one
    pass per label, no triple's largest value exceeds its middle one by tol."""
    labels = sorted({x for key in mapping for x in tuple(key)})
    square = _square(np.array([lookup_pair(mapping, i, j) for i, j in all_pairs(labels)],
                              dtype=np.float64), len(labels))
    for i in range(len(labels) - 2):
        row, rest = square[i, i + 1:], square[i + 1:, i + 1:]
        lo, hi = np.minimum.outer(row, row), np.maximum.outer(row, row)
        mid = np.maximum(lo, np.minimum(hi, rest))
        if np.triu(np.maximum(hi, rest) > mid + tol, 1).any():
            return False
    return True
