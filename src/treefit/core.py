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

Tree arrays: both tree types hold one rooted form, built once by their
constructors. The nodes are in preorder, the root at position 0, so each
subtree is a slice. `_parent[v]` is the position of v's parent (-1 at the
root), `_length[v]` the length of the edge to it (0.0 at the root) and
`_label[v]` the position in `labels` of v's label (-1 for a node without
one). Siblings go in the order of the first label position below them, a
subtree without labels last; a tree given as `UltraNode`s keeps the order it
was given in. An ultrametric tree adds `_height[v]`, and its edge lengths
are the parent's height less the child's.
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


def _check_tol(name: str, tol: float) -> None:
    """Reject a tolerance that is NaN, infinite or negative."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol}")


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


@functools.lru_cache(maxsize=16)
def _flat_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions i*n+j and j*n+i, in an n x n array, of every pair
    i < j, in `all_pairs` order."""
    i, j = _pair_ends(n)
    flat = (i * n + j, j * n + i)
    for a in flat:
        a.flags.writeable = False
    return flat


def _pair_position(index: Mapping[str, int], i: str, j: str) -> int:
    """Position of the unordered pair {i, j} in `all_pairs` order."""
    a, b = index[i], index[j]
    if a == b:
        raise ValueError(f"self-pair {i!r} is not a valid unordered pair")
    return _condensed(len(index), min(a, b), max(a, b))


def _key_positions(index: Mapping[str, int], keys: Iterable) -> list[int]:
    """The `all_pairs` position of each key, a 2-element tuple or frozenset
    of labels; any other key, a string too, raises a ValueError that names it."""
    out = []
    for key in keys:
        pair = () if isinstance(key, str) else tuple(key)
        if len(pair) != 2 or not all(lab in index for lab in pair):
            raise ValueError(f"bad pair keys: {key!r} is not a pair of labels")
        out.append(_pair_position(index, *pair))
    return out


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
    out = np.zeros(n * n, dtype=values.dtype)
    upper, lower = _flat_pairs(n)
    out[upper] = values
    out[lower] = values
    return out.reshape(n, n)


# ---------------------------------------------------------------------------
# Distance matrices
# ---------------------------------------------------------------------------

def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    index = {lab: k for k, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate labels")
    return index


def _pair_map_values(labels: tuple[str, ...], mapping: Mapping) -> np.ndarray:
    """The values of a mapping keyed by 2-element tuples or frozensets of
    labels, in `all_pairs(labels)` order. Every pair needs a finite value,
    and a pair keyed in both orientations one value in both; a ValueError
    names the first key or pair that breaks this."""
    keyed: dict[int, float] = {}
    for key, k in zip(mapping, _key_positions(_label_index(labels), mapping)):
        v = float(mapping[key])
        if not math.isfinite(v):
            raise ValueError(f"distance for {key!r} must be finite, got {v}")
        if keyed.setdefault(k, v) != v:
            raise ValueError(f"bad pair keys: {key!r} gives {v}, "
                             f"its other orientation {keyed[k]}")
    missing = [p for k, p in enumerate(all_pairs(labels)) if k not in keyed]
    if missing:
        raise ValueError(f"bad pair keys: missing={missing[:3]}")
    return np.array([keyed[k] for k in range(len(keyed))], dtype=np.float64)


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
        """Build from a pair map (see `_pair_map_values`)."""
        labels = tuple(labels)
        return cls(labels, _pair_map_values(labels, values))

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
        return merge_ties(self.values)[0]


def merge_ties(values: np.ndarray) -> tuple[tuple[float, ...], np.ndarray]:
    """The sorted distinct values kept, and for each value the index of the
    kept one it merged into: going up, a value within VALUE_MERGE_TOL above
    the last kept value merges into it. Every level a distance is put on,
    in slicing and in `UltrametricTree.from_distances`, is this index."""
    distinct, inverse = np.unique(values, return_inverse=True)
    kept: list[float] = []
    for v in distinct.tolist():
        if not kept or v - kept[-1] > VALUE_MERGE_TOL:
            kept.append(v)
    # each distinct value merged into the last kept value at or below it
    into = np.searchsorted(kept, distinct, side="right") - 1
    return tuple(kept), into[inverse]


# ---------------------------------------------------------------------------
# Edge sets and partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeSet:
    """A set of unordered label pairs over a fixed universe.

    mask[k] is True when the k-th pair of `all_pairs(universe)` is an edge;
    it is read-only. Edge sets compare and hash by universe and mask.
    """

    universe: tuple[str, ...]
    mask: np.ndarray

    def __post_init__(self):
        universe = tuple(self.universe)
        if len(set(universe)) != len(universe):
            raise ValueError("duplicate labels in universe")
        mask = np.array(self.mask, dtype=bool)
        n = len(universe)
        if mask.shape != (n * (n - 1) // 2,):
            raise ValueError(f"mask of shape {mask.shape} for {n} labels")
        mask.flags.writeable = False
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.universe == other.universe and self.mask.tobytes() == other.mask.tobytes()

    def __hash__(self) -> int:
        return hash((self.universe, self.mask.tobytes()))

    @classmethod
    def from_pairs(cls, universe: Sequence[str], pairs: Iterable) -> "EdgeSet":
        universe = tuple(universe)
        idx = {lab: k for k, lab in enumerate(universe)}
        mask = np.zeros(len(universe) * (len(universe) - 1) // 2, dtype=bool)
        mask[_key_positions(idx, pairs)] = True
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


def _level_steps(n: int, level: np.ndarray, n_levels: int) -> list[list[tuple[int, int]]]:
    """For each level t < n_levels, the pairs of label positions whose level
    is t, in `all_pairs` order."""
    level = np.asarray(level, dtype=np.intp)
    order = np.argsort(level, kind="stable")
    i, j = _pair_ends(n)
    pairs = list(zip(i[order].tolist(), j[order].tolist()))
    cuts = np.searchsorted(level[order], np.arange(n_levels + 1)).tolist()
    return [pairs[a:b] for a, b in zip(cuts, cuts[1:])]


def _union_steps(n: int, steps: Iterable[Iterable[tuple[int, int]]]):
    """One union-find pass over pairs of label positions, step by step; each
    root is the first label of its component. Yields, after each step, the
    components it joined (each new root with the roots it joined) and find."""
    up = list(range(n))

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for pairs in steps:
        joined: dict[int, list[int]] = {}
        for i, j in pairs:
            ri, rj = find(i), find(j)
            if ri != rj:
                lo, hi = min(ri, rj), max(ri, rj)
                up[hi] = lo
                joined.setdefault(lo, [lo]).extend(joined.pop(hi, [hi]))
        yield joined, find


@functools.lru_cache(maxsize=16)
def partition_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every set partition of n positions, as restricted growth strings in
    lexicographic order.

    Row r of `rgs`, shape (Bell(n), n), gives position k the index of its
    part, parts numbered by first occurrence; row r of `same`, shape
    (Bell(n), C(n,2)), is True for the pairs, in `all_pairs` order, that
    partition r puts in one part.
    """
    rgs = np.zeros((1, min(n, 1)), dtype=np.int8)
    for _ in range(1, n):
        # each string, in order, followed by every index up to one past its max
        counts = rgs.max(axis=1) + 2
        prefix = np.repeat(rgs, counts, axis=0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        last = (np.arange(len(prefix)) - starts).astype(np.int8)
        rgs = np.column_stack([prefix, last])
    i, j = _pair_ends(n)
    same = rgs[:, i] == rgs[:, j]
    rgs.flags.writeable = same.flags.writeable = False
    return rgs, same


def partition_disagreements(masks: np.ndarray, n: int) -> np.ndarray:
    """|E sym-diff cliques(P)| for each edge mask E, a row of masks, and each
    partition P of `partition_table(n)`, shape (len(masks), Bell(n)): with
    `same` the pairs P puts in one part, |E| + |same| - 2 |same & E|."""
    same = partition_table(n)[1].astype(np.int64)
    masks = np.asarray(masks, dtype=np.int64)
    return masks.sum(axis=1)[:, None] + same.sum(axis=1) - 2 * (masks @ same.T)


def partition_of_row(universe: tuple[str, ...], r: int) -> Partition:
    """Row r of `partition_table(len(universe))` as a Partition."""
    row = partition_table(len(universe))[0][r].tolist()
    return Partition(universe, tuple(
        frozenset(lab for lab, k in zip(universe, row) if k == part)
        for part in range(max(row, default=-1) + 1)))


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
# Trees
# ---------------------------------------------------------------------------

def _preorder(root, children) -> tuple[list, list[int]]:
    """The nodes below root in preorder, children(node) listing a node's
    children in order, and the position of each node's parent (-1 at root)."""
    nodes: list = []
    parent: list[int] = []
    stack = [(root, -1)]
    while stack:
        node, up = stack.pop()
        # node's position, len(nodes), is its children's parent
        stack.extend(zip(reversed(children(node)), itertools.repeat(len(nodes))))
        nodes.append(node)
        parent.append(up)
    return nodes, parent


class _RootedTree:
    """A tree over its labels in the rooted-array form (see the module
    docstring), with its distances cached from `_fill_distances`."""

    labels: tuple[str, ...]
    _index: dict[str, int]

    def _set_arrays(self, labels: tuple[str, ...], index: dict[str, int], parent: list[int],
                    length: np.ndarray, label: list[int]) -> None:
        for name, value in (("labels", labels), ("_index", index),
                            ("_parent", np.array(parent, dtype=np.intp)),
                            ("_length", length), ("_label", np.array(label, dtype=np.intp)),
                            ("_dist", None)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _end(self) -> list[int]:
        """One past the last position of each node's subtree."""
        parent = self._parent.tolist()  # type: ignore[attr-defined]
        end = list(range(1, len(parent) + 1))
        for v in reversed(range(1, len(parent))):
            end[parent[v]] = max(end[parent[v]], end[v])
        return end

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
        if sorted(labels) != sorted(self.labels):
            raise UniverseMismatch("tree labels do not match the distance matrix")
        if labels == self.labels:
            return self.distances()
        pos = np.array([self._index[lab] for lab in labels], dtype=np.intp)
        i, j = _pair_ends(len(pos))
        return _square(self.distances(), len(pos)).reshape(-1)[pos[i] * len(pos) + pos[j]]

    def distance_map(self) -> dict[Pair, float]:
        return dict(zip(all_pairs(self.labels), self.distances().tolist()))

    def distance(self, i: str, j: str) -> float:
        return float(self.distances()[_pair_position(self._index, i, j)])


@dataclass(frozen=True)
class UltraNode:
    height: float
    children: tuple["UltraNode", ...] = ()
    label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class UltrametricTree(_RootedTree):
    """Rooted tree; leaves are labels at height 0, dist(i,j) = 2 * height(lca).

    Its arrays add `_height`; an edge is as long as its parent's height less
    its own.
    """

    labels: tuple[str, ...]
    root: UltraNode

    def __post_init__(self):
        labels = tuple(self.labels)
        index = _label_index(labels)
        nodes, parent = _preorder(self.root, lambda node: node.children)
        leaves = [node.label for node in nodes if not node.children]
        if None in leaves:
            raise ValueError("leaf without a label")
        if sorted(leaves) != sorted(labels):  # type: ignore[type-var]
            raise ValueError("tree leaves do not match the label set")
        heights = [node.height for node in nodes]
        for v, node in enumerate(nodes):  # the first bad height in preorder
            if v and not heights[v] < heights[parent[v]]:
                raise ValueError("heights must strictly increase child to parent")
            if not node.children and heights[v] != 0.0:
                raise ValueError("leaves must sit at height 0")
            if node.children and not heights[v] > 0.0:
                raise ValueError("internal node height must be positive")
        height = np.array(heights, dtype=np.float64)
        object.__setattr__(self, "_height", height)
        length = height[parent] - height
        length[0] = 0.0
        self._set_arrays(labels, index, parent, length,
                         [-1 if node.children else index[node.label] for node in nodes])

    @classmethod
    def _from_joins(cls, labels: tuple[str, ...], values: Sequence[float],
                    steps) -> "UltrametricTree":
        """The tree in which the pairs of label positions that step t joins
        sit at values[t], values increasing: the components one step joins
        become one node at height values[t] / 2, its children in the order of
        their first labels. The steps must join every label."""
        if not labels:
            raise ValueError("an ultrametric tree needs at least one label")
        node = [UltraNode(0.0, (), lab) for lab in labels]  # of each component, by its root
        for value, (joined, _) in zip(values, _union_steps(len(labels), steps)):
            for r, roots in joined.items():
                node[r] = UltraNode(value / 2.0, tuple(node[k] for k in sorted(roots)))
        return cls(labels, node[0])

    @classmethod
    def from_map(cls, labels: Sequence[str], mapping: Mapping, *,
                 tol: float = DEFAULT_TOL) -> "UltrametricTree":
        """from_distances of a pair map (see `_pair_map_values`)."""
        labels = tuple(labels)
        return cls.from_distances(labels, _pair_map_values(labels, mapping), tol=tol)

    @classmethod
    def from_distances(cls, labels: Sequence[str], values, *,
                       tol: float = DEFAULT_TOL) -> "UltrametricTree":
        """Build the canonical tree realizing an ultrametric given in
        `all_pairs(labels)` order.

        Each pair joins at the kept value its distance merged into (see
        merge_ties), and the pairs join value by value in one union-find
        pass. The realized distances are then verified against the input
        within tol.
        """
        _check_tol("tol", tol)
        labels = tuple(labels)
        values = _pair_vector(values, len(labels))
        if not np.isfinite(values).all():
            raise ValueError("ultrametric distances must be finite")
        merged, level = merge_ties(values)
        tree = cls._from_joins(labels, merged, _level_steps(len(labels), level, len(merged)))
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
        leaves = np.flatnonzero(self._label >= 0)  # left to right
        n = len(leaves)
        # the node after a leaf in preorder is a child of the lca of that
        # leaf and the next one
        gaps = np.zeros(n)
        gaps[1:] = self._height[self._parent[leaves[:-1] + 1]]
        # row a: the running max of the gaps after leaf a, zero up to it
        square = np.triu(np.broadcast_to(gaps, (n, n)), 1)
        np.maximum.accumulate(square, axis=1, out=square)
        rank = np.empty(n, dtype=np.intp)  # each label's place, left to right
        rank[self._label[leaves]] = np.arange(n)
        a, b = (rank[end] for end in _pair_ends(n))
        return 2.0 * square.reshape(-1)[np.minimum(a, b) * n + np.maximum(a, b)]

    def top_distance(self) -> float:
        return 2.0 * self.root.height


@dataclass(frozen=True)
class WeightedTree(_RootedTree):
    """Undirected tree spanning the labels; dist = path weight sum.

    Edge weights must be finite and >= 0; a weight of 0 flags a
    pseudometric. The arrays root the tree at `root`, or at the least node
    name when root is not a node, and add `_names`, each node's name.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]
    root: str | None = None

    def __post_init__(self):
        labels = tuple(self.labels)
        index = _label_index(labels)
        adj: dict[str, list[tuple[str, float]]] = {lab: [] for lab in labels}
        for u, v, w in self.edges:
            if u == v:
                raise ValueError("self-loop")
            if not 0.0 <= w < math.inf:
                raise ValueError(f"edge weight must be finite and >= 0, got {w!r}")
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        if len(self.edges) != len(adj) - 1:
            raise ValueError("edge count does not match a tree")
        # root it: each node's (child, weight) pairs in order of discovery,
        # then by the first label position below them, label-less last
        root = self.root if self.root in adj else min(adj)
        kids: dict[str, list[tuple[str, float]]] = {root: []}
        order = [root]
        for node in order:
            for nxt, w in adj[node]:
                if nxt not in kids:
                    kids[node].append((nxt, w))
                    kids[nxt] = []
                    order.append(nxt)
        if len(order) != len(adj):
            raise ValueError("tree is not connected")
        first: dict[str, int] = {}
        for node in reversed(order):
            kids[node].sort(key=lambda kid: first[kid[0]])
            first[node] = min([index.get(node, len(index))] + [first[k] for k, _ in kids[node]])
        nodes, parent = _preorder((root, 0.0), lambda kid: kids[kid[0]])
        object.__setattr__(self, "_names", [name for name, _ in nodes])
        self._set_arrays(labels, index, parent, np.array([w for _, w in nodes], dtype=np.float64),
                         [index.get(name, -1) for name, _ in nodes])

    def has_zero_weight(self) -> bool:
        return bool(np.any(self._length[1:] == 0.0))

    def _fill_distances(self) -> np.ndarray:
        """Path sums, each from its earlier label. With the nodes in preorder
        a subtree is a slice, so one sweep up and one down fill the sums from
        every labelled node to every node, adding the edges in path order."""
        parent, length, end = self._parent.tolist(), self._length.tolist(), self._end
        labelled = self._label >= 0
        # the labelled nodes before each position, in preorder
        cols = np.concatenate(([0], np.cumsum(labelled))).tolist()
        # table[v, c]: the path sum from the c-th labelled node to node v
        table = np.zeros((len(parent), cols[-1]))
        for v in reversed(range(1, len(parent))):  # up out of each subtree
            s, e = cols[v], cols[end[v]]
            table[parent[v], s:e] = table[v, s:e] + length[v]
        for v in range(1, len(parent)):  # down into each subtree from the rest
            s, e = cols[v], cols[end[v]]
            table[v, :s] = table[parent[v], :s] + length[v]
            table[v, e:] = table[parent[v], e:] + length[v]
        node = np.empty(len(self.labels), dtype=np.intp)
        node[self._label[labelled]] = np.flatnonzero(labelled)
        i, j = _pair_ends(len(node))
        return table[node[j], np.asarray(cols)[node[i]]]


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
    if not p >= 1:  # inf passes, NaN does not
        raise ValueError("p must be >= 1 or inf")
    if isinstance(tree, _RootedTree):
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
    """True iff U(i,j) <= max(U(i,k), U(k,j)) + tol for all triples of the
    labels in the keys of a pair map (see `_pair_map_values`): in one pass
    per label, no triple's largest value exceeds its middle one by tol."""
    _check_tol("tol", tol)
    labels = tuple(sorted({x for key in mapping for x in tuple(key)}))
    square = _square(_pair_map_values(labels, mapping), len(labels))
    for i in range(len(labels) - 2):
        row, rest = square[i, i + 1:], square[i + 1:, i + 1:]
        lo, hi = np.minimum.outer(row, row), np.maximum.outer(row, row)
        mid = np.maximum(lo, np.minimum(hi, rest))
        if np.triu(np.maximum(hi, rest) > mid + tol, 1).any():
            return False
    return True
