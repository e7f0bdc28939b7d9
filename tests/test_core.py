import functools
import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treefit.core as core_module
from treefit.core import (
    DistanceMatrix,
    EdgeSet,
    HierarchySequence,
    Partition,
    UltraNode,
    UltrametricTree,
    UniverseMismatch,
    WeightedTree,
    all_pairs,
    clique_edges,
    is_ultrametric,
    lp_norm_error,
    merge_ties,
    partition_table,
    sym_diff_size,
)
from treefit.io import newick_string, parse_newick
from conftest import (
    components,
    first_occurrence_strings,
    iter_partitions,
    nested_components,
    partition_tree,
    path_sum_distances,
    planted_ultrametric,
    random_newick,
    random_partition,
    random_tree_metric,
    random_ultrametric_map,
    reference_level_steps,
)


def edge_set(universe, pairs):
    return EdgeSet.from_pairs(universe, pairs)


class TestCliqueEdges:
    def test_pair_and_singleton(self):
        p = Partition.from_parts("abc", [{"a", "b"}, {"c"}])
        assert clique_edges(p).edges == frozenset({("a", "b")})

    def test_all_singletons(self):
        p = Partition.singletons("abcd")
        assert clique_edges(p).edges == frozenset()

    def test_triangle(self):
        p = Partition.from_parts("abc", [{"a", "b", "c"}])
        assert clique_edges(p).edges == frozenset(
            {("a", "b"), ("a", "c"), ("b", "c")})

    def test_edge_count_formula(self, rng):
        labels = tuple(f"x{k}" for k in range(9))
        for _ in range(25):
            buckets = {}
            for lab in labels:
                buckets.setdefault(rng.randrange(4), set()).add(lab)
            p = Partition.from_parts(labels, buckets.values())
            expected = sum(len(part) * (len(part) - 1) // 2 for part in p.parts)
            assert len(clique_edges(p)) == expected


class TestEdgeSetEquality:
    def test_equal_sets_are_equal_and_hash_alike(self):
        mask = np.array([True, False, True])
        a, b = EdgeSet(("a", "b", "c"), mask), EdgeSet(list("abc"), mask.copy())
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a == edge_set("abc", [("a", "b"), ("b", "c")])
        assert len({a, b, edge_set("abc", [("c", "b"), ("b", "a")])}) == 1

    def test_unequal_sets(self):
        a = edge_set("abc", [("a", "b")])
        assert a != edge_set("abc", [("a", "c")])
        assert a != edge_set("abd", [("a", "b")])  # same mask, other universe
        assert a != edge_set("bac", [("a", "b")])  # same edge, other order
        assert a != frozenset(a.edges) and a != None  # noqa: E711

    def test_mask_is_a_read_only_copy(self):
        mask = np.array([True, False, True])
        a = EdgeSet("abc", mask)
        mask[0] = False
        assert a.mask.tolist() == [True, False, True]
        with pytest.raises(ValueError):
            a.mask[1] = True


class TestSymDiff:
    def test_identical(self):
        a = edge_set("abc", [("a", "b")])
        assert sym_diff_size(a, a) == 0

    def test_single_edge_vs_empty(self):
        assert sym_diff_size(edge_set("abc", [("a", "b")]),
                             edge_set("abc", [])) == 1

    def test_two_vs_two(self):
        a = edge_set("abc", [("a", "b"), ("b", "c")])
        b = edge_set("abc", [("b", "c"), ("a", "c")])
        assert sym_diff_size(a, b) == 2

    def test_universe_mismatch_rejected(self):
        with pytest.raises(UniverseMismatch):
            sym_diff_size(edge_set("abc", []), edge_set("abd", []))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, data):
        universe = tuple("abcde")
        pool = list(all_pairs(universe))
        pick = lambda: data.draw(st.sets(st.sampled_from(pool)))
        a, b, c = (edge_set(universe, pick()) for _ in range(3))
        assert sym_diff_size(a, c) <= sym_diff_size(a, b) + sym_diff_size(b, c)


class TestLpNormError:
    def setup_method(self):
        self.d = DistanceMatrix.from_pairs(
            ("1", "2", "3"), {("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})
        self.u = UltrametricTree.from_map(
            ("1", "2", "3"), {("1", "2"): 1.0, ("1", "3"): 3.0, ("2", "3"): 3.0})

    def test_exact_fit_is_zero(self):
        exact = DistanceMatrix.from_pairs(
            ("1", "2", "3"), self.u.distance_map())
        assert lp_norm_error(self.u, exact, 1) == 0.0

    def test_l1(self):
        assert lp_norm_error(self.u, self.d, 1) == pytest.approx(1.0)

    def test_linf(self):
        assert lp_norm_error(self.u, self.d, math.inf) == pytest.approx(1.0)

    def test_label_mismatch_rejected(self):
        other = DistanceMatrix.from_pairs("xyz", {
            ("x", "y"): 1.0, ("x", "z"): 1.0, ("y", "z"): 1.0})
        with pytest.raises(UniverseMismatch):
            lp_norm_error(self.u, other, 1)

    def test_p_between_one_and_inf(self):
        assert lp_norm_error(self.u, self.d, 2) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            lp_norm_error(self.u, self.d, 0.5)

    def test_nan_p_rejected(self):
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            lp_norm_error(self.u, self.d, math.nan)

    def test_vector_in_pair_order(self):
        assert lp_norm_error(self.u.distances(), self.d, 1) == lp_norm_error(self.u, self.d, 1)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_vector_of_wrong_length_rejected(self, size):
        # a length-1 vector would broadcast against the table's 3 pairs
        with pytest.raises(ValueError, match="shape"):
            lp_norm_error(np.full(size, 2.0), self.d, 1)


class TestIsUltrametric:
    def test_equal_pair_max(self):
        assert is_ultrametric({("1", "2"): 1.0, ("1", "3"): 3.0, ("2", "3"): 3.0})

    def test_violating_triple(self):
        assert not is_ultrametric({("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})

    def test_two_points_vacuous(self):
        assert is_ultrametric({("a", "b"): 5.0})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN tolerance made every comparison false: the triple passed
        with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
            is_ultrametric({("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0}, tol)

    def test_random_generated_maps(self, rng):
        for _ in range(30):
            m = random_ultrametric_map(rng, [f"s{k}" for k in range(6)])
            assert is_ultrametric(m)


class TestPairMaps:
    """is_ultrametric, UltrametricTree.from_map and DistanceMatrix.from_pairs
    read a pair map one way: a missing pair, a value that is not finite, and
    a pair keyed in both orientations with two values each raise a
    ValueError that names the pair or the key."""

    @pytest.mark.parametrize("labels, mapping, message", [
        ("abc", {("a", "b"): 1.0, ("a", "c"): 2.0}, r"missing=\[\('b', 'c'\)\]"),
        ("abc", {("a", "b"): 1.0, ("a", "c"): math.nan, ("b", "c"): 2.0},
         r"\('a', 'c'\) must be finite, got nan"),
        ("ab", {("a", "b"): 1.0, ("b", "a"): 5.0}, r"\('b', 'a'\) gives 5.0"),
    ], ids=["missing", "nan", "two-values"])
    def test_bad_maps_name_the_pair(self, labels, mapping, message):
        with pytest.raises(ValueError, match=message):
            is_ultrametric(mapping)
        with pytest.raises(ValueError, match=message):
            UltrametricTree.from_map(labels, mapping)
        with pytest.raises(ValueError, match=message):
            DistanceMatrix.from_pairs(labels, mapping)


    def test_string_keys_are_not_pairs(self):
        # "ab" is one string, not the pair of the labels "a" and "b"
        message = "bad pair keys: 'ab' is not a pair of labels"
        with pytest.raises(ValueError, match=message):
            DistanceMatrix.from_pairs(("a", "b"), {"ab": 1.0})
        with pytest.raises(ValueError, match=message):
            UltrametricTree.from_map(("a", "b"), {"ab": 1.0})
        with pytest.raises(ValueError, match=message):
            EdgeSet.from_pairs(("a", "b"), ["ab"])
        with pytest.raises(ValueError, match=message):
            is_ultrametric({"ab": 1.0, "ac": 2.0, "bc": 2.0})
        with pytest.raises(ValueError, match="bad pair keys: 'bc' is not a pair"):
            is_ultrametric({("a", "b"): 1.0, ("a", "c"): 2.0, "bc": 2.0})


class TestUltrametricTree:
    def test_empty_tree_raises(self):
        with pytest.raises(ValueError, match="needs at least one label"):
            UltrametricTree.from_distances((), [])
        with pytest.raises(ValueError, match="needs at least one label"):
            UltrametricTree.from_map((), {})

    def test_from_map_realizes_input(self, rng):
        labels = tuple(f"s{k}" for k in range(8))
        for _ in range(20):
            m = random_ultrametric_map(rng, labels)
            tree = UltrametricTree.from_map(labels, m)
            realized = tree.distance_map()
            for pair, v in m.items():
                assert realized[pair] == pytest.approx(v, abs=1e-9)
            assert is_ultrametric(realized, tol=1e-9)

    def test_from_map_rejects_non_ultrametric(self):
        with pytest.raises(ValueError):
            UltrametricTree.from_map(
                ("1", "2", "3"),
                {("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [math.inf] * 3],
                             ids=["nan", "all-inf"])
    def test_rejects_non_finite_distances(self, values):
        labels = ("a", "b", "c")
        with pytest.raises(ValueError, match="finite"):
            UltrametricTree.from_distances(labels, values)
        with pytest.raises(ValueError, match="finite"):
            UltrametricTree.from_map(labels, dict(zip(all_pairs(labels), values)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN tolerance let a table that is no ultrametric pass the check
        labels, values = ("a", "b", "c"), [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
            UltrametricTree.from_distances(labels, values, tol=tol)
        with pytest.raises(ValueError, match="^tol must be finite and >= 0"):
            UltrametricTree.from_map(labels, dict(zip(all_pairs(labels), values)), tol=tol)

    def test_heights_strictly_increase(self, rng):
        labels = tuple(f"s{k}" for k in range(7))
        m = random_ultrametric_map(rng, labels)
        tree = UltrametricTree.from_map(labels, m)

        def walk(node):
            for child in node.children:
                if not child.is_leaf:
                    assert child.height < node.height
                walk(child)

        walk(tree.root)

    def test_children_sorted_by_first_leaf(self):
        m = {("a", "b"): 2.0, ("a", "c"): 2.0, ("b", "c"): 1.0}
        tree = UltrametricTree.from_map(("a", "b", "c"), m)
        first = tree.root.children[0]
        assert first.is_leaf and first.label == "a"

    def test_leaves_must_be_at_zero(self):
        with pytest.raises(ValueError):
            UltrametricTree(("a",), UltraNode(1.0, (), "a"))


class TestWeightedTree:
    def test_path_distances(self):
        t = WeightedTree(labels=("a", "b", "c"),
                         edges=(("a", "m", 1.0), ("b", "m", 2.0), ("c", "m", 4.0)))
        assert t.distance("a", "b") == pytest.approx(3.0)
        assert t.distance("a", "c") == pytest.approx(5.0)
        assert t.distance("b", "c") == pytest.approx(6.0)

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            WeightedTree(labels=("a", "b"),
                         edges=(("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            WeightedTree(labels=("a", "b", "c", "d"),
                         edges=(("a", "b", 1.0), ("c", "d", 1.0), ("c", "d", 2.0)))

    def test_zero_weight_flagging(self):
        t = WeightedTree(labels=("a", "b"), edges=(("a", "b", 0.0),))
        assert t.has_zero_weight()

    @pytest.mark.parametrize("w", [math.nan, math.inf, float("1e400"), -math.inf, -1.0])
    def test_rejects_bad_weights(self, w):
        with pytest.raises(ValueError, match="finite and >= 0"):
            WeightedTree(labels=("a", "b"), edges=(("a", "m", 1.0), ("m", "b", w)))


class TestDuplicateLabels:
    def test_ultrametric_tree(self):
        leaves = (UltraNode(0.0, (), "a"), UltraNode(0.0, (), "a"))
        with pytest.raises(ValueError, match="duplicate labels"):
            UltrametricTree(("a", "a"), UltraNode(1.0, leaves))
        with pytest.raises(ValueError, match="duplicate labels"):
            UltrametricTree.from_distances(("a", "a"), [2.0])

    def test_weighted_tree(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            WeightedTree(("a", "a"), (("a", "b", 1.0),))


class TestPartitions:
    def test_partition_table(self):
        # Bell numbers, and the rows in order against a brute-force enumeration
        for n, bell in enumerate([1, 1, 2, 5, 15, 52, 203, 877]):
            rgs, same = partition_table(n)
            assert rgs.shape == (bell, n) and same.shape == (bell, n * (n - 1) // 2)
            assert [tuple(row) for row in rgs.tolist()] == first_occurrence_strings(n)
            assert same.tolist() == [[row[a] == row[b] for a, b in itertools.combinations(
                range(n), 2)] for row in rgs.tolist()]

    def test_refinement(self):
        fine = Partition.from_parts("abcd", [{"a"}, {"b"}, {"c", "d"}])
        coarse = Partition.from_parts("abcd", [{"a", "b"}, {"c", "d"}])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            Partition.from_parts("abc", [{"a", "b"}])  # missing c
        with pytest.raises(ValueError):
            Partition.from_parts("abc", [{"a", "b"}, {"b", "c"}])  # overlap

    def test_same_part_rejects_unknown_labels(self):
        p = Partition.from_parts("abc", [{"a", "b"}, {"c"}])
        assert p.same_part("a", "b") and not p.same_part("a", "c")
        for i, j, unknown in (("a", "z", "z"), ("z", "a", "z"), ("y", "y", "y")):
            with pytest.raises(ValueError, match=f"label '{unknown}' outside the universe"):
                p.same_part(i, j)


def reference_form(universe, parts):
    """The label-set form, by sets alone: the parts in order of their first
    labels, and the index of each label's part."""
    ordered = sorted(parts, key=lambda part: min(universe.index(x) for x in part))
    return (tuple(frozenset(part) for part in ordered),
            tuple(next(k for k, part in enumerate(ordered) if lab in part) for lab in universe))


def partitions_given_as_sets(rng):
    """Universes of 0 to 7 labels with every partition of each, and random
    partitions of up to 12 labels, each as (universe, label sets in any order)."""
    for n in range(8):
        universe = tuple(f"x{k}" for k in range(n))
        for parts in iter_partitions(universe):
            yield universe, [set(part) for part in reversed(parts)]
    for _ in range(300):
        universe = tuple(f"x{k}" for k in rng.sample(range(40), rng.randint(1, 12)))
        parts = [set(part) for part in random_partition(rng, universe).parts]
        rng.shuffle(parts)
        yield universe, parts


class TestPartitionReps:
    """A partition is its `reps` vector; every reading of it matches the
    set-based reference."""

    def test_against_the_set_reference(self):
        rng = random.Random(31)
        seen = 0
        for universe, parts in partitions_given_as_sets(rng):
            q = Partition(universe, parts)
            assert q.reps.dtype == np.intp and not q.reps.flags.writeable
            assert q.reps.tolist() == [min(universe.index(x) for x in part)
                                       for lab in universe for part in parts if lab in part]
            again = Partition.from_reps(universe, q.reps.tolist())
            assert again == q and hash(again) == hash(q)
            assert (q.parts, q.part_of) == reference_form(universe, parts)
            assert (again.parts, again.part_of) == (q.parts, q.part_of)
            same = [any(i in part and j in part for part in parts)
                    for i, j in all_pairs(universe)]
            assert [q.same_part(i, j) for i, j in all_pairs(universe)] == same
            assert clique_edges(q).mask.tolist() == same
            seen += 1
        assert seen == sum([1, 1, 2, 5, 15, 52, 203, 877]) + 300

    def test_refines_against_the_set_reference(self):
        for n in range(6):
            universe = tuple(f"x{k}" for k in range(n))
            given = list(iter_partitions(universe))
            qs = [Partition(universe, parts) for parts in given]
            for a, fine in zip(given, qs):
                for b, coarse in zip(given, qs):
                    want = all(any(part <= host for host in b) for part in a)
                    assert fine.refines(coarse) == want

    def test_equality_is_by_universe_and_reps(self):
        p = Partition.from_parts("abc", [{"c"}, {"a", "b"}])
        assert p == Partition.from_reps("abc", [0, 0, 2]) == Partition.from_reps(
            tuple("abc"), np.array([0, 0, 2], dtype=np.int8))
        assert p != Partition.from_reps("abd", [0, 0, 2])
        assert p != Partition.from_reps("abc", [0, 1, 1])
        assert len({p, Partition.from_reps("abc", [0, 0, 2]), Partition.singletons("abc")}) == 2

    def test_from_reps_copies_its_vector(self):
        reps = np.array([0, 0, 2])
        p = Partition.from_reps("abc", reps)
        reps[1] = 1
        assert p.reps.tolist() == [0, 0, 2]

    @pytest.mark.parametrize("reps", [
        [1, 1, 2],        # reps[0] > 0
        [0, 2, 2],        # reps[1] > 1
        [0, 0, 1],        # reps[reps] != reps
        [0, -1, 2],       # not a position
        [0, 0],           # one entry short
    ])
    def test_from_reps_rejects_bad_vectors(self, reps):
        with pytest.raises(ValueError, match="reps"):
            Partition.from_reps("abc", reps)

    def test_from_reps_rejects_random_bad_vectors(self):
        rng = random.Random(32)
        for _ in range(300):
            universe = tuple(f"x{k}" for k in range(rng.randint(2, 10)))
            reps = random_partition(rng, universe).reps.copy()
            k = rng.randrange(1, len(reps))
            later = reps.copy()
            later[k - 1] = k  # reps[k - 1] > k - 1
            with pytest.raises(ValueError, match="first label"):
                Partition.from_reps(universe, later)
            inner = np.flatnonzero(reps[:k] != np.arange(k))
            if len(inner):  # point k at a label that is not its part's first
                broken = reps.copy()
                broken[k] = inner[0]
                with pytest.raises(ValueError, match="first label"):
                    Partition.from_reps(universe, broken)

    def test_from_reps_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            Partition.from_reps("aab", [0, 1, 2])


class TestDistanceMatrix:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DistanceMatrix.from_pairs("ab", {("a", "b"): 0.0})

    def test_rejects_missing_pair(self):
        with pytest.raises(ValueError):
            DistanceMatrix.from_pairs(("a", "b", "c"), {("a", "b"): 1.0})

    @pytest.mark.parametrize("key", [("a", "z"), ("a", "b", "c"), ("a",)])
    def test_rejects_bad_pair_keys(self, key):
        # an unknown label, or a key that is not a pair, is named
        message = f"bad pair keys: {re.escape(repr(key))}"
        values = {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0, key: 2.0}
        with pytest.raises(ValueError, match=message):
            DistanceMatrix.from_pairs("abc", values)
        with pytest.raises(ValueError, match=message):
            EdgeSet.from_pairs("abc", [("a", "b"), key])

    def test_rejects_both_orientations_with_other_values(self):
        with pytest.raises(ValueError, match=r"bad pair keys: \('b', 'a'\) gives 5.0"):
            DistanceMatrix.from_pairs("ab", {("a", "b"): 1.0, ("b", "a"): 5.0})
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 2.0, ("b", "a"): 2.0,
                                             frozenset("ab"): 2.0})
        assert d.values.tolist() == [2.0]

    def test_distinct_values_merge_near_ties(self):
        d = DistanceMatrix.from_pairs("abc", {
            ("a", "b"): 1.0, ("a", "c"): 1.0 + 1e-13, ("b", "c"): 2.0})
        assert d.distinct_values() == (1.0, 2.0)


def triple_loop_is_ultrametric(mapping, tol):
    """The per-triple reference for is_ultrametric."""
    def lookup(i, j):
        return mapping[(i, j)] if (i, j) in mapping else mapping[(j, i)]

    labels = sorted({x for key in mapping for x in key})
    for i, j, k in itertools.combinations(labels, 3):
        top, mid, _ = sorted((lookup(i, j), lookup(i, k), lookup(j, k)), reverse=True)
        if top > mid + tol:
            return False
    return True


def near_ultrametric_map(rng, labels, tol):
    """An ultrametric with heights 1, 2, ..., keyed in either orientation,
    with one pair moved up by tol (the boundary), 2 tol or 0.5, or none."""
    groups = [[lab] for lab in labels]
    m, h = {}, 0.0
    while len(groups) > 1:
        h += 1.0
        a = groups.pop(rng.randrange(len(groups)))
        b = groups.pop(rng.randrange(len(groups)))
        for i in a:
            for j in b:
                m[(i, j) if rng.random() < 0.5 else (j, i)] = h
        groups.append(a + b)
    key = rng.choice(sorted(m))
    m[key] += rng.choice([0.0, tol, 2 * tol, 0.5])
    return m


class TestIsUltrametricReference:
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.25])
    def test_matches_triple_loop(self, rng, tol):
        labels = [f"s{k}" for k in range(7)]
        verdicts = []
        for _ in range(200):
            m = near_ultrametric_map(rng, labels, tol)
            verdicts.append(is_ultrametric(m, tol))
            assert verdicts[-1] == triple_loop_is_ultrametric(m, tol)
        for _ in range(20):
            m = {p: rng.choice([1.0, 1.0 + tol, 2.0]) for p in all_pairs(labels)}
            assert is_ultrametric(m, tol) == triple_loop_is_ultrametric(m, tol)
        assert 20 < sum(verdicts) < 180


def lca_distances(tree):
    """Per-pair reference: twice the height of the lowest common ancestor."""
    paths = {}
    stack = [(tree.root, ())]
    while stack:
        node, path = stack.pop()
        path = path + (node,)
        if node.is_leaf:
            paths[node.label] = path
        stack.extend((child, path) for child in node.children)
    out = []
    for i, j in all_pairs(tree.labels):
        common = [a for a, b in zip(paths[i], paths[j]) if a is b]
        out.append(2.0 * common[-1].height)
    return out


class TestTreeDistanceVectors:
    def test_ultrametric_blocks_match_lca_reference(self, rng):
        for _ in range(20):
            labels = [f"s{k}" for k in range(rng.randint(1, 9))]
            rng.shuffle(labels)
            tree = UltrametricTree.from_map(labels, random_ultrametric_map(rng, sorted(labels)))
            assert tree.distances().tolist() == lca_distances(tree)
            assert not tree.distances().flags.writeable

    def test_from_distances_matches_per_value_components(self, rng):
        # the levels built one union-find pass per distinct value
        for _ in range(20):
            labels = tuple(f"s{k}" for k in range(rng.randint(2, 8)))
            m = random_ultrametric_map(rng, labels)
            values = [m[p] for p in all_pairs(labels)]
            merged = sorted(set(values))
            levels = HierarchySequence(tuple(
                components(labels, [p for p, w in zip(all_pairs(labels), values) if w <= v])
                for v in merged))
            expected = partition_tree(levels, merged)
            assert UltrametricTree.from_distances(labels, values).root == expected.root

    def test_weighted_matches_path_sum_reference(self, rng):
        # bit for bit, on parsed trees (labelled internal nodes, zero and
        # missing lengths, one label), re-rooted and random binary trees
        for _ in range(60):
            n = rng.randint(1, 10)
            tree = parse_newick(random_newick(rng, n))
            trees = [tree, WeightedTree(tree.labels[::-1], tree.edges)]
            if n > 1:
                trees.append(random_tree_metric(rng, n)[1])
            for t in trees:
                assert t.distances().tolist() == path_sum_distances(t)

    def test_distances_in_reorders_pairs(self, rng):
        d, tree = random_tree_metric(rng, 7)
        order = list(reversed(d.labels))
        moved = tree.distances_in(order)
        for (i, j), v in zip(all_pairs(order), moved.tolist()):
            assert v == tree.distance(i, j)



def fancy_square(values: np.ndarray, n: int) -> np.ndarray:
    """The reference for `_square`: two 2-D fancy-index assignments."""
    out = np.zeros((n, n), dtype=values.dtype)
    i, j = np.triu_indices(n, 1)
    out[i, j] = values
    out[j, i] = values
    return out


class TestFlatPairs:
    def test_flat_pairs_are_the_pair_cells(self):
        for n in range(12):
            upper, lower = core_module._flat_pairs(n)
            i, j = np.triu_indices(n, 1)
            assert upper.tolist() == (i * n + j).tolist()
            assert lower.tolist() == (j * n + i).tolist()
            assert not upper.flags.writeable and not lower.flags.writeable

    def test_square_matches_fancy_index_reference(self):
        gen = np.random.default_rng(22)
        for n in range(41):
            m = n * (n - 1) // 2
            for values in (gen.random(m) < 0.5, gen.integers(-128, 128, m, dtype=np.int8),
                           gen.standard_normal(m)):
                got, want = core_module._square(values, n), fancy_square(values, n)
                assert got.dtype == want.dtype and got.shape == (n, n)
                assert got.tobytes() == want.tobytes()
                assert got.flags.c_contiguous and got.flags.writeable

    def test_tree_distances_match_fancy_index_reference(self, rng):
        # 200 random trees: the ultrametric fill against twice the lca
        # heights, and distances_in in a shuffled order against square,
        # np.ix_ and pair-index reads, bit for bit
        for k in range(200):
            n = rng.randint(1, 12)
            if k % 2:
                labels = [f"s{t}" for t in range(n)]
                rng.shuffle(labels)
                tree = UltrametricTree.from_map(labels, random_ultrametric_map(rng, sorted(labels)))
                want = np.array(lca_distances(tree), dtype=np.float64)
                assert tree.distances().tobytes() == want.tobytes()
            else:
                tree = random_tree_metric(rng, n)[1]
            order = list(tree.labels)
            rng.shuffle(order)
            pos = [tree.labels.index(lab) for lab in order]
            want = fancy_square(tree.distances(), n)[np.ix_(pos, pos)][np.triu_indices(n, 1)]
            assert tree.distances_in(order).tobytes() == want.tobytes()

def single_linkage(n: int, values: np.ndarray) -> np.ndarray:
    """The single-linkage ultrametric of a table in `all_pairs` order: for
    each pair, the least over paths of the largest distance along the path."""
    u = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    u[i, j] = u[j, i] = values
    for k in range(n):
        np.minimum(u, np.maximum(u[:, k, None], u[None, k, :]), out=u)
    return u[i, j]


class TestLevelStepsReference:
    """Every pair of a level, joined in one union-find pass, joins the same
    components as the pairs of a minimum spanning tree of the levels."""

    @staticmethod
    def built(labels, values):
        """The tree's arrays and Newick string, or the error's text."""
        try:
            tree = UltrametricTree.from_distances(labels, values)
        except ValueError as exc:
            return str(exc)
        return (tree._parent.tobytes(), tree._height.tobytes(), tree._label.tobytes(),
                newick_string(tree))

    @staticmethod
    def partitions(labels, level, n_levels):
        return [(p.parts, p.part_of) for p in nested_components(labels, level, n_levels)]

    def test_matches_spanning_tree_steps(self, rng, monkeypatch):
        kinds = ["int", "cont", "near", "planted", "raw"]
        raised = 0
        for case in range(600):
            kind = kinds[case % len(kinds)]
            labels = tuple(f"s{k}" for k in range(rng.randint(1, 40)))
            n = len(labels)
            if kind == "planted":
                d = planted_ultrametric(rng, labels, sorted(rng.sample(range(1, 60), 8)))
                labels, values = d.labels, d.values
            else:
                if kind == "near":  # gaps on both sides of VALUE_MERGE_TOL
                    pool = [c + g * 1e-12 for c in rng.sample(range(1, 10), 3)
                            for g in (0.0, rng.uniform(0.5, 1.5), rng.uniform(1.5, 3.0))]
                elif kind == "cont":
                    pool = [rng.uniform(1.0, 9.0) for _ in range(n * n)]
                else:
                    pool = [1.0, 2.0, 3.0, 4.0]
                values = np.array([rng.choice(pool) for _ in all_pairs(labels)])
                if kind != "raw":
                    values = single_linkage(n, values)
            merged, level = merge_ties(values)
            n_levels = rng.randint(0, len(merged))
            got = self.built(labels, values), self.partitions(labels, level, n_levels)
            with monkeypatch.context() as patch:
                patch.setattr(core_module, "_level_steps", reference_level_steps)
                want = self.built(labels, values), self.partitions(labels, level, n_levels)
            assert got == want
            raised += isinstance(got[0], str)
        assert raised >= 100  # most raw tables are no ultrametric


class TestLpNormErrorPermuted:
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_permuted_labels_match_per_pair_reference(self, rng, p):
        for _ in range(10):
            d, tree = random_tree_metric(rng, rng.randint(2, 9))
            noisy = DistanceMatrix.from_pairs(d.labels, {
                (i, j): v + rng.choice([0.0, 0.25, 1.5]) for i, j, v in d.pairs()})
            shuffled = WeightedTree(tree.labels[::-1], tree.edges)
            assert shuffled.labels != noisy.labels
            diffs = [abs(shuffled.distance(i, j) - v) for i, j, v in noisy.pairs()]
            if p == math.inf:
                expected = max(diffs)
            else:
                expected = sum(x ** p for x in diffs) ** (1.0 / p)
            assert lp_norm_error(shuffled, noisy, p) == expected


class TestLpNormErrorSum:
    def test_l1_is_the_sequential_sum_in_pair_order(self, rng):
        # bit for bit the sum from the left, on values across 24 decades,
        # which a compensated or pairwise sum would round differently
        for _ in range(40):
            _, weighted = random_tree_metric(rng, rng.randint(2, 14))
            labels = list(weighted.labels)
            d = DistanceMatrix.from_pairs(labels, {
                p: 10.0 ** rng.uniform(-12.0, 12.0) for p in all_pairs(labels)})
            rng.shuffle(labels)
            for tree in (UltrametricTree.from_map(labels, random_ultrametric_map(rng, labels)),
                         WeightedTree(tuple(labels), weighted.edges)):
                diffs = [abs(tree.distance(i, j) - v) for i, j, v in d.pairs()]
                expected = functools.reduce(operator.add, diffs, 0.0)
                assert lp_norm_error(tree, d, 1) == expected
                assert lp_norm_error(tree.distances_in(d.labels), d, 1) == expected


class TestScale:
    """Sizes at which the object-graph trees took seconds; values only."""

    def test_caterpillar_from_distances(self):
        # pair (i, j), i < j, first meets at j: 999 nested merges
        n = 1000
        labels = tuple(f"x{k:04d}" for k in range(n))
        values = np.triu_indices(n, 1)[1].astype(np.float64)
        tree = UltrametricTree.from_distances(labels, values)
        assert np.array_equal(tree.distances(), values)
        assert tree.top_distance() == n - 1
        assert len(UltrametricTree(labels, tree.root).root.children) == 2

    def test_path_distances(self):
        # dyadic weights keep every path sum exact, in any order
        n = 1000
        nodes = tuple(f"p{k}" for k in range(n))
        weights = [0.25 + k % 7 for k in range(n - 1)]
        tree = WeightedTree(nodes, tuple(zip(nodes, nodes[1:], weights)))
        ends = np.concatenate(([0.0], np.cumsum(weights)))
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(tree.distances(), ends[j] - ends[i])
