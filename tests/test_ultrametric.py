import itertools
import math
import random

import numpy as np
import pytest

from treefit.core import (
    DEFAULT_TOL,
    DistanceMatrix,
    HierarchySequence,
    Partition,
    UltrametricTree,
    all_pairs,
    clique_edges,
    is_ultrametric,
    lp_norm_error,
    sym_diff_size,
)
from treefit.io import newick_string, parse_newick
from treefit.lp import hierarchy_cost
from treefit.oracle import exact_ultrametric_l1
from treefit.ultrametric import (
    UltrametricLevels,
    fit_ultrametric,
    hcc_instance_from_distances,
    hierarchy_to_ultrametric,
    slice_levels,
    star_tree,
    ultrametric_to_hierarchy,
)
from conftest import partition_tree, planted_ultrametric, random_hierarchy


def caterpillar(n):
    """Level t adds x(t+1) to the block of x0..xt, so every pair (xi, xj)
    with i < j first meets at level j - 1, at distance j."""
    labels = tuple(f"x{k:04d}" for k in range(n))
    hierarchy = HierarchySequence(tuple(
        Partition.from_parts(labels, [labels[:t + 2]] + [[x] for x in labels[t + 2:]])
        for t in range(n - 2)))
    levels = UltrametricLevels(tuple(float(t + 1) for t in range(n - 1)))
    return labels, hierarchy_to_ultrametric(hierarchy, levels)


def assert_caterpillar_distances(labels, tree):
    realized = tree.distance_map()
    assert len(realized) == len(labels) * (len(labels) - 1) // 2
    for a, b in all_pairs(range(len(labels))):
        assert realized[(labels[a], labels[b])] == float(b)


class TestInstanceFromDistances:
    def test_two_values(self):
        d = DistanceMatrix.from_pairs("abc", {
            ("a", "b"): 1.0, ("a", "c"): 3.0, ("b", "c"): 3.0})
        inst, levels = hcc_instance_from_distances(d)
        assert levels.values == (1.0, 3.0)
        assert levels.n_levels == 1
        assert inst.deltas == (2.0,)
        assert inst.edge_sets[0].edges == frozenset({("a", "b")})

    def test_all_equal_short_circuits(self):
        d = DistanceMatrix.from_pairs("abc", dict.fromkeys(
            [("a", "b"), ("a", "c"), ("b", "c")], 2.0))
        inst, levels = hcc_instance_from_distances(d)
        assert inst is None
        assert levels.values == (2.0,)

    @pytest.mark.parametrize("labels, value", [(("a",), 0.0), (tuple("abcd"), 2.5)])
    def test_one_value_slices_to_its_star(self, labels, value):
        # one label has no distance, and its star sits at 0.0
        d = DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), value))
        assert slice_levels(labels, d.values[:1].tolist(), np.zeros(len(d.values), int)) \
            == hcc_instance_from_distances(d) == (None, UltrametricLevels((value,)))
        fitted = fit_ultrametric(d)
        tree, cost = exact_ultrametric_l1(d)
        assert newick_string(fitted.tree) == newick_string(tree) \
            == newick_string(star_tree(labels, value))
        assert fitted.l1_error == cost == 0.0
        assert (fitted.lp_lower_bound, fitted.num_levels) == (0.0, 0)

    def test_edge_sets_nest(self, rng):
        for _ in range(10):
            labels = [f"s{k}" for k in range(8)]
            d = planted_ultrametric(rng, labels, sorted(
                rng.uniform(0.5, 9.0) for _ in range(3)))
            inst, _ = hcc_instance_from_distances(d)
            for lo, hi in zip(inst.edge_sets, inst.edge_sets[1:]):
                assert lo.edges <= hi.edges

    def test_delta0_and_deltas(self):
        d = DistanceMatrix.from_pairs("abc", {
            ("a", "b"): 1.0, ("a", "c"): 2.0, ("b", "c"): 4.0})
        inst, levels = hcc_instance_from_distances(d)
        assert levels.values[0] == 1.0  # delta0, the lowest value
        assert inst.deltas == (1.0, 2.0)


class TestHierarchyToUltrametric:
    def test_lca_heights(self):
        p = Partition.from_parts("abc", [{"a", "b"}, {"c"}])
        tree = hierarchy_to_ultrametric(
            HierarchySequence((p,)), UltrametricLevels((1.0, 3.0)))
        assert tree.distance("a", "b") == pytest.approx(1.0)
        assert tree.distance("a", "c") == pytest.approx(3.0)
        assert tree.distance("b", "c") == pytest.approx(3.0)

    def test_star_short_circuit(self):
        tree = star_tree("abcd", 2.0)
        for i, j in itertools.combinations("abcd", 2):
            assert tree.distance(i, j) == pytest.approx(2.0)

    def test_cost_identity_on_random_hierarchies(self, rng):
        # weighted symmetric differences against the thresholded edge sets
        # equal the total tree error, exactly
        for _ in range(40):
            n = rng.randint(4, 9)
            labels = [f"s{k}" for k in range(n)]
            k = rng.randint(2, 4)
            d = planted_ultrametric(rng, labels, sorted(
                {round(rng.uniform(0.5, 9.0), 3) for _ in range(k)}))
            inst, levels = hcc_instance_from_distances(d)
            chain = random_hierarchy(rng, d.labels, levels.n_levels)
            hierarchy = HierarchySequence(tuple(chain))
            tree = hierarchy_to_ultrametric(hierarchy, levels)
            lhs = hierarchy_cost(inst, hierarchy)
            rhs = lp_norm_error(tree, d, 1)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_matches_the_pair_map_route(self, rng):
        # the tree built from the partitions equals the tree recovered from
        # the pair map of first shared levels
        for _ in range(60):
            n = rng.randint(2, 9)
            labels = tuple(f"s{k}" for k in range(n))
            values = sorted({round(rng.uniform(0.5, 9.0), 3)
                             for _ in range(rng.randint(2, 5))})
            if len(values) < 2:
                continue
            levels = UltrametricLevels(tuple(values))
            hierarchy = HierarchySequence(tuple(
                random_hierarchy(rng, labels, levels.n_levels)))
            ref = {}
            for i, j in all_pairs(labels):
                ref[(i, j)] = next(
                    (values[t] for t, level in enumerate(hierarchy.levels)
                     if level.same_part(i, j)), values[-1])
            tree = hierarchy_to_ultrametric(hierarchy, levels)
            expected = UltrametricTree.from_map(labels, ref)
            assert tree == expected
            assert newick_string(tree) == newick_string(expected)

    def test_matches_the_per_level_reference(self, rng):
        for _ in range(60):
            labels = tuple(f"s{k}" for k in range(rng.randint(1, 9)))
            values = sorted({round(rng.uniform(0.5, 9.0), 3)
                             for _ in range(rng.randint(2, 5))})
            if len(values) < 2:
                continue
            levels = UltrametricLevels(tuple(values))
            chain = random_hierarchy(rng, labels, levels.n_levels)
            whole = Partition.from_parts(labels, [labels])
            expected = partition_tree(HierarchySequence(tuple(chain) + (whole,)), values)
            assert hierarchy_to_ultrametric(HierarchySequence(tuple(chain)), levels) == expected
            assert star_tree(labels, values[0]) == partition_tree(
                HierarchySequence((whole,)), values[:1])

    def test_deep_caterpillar(self):
        labels, tree = caterpillar(300)
        assert_caterpillar_distances(labels, tree)

    def test_deeper_than_the_recursion_limit(self):
        labels, tree = caterpillar(1500)
        assert_caterpillar_distances(labels, tree)
        back = parse_newick(newick_string(tree))
        assert sorted(back.labels) == sorted(labels)
        assert len(back.edges) == 2 * len(labels) - 2
        # every leaf sits at the root's height below the parsed root
        adj = {}
        for u, v, w in back.edges:
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        depth = {back.root: 0.0}
        stack = [back.root]
        while stack:
            node = stack.pop()
            for nxt, w in adj[node]:
                if nxt not in depth:
                    depth[nxt] = depth[node] + w
                    stack.append(nxt)
        assert all(depth[lab] == pytest.approx(tree.root.height) for lab in labels)


class TestUltrametricToHierarchy:
    def test_round_trip_identity(self, rng):
        for _ in range(15):
            labels = [f"s{k}" for k in range(10)]
            values = sorted({round(rng.uniform(0.5, 9.0), 3) for _ in range(5)})
            d = planted_ultrametric(rng, labels, values)
            inst, levels = hcc_instance_from_distances(d)
            chain = random_hierarchy(rng, d.labels, levels.n_levels)
            hierarchy = HierarchySequence(tuple(chain))
            tree = hierarchy_to_ultrametric(hierarchy, levels)
            back = ultrametric_to_hierarchy(tree, levels)
            for got, want in zip(back.levels, hierarchy.levels):
                # identical up to the canonical completion: compare edges
                assert sym_diff_size(clique_edges(got), clique_edges(want)) == 0

    def test_star_gives_singletons_below_top(self):
        levels = UltrametricLevels((1.0, 2.0, 3.0))
        tree = star_tree("abc", 3.0)
        h = ultrametric_to_hierarchy(tree, levels)
        assert all(len(p) == 1 for p in h.levels[0].parts)
        assert all(len(p) == 1 for p in h.levels[1].parts)

    def test_foreign_distance_rejected(self):
        levels = UltrametricLevels((1.0, 3.0))
        tree = star_tree("abc", 2.0)
        with pytest.raises(ValueError):
            ultrametric_to_hierarchy(tree, levels)


class TestFitUltrametric:
    def test_exact_input_zero_error(self, rng):
        for _ in range(5):
            labels = [f"s{k}" for k in range(10)]
            d = planted_ultrametric(rng, labels, sorted(
                {round(rng.uniform(0.5, 9.0), 2) for _ in range(4)}))
            fitted = fit_ultrametric(d)
            assert fitted.l1_error <= 1e-9
            assert fitted.lp_lower_bound == 0.0

    def test_three_point_line(self):
        d = DistanceMatrix.from_pairs(("1", "2", "3"), {
            ("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})
        fitted = fit_ultrametric(d)
        assert fitted.l1_error >= 1.0 - 1e-9  # exact optimum is 1
        assert fitted.l1_error == pytest.approx(1.0)

    def test_trivial_instance_star(self):
        d = DistanceMatrix.from_pairs("abcd", dict.fromkeys(
            itertools.combinations("abcd", 2), 5.0))
        fitted = fit_ultrametric(d)
        assert fitted.l1_error == 0.0
        assert fitted.num_levels == 0

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_reported_error_is_measured(self, scale):
        # at 1e-13 every value merges into one level and the star is returned
        rng = random.Random(3)
        labels = [f"s{k}" for k in range(7)]
        d = DistanceMatrix.from_pairs(labels, {
            p: rng.randint(1, 4) * scale for p in itertools.combinations(labels, 2)})
        fitted = fit_ultrametric(d)
        assert fitted.l1_error == lp_norm_error(fitted.tree, d, 1)
        assert fitted.l1_error > 0
        if scale < 1:
            assert fitted.num_levels == 0
            assert fitted.lp_lower_bound == 0.0

    def test_large_planted_recovered_exactly(self):
        labels = [f"s{k:03d}" for k in range(224)]
        d = planted_ultrametric(random.Random(224), labels, [1.0, 2.0, 3.0, 5.0,
                                                             8.0, 13.0, 21.0])
        fitted = fit_ultrametric(d)
        assert fitted.num_levels == 6
        assert fitted.l1_error == 0.0
        assert fitted.lp_lower_bound == 0.0
        assert fitted.tree.distance_map() == d.d

    def test_output_is_ultrametric_with_input_values(self, rng):
        for _ in range(8):
            n = rng.randint(4, 8)
            labels = [f"s{k}" for k in range(n)]
            values = {p: round(rng.uniform(1.0, 5.0), 2)
                      for p in itertools.combinations(labels, 2)}
            d = DistanceMatrix.from_pairs(labels, values)
            fitted = fit_ultrametric(d)
            realized = fitted.tree.distance_map()
            assert is_ultrametric(realized, tol=1e-9)
            allowed = set(d.distinct_values())
            for v in realized.values():
                assert any(abs(v - w) <= 1e-9 for w in allowed)

    def test_hcc_cost_equals_l1_error(self, rng):
        for _ in range(6):
            labels = [f"s{k}" for k in range(6)]
            values = {p: float(rng.choice([1.0, 2.0, 3.0]))
                      for p in itertools.combinations(labels, 2)}
            d = DistanceMatrix.from_pairs(labels, values)
            fitted = fit_ultrametric(d)
            assert fitted.l1_error == pytest.approx(
                fitted.details["hcc_cost"], abs=1e-9)

    def test_perturbed_planted_within_lp_factor(self, rng):
        # n=32 planted hierarchy with ~5% of pairs moved to other level
        # values; the achieved error stays within a small factor of the LP
        # lower bound the run itself reports
        labels = [f"s{k:02d}" for k in range(32)]
        d = planted_ultrametric(rng, labels, [1.0, 2.0, 4.0, 6.5, 9.0])
        values = list(d.distinct_values())
        mapping = dict(d.d)
        pairs = list(mapping.items())
        for pair, v in rng.sample(pairs, int(0.05 * len(pairs))):
            mapping[pair] = rng.choice([w for w in values if w != v])
        noisy = DistanceMatrix.from_pairs(d.labels, mapping)
        fitted = fit_ultrametric(noisy)
        assert fitted.lp_lower_bound > 0
        assert fitted.l1_error <= 4.0 * fitted.lp_lower_bound


class TestEdgeCases:
    def test_single_label(self):
        d = DistanceMatrix.from_pairs(("solo",), {})
        fitted = fit_ultrametric(d)
        assert fitted.l1_error == 0.0
        assert fitted.num_levels == 0

    def test_two_labels(self):
        d = DistanceMatrix.from_pairs(("a", "b"), {("a", "b"): 3.0})
        fitted = fit_ultrametric(d)
        assert fitted.l1_error == 0.0
        assert fitted.tree.distance("a", "b") == pytest.approx(3.0)


class TestNearTieLevels:
    def test_merged_ties_and_close_levels_do_not_leak(self):
        d = DistanceMatrix.from_pairs("abcd", {
            ("a", "b"): 1.0, ("a", "c"): 1.0 + 5e-13, ("b", "c"): 1.0 + 5e-10,
            ("a", "d"): 2.0, ("b", "d"): 2.0, ("c", "d"): 2.0})
        inst, levels = hcc_instance_from_distances(d)
        assert len(levels.values) == 3  # 5e-13 merges, 5e-10 stays distinct
        assert ("a", "b") in inst.edge_sets[0].edges
        assert ("a", "c") in inst.edge_sets[0].edges
        assert ("b", "c") not in inst.edge_sets[0].edges

    def test_level_is_the_value_a_distance_merged_into(self):
        # a-c merges into 1.0 but lies nearer the kept 1 + 1.05e-12: it sits
        # on 1.0's level, as distinct_values merges it
        d = DistanceMatrix.from_pairs("abcd", {
            ("a", "b"): 1.0, ("a", "c"): 1.0 + 0.9e-12, ("a", "d"): 1.0 + 1.05e-12,
            ("b", "c"): 2.0, ("b", "d"): 3.0, ("c", "d"): 2.0})
        inst, levels = hcc_instance_from_distances(d)
        assert levels.values == d.distinct_values() == (1.0, 1.0 + 1.05e-12, 2.0, 3.0)
        assert inst.edge_sets[0].edges == {("a", "b"), ("a", "c")}

    def test_exact_tie_snaps_to_the_lower_value(self):
        # mid merges into lo and lies exactly halfway between lo and hi
        ulp = math.ulp(1.0)
        lo, mid, hi = 1.0, 1.0 + 4096 * ulp, 1.0 + 8192 * ulp
        d = DistanceMatrix.from_pairs("abcd", {
            ("a", "b"): lo, ("a", "c"): mid, ("b", "c"): hi,
            ("a", "d"): 2.0, ("b", "d"): 2.0, ("c", "d"): 2.0})
        inst, levels = hcc_instance_from_distances(d)
        assert levels.values == (lo, hi, 2.0)
        assert inst.edge_sets[0].edges == {("a", "b"), ("a", "c")}

    def test_tree_distances_snap_within_value_tol_only(self):
        levels = UltrametricLevels((1.0, 3.0))
        near = ultrametric_to_hierarchy(star_tree("abc", 3.0 + 0.5 * DEFAULT_TOL), levels)
        assert all(len(p) == 1 for p in near.levels[0].parts)
        with pytest.raises(ValueError):
            ultrametric_to_hierarchy(star_tree("abc", 3.0 + 1.5 * DEFAULT_TOL), levels)
