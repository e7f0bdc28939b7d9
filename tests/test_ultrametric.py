import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

from treefit import ultrametric
from treefit.core import (
    DEFAULT_TOL,
    VALUE_MERGE_TOL,
    DistanceMatrix,
    HierarchySequence,
    Partition,
    UltrametricTree,
    WeightedTree,
    all_pairs,
    clique_edges,
    is_ultrametric,
    lp_norm_error,
    sym_diff_size,
)
from treefit.corrclust import EXACT_CAP
from treefit.hcc import fit_hcc
from treefit.io import newick_string, parse_newick
from treefit.lp import hierarchy_cost
from treefit.treemetric import fit_tree_metric, gromov_transform, pivot_subproblem
from treefit.oracle import exact_ultrametric_l1
from treefit.ultrametric import (
    UltrametricLevels,
    fit_levels,
    fit_ultrametric,
    hcc_instance_from_distances,
    hierarchy_to_ultrametric,
    level_distances,
    levels_to_ultrametric,
    slice_levels,
    star_tree,
)
from conftest import (partition_tree, planted_ultrametric, random_hierarchy, random_matrix,
                      ultrametric_to_hierarchy)


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


def shuffled(rng, d):
    """d with its labels in a random order."""
    labels = list(d.labels)
    rng.shuffle(labels)
    return DistanceMatrix.from_pairs(labels, d.d)


def integer_tree_metric(rng, n):
    """Path lengths of a random tree with integer edge weights 1..3, each
    label hanging from an earlier one: every pivot transform of it is an
    ultrametric in exact float arithmetic."""
    labels = [f"t{k:02d}" for k in range(n)]
    edges = tuple((labels[rng.randrange(k)], labels[k], float(rng.randint(1, 3)))
                  for k in range(1, n))
    return DistanceMatrix.from_pairs(labels, WeightedTree(tuple(labels), edges).distance_map())


def strategies(n, rng):
    """Each strategy the exact cap allows for n labels, with its seed."""
    out = [("pivot-sweep", None), ("kwik", rng.randrange(1000))]
    return out + [("exact", None)] if n <= EXACT_CAP else out


def pipeline_fit(d, strategy, seed):
    """The reference: fit_hcc on the fit's own instance, then
    hierarchy_to_ultrametric, as (Newick, l1_error, bound, levels)."""
    inst, levels = hcc_instance_from_distances(d)
    result = fit_hcc(inst, strategy=strategy, seed=seed)
    tree = hierarchy_to_ultrametric(result.hierarchy, levels)
    return newick_string(tree), lp_norm_error(tree, d, 1), result.lp_lower_bound, \
        levels.n_levels


def instance_key(inst):
    """An HccInstance, or None, as a value that compares with ==."""
    return None if inst is None else (
        inst.labels, inst.deltas, [es.mask.tolist() for es in inst.edge_sets])


def exact_path_fit(d, strategy, seed):
    fitted = fit_ultrametric(d, strategy=strategy, seed=seed)
    details = dict(fitted.details)
    assert instance_key(details.pop("instance")) == \
        instance_key(hcc_instance_from_distances(d)[0])
    assert details == {"fast_path": True, "hcc_cost": 0.0, "lp_solution": None}
    return newick_string(fitted.tree), fitted.l1_error, fitted.lp_lower_bound, \
        fitted.num_levels


class TestExactPath:
    """An input whose every level is a union of cliques skips clustering and
    gets the tree, error, bound and level count of the pipeline."""

    def test_planted_tables_in_any_label_order(self):
        rng = random.Random(26)
        for n in range(1, 41):
            for _ in range(3):
                k = rng.randint(1, 6)
                values = sorted({float(rng.randint(1, 40)) / 4 for _ in range(k)})
                d = shuffled(rng, planted_ultrametric(
                    rng, [f"s{x:02d}" for x in range(n)], values))
                if len(d.distinct_values()) < 2:
                    continue  # no levels, so no pipeline to compare with
                for strategy, seed in strategies(n, rng):
                    assert exact_path_fit(d, strategy, seed) == pipeline_fit(d, strategy, seed)

    def test_one_label_and_one_value(self):
        for labels in (("solo",), tuple("dcab")):
            d = DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), 2.5))
            got = exact_path_fit(d, "pivot-sweep", None)
            assert got == (newick_string(star_tree(labels, 2.5 if len(labels) > 1 else 0.0)),
                           0.0, 0.0, 0)

    def test_values_merged_within_the_tolerance(self):
        rng = random.Random(7)
        checked = 0
        for n in range(3, 25):
            d = planted_ultrametric(rng, [f"s{x:02d}" for x in range(n)], [1.0, 2.0, 4.0])
            # nudge each value up by less than the merge tolerance
            d = shuffled(rng, DistanceMatrix(d.labels, d.values + np.array(
                [rng.choice([0.0, 0.3, 0.6, 0.9]) * VALUE_MERGE_TOL for _ in d.values])))
            if len(set(d.values.tolist())) == len(d.distinct_values()):
                continue
            for strategy, seed in strategies(n, rng):
                got = exact_path_fit(d, strategy, seed)
                assert got == pipeline_fit(d, strategy, seed)
                assert 0.0 < got[1] < VALUE_MERGE_TOL * len(d.values)
            checked += 1
        assert checked >= 15

    def test_exact_tree_metrics_in_tree_mode(self):
        rng = random.Random(11)
        subfits = 0
        real = ultrametric.fit_levels

        def counting(*args, **kwargs):
            nonlocal subfits
            levels, reps, bound, details = real(*args, **kwargs)
            subfits += "hcc" not in details
            return levels, reps, bound, details

        for n in range(2, 13):
            for _ in range(4):
                d = shuffled(rng, integer_tree_metric(rng, n))
                strategy, seed = rng.choice(strategies(n, rng))
                with mock.patch("treefit.treemetric.fit_levels", counting):
                    fitted = fit_tree_metric(d, strategy=strategy, seed=seed)
                with mock.patch.object(ultrametric, "clique_levels", lambda inst: None):
                    reference = fit_tree_metric(d, strategy=strategy, seed=seed)
                assert newick_string(fitted) == newick_string(reference)
                assert (fitted.l1_error, fitted.lp_lower_bound, fitted.num_levels) == \
                    (reference.l1_error, reference.lp_lower_bound, reference.num_levels)
                assert fitted.details["per_pivot_error"] == reference.details["per_pivot_error"]
                assert fitted.l1_error == 0.0 and fitted.details["hcc"] is None
        assert subfits == sum(n for n in range(2, 13)) * 4

    def test_one_pair_away_from_exact_takes_the_pipeline(self):
        rng = random.Random(5)
        d = planted_ultrametric(rng, [f"s{x:02d}" for x in range(12)], [1.0, 2.0, 3.5, 5.0])
        assert "hcc" not in fit_ultrametric(d).details
        top = max(d.values)
        # the first pair that breaks the ultrametric when raised to the top value
        for k in np.flatnonzero(d.values < top):
            moved = d.values.copy()
            moved[k] = top
            near = DistanceMatrix(d.labels, moved)
            if not is_ultrametric(near.d):
                break
        else:
            pytest.fail("no pair breaks the ultrametric")
        fitted = fit_ultrametric(near)
        assert "hcc" in fitted.details and fitted.l1_error > 0
        assert ultrametric.clique_levels(hcc_instance_from_distances(near)[0]) is None


class TestFitRecord:
    """Every fit records the LP behind its bound: the instance, in tree mode
    the kept pivot's subproblem, and the point reaching the bound."""

    @staticmethod
    def tables(rng, n):
        labels = [f"s{x:02d}" for x in range(n)]
        return (planted_ultrametric(rng, labels, [1.0, 2.0, 4.0]),
                shuffled(rng, integer_tree_metric(rng, n)),
                random_matrix(rng, labels, (1.0, 2.0, 3.0, 4.0)),
                random_matrix(rng, labels, (1.0, 2.5)),
                DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), 2.0)))

    def test_record_in_both_modes(self):
        rng = random.Random(29)
        solved = skipped = 0
        for n in range(1, 10):
            for d in self.tables(rng, n):
                for fitted in (fit_ultrametric(d), fit_tree_metric(d)):
                    inst, point = fitted.details["instance"], fitted.details["lp_solution"]
                    sub = d if fitted.kind == "ultrametric" else pivot_subproblem(
                        gromov_transform(d, fitted.details["pivot"]))
                    assert instance_key(inst) == instance_key(hcc_instance_from_distances(sub)[0])
                    assert (0 if inst is None else inst.n_levels) == fitted.num_levels
                    hcc = fitted.details.get("hcc")
                    if point is None:
                        assert fitted.lp_lower_bound == 0.0
                        skipped += 1
                    else:
                        assert point.objective == fitted.lp_lower_bound
                        solved += 1
                    if fitted.kind == "ultrametric":
                        assert hcc is None or hcc.lp_solution is point
                    else:  # the sub-fit solved no bound, and keeps none
                        assert hcc is None or (hcc.lp_lower_bound, hcc.lp_solution) == (0.0, None)
        assert solved > 20 and skipped > 20


class TestLevelDistances:
    """`level_distances` gives the pair values of the tree the fit builds
    from its levels, bit for bit, on both of `fit_levels`'s routes."""

    @staticmethod
    def tables(rng):
        for n in (1, 2):
            labels = [f"s{x}" for x in range(n)]
            yield DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), 3.7))
        for n in range(2, 14):
            labels = [f"s{x:02d}" for x in range(n)]
            yield DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), 0.1))
            planted = planted_ultrametric(rng, labels, [0.1, 0.3, 1.7, 2.2])
            yield shuffled(rng, planted)
            # exact up to values merged within the tolerance
            yield DistanceMatrix(planted.labels, planted.values + np.array(
                [rng.choice([0.0, 0.7]) * VALUE_MERGE_TOL for _ in planted.values]))
            yield random_matrix(rng, labels, (1.0, 2.0, 3.5, 4.0))
            yield DistanceMatrix.from_pairs(
                labels, {p: rng.uniform(0.1, 9.0) for p in all_pairs(labels)})

    def test_bit_for_bit_the_tree_distances(self):
        rng = random.Random(30)
        routes = set()
        for d in self.tables(rng):
            levels, reps, bound, details = fit_levels(d, lower_bound=False)
            got = level_distances(d.n, levels, reps)
            tree = levels_to_ultrametric(d.labels, levels, reps)
            assert got.dtype == np.float64
            assert got.tobytes() == tree.distances().tobytes()
            fitted = fit_ultrametric(d, lower_bound=False)
            assert got.tobytes() == fitted.tree.distances().tobytes()
            assert (bound, fitted.num_levels) == (fitted.lp_lower_bound, levels.n_levels)
            routes.add("hcc" in details)
        assert routes == {True, False}


class TestArgumentChecks:
    """Bad arguments raise before any shortcut, on every kind of table."""

    @staticmethod
    def tables(n):
        labels = [f"s{x:02d}" for x in range(n)]
        one_value = DistanceMatrix.from_pairs(labels, dict.fromkeys(all_pairs(labels), 2.0))
        exact = planted_ultrametric(random.Random(1), labels, [1.0, 2.0, 3.0])
        return one_value, exact, random_matrix(random.Random(2), labels, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("mode", ["ultrametric", "tree"])
    @pytest.mark.parametrize("kwargs, message", [
        ({"strategy": "bogus"}, "unknown strategy 'bogus'"),
        ({"feas_tol": -1.0}, "feas_tol must be finite"),
        ({"feas_tol": math.nan}, "feas_tol must be finite"),
        ({"strategy": "exact"}, f"capped at n={EXACT_CAP}"),
    ])
    def test_bad_argument_raises(self, mode, kwargs, message):
        n = EXACT_CAP + 1 if kwargs.get("strategy") == "exact" else 6
        for d in self.tables(n):
            if mode == "tree":
                with pytest.raises(ValueError, match=message):
                    fit_tree_metric(d, **kwargs)
            else:
                for lower_bound in (True, False):
                    with pytest.raises(ValueError, match=message):
                        fit_ultrametric(d, lower_bound=lower_bound, **kwargs)

    @pytest.mark.parametrize("fit", [fit_ultrametric, fit_tree_metric])
    def test_empty_table_raises(self, fit):
        d = DistanceMatrix.from_pairs([], {})
        with pytest.raises(ValueError, match="no labels"):
            fit(d)
