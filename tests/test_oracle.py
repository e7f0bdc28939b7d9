import inspect
import itertools
import random
import sys

import numpy as np
import pytest

from treefit import oracle
from treefit.core import (
    DistanceMatrix,
    EdgeSet,
    HierarchySequence,
    Partition,
    UltrametricTree,
    all_pairs,
    clique_edges,
    lp_norm_error,
)
from treefit.lp import HccInstance, hierarchy_cost
from treefit.oracle import (
    exact_corr_cluster,
    exact_hca,
    exact_hcc,
    _refines,
    exact_ultrametric_l1,
)
from treefit.ultrametric import fit_ultrametric, hcc_instance_from_distances
from conftest import (
    _interior_nodes,
    first_occurrence_strings,
    flatten_to_12,
    partition_tree,
    random_matrix,
    random_partition,
    random_ultrametric_map,
    reference_exact_hcc,
)


def es(universe, pairs):
    return EdgeSet.from_pairs(universe, pairs)


class TestExactCorrCluster:
    def test_complete(self):
        u = tuple("abc")
        _, cost = exact_corr_cluster(u, es(u, list(all_pairs(u))))
        assert cost == 0

    def test_path(self):
        u = ("1", "2", "3")
        _, cost = exact_corr_cluster(u, es(u, [("1", "2"), ("2", "3")]))
        assert cost == 1

    def test_five_cycle(self):
        # enumeration over all Bell(5)=52 partitions gives 3 (e.g. two edge
        # clusters plus a singleton pay the remaining three cycle edges)
        u = tuple("abcde")
        cyc = es(u, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        _, cost = exact_corr_cluster(u, cyc)
        assert cost == 3

    def test_cap(self):
        u = tuple(f"s{k}" for k in range(10))
        with pytest.raises(ValueError):
            exact_corr_cluster(u, es(u, []))

    def test_matches_independent_assignment_search(self, rng):
        u = tuple(f"s{k}" for k in range(5))
        pool = list(all_pairs(u))
        for _ in range(5):
            e = es(u, [p for p in pool if rng.random() < 0.5])
            _, cost = exact_corr_cluster(u, e)
            best = min(
                len(e.edges ^ clique_edges(Partition.from_parts(
                    u, [{lab for lab, g in zip(u, assign) if g == k}
                        for k in set(assign)])).edges)
                for assign in itertools.product(range(5), repeat=5))
            assert cost == best


class TestExactHca:
    def test_hierarchical_input_costs_zero(self, rng):
        labels = tuple(f"s{k}" for k in range(5))
        q = random_partition(rng, labels)
        h, cost = exact_hca(labels, [q], [2.0])
        assert cost == 0.0
        assert clique_edges(h.levels[0]).edges == clique_edges(q).edges

    def test_crossing_pair(self):
        uni = tuple("abcd")
        q1 = Partition.from_parts(uni, [{"a", "b"}, {"c", "d"}])
        q2 = Partition.from_parts(uni, [{"a", "c"}, {"b", "d"}])
        _, cost = exact_hca(uni, [q1, q2], [1.0, 1.0])
        assert cost == 2.0

    def test_single_level_agrees_with_corr_cluster(self, rng):
        labels = tuple(f"s{k}" for k in range(5))
        for _ in range(5):
            q = random_partition(rng, labels)
            edges = clique_edges(q)
            _, hca_cost = exact_hca(labels, [q], [1.0])
            _, cc_cost = exact_corr_cluster(labels, edges)
            assert hca_cost == cc_cost

    def test_caps(self, rng):
        # one cap, exact_hcc's: n <= 7, at any number of levels
        labels = tuple(f"s{k}" for k in range(8))
        with pytest.raises(ValueError):
            exact_hca(labels, [Partition.singletons(labels)], [1.0])
        small, deltas = labels[:7], [1.0, 2.0, 0.5, 1.5]
        partitions = [random_partition(rng, small) for _ in deltas]
        inst = HccInstance.from_partitions(small, deltas, partitions)
        assert exact_hca(small, partitions, deltas) == reference_exact_hcc(inst)

    def test_caps_keep_their_messages(self):
        # exact_hca is exact_hcc on clique edge sets, so both name its n=7 cap
        labels = tuple(f"s{k}" for k in range(8))
        inst = HccInstance.from_partitions(labels, [1.0], [Partition.singletons(labels)])
        with pytest.raises(ValueError, match="capped at n=7"):
            exact_hcc(inst)
        with pytest.raises(ValueError, match="capped at n=7"):
            exact_hca(labels, [Partition.singletons(labels)], [1.0])
        small = tuple("abcd")
        assert exact_hca(small, [Partition.singletons(small)] * 4, [1.0] * 4)[1] == 0.0

    def test_dp_matches_explicit_chain_enumeration(self, rng):
        # independent check of the level DP against brute-force chains
        labels = tuple("abcd")
        all_parts = [Partition(labels, tuple(
            frozenset(lab for lab, k in zip(labels, row) if k == part)
            for part in range(max(row) + 1))) for row in first_occurrence_strings(4)]
        for _ in range(4):
            qs = [random_partition(rng, labels) for _ in range(3)]
            inst = HccInstance.from_partitions(labels, [1.0, 1.5, 0.75], qs)
            _, dp_cost = exact_hcc(inst)
            best = min(
                hierarchy_cost(inst, HierarchySequence((p1, p2, p3)))
                for p1, p2, p3 in itertools.product(all_parts, repeat=3)
                if p1.refines(p2) and p2.refines(p3))
            assert dp_cost == pytest.approx(best)

    def test_refinement_relation_is_built_once_per_n(self):
        labels = tuple(f"s{k}" for k in range(5))
        inst = HccInstance.from_partitions(
            labels, [1.0, 2.0], [Partition.singletons(labels),
                                 Partition.from_parts(labels, [labels])])
        _refines.cache_clear()
        assert exact_hcc(inst)[1] == exact_hcc(inst)[1] == 0.0
        info = _refines.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not _refines(5).flags.writeable

    def test_matches_reference_dp(self):
        # 312 seeded instances: n 1..7, 1..6 levels, random or clique edge
        # sets, integer or continuous weights, two of each up to n = 6 and
        # one at n = 7, where the reference is slow; the same cost and chain
        rng = random.Random(20)
        for n, n_levels, edges, weights, rep in itertools.product(
                range(1, 8), range(1, 7), ("random", "clique"), ("int", "cont"), range(2)):
            if n == 7 and rep:
                continue
            labels = tuple(f"s{k}" for k in range(n))
            if edges == "random":
                pool = list(all_pairs(labels))
                density = rng.uniform(0.1, 0.9)
                edge_sets = [es(labels, [p for p in pool if rng.random() < density])
                             for _ in range(n_levels)]
            else:
                edge_sets = [clique_edges(random_partition(rng, labels))
                             for _ in range(n_levels)]
            deltas = [float(rng.randint(1, 5)) if weights == "int" else rng.uniform(0.1, 3.0)
                      for _ in range(n_levels)]
            inst = HccInstance(labels, tuple(deltas), tuple(edge_sets))
            got, cost = exact_hcc(inst)
            want, want_cost = reference_exact_hcc(inst)
            assert cost == want_cost
            assert [(p.parts, p.part_of) for p in got.levels] == \
                [(p.parts, p.part_of) for p in want.levels]


class TestExactUltrametric:
    def test_already_ultrametric(self):
        d = DistanceMatrix.from_pairs("abc", {
            ("a", "b"): 1.0, ("a", "c"): 3.0, ("b", "c"): 3.0})
        _, cost = exact_ultrametric_l1(d)
        assert cost == 0.0

    def test_line_three_points(self):
        d = DistanceMatrix.from_pairs(("1", "2", "3"), {
            ("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})
        tree, cost = exact_ultrametric_l1(d)
        assert cost == pytest.approx(1.0)

    def test_two_cliques_fit_exactly(self):
        d = DistanceMatrix.from_pairs(("1", "2", "3", "4"), {
            ("1", "2"): 1.0, ("3", "4"): 1.0, ("1", "3"): 2.0,
            ("1", "4"): 2.0, ("2", "3"): 2.0, ("2", "4"): 2.0})
        _, cost = exact_ultrametric_l1(d)
        assert cost == 0.0

    def test_merged_star_error_is_measured(self):
        # values 1..4 scaled by 1e-13 all merge for the fit, which returns a
        # star; the oracle slices the values unmerged, so it finds the
        # optimum at this scale too, 14 times the scale as at scale 1
        rng = random.Random(3)
        labels = tuple(f"s{k}" for k in range(7))
        d = DistanceMatrix.from_pairs(labels, {p: rng.randint(1, 4) * 1e-13
                                               for p in all_pairs(labels)})
        tree, cost = exact_ultrametric_l1(d)
        assert cost == lp_norm_error(tree, d, 1)
        assert cost <= fit_ultrametric(d).l1_error
        assert cost == pytest.approx(14e-13, rel=1e-12)

    def test_never_above_a_fit_on_near_ties(self):
        # 50 tables drawn like the `near` kind of scripts/compare_fits.py:
        # three integer centres, each with two values 0.5e-12 to 1.5e-12
        # apart above it, so the fit merges some of them. Searching merged
        # levels put the optimum above the fit on 4 of these tables, among
        # them ultrametric-n5-near-9 (6.000000000004304 vs 6.000000000003055)
        for n, rep in itertools.product(range(3, 8), range(10)):
            rng = random.Random(f"ultrametric-n{n}-near-{rep}")
            pool = []
            for centre in rng.sample(range(1, 10), 3):
                pool.append(float(centre))
                for _ in range(2):
                    pool.append(pool[-1] + rng.uniform(0.5e-12, 1.5e-12))
            labels = [f"s{k}" for k in range(n)]
            d = DistanceMatrix.from_pairs(labels, {
                p: rng.choice(pool) for p in itertools.combinations(labels, 2)})
            assert exact_ultrametric_l1(d)[1] <= fit_ultrametric(d).l1_error, (n, rep)

    def test_slices_the_fits_levels_when_nothing_merges(self, monkeypatch):
        # 240 seeded tables, n 2..7, integer or continuous values, no two
        # values within 1e-12: the oracle's unmerged slicing is the fit's
        sliced = []

        def recorded(*args):
            sliced.append(oracle_slice(*args))
            return sliced[-1]

        oracle_slice = oracle.slice_levels
        monkeypatch.setattr(oracle, "slice_levels", recorded)
        rng = random.Random(24)
        for n, kind, _ in itertools.product(range(2, 8), ("int", "cont"), range(20)):
            labels = tuple(f"s{k}" for k in range(n))
            choices = range(1, 5) if kind == "int" else [rng.uniform(1.0, 9.0)
                                                         for _ in range(n * n)]
            d = random_matrix(rng, labels, choices)
            assert np.all(np.diff(np.unique(d.values)) > 1e-12)
            exact_ultrametric_l1(d)
            inst, levels = sliced.pop()
            fit_inst, fit_levels = hcc_instance_from_distances(d)
            assert levels == fit_levels
            if inst is None:
                assert fit_inst is None
                continue
            assert inst.deltas == fit_inst.deltas
            assert all(np.array_equal(a.mask, b.mask)
                       for a, b in zip(inst.edge_sets, fit_inst.edge_sets, strict=True))

    def test_cap(self):
        labels = tuple(f"s{k}" for k in range(8))
        values = dict.fromkeys(all_pairs(labels), 1.0)
        values[("s0", "s1")] = 2.0
        with pytest.raises(ValueError):
            exact_ultrametric_l1(DistanceMatrix.from_pairs(labels, values))

    def test_never_beats_fitting_pipeline(self, rng):
        for _ in range(6):
            labels = tuple(f"s{k}" for k in range(5))
            d = random_matrix(rng, labels, [1.0, 2.0, 3.0])
            _, opt = exact_ultrametric_l1(d)
            fitted = fit_ultrametric(d)
            assert opt <= fitted.l1_error + 1e-9
            assert fitted.lp_lower_bound <= opt + 1e-6


class TestFlatten:
    def test_pull_down_to_two(self):
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 2.0})
        t = UltrametricTree.from_map("ab", {("a", "b"): 1.7})
        assert flatten_to_12(t, d).distance("a", "b") == 2.0

    def test_raise_to_one(self):
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 1.0})
        t = UltrametricTree.from_map("ab", {("a", "b"): 0.4})
        assert flatten_to_12(t, d).distance("a", "b") == 1.0

    def test_never_increases_error_and_lands_in_12(self, rng):
        labels = tuple("abcdef")
        for _ in range(60):
            m = random_ultrametric_map(rng, labels)
            d = random_matrix(rng, labels, [1.0, 2.0])
            tree = UltrametricTree.from_map(labels, m)
            flat = flatten_to_12(tree, d)
            assert set(flat.distance_map().values()) <= {1.0, 2.0}
            assert lp_norm_error(flat, d, 1) <= lp_norm_error(tree, d, 1) + 1e-9

    def test_idempotent(self, rng):
        labels = tuple("abcde")
        m = random_ultrametric_map(rng, labels)
        d = random_matrix(rng, labels, [1.0, 2.0])
        flat = flatten_to_12(UltrametricTree.from_map(labels, m), d)
        again = flatten_to_12(flat, d)
        assert again.distance_map() == flat.distance_map()

    def test_rejects_other_values(self):
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 1.5})
        t = UltrametricTree.from_map("ab", {("a", "b"): 1.5})
        with pytest.raises(ValueError):
            flatten_to_12(t, d)


class TestInteriorNodes:
    def test_deeper_than_the_recursion_limit(self):
        # a caterpillar: level t joins x(t+1) to the block of x0..xt at a
        # value inside (1, 2), so every internal node is interior and the
        # tree is n - 1 nodes deep
        n = 200
        labels = tuple(f"x{k:03d}" for k in range(n))
        levels = HierarchySequence(tuple(
            Partition.from_parts(labels, [labels[:t + 2]] + [[x] for x in labels[t + 2:]])
            for t in range(n - 1)))
        values = [1.0 + (t + 1) / (2.0 * n) for t in range(n - 1)]
        tree = partition_tree(levels, values)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            found = _interior_nodes(tree)
        finally:
            sys.setrecursionlimit(old_limit)
        # postorder: the deepest node first, each with its parent's value
        # and its internal child's value
        assert [v for v, *_ in found] == values
        assert [parent for *_, parent, _ in found] == values[1:] + [2.0]
        assert [child for *_, child in found] == [0.0] + values[:-1]
        assert all(min_leaf == 0 for _, min_leaf, *_ in found)
        position = {pair: k for k, pair in enumerate(all_pairs(range(n)))}
        for t, (_, _, cross, _, _) in enumerate(found):
            assert sorted(cross) == sorted(position[(k, t + 1)] for k in range(t + 1))
