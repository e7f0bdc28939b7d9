import pytest

from treefit.core import (
    DistanceMatrix,
    EdgeSet,
    HierarchySequence,
    all_pairs,
    clique_edges,
    sym_diff_size,
)
from treefit.corrclust import EXACT_CAP
from treefit.hca import is_hierarchical
from treefit.hcc import fit_hcc, lp_lower_bound
from treefit.lp import HccInstance, build_lp, hierarchy_cost, solve_lp
from treefit.oracle import exact_corr_cluster, exact_hcc
from treefit.ultrametric import hcc_instance_from_distances
from conftest import components, random_hierarchy, random_partition


def es(universe, pairs):
    return EdgeSet.from_pairs(universe, pairs)


def triangle_switch_holds(inst, result) -> bool:
    """|E sdiff P| <= |E sdiff Q| + |Q sdiff P| per level, always exact."""
    for t in range(inst.n_levels):
        e = inst.edge_sets[t]
        q = clique_edges(result.hca.partitions[t])
        p = clique_edges(result.hierarchy.levels[t])
        if sym_diff_size(e, p) > sym_diff_size(e, q) + sym_diff_size(q, p):
            return False
    return True


def random_instance(rng, n, n_levels):
    universe = tuple(f"s{k}" for k in range(n))
    pool = list(all_pairs(universe))
    sets = tuple(es(universe, [p for p in pool if rng.random() < rng.uniform(0.25, 0.75)])
                 for _ in range(n_levels))
    deltas = tuple(rng.uniform(0.4, 2.0) for _ in range(n_levels))
    return HccInstance(universe, deltas, sets)


class TestComponents:
    def test_components(self):
        e = es("abcd", [("a", "b"), ("b", "c")])
        p = components(e.universe, e.edges)
        assert sorted(sorted(x) for x in p.parts) == [["a", "b", "c"], ["d"]]

    def test_isolated_nodes_outside_the_labels(self):
        # the universe may hold tree nodes that no pair touches, as when
        # pseudometric_to_metric contracts the zero edges of a tree
        nodes = ("a", "b", "c", "v0", "v1", "v2")
        p = components(nodes, [("v0", "a"), ("v0", "b")])
        assert p.universe == nodes
        assert [sorted(x) for x in p.parts] == [["a", "b", "v0"], ["c"], ["v1"], ["v2"]]


class TestFitHcc:
    def test_nested_cliques_reproduced(self, rng):
        labels = tuple(f"s{k}" for k in range(7))
        chain = random_hierarchy(rng, labels, 3)
        inst = HccInstance.from_partitions(labels, (1.0, 0.5, 2.0), chain)
        res = fit_hcc(inst)
        assert res.cost == 0.0
        assert lp_lower_bound(inst, res.cost) == (0.0, None)
        assert res.hierarchy.levels == tuple(chain)

    def test_single_level_at_least_exact(self, rng):
        for _ in range(8):
            inst = random_instance(rng, rng.randint(4, 8), 1)
            res = fit_hcc(inst)
            _, opt = exact_corr_cluster(inst.labels, inst.edge_sets[0])
            assert res.cost >= inst.deltas[0] * opt - 1e-9

    def test_distance_derived_instance(self):
        d = DistanceMatrix.from_pairs(
            ("1", "2", "3"), {("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 2.0})
        inst, _ = hcc_instance_from_distances(d)
        res = fit_hcc(inst)
        assert res.cost == 0.0
        assert sorted(sorted(p) for p in res.hierarchy.levels[0].parts) == \
            [["1", "2"], ["3"]]

    def test_sandwich_lp_exact_algorithm(self, rng):
        for _ in range(6):
            inst = random_instance(rng, rng.randint(4, 6), rng.randint(1, 2))
            res = fit_hcc(inst)
            _, opt = exact_hcc(inst)
            assert lp_lower_bound(inst, res.cost)[0] <= opt + 1e-6
            assert opt <= res.cost + 1e-9

    def test_triangle_switch_always_holds(self, rng):
        for _ in range(10):
            inst = random_instance(rng, rng.randint(4, 7), rng.randint(1, 3))
            res = fit_hcc(inst)
            assert triangle_switch_holds(inst, res)

    def test_cost_matches_hierarchy_cost(self, rng):
        inst = random_instance(rng, 6, 2)
        res = fit_hcc(inst)
        assert res.cost == pytest.approx(hierarchy_cost(inst, res.hierarchy))

    def test_integrality_gap_on_small_corpus(self, rng):
        # achieved cost stays within a modest factor of the instance's own
        # LP optimum; the acceptance suite freezes the corpus-wide gate
        worst = 0.0
        for _ in range(10):
            inst = random_instance(rng, rng.randint(4, 6), rng.randint(1, 2))
            res = fit_hcc(inst)
            bound = lp_lower_bound(inst, res.cost)[0]
            if bound > 1e-9:
                worst = max(worst, res.cost / bound)
            else:
                assert res.cost <= 1e-9
        assert worst <= 10.0


def reference_clique_hierarchy(inst):
    """Union-find version: each level's components must be its cliques."""
    parts = []
    for e in inst.edge_sets:
        p = components(e.universe, e.edges)
        if sym_diff_size(clique_edges(p), e):
            return None
        parts.append(p)
    if not is_hierarchical(parts):
        return None
    return HierarchySequence(tuple(parts))


def clique_instances(rng):
    """Random, planted (nested or not) and planted-with-one-pair-flipped
    instances, n 1-12 with 1-4 levels."""
    for _ in range(150):
        n, n_levels = rng.randint(1, 12), rng.randint(1, 4)
        labels = tuple(f"s{k}" for k in range(n))
        deltas = (1.0,) * n_levels
        yield random_instance(rng, n, n_levels)
        nested = HccInstance.from_partitions(
            labels, deltas, random_hierarchy(rng, labels, n_levels))
        yield nested
        yield HccInstance.from_partitions(
            labels, deltas, [random_partition(rng, labels) for _ in range(n_levels)])
        if n > 1:
            t = rng.randrange(n_levels)
            mask = nested.edge_sets[t].mask.copy()
            mask[rng.randrange(len(mask))] ^= True
            sets = list(nested.edge_sets)
            sets[t] = EdgeSet(labels, mask)
            yield HccInstance(labels, deltas, tuple(sets))


class TestBoundShortcut:
    def test_skips_the_solve_exactly_on_clique_hierarchies(self, rng):
        # a fit of cost 0 skips the bound LP; that happens exactly when the
        # levels are the cliques of a nested hierarchy, whichever strategy
        # clusters them, and every other bound is the solve's own objective
        found = solved = 0
        for inst in clique_instances(rng):
            want = reference_clique_hierarchy(inst)
            runs = [("pivot-sweep", None), ("kwik", 0), ("kwik", 1)]
            if inst.n <= EXACT_CAP:
                runs.append(("exact", None))
            objective = None
            if want is None:
                objective = solve_lp(build_lp(inst)).objective
            for strategy, seed in runs:
                res = fit_hcc(inst, strategy=strategy, seed=seed)
                bound, point = lp_lower_bound(inst, res.cost)
                if want is not None:
                    assert res.hierarchy == want
                    assert (bound, point) == (0.0, None)
                else:
                    assert point is not None
                    assert bound.hex() == objective.hex()
            found += want is not None
            solved += want is None
        assert found >= 150 and solved >= 150
