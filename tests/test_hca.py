from collections import Counter

import numpy as np
import pytest

from treefit.core import HierarchySequence, Partition, all_pairs, components
from treefit.corrclust import corr_cluster
from treefit.hca import (
    BALL_FAR,
    BALL_NEAR,
    HALF_FRACTION,
    KEEP_FRACTION,
    OUTSIDE_FRACTION,
    ClusterForest,
    ForestNode,
    HcaResult,
    LpCluster,
    LpClusterFamilies,
    check_hierarchy_friendly,
    cleaned_subset,
    derive_hierarchy,
    fit_hca,
    fit_hca_report,
    invariant_violations,
    is_hierarchical,
    lp_cleaning,
)
from treefit.lp import HccInstance, LpSolution, build_lp, hierarchy_cost, solve_lp
from treefit.oracle import exact_hca
from treefit.ultrametric import hcc_instance_from_distances
from conftest import (
    feasible_lp_maps,
    random_hierarchy,
    random_matrix,
    random_partition,
    solve_on,
)

UNI4 = ("a", "b", "c", "d")


def solution_from_maps(labels, level_maps) -> LpSolution:
    labels = tuple(labels)
    pairs = tuple(all_pairs(labels))
    x = np.array([[m[p] for p in pairs] for m in level_maps])
    return LpSolution(labels=labels, x=x, objective=0.0)


def parts(partition):
    return sorted(sorted(p) for p in partition.parts)


class TestLpCleaning:
    def test_ideal_solution_keeps_everything(self):
        labels = tuple("abcdef")
        q = Partition.from_parts(labels, [{"a", "b", "c"}, {"d", "e", "f"}])
        level = {p: (0.0 if q.same_part(*p) else 1.0) for p in all_pairs(labels)}
        sol = solution_from_maps(labels, [level])
        fams = lp_cleaning([q], sol)
        assert {c.members for c in fams.levels[0]} == set(q.parts)

    def test_far_species_dropped_cluster_kept(self):
        labels = tuple(f"s{k}" for k in range(10))
        outlier = labels[0]
        level = {}
        for i, j in all_pairs(labels):
            level[(i, j)] = 0.5 if outlier in (i, j) else 0.0
        sol = solution_from_maps(labels, [level])
        q = Partition.from_parts(labels, [set(labels)])
        fams = lp_cleaning([q], sol)
        assert len(fams.levels[0]) == 1
        survivors = fams.levels[0][0].members
        assert survivors == frozenset(labels) - {outlier}
        assert fams.levels[0][0].input_cluster == frozenset(labels)

    def test_two_failures_discard_cluster(self):
        # p1, p2 pass the near-ball test, f1, f2 fail it, 2 < 0.9 * 4
        labels = ("p1", "p2", "f1", "f2")
        level = {("p1", "p2"): 0.02, ("p1", "f1"): 0.09, ("p1", "f2"): 0.11,
                 ("p2", "f1"): 0.11, ("p2", "f2"): 0.09, ("f1", "f2"): 0.2}
        sol = solution_from_maps(labels, [level])
        assert cleaned_subset(sol, 0, frozenset(labels)) == {"p1", "p2"}
        fams = lp_cleaning([Partition.from_parts(labels, [set(labels)])], sol)
        assert fams.levels[0] == ()

    def test_singleton_clusters_follow_the_formulas(self):
        labels = ("a", "b")
        sol = solution_from_maps(labels, [{("a", "b"): 1.0}])
        q = Partition.singletons(labels)
        fams = lp_cleaning([q], sol)
        assert {c.members for c in fams.levels[0]} == {frozenset("a"), frozenset("b")}

    def test_all_distances_half_discards_everything(self):
        labels = tuple("abcd")
        level = dict.fromkeys(all_pairs(labels), 0.5)
        sol = solution_from_maps(labels, [level])
        fams = lp_cleaning([Partition.from_parts(labels, [set(labels)])], sol)
        assert fams.levels[0] == ()


class TestClusterFamilies:
    def test_rejects_a_label_outside_the_universe(self):
        with pytest.raises(ValueError, match="label 'z' outside the universe"):
            LpClusterFamilies(UNI4, ((LpCluster(frozenset("az"), frozenset("az")),),))

    def test_rejects_an_empty_cluster(self):
        with pytest.raises(ValueError, match="empty cluster at level 2"):
            LpClusterFamilies(UNI4, ((), (LpCluster(frozenset(), frozenset("ab")),)))


class TestHierarchyFriendly:
    def test_nested_families(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("abc"), frozenset("abc")),)))
        assert check_hierarchy_friendly(fams)

    def test_split_above_violates(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("a"), frozenset("a")),
             LpCluster(frozenset("b"), frozenset("b")))))
        assert not check_hierarchy_friendly(fams)

    def test_empty_families(self):
        fams = LpClusterFamilies(UNI4, ((), ()))
        assert check_hierarchy_friendly(fams)


class TestDeriveHierarchy:
    def test_nested_input_passes_through(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("abc"), frozenset("abc")),)))
        h, _ = derive_hierarchy(UNI4, fams)
        assert parts(h.levels[0]) == [["a", "b"], ["c"], ["d"]]
        assert parts(h.levels[1]) == [["a", "b", "c"], ["d"]]

    def test_overlap_extends_by_absorbing_roots(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("bc"), frozenset("bc")),)))
        h, forest = derive_hierarchy(UNI4, fams)
        assert parts(h.levels[1]) == [["a", "b", "c"], ["d"]]
        top = [nd for nd in forest.internal() if nd.level == 2][0]
        assert top.core == frozenset("bc")
        assert top.extended == frozenset("abc")

    def test_removal_branch(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("bc"), frozenset("bc")),),
            (LpCluster(frozenset("ad"), frozenset("ad")),)))
        h, forest = derive_hierarchy(UNI4, fams)
        assert parts(h.levels[2]) == [["a", "b", "c"], ["d"]]
        top = [nd for nd in forest.internal() if nd.level == 3][0]
        assert top.core == frozenset("d")

    def test_rejects_unfriendly_input(self):
        fams = LpClusterFamilies(UNI4, (
            (LpCluster(frozenset("ab"), frozenset("ab")),),
            (LpCluster(frozenset("a"), frozenset("a")),
             LpCluster(frozenset("b"), frozenset("b")))))
        with pytest.raises(ValueError):
            derive_hierarchy(UNI4, fams)

    def test_empty_families_give_singletons(self):
        fams = LpClusterFamilies(UNI4, ((), (), ()))
        h, _ = derive_hierarchy(UNI4, fams)
        for level in h.levels:
            assert all(len(p) == 1 for p in level.parts)

    def test_order_invariance(self, rng):
        labels = tuple(f"s{k}" for k in range(8))
        seen = 0
        attempts = 0
        while seen < 10 and attempts < 60:
            attempts += 1
            n_levels = rng.randint(2, 3)
            qs = [random_partition(rng, labels) for _ in range(n_levels)]
            deltas = [rng.uniform(0.5, 2.0) for _ in range(n_levels)]
            res = fit_hca_report(labels, qs, deltas)
            if res.fast_path or res.families is None:
                continue
            if not any(len(fam) > 1 for fam in res.families.levels):
                continue
            seen += 1
            reference = derive_hierarchy(labels, res.families)[0]
            for _ in range(20):
                shuffled = LpClusterFamilies(labels, tuple(
                    tuple(sorted(fam, key=lambda _: rng.random()))
                    for fam in res.families.levels))
                again = derive_hierarchy(labels, shuffled)[0]
                assert again == reference
        assert seen >= 5


def reference_check_hierarchy_friendly(families):
    """check_hierarchy_friendly, by intersecting every pair of clusters."""
    for t_low in range(families.n_levels()):
        for low in families.levels[t_low]:
            for t_high in range(t_low + 1, families.n_levels()):
                hits = sum(1 for high in families.levels[t_high]
                           if low.members & high.members)
                if hits >= 2:
                    return False
    return True


def reference_derive_hierarchy(universe, families):
    """derive_hierarchy by a scan over every root for each cluster, with each
    level's clusters sorted by size, then by their first label."""
    universe = tuple(universe)
    assert reference_check_hierarchy_friendly(families)
    label_pos = {lab: k for k, lab in enumerate(universe)}
    forest = ClusterForest(universe=universe)
    root_ids = []
    for lab in universe:
        nid = len(forest.nodes)
        forest.nodes.append(ForestNode(
            node_id=nid, level=0, core=frozenset([lab]),
            extended=frozenset([lab]), lp_cluster=None, input_cluster=None))
        root_ids.append(nid)

    out_levels = []
    for t in range(families.n_levels()):
        fam = tuple(sorted(
            families.levels[t], key=lambda c: (-len(c.members),
                                               min(label_pos[x] for x in c.members))))
        for cluster in fam:
            core = set(cluster.members)
            removers = []
            children = []
            for rid in root_ids:
                root = forest.nodes[rid]
                if root.core & cluster.members:
                    children.append(rid)
                else:
                    removers.append(rid)
            for rid in removers:
                core -= forest.nodes[rid].extended
            if not core:
                continue
            extended = set(core)
            for rid in children:
                extended |= forest.nodes[rid].extended
            nid = len(forest.nodes)
            forest.nodes.append(ForestNode(
                node_id=nid, level=t + 1, core=frozenset(core),
                extended=frozenset(extended), lp_cluster=cluster.members,
                input_cluster=cluster.input_cluster, children=tuple(children)))
            for rid in children:
                forest.nodes[rid].parent = nid
            root_ids = [r for r in root_ids if r not in set(children)]
            root_ids.append(nid)
        out_levels.append(Partition(
            universe, tuple(forest.nodes[r].extended for r in root_ids)))
    return HierarchySequence(tuple(out_levels)), forest


def node_records(forest):
    """Each node as its level, core, extended set, LP and input clusters and
    the extended sets of its children and parent: what does not depend on
    how the nodes are numbered."""
    nodes = forest.nodes
    return Counter(
        (nd.level, nd.core, nd.extended, nd.lp_cluster, nd.input_cluster,
         frozenset(nodes[c].extended for c in nd.children),
         None if nd.parent is None else nodes[nd.parent].extended)
        for nd in nodes)


class TestAssemblyMatchesReference:
    def test_random_families(self, rng):
        # the levels are a refinement chain half of the time, else unrelated
        # partitions; clusters are dropped and thinned at random, so families
        # that are not hierarchy-friendly and clusters with an empty core,
        # which cleaning does not build, both occur
        unfriendly = skips = 0
        for _ in range(3000):
            labels = tuple(f"s{k}" for k in range(rng.randint(2, 10)))
            n_levels = rng.randint(1, 4)
            if rng.random() < 0.5:
                qs = random_hierarchy(rng, labels, n_levels)
            else:
                qs = [random_partition(rng, labels) for _ in range(n_levels)]
            levels = []
            for q in qs:
                fam = []
                for part in q.parts:
                    members = frozenset(x for x in part if rng.random() < 0.8)
                    if members and rng.random() < 0.9:
                        fam.append(LpCluster(members, part))
                rng.shuffle(fam)
                levels.append(tuple(fam))
            fams = LpClusterFamilies(labels, tuple(levels))
            friendly = check_hierarchy_friendly(fams)
            assert friendly == reference_check_hierarchy_friendly(fams)
            if not friendly:
                unfriendly += 1
                with pytest.raises(ValueError, match="not hierarchy-friendly"):
                    derive_hierarchy(labels, fams)
                continue
            hierarchy, forest = derive_hierarchy(labels, fams)
            want, want_forest = reference_derive_hierarchy(labels, fams)
            assert hierarchy == want
            assert node_records(forest) == node_records(want_forest)
            skips += len(forest.internal()) < sum(len(fam) for fam in levels)
        assert unfriendly >= 1 and skips >= 1


class TestFitHca:
    def test_hierarchical_input_returned_unchanged(self, rng):
        labels = tuple(f"s{k}" for k in range(6))
        for _ in range(5):
            chain = random_hierarchy(rng, labels, 3)
            deltas = [1.0, 1.0, 1.0]
            fast = fit_hca_report(labels, chain, deltas)
            full = fit_hca_report(labels, chain, deltas, fast_path=False)
            assert fast.fast_path and not full.fast_path
            assert fast.hierarchy == full.hierarchy
            assert fast.hierarchy.levels == tuple(chain)
            assert fast.cost == full.cost == 0.0

    def test_single_level_cost_zero(self, rng):
        labels = tuple(f"s{k}" for k in range(6))
        q = random_partition(rng, labels)
        res = fit_hca_report(labels, [q], [1.5], fast_path=False)
        assert res.cost == 0.0
        assert res.hierarchy.levels[0] == q

    def test_crossing_partitions_not_below_optimum(self):
        q1 = Partition.from_parts(UNI4, [{"a", "b"}, {"c", "d"}])
        q2 = Partition.from_parts(UNI4, [{"a", "c"}, {"b", "d"}])
        res = fit_hca_report(UNI4, [q1, q2], [1.0, 1.0])
        _, opt = exact_hca(UNI4, [q1, q2], [1.0, 1.0])
        assert res.cost >= opt
        assert res.cost == pytest.approx(2.0)

    def test_fit_hca_returns_hierarchy(self):
        q1 = Partition.from_parts(UNI4, [{"a", "b"}, {"c", "d"}])
        h = fit_hca(UNI4, [q1], [1.0])
        assert isinstance(h, HierarchySequence)

    def test_invariants_hold_on_random_runs(self, rng):
        labels = tuple(f"s{k}" for k in range(6))
        checked = 0
        for _ in range(15):
            n_levels = rng.randint(1, 3)
            qs = [random_partition(rng, labels) for _ in range(n_levels)]
            deltas = [rng.uniform(0.3, 2.0) for _ in range(n_levels)]
            res = fit_hca_report(labels, qs, deltas)
            if not res.fast_path:
                checked += 1
                assert invariant_violations(res) == []
        assert checked > 0


class TestOptimalVertex:
    def test_cleaning_guarantees_hold_at_either_optimal_point(self, rng):
        # the agreement LP often has several optimal points, and the two
        # backends may return different ones; cleaning may then keep other
        # clusters, but every guarantee must hold for both
        checked = differing = 0
        for _ in range(40):
            labels = tuple(f"s{k}" for k in range(rng.randint(7, 9)))
            d = random_matrix(rng, labels, range(1, 6))
            sliced, _ = hcc_instance_from_distances(d)
            if sliced is None:
                continue
            qs = tuple(corr_cluster(labels, es) for es in sliced.edge_sets)
            if is_hierarchical(qs):
                continue
            inst = HccInstance.from_partitions(labels, sliced.deltas, qs)
            lp = build_lp(inst)
            families = []
            for backend in ("simplex", "highs"):
                sol = solve_on(backend, lp)
                fam = lp_cleaning(qs, sol)
                hierarchy, forest = derive_hierarchy(labels, fam)
                result = HcaResult(hierarchy=hierarchy,
                                   cost=hierarchy_cost(inst, hierarchy),
                                   instance=inst, partitions=qs, lp=sol,
                                   families=fam, forest=forest, fast_path=False)
                assert invariant_violations(result) == [], backend
                families.append(fam)
            checked += 1
            differing += families[0] != families[1]
        assert checked >= 20
        # without instances whose two optimal points clean differently, the
        # loop would check nothing that one backend does not already check
        assert differing >= 1


def reference_cleaned_subset(sol, t, cluster):
    """The ball tests of cleaned_subset, pair by pair through sol.value."""
    size = len(cluster)
    keep = []
    for i in cluster:
        near_inside = sum(1 for j in cluster if sol.value(t, i, j) < BALL_NEAR)
        if not near_inside > HALF_FRACTION * size:
            continue
        far_outside = sum(1 for j in sol.labels
                          if j not in cluster and sol.value(t, i, j) < BALL_FAR)
        if far_outside <= OUTSIDE_FRACTION * size:
            keep.append(i)
    return frozenset(keep)


class TestCleaningMatchesReference:
    def check(self, partitions, sol):
        want = []
        for t, q in enumerate(partitions):
            level = []
            for cluster in q.parts:
                survivors = reference_cleaned_subset(sol, t, cluster)
                assert cleaned_subset(sol, t, cluster) == survivors
                if len(survivors) >= KEEP_FRACTION * len(cluster):
                    level.append(LpCluster(members=survivors, input_cluster=cluster))
            want.append(tuple(level))
        assert lp_cleaning(partitions, sol).levels == tuple(want)
        return sum(len(level) for level in want)

    def test_feasible_points(self, rng):
        # clusters: the components of the near pairs of each level, with one
        # label moved to another cluster half of the time, or random parts;
        # half of the points are rounded to twentieths (a monotone map keeps
        # them feasible), so distances sit exactly on the ball radii
        kept = 0
        for _ in range(80):
            labels = tuple(f"s{k:02d}" for k in range(rng.randint(2, 16)))
            maps = feasible_lp_maps(rng, labels, rng.randint(1, 4))
            if rng.random() < 0.5:
                maps = [{p: round(v * 20) / 20 for p, v in level.items()} for level in maps]
            partitions = []
            for level in maps:
                radius = rng.uniform(0.05, 0.9)
                parts = [set(p) for p in components(
                    labels, [p for p, v in level.items() if v < radius]).parts]
                if rng.random() < 0.5:
                    moved = rng.choice(labels)
                    for p in parts:
                        p.discard(moved)
                    parts.append(set())
                    rng.choice(parts).add(moved)
                if rng.random() < 0.2:
                    parts = random_partition(rng, labels).parts
                partitions.append(Partition.from_parts(labels, [p for p in parts if p]))
            kept += self.check(partitions, solution_from_maps(labels, maps))
        assert kept > 0

    def test_agreement_lp_optima(self, rng):
        checked = 0
        for n in range(5, 17):
            labels = tuple(f"s{k}" for k in range(n))
            sliced, _ = hcc_instance_from_distances(
                random_matrix(rng, labels, range(1, 5)))
            if sliced is None:
                continue
            qs = tuple(corr_cluster(labels, es) for es in sliced.edge_sets)
            inst = HccInstance.from_partitions(labels, sliced.deltas, qs)
            self.check(qs, solve_lp(build_lp(inst)))
            checked += 1
        assert checked >= 10

    def test_solution_labels_must_follow_the_partitions(self):
        labels = tuple("abcd")
        q = Partition.from_parts(labels, [{"a", "b"}, {"c", "d"}])
        sol = solution_from_maps(labels[::-1], [dict.fromkeys(all_pairs(labels[::-1]), 0.0)])
        with pytest.raises(ValueError):
            lp_cleaning([q], sol)
