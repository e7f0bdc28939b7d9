import random
import statistics

import pytest

from treefit import corrclust
from treefit.core import EdgeSet, Partition, all_pairs, clique_edges
from treefit.corrclust import corr_cluster, corr_cluster_cost
from treefit.oracle import exact_corr_cluster
from treefit.treemetric import gromov_transform, pivot_subproblem
from treefit.ultrametric import hcc_instance_from_distances
from conftest import iter_partitions, random_hierarchy, random_matrix


def es(universe, pairs):
    return EdgeSet.from_pairs(universe, pairs)


def fixtures_up_to_8(rng):
    out = []
    u5 = tuple("abcde")
    out.append((u5, es(u5, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])))
    u3 = tuple("xyz")
    out.append((u3, es(u3, [("x", "y"), ("y", "z")])))
    out.append((u3, es(u3, list(all_pairs(u3)))))
    out.append((u3, es(u3, [])))
    for n in (6, 7, 8):
        universe = tuple(f"s{k}" for k in range(n))
        pool = list(all_pairs(universe))
        for density in (0.3, 0.5, 0.7):
            chosen = [p for p in pool if rng.random() < density]
            out.append((universe, es(universe, chosen)))
    return out


class TestCost:
    def test_exact_cliques_cost_zero(self):
        p = Partition.from_parts("abcd", [{"a", "b"}, {"c", "d"}])
        assert corr_cluster_cost(clique_edges(p), p) == 0

    def test_singletons_pay_each_edge(self):
        u = tuple("ab")
        assert corr_cluster_cost(es(u, [("a", "b")]), Partition.singletons(u)) == 1

    def test_one_missing_clique_edge(self):
        u = tuple("1234")
        nearly = [p for p in all_pairs(u) if p != ("3", "4")]
        assert corr_cluster_cost(es(u, nearly),
                                 Partition.from_parts(u, [set(u)])) == 1


class TestPivotSweep:
    def test_complete_graph_single_cluster(self):
        u = tuple("abcd")
        p = corr_cluster(u, es(u, list(all_pairs(u))))
        assert p.parts == (frozenset(u),)
        assert corr_cluster_cost(es(u, list(all_pairs(u))), p) == 0

    def test_empty_graph_singletons(self):
        u = tuple("abcd")
        p = corr_cluster(u, es(u, []))
        assert all(len(part) == 1 for part in p.parts)

    def test_path_cost_matches_optimum(self):
        u = tuple("123")
        e = es(u, [("1", "2"), ("2", "3")])
        p = corr_cluster(u, e)
        assert corr_cluster_cost(e, p) == 1

    def test_deterministic(self, rng):
        u = tuple(f"s{k}" for k in range(7))
        pool = list(all_pairs(u))
        e = es(u, [p for p in pool if rng.random() < 0.5])
        assert corr_cluster(u, e) == corr_cluster(u, e)

    def test_never_beats_exact(self, rng):
        for universe, e in fixtures_up_to_8(rng):
            _, opt = exact_corr_cluster(universe, e)
            got = corr_cluster_cost(e, corr_cluster(universe, e))
            assert got >= opt

    def test_cluster_structure_is_pivot_plus_neighbors(self, rng):
        # every emitted cluster is a pivot plus its neighbors among the
        # vertices remaining at emission time: the parts must peel off in
        # some order consistent with that rule
        u = tuple(f"s{k}" for k in range(7))
        pool = list(all_pairs(u))
        for _ in range(10):
            e = es(u, [p for p in pool if rng.random() < 0.5])
            parts = set(corr_cluster(u, e).parts)
            nbrs = {lab: set() for lab in u}
            for i, j in e.edges:
                nbrs[i].add(j)
                nbrs[j].add(i)
            remaining = set(u)
            while parts:
                peelable = [part for part in parts
                            if any(part == ({v} | nbrs[v]) & remaining
                                   for v in part)]
                assert peelable, f"no pivot explains remaining parts {parts}"
                part = peelable[0]
                parts.remove(part)
                remaining -= part


class TestExactStrategy:
    def test_matches_oracle(self, rng):
        u = tuple(f"s{k}" for k in range(6))
        pool = list(all_pairs(u))
        for _ in range(10):
            e = es(u, [p for p in pool if rng.random() < 0.5])
            p = corr_cluster(u, e, strategy="exact")
            _, opt = exact_corr_cluster(u, e)
            assert corr_cluster_cost(e, p) == opt

    def test_scored_enumeration_matches_partition_by_partition(self, rng):
        # the partition-by-partition enumeration the array scoring replaced:
        # the first cheapest partition in `iter_partitions` order
        for n in range(8):
            u = tuple(f"s{k}" for k in range(n))
            pool = list(all_pairs(u))
            for _ in range(12 if n > 1 else 1):
                e = es(u, [p for p in pool if rng.random() < rng.uniform(0.1, 0.9)])
                want = min((Partition(u, parts) for parts in iter_partitions(u)),
                           key=lambda q: corr_cluster_cost(e, q))
                got, cost = exact_corr_cluster(u, e)
                assert got == want and got.part_of == want.part_of
                assert cost == corr_cluster_cost(e, want)

    def test_cap_enforced(self):
        u = tuple(f"s{k}" for k in range(10))
        with pytest.raises(ValueError):
            corr_cluster(u, es(u, []), strategy="exact")


class TestKwik:
    def test_seeded_determinism(self, rng):
        u = tuple(f"s{k}" for k in range(8))
        pool = list(all_pairs(u))
        e = es(u, [p for p in pool if rng.random() < 0.5])
        assert corr_cluster(u, e, strategy="kwik", seed=7) == \
            corr_cluster(u, e, strategy="kwik", seed=7)

    def test_expected_three_approximation(self, rng):
        # mean over seeds stays within 3x the optimum plus two standard errors
        for universe, e in fixtures_up_to_8(rng):
            _, opt = exact_corr_cluster(universe, e)
            costs = [corr_cluster_cost(
                e, corr_cluster(universe, e, strategy="kwik", seed=s))
                for s in range(200)]
            mean = statistics.fmean(costs)
            se = statistics.pstdev(costs) / (len(costs) ** 0.5)
            assert mean <= 3.0 * opt + 2.0 * se + 1e-9


def reference_runs(universe, edges, orders):
    """The set-based pivot recursion, one Partition per pivot order, each
    scored with corr_cluster_cost on its clique edges."""
    nbrs = {lab: set() for lab in universe}
    for i, j in edges.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    runs = []
    for order in orders:
        remaining = set(universe)
        clusters = []
        for pivot in order:
            if pivot in remaining:
                cluster = ({pivot} | nbrs[pivot]) & remaining
                clusters.append(frozenset(cluster))
                remaining -= cluster
        partition = Partition(tuple(universe), tuple(clusters))
        runs.append((partition, corr_cluster_cost(edges, partition)))
    return runs


def reference_sweep_runs(universe, edges):
    return reference_runs(universe, edges, [
        [first] + [lab for lab in universe if lab != first] for first in universe])


def reference_sweep(universe, edges):
    """First cheapest run, first pivots in universe order."""
    best, best_cost = None, None
    for partition, cost in reference_sweep_runs(universe, edges):
        if best_cost is None or cost < best_cost:
            best, best_cost = partition, cost
    return best


def reference_kwik(universe, edges, seed):
    order = list(universe)
    random.Random(seed).shuffle(order)
    return reference_runs(universe, edges, [order])[0][0]


def random_edge_sets():
    rng = random.Random(5150)
    for n in range(1, 31):
        universe = tuple(f"v{k}" for k in range(n))
        pool = list(all_pairs(universe))
        for density in (0.1, 0.5, 0.9):
            yield universe, es(universe, [p for p in pool if rng.random() < density])


def tied_edge_sets():
    """Paths, cycles, stars and complete bipartite graphs: several first
    pivots reach the cheapest cost."""
    out = []
    for n in (3, 4, 5, 6, 9):
        u = tuple(f"p{k}" for k in range(n))
        path = [(u[k], u[k + 1]) for k in range(n - 1)]
        if n % 2:  # an even path has one cheapest partition
            out.append((u, es(u, path)))
        if n > 3:
            out.append((u, es(u, path + [(u[0], u[-1])])))
        out.append((u, es(u, [(u[0], x) for x in u[1:]])))
        out.append((u, es(u, [(u[-1], x) for x in u[:-1]])))
    u = tuple("abcde")
    out.append((u, es(u, [(x, y) for x in "ab" for y in "cde"])))
    # two disjoint paths: ties inside each component combine
    u = tuple("abcdef")
    out.append((u, es(u, [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f")])))
    return out


def planted_level_edge_sets():
    """The levels of seeded planted hierarchies, each as it is (a union of
    cliques, so the sweep stops at its first run) and with one pair flipped."""
    rng = random.Random(4099)
    for n in (2, 5, 12, 30):
        universe = tuple(f"v{k}" for k in range(n))
        for level in random_hierarchy(rng, universe, 5):
            cliques = clique_edges(level)
            yield universe, cliques
            mask = list(cliques.mask)
            pos = rng.randrange(len(mask))
            mask[pos] = not mask[pos]
            yield universe, EdgeSet(universe, mask)


def subfit_level_edge_sets():
    """The level edge sets of seeded 16-label tables with values 1..4, and
    of their pivot sub-problems in tree mode, which have more levels."""
    rng = random.Random(1616)
    universe = tuple(f"t{k:02d}" for k in range(16))
    for _ in range(3):
        d = random_matrix(rng, universe, (1.0, 2.0, 3.0, 4.0))
        for table in [d, *(pivot_subproblem(gromov_transform(d, p))
                           for p in rng.sample(universe, 4))]:
            inst, _ = hcc_instance_from_distances(table)
            for edges in inst.edge_sets:
                yield universe, edges


def cliques_mask(part_of):
    """Clique edges of the labels with equal part_of entries."""
    return [part_of[a] == part_of[b] for a, b in all_pairs(range(len(part_of)))]


def repeated_first_cluster_edge_sets():
    """Disjoint cliques, the same with 1-3 pairs flipped, nested planted
    levels and two cliques sharing a label (a tie between them): many first
    pivots give the same first cluster, so the sweep skips their runs."""
    rng = random.Random(8128)
    out = []
    for n in (1, 2, 5, 12, 30):
        universe = tuple(f"v{k}" for k in range(n))
        for k in sorted({1, 2, 3, max(1, n // 2), n}):
            cliques = cliques_mask([rng.randrange(k) for _ in universe])
            out.append((universe, EdgeSet(universe, cliques)))
            for flips in (1, 2, 3):
                mask = list(cliques)
                for pos in rng.sample(range(len(mask)), min(flips, len(mask))):
                    mask[pos] = not mask[pos]
                out.append((universe, EdgeSet(universe, mask)))
    for n in (6, 15, 30):
        universe = tuple(f"v{k}" for k in range(n))
        out.extend((universe, clique_edges(level))
                   for level in random_hierarchy(rng, universe, 4))
    for m in (2, 3, 5):
        universe = tuple(f"v{k}" for k in range(2 * m - 1))
        pairs = [*all_pairs(universe[:m]), *all_pairs(universe[m - 1:])]
        out.append((universe, es(universe, pairs)))
    return out


class TestMatchesReference:
    def test_repeated_first_clusters_match_reference(self):
        for universe, e in repeated_first_cluster_edge_sets():
            assert corr_cluster(universe, e) == reference_sweep(universe, e)

    def test_one_run_per_distinct_first_cluster(self, monkeypatch):
        firsts = []
        real = corrclust._pivot_run

        def counting(nb, first, costs):
            firsts.append(first)
            return real(nb, first, costs)

        monkeypatch.setattr(corrclust, "_pivot_run", counting)
        universe = tuple(f"v{k}" for k in range(12))
        for k in (1, 3, 5, 12):
            # k disjoint cliques: the run from v0 has no disagreements, and
            # the sweep stops there
            firsts.clear()
            e = EdgeSet(universe, cliques_mask([v % k for v in range(12)]))
            assert corr_cluster(universe, e) == reference_sweep(universe, e)
            assert firsts == [0]
        for k in (3, 5):
            # the same with a pair missing from each of the first two cliques:
            # every run costs at least 2, so every distinct first cluster is
            # swept once, from its earliest label
            firsts.clear()
            mask = cliques_mask([v % k for v in range(12)])
            pairs = list(all_pairs(universe))
            for missing in (("v0", f"v{k}"), ("v1", f"v{k + 1}")):
                mask[pairs.index(missing)] = False
            e = EdgeSet(universe, mask)
            assert min(cost for _, cost in reference_sweep_runs(universe, e)) >= 2
            first_clusters = {}
            for pos, v in enumerate(universe):
                first_clusters.setdefault(
                    frozenset(x for pair in e.edges if v in pair for x in pair) | {v}, pos)
            assert corr_cluster(universe, e) == reference_sweep(universe, e)
            assert firsts == list(first_clusters.values())
            assert len(firsts) > k

    def test_pivot_sweep_matches_reference(self):
        for universe, e in [*random_edge_sets(), *planted_level_edge_sets(),
                            *subfit_level_edge_sets()]:
            assert corr_cluster(universe, e) == reference_sweep(universe, e)

    def test_kwik_matches_reference(self):
        for universe, e in random_edge_sets():
            for seed in (0, 1, 7, 123):
                assert corr_cluster(universe, e, strategy="kwik", seed=seed) == \
                    reference_kwik(universe, e, seed)

    def test_ties_go_to_the_first_cheapest_run(self):
        for universe, e in tied_edge_sets():
            runs = reference_sweep_runs(universe, e)
            cheapest = min(cost for _, cost in runs)
            tied = [p for p, cost in runs if cost == cheapest]
            assert len(set(tied)) >= 2, universe
            assert corr_cluster(universe, e) == tied[0]

    def test_path_tie_pinned(self):
        # every first pivot of a-b-c costs 1; the run from a wins
        u = tuple("abc")
        p = corr_cluster(u, es(u, [("a", "b"), ("b", "c")]))
        assert p.parts == (frozenset("ab"), frozenset("c"))
