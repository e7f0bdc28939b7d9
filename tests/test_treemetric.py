import inspect
import itertools
import math
import random
import sys

import numpy as np
import pytest

from treefit.core import (
    DistanceMatrix,
    UltrametricTree,
    WeightedTree,
    all_pairs,
    is_ultrametric,
    lp_norm_error,
)
from treefit.treemetric import (
    clamp_to_restricted,
    fit_tree_metric,
    gromov_transform,
    pseudometric_to_metric,
    restricted_to_tree,
)
from treefit.ultrametric import fit_ultrametric
from conftest import random_matrix, random_tree_metric, random_ultrametric_map

STAR = DistanceMatrix.from_pairs(
    "abc", {("a", "b"): 2.0, ("a", "c"): 3.0, ("b", "c"): 3.0})
AB, BC = 0, 2  # positions of ("a", "b") and ("b", "c") in all_pairs("abc")


def random_metric(rng, labels):
    """Random metric via shortest-path closure of random positive values."""
    labels = tuple(labels)
    raw = {frozenset(p): rng.uniform(0.5, 4.0) for p in all_pairs(labels)}
    # Floyd-Warshall closure
    for k in labels:
        for i in labels:
            for j in labels:
                if len({i, j, k}) < 3:
                    continue
                p = frozenset((i, j))
                via = raw[frozenset((i, k))] + raw[frozenset((k, j))]
                if raw[p] > via:
                    raw[p] = via
    return DistanceMatrix.from_pairs(labels, raw)


class TestGromovTransform:
    def test_star_hand_values(self):
        r = gromov_transform(STAR, "a")
        assert r.gamma == 3.0
        assert r.transformed.value("b", "c") == pytest.approx(2.0)
        assert r.betas.tolist() == [3.0, 1.0, 0.0]
        assert r.floors.tolist() == [3.0, 3.0, 1.0]
        assert r.transformed.value("a", "b") == 3.0
        assert is_ultrametric(r.transformed.d)

    def test_exact_tree_metric_becomes_restricted_ultrametric(self, rng):
        for _ in range(10):
            d, _ = random_tree_metric(rng, rng.randint(4, 9))
            pivot = rng.choice(d.labels)
            r = gromov_transform(d, pivot)
            assert is_ultrametric(r.transformed.d, tol=1e-9)
            for i, j, v in r.transformed.pairs():
                assert v <= r.gamma + 1e-9
                assert v >= max(r.betas[d.index[i]], r.betas[d.index[j]]) - 1e-9

    def test_two_points(self):
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 4.0})
        r = gromov_transform(d, "a")
        assert r.gamma == 4.0
        assert r.transformed.value("a", "b") == 4.0


def reference_transform_values(d, pivot):
    """The transformed values as m - (h_i + h_j - d_ij) / 2, summing before
    halving: equal to the library's wherever h_i + h_j stays normal."""
    h = np.array([0.0 if lab == pivot else d.value(pivot, lab) for lab in d.labels])
    i, j = np.triu_indices(d.n, 1)
    out = h.max() - (h[i] + h[j] - d.values) / 2.0
    p = d.index[pivot]
    out[(i == p) | (j == p)] = h.max()
    return out


class TestGromovScale:
    def test_matches_the_summed_formula(self, rng):
        for _ in range(60):
            labels = [f"s{k}" for k in range(rng.randint(2, 19))]
            kind = rng.choice(["int", "cont", "tiny", "huge"])
            if kind == "int":
                d = random_matrix(rng, labels, [1.0, 2.0, 3.0, 4.0])
            else:
                scale = {"cont": 1.0, "tiny": 1e-300, "huge": 1e300}[kind]
                d = DistanceMatrix.from_pairs(labels, {
                    p: rng.uniform(0.1, 9.0) * scale for p in all_pairs(labels)})
            for pivot in labels:
                got = gromov_transform(d, pivot).transformed.values
                assert got.tobytes() == reference_transform_values(d, pivot).tobytes()

    def test_top_of_the_range_scales_exactly(self):
        # values up to 4 * 2^1021 = 2^1023: h_i + h_j alone would overflow
        rng = random.Random(3)
        labels = [f"s{k}" for k in range(7)]
        d = DistanceMatrix.from_pairs(
            labels, {p: float(rng.randint(1, 4)) for p in all_pairs(labels)})
        scale = 2.0 ** 1021
        big = DistanceMatrix(d.labels, d.values * scale)
        for pivot in labels:
            want, got = gromov_transform(d, pivot), gromov_transform(big, pivot)
            assert got.gamma == want.gamma * scale
            assert got.transformed.values.tobytes() == (want.transformed.values
                                                        * scale).tobytes()


class TestSqueeze:
    """clamp_to_restricted on the input table: every value into [floor, cap]."""

    def setup_method(self):
        self.r = gromov_transform(STAR, "a")

    def test_within_bounds_unchanged(self):
        values = self.r.transformed.values
        assert (clamp_to_restricted(values, self.r) == values).all()

    def test_above_cap_clipped(self):
        bumped = self.r.transformed.values.copy()
        bumped[BC] = 99.0
        clipped = clamp_to_restricted(bumped, self.r)
        assert clipped[BC] == self.r.gamma

    def test_below_floor_raised(self):
        lowered = self.r.transformed.values.copy()
        lowered[BC] = 0.25
        raised = clamp_to_restricted(lowered, self.r)
        assert raised[BC] == max(self.r.betas[1], self.r.betas[2])


class TestClamp:
    def test_restricted_input_unchanged(self, rng):
        d, _ = random_tree_metric(rng, 6)
        r = gromov_transform(d, d.labels[0])
        u = r.transformed.values
        assert clamp_to_restricted(u, r) == pytest.approx(u)

    def test_preserves_ultrametric_and_never_hurts(self, rng):
        # clipping into the restriction keeps the strong triangle inequality
        # and cannot increase the distance to the squeezed target, any norm
        labels = tuple(f"s{k}" for k in range(7))
        for _ in range(25):
            base = random_metric(rng, labels)
            pivot = rng.choice(labels)
            r = gromov_transform(base, pivot)
            squeezed = DistanceMatrix(labels, clamp_to_restricted(r.transformed.values, r))
            u_raw = random_ultrametric_map(rng, labels)
            scale = r.gamma / max(u_raw.values()) * rng.uniform(0.4, 1.2)
            u = np.array([u_raw[p] * scale for p in all_pairs(labels)])
            clamped = clamp_to_restricted(u, r)
            assert is_ultrametric(dict(zip(all_pairs(labels), clamped)), tol=1e-9)
            for p in (1, 2, math.inf):
                assert lp_norm_error(clamped, squeezed, p) <= \
                    lp_norm_error(u, squeezed, p) + 1e-9


def reference_tree_edges(u, r):
    """The recursive walk: (parent, child, weight) edges in preorder."""
    labels = r.transformed.labels
    utree = UltrametricTree.from_distances(labels, u, tol=1e-6)
    fresh = (name for name in (f"v{k}" for k in itertools.count())
             if name not in set(labels))
    edges = []

    def walk(node, parent_name, parent_depth):
        if node.is_leaf:
            if node.label != r.pivot:
                edges.append((parent_name, node.label,
                              max(0.0, r.heights[labels.index(node.label)] - parent_depth)))
            return
        if parent_name is None:
            name, depth = r.pivot, 0.0
        else:
            name, depth = next(fresh), r.gamma - 2.0 * node.height
            edges.append((parent_name, name, max(0.0, depth - parent_depth)))
        for child in node.children:
            walk(child, name, depth)

    walk(utree.root, None, 0.0)
    return tuple(edges)


class TestRestrictedToTree:
    def test_edges_match_recursive_reference(self, rng):
        # fitted, clamped ultrametrics as fit_tree_metric makes them
        for _ in range(20):
            labels = tuple(f"s{k}" for k in range(rng.randint(3, 9)))
            d = random_matrix(rng, labels, (1, 2, 3, 4))
            r = gromov_transform(d, rng.choice(labels))
            sub = fit_ultrametric(
                DistanceMatrix(labels, clamp_to_restricted(r.transformed.values, r)),
                lower_bound=False)
            u = clamp_to_restricted(sub.tree.distances(), r)
            assert restricted_to_tree(u, r, d).edges == reference_tree_edges(u, r)

    def test_star_back_transform(self):
        r = gromov_transform(STAR, "a")
        u = r.transformed.values  # exact fit
        tree = restricted_to_tree(u, r, STAR)
        assert tree.distance("b", "c") == pytest.approx(3.0)
        assert tree.distance("a", "b") == pytest.approx(2.0)
        assert tree.distance("a", "c") == pytest.approx(3.0)

    def test_round_trip_random_trees(self, rng):
        for _ in range(10):
            d, _ = random_tree_metric(rng, rng.randint(4, 8))
            pivot = rng.choice(d.labels)
            r = gromov_transform(d, pivot)
            tree = restricted_to_tree(r.transformed.values, r, d)
            for i, j, v in d.pairs():
                assert tree.distance(i, j) == pytest.approx(v, abs=1e-9)

    def test_constant_cap_gives_pivot_star(self):
        r = gromov_transform(STAR, "a")
        u = np.full(len(r.transformed.values), r.gamma)
        tree = restricted_to_tree(u, r, STAR)
        h = r.heights
        assert tree.distance("b", "c") == pytest.approx(h[1] + h[2])

    def test_restriction_violation_rejected(self):
        r = gromov_transform(STAR, "a")
        bad = r.transformed.values.copy()
        bad[AB] = 1.0  # pivot pair must stay at the cap
        with pytest.raises(ValueError):
            restricted_to_tree(bad, r, STAR)

    @pytest.mark.parametrize("size", [1, 4])
    def test_vector_of_wrong_length_rejected(self, size):
        r = gromov_transform(STAR, "a")
        with pytest.raises(ValueError, match="shape"):
            restricted_to_tree(np.full(size, r.gamma), r, STAR)

    def test_deeper_than_the_recursion_limit(self):
        # a caterpillar: leaf k hangs by weight 1 off spine node k, spine
        # edges weigh 1; from pivot l000 its ultrametric tree is n - 1 deep
        n = 120
        labels = tuple(f"l{k:03d}" for k in range(n))
        d = DistanceMatrix.from_pairs(labels, {(labels[a], labels[b]): 2.0 + b - a
                                               for a, b in all_pairs(range(n))})
        r = gromov_transform(d, labels[0])
        u = r.transformed.values
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            tree = restricted_to_tree(u, r, d)
        finally:
            sys.setrecursionlimit(old_limit)
        assert len(tree.edges) == 2 * n - 3
        realized = tree.distance_map()
        for i, j, v in d.pairs():
            assert realized[(i, j)] == v


class TestPseudometricFix:
    def test_positive_tree_untouched(self):
        t = WeightedTree(labels=("a", "b", "c"),
                         edges=(("a", "m", 1.0), ("b", "m", 1.0), ("c", "m", 2.0)))
        d = DistanceMatrix.from_pairs("abc", t.distance_map())
        fixed = pseudometric_to_metric(t, d, 0.5)
        assert fixed.distance_map() == pytest.approx(t.distance_map())
        assert not fixed.has_zero_weight()

    def test_coinciding_species_get_stems(self):
        t = WeightedTree(labels=("a", "b", "c"),
                         edges=(("u", "a", 0.0), ("u", "b", 0.0), ("u", "c", 1.0)))
        d = DistanceMatrix.from_pairs("abc", {
            ("a", "b"): 0.5, ("a", "c"): 1.0, ("b", "c"): 1.0})
        alpha = 1.0 / 3.0
        fixed = pseudometric_to_metric(t, d, alpha)
        eps = alpha * 0.5 / (8 * 3)
        assert fixed.distance("a", "b") == pytest.approx(2 * eps)
        assert not fixed.has_zero_weight()
        assert min(fixed.distance_map().values()) > 0

    def test_error_inflation_bounded(self, rng):
        # random pseudometric trees: fixing costs at most a (1 + alpha) factor
        for _ in range(20):
            n = rng.randint(4, 8)
            labels = [f"s{k}" for k in range(n)]
            nodes = list(labels)
            edges = []
            counter = 0
            while len(nodes) > 1:
                rng.shuffle(nodes)
                a, b = nodes.pop(), nodes.pop()
                name = f"i{counter}"
                counter += 1
                edges.append((a, name, rng.choice([0.0, 0.0, rng.uniform(0.2, 2.0)])))
                edges.append((b, name, rng.choice([0.0, rng.uniform(0.2, 2.0)])))
                nodes.append(name)
            tree = WeightedTree(labels=tuple(labels), edges=tuple(edges))
            d = random_metric(rng, tuple(labels))
            alpha = 1.0 / n
            fixed = pseudometric_to_metric(tree, d, alpha)
            base = lp_norm_error(tree, d, 1)
            assert lp_norm_error(fixed, d, 1) <= (1 + alpha) * base + 1e-9
            assert not fixed.has_zero_weight()


class TestFitTreeMetric:
    def test_exact_recovery(self, rng):
        for _ in range(5):
            d, _ = random_tree_metric(rng, rng.randint(4, 8))
            fitted = fit_tree_metric(d)
            assert fitted.l1_error <= 1e-9
            assert not fitted.tree.has_zero_weight()
            assert min(fitted.tree.distance_map().values()) > 0

    def test_three_point_metrics_fit_exactly(self, rng):
        for _ in range(20):
            d = random_metric(rng, ("a", "b", "c"))
            fitted = fit_tree_metric(d)
            assert fitted.l1_error <= 1e-9

    def test_fixed_pivot_mode(self, rng):
        d, _ = random_tree_metric(rng, 6)
        fitted = fit_tree_metric(d, pivot_mode="fixed", pivot=d.labels[0])
        assert fitted.l1_error <= 1e-9
        assert fitted.details["pivot"] == d.labels[0]

    def test_two_hub_instance_stays_metric(self):
        # all distances 2 except pairs touching either hub, which sit at 1;
        # the best tree pseudometric would glue the hubs together
        labels = tuple(f"s{k}" for k in range(6))
        hubs = {labels[0], labels[1]}
        values = {}
        for i, j in itertools.combinations(labels, 2):
            values[(i, j)] = 1.0 if (i in hubs or j in hubs) else 2.0
        d = DistanceMatrix.from_pairs(labels, values)
        fitted = fit_tree_metric(d)
        assert 0 < fitted.l1_error < sum(values.values())
        assert not fitted.tree.has_zero_weight()
        assert min(fitted.tree.distance_map().values()) > 0

    def test_error_bookkeeping_identity(self, rng):
        # per pivot: tree error equals twice the ultrametric error on
        # non-pivot pairs (pivot rows are preserved exactly)
        for _ in range(5):
            labels = tuple(f"s{k}" for k in range(6))
            d = random_metric(rng, labels)
            pivot = rng.choice(labels)
            r = gromov_transform(d, pivot)
            sub = fit_ultrametric(
                DistanceMatrix(labels, clamp_to_restricted(r.transformed.values, r)))
            clamped = clamp_to_restricted(sub.tree.distances(), r)
            tree = restricted_to_tree(clamped, r, d)
            tree_err = lp_norm_error(tree, d, 1)
            ultra_err = sum(
                abs(c - v) for p, c, v in zip(all_pairs(labels), clamped, r.transformed.values)
                if pivot not in p)
            pivot_err = sum(
                abs(tree.distance(*p) - d.d[p]) for p in d.d if pivot in p)
            assert pivot_err <= 1e-9
            assert tree_err == pytest.approx(2.0 * ultra_err + pivot_err, abs=1e-9)


def per_pivot_route(d, pivots):
    """Every pivot's sub-fit with its own bound, as each pivot was once fitted."""
    best, per_pivot = None, {}
    for a in pivots:
        r = gromov_transform(d, a)
        sub = fit_ultrametric(
            DistanceMatrix(d.labels, clamp_to_restricted(r.transformed.values, r)))
        clamped = clamp_to_restricted(sub.tree.distances(), r)
        err = lp_norm_error(restricted_to_tree(clamped, r, d), d, 1)
        per_pivot[a] = err
        if best is None or err < best[0]:
            best = (err, a, sub.lp_lower_bound)
    return best[1], best[2], per_pivot


class TestTreeModeBound:
    def test_winner_bound_matches_per_pivot_route(self, rng):
        bounds = []
        for _ in range(4):
            labels = tuple(f"s{k}" for k in range(rng.randint(4, 9)))
            d = random_matrix(rng, labels, range(1, 5))
            for mode in ("all", "fixed"):
                pivot = rng.choice(labels)
                fitted = fit_tree_metric(d, pivot_mode=mode, pivot=pivot)
                pivots = labels if mode == "all" else (pivot,)
                winner, bound, per_pivot = per_pivot_route(d, pivots)
                assert fitted.lp_lower_bound == bound
                assert fitted.details["pivot"] == winner
                assert fitted.details["per_pivot_error"] == per_pivot
                point = fitted.details["lp_solution"]  # None on the clique shortcut
                assert (0.0 if point is None else point.objective) == bound
                assert fitted.lp_lower_bound <= fitted.l1_error + 1e-9
                bounds.append(bound)
        assert max(bounds) > 0


class TestEdgeCases:
    def test_single_label(self):
        d = DistanceMatrix.from_pairs(("solo",), {})
        fitted = fit_tree_metric(d)
        assert fitted.tree == WeightedTree(("solo",), (), root="solo")
        assert (fitted.l1_error, fitted.lp_lower_bound, fitted.num_levels) == (0.0, 0.0, 0)

    def test_single_label_unknown_pivot(self):
        d = DistanceMatrix.from_pairs(("solo",), {})
        with pytest.raises(ValueError, match="valid pivot"):
            fit_tree_metric(d, pivot_mode="fixed", pivot="zzz")

    def test_two_labels_exact(self):
        d = DistanceMatrix.from_pairs(("a", "b"), {("a", "b"): 3.0})
        fitted = fit_tree_metric(d)
        assert fitted.l1_error == 0.0
        assert fitted.tree.distance("a", "b") == pytest.approx(3.0)

    def test_labels_colliding_with_internal_names(self):
        labels = ("v0", "v1", "hub0", "x")
        values = {("v0", "v1"): 2.0, ("v0", "hub0"): 3.0, ("v0", "x"): 3.0,
                  ("v1", "hub0"): 3.0, ("v1", "x"): 3.0, ("hub0", "x"): 1.0}
        d = DistanceMatrix.from_pairs(labels, values)
        fitted = fit_tree_metric(d)
        assert fitted.l1_error <= 1e-9
