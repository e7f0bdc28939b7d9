"""Acceptance suite: one test per criterion, one pass/fail line each.

Regression gates for the oracle sandwich were frozen from the initial sweep
over the full corpus (observed maxima 2.0 for both ratios) plus a 10% margin.
"""
import itertools
import math
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from treefit.core import (
    DistanceMatrix,
    HierarchySequence,
    UltrametricTree,
    WeightedTree,
    all_pairs,
    is_ultrametric,
    lp_norm_error,
)
from treefit.corrclust import corr_cluster, corr_cluster_cost
from treefit.hca import (
    LpClusterFamilies,
    check_hierarchy_friendly,
    derive_hierarchy,
    fit_hca_report,
)
from treefit.hcc import fit_hcc
from treefit.lp import HccInstance, build_lp, hierarchy_cost, solve_lp
from treefit.oracle import (
    exact_corr_cluster,
    exact_hcc,
    exact_ultrametric_l1,
)
from treefit.treemetric import (
    clamp_to_restricted,
    fit_tree_metric,
    gromov_transform,
    pseudometric_to_metric,
)
from treefit.ultrametric import fit_ultrametric, hcc_instance_from_distances
from conftest import (
    flatten_to_12,
    invariant_violations,
    planted_ultrametric,
    random_hierarchy,
    random_matrix,
    random_partition,
    random_tree_metric,
    random_ultrametric_map,
)

MAX_RATIO_TO_OPT = 2.2   # frozen: observed 2.0 + 10%
MAX_RATIO_TO_LP = 2.2    # frozen: observed 2.0 + 10%


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_exact_recovery():
    rng = random.Random(101)
    worst_u = 0.0
    slowest = 0.0
    for run in range(50):
        n_levels = rng.randint(4, 6)
        values = sorted({round(rng.uniform(0.5, 12.0), 3)
                         for _ in range(n_levels + 1)})
        while len(values) < n_levels + 1:
            values.append(round(values[-1] + rng.uniform(0.5, 2.0), 3))
        labels = [f"s{k:02d}" for k in range(32)]
        d = planted_ultrametric(rng, labels, values)
        t0 = time.perf_counter()
        fitted = fit_ultrametric(d)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        worst_u = max(worst_u, fitted.l1_error)
        assert fitted.l1_error <= 1e-6
        assert elapsed < 30.0
    worst_t = 0.0
    for run in range(50):
        d, _ = random_tree_metric(rng, 16)
        t0 = time.perf_counter()
        fitted = fit_tree_metric(d, pivot_mode="all")
        elapsed = time.perf_counter() - t0
        worst_t = max(worst_t, fitted.l1_error)
        assert fitted.l1_error <= 1e-6
        assert elapsed < 30.0
        slowest = max(slowest, elapsed)
    report(1, f"50+50 exact recoveries; worst errors {worst_u:.2e} / "
              f"{worst_t:.2e}, slowest run {slowest:.2f}s")


def test_criterion_2_cost_identity():
    rng = random.Random(202)
    worst = 0.0
    for run in range(200):
        n = rng.randint(4, 10)
        labels = [f"s{k}" for k in range(n)]
        values = sorted({round(rng.uniform(0.5, 9.0), 3)
                         for _ in range(rng.randint(2, 5))})
        if len(values) < 2:
            values.append(values[0] + 1.0)
        d = planted_ultrametric(rng, labels, values)
        inst, levels = hcc_instance_from_distances(d)
        chain = random_hierarchy(rng, d.labels, levels.n_levels)
        hierarchy = HierarchySequence(tuple(chain))
        from treefit.ultrametric import hierarchy_to_ultrametric

        tree = hierarchy_to_ultrametric(hierarchy, levels)
        gap = abs(hierarchy_cost(inst, hierarchy) - lp_norm_error(tree, d, 1))
        worst = max(worst, gap)
        assert gap <= 1e-9
    report(2, f"200 random hierarchies; worst identity gap {worst:.2e}")


def _corpus():
    for n in (3, 4):
        labels = tuple(f"s{k}" for k in range(n))
        pairs = list(all_pairs(labels))
        for combo in itertools.product((1.0, 2.0, 3.0), repeat=len(pairs)):
            yield DistanceMatrix.from_pairs(labels, dict(zip(pairs, combo)))
    rng = random.Random(1234)
    for n, count in ((5, 60), (6, 40)):
        labels = tuple(f"s{k}" for k in range(n))
        pairs = list(all_pairs(labels))
        for _ in range(count):
            yield DistanceMatrix.from_pairs(
                labels, {p: float(rng.choice([1.0, 2.0, 3.0])) for p in pairs})


def test_criterion_3_oracle_sandwich():
    max_opt_ratio = 0.0
    max_lp_ratio = 0.0
    count = 0
    for d in _corpus():
        count += 1
        fitted = fit_ultrametric(d)
        _, opt = exact_ultrametric_l1(d)
        lp = fitted.lp_lower_bound
        assert lp <= opt + 1e-6
        assert opt <= fitted.l1_error + 1e-9
        if opt > 1e-9:
            max_opt_ratio = max(max_opt_ratio, fitted.l1_error / opt)
        else:
            assert fitted.l1_error <= 1e-9
        if lp > 1e-9:
            max_lp_ratio = max(max_lp_ratio, fitted.l1_error / lp)
    assert count >= 500
    assert max_opt_ratio <= MAX_RATIO_TO_OPT
    assert max_lp_ratio <= MAX_RATIO_TO_LP
    report(3, f"{count} instances; max algo/OPT {max_opt_ratio:.3f} <= "
              f"{MAX_RATIO_TO_OPT}, max algo/LP {max_lp_ratio:.3f} <= "
              f"{MAX_RATIO_TO_LP}")


def test_criterion_4_structural_invariants():
    rng = random.Random(404)
    full_runs = 0
    total = 0
    while total < 1000:
        total += 1
        if total % 4 == 0:  # distance-derived levels
            n = rng.randint(4, 6)
            labels = tuple(f"s{k}" for k in range(n))
            d = random_matrix(rng, labels, [1.0, 2.0, 3.0])
            try:
                inst, _ = hcc_instance_from_distances(d)
            except Exception:
                continue
            res = fit_hcc(inst, fast_path=False).hca
        else:  # random agreement instances
            n = rng.randint(4, 7) if total % 10 else rng.randint(9, 10)
            labels = tuple(f"s{k}" for k in range(n))
            n_levels = rng.randint(1, 3)
            qs = [random_partition(rng, labels) for _ in range(n_levels)]
            deltas = [rng.uniform(0.3, 2.5) for _ in range(n_levels)]
            res = fit_hca_report(labels, qs, deltas, fast_path=False)
        assert not res.fast_path
        full_runs += 1
        problems = invariant_violations(res)
        assert problems == [], problems
    report(4, f"{full_runs} full pipeline runs, all structural invariants hold")


def test_criterion_5_order_invariance():
    rng = random.Random(505)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 400:
        attempts += 1
        n = rng.randint(5, 8)
        labels = tuple(f"s{k}" for k in range(n))
        n_levels = rng.randint(2, 3)
        qs = [random_partition(rng, labels) for _ in range(n_levels)]
        deltas = [rng.uniform(0.4, 2.0) for _ in range(n_levels)]
        res = fit_hca_report(labels, qs, deltas, fast_path=False)
        if res.families is None or not check_hierarchy_friendly(res.families):
            continue
        if sum(len(f) for f in res.families.levels) < 2:
            continue
        checked += 1
        reference = derive_hierarchy(labels, res.families)[0]
        for _ in range(20):
            shuffled = LpClusterFamilies(labels, tuple(
                tuple(sorted(fam, key=lambda _: rng.random()))
                for fam in res.families.levels))
            assert derive_hierarchy(labels, shuffled)[0] == reference
    assert checked >= 50
    report(5, f"{checked} cleaned inputs x 20 shuffles, output always identical")


def test_criterion_6_lifting():
    rng = random.Random(606)
    for run in range(200):
        n = rng.randint(4, 8)
        labels = tuple(f"s{k}" for k in range(n))
        base = random_matrix(rng, labels, [round(rng.uniform(0.5, 5.0), 2)
                                           for _ in range(4)])
        r = gromov_transform(base, rng.choice(labels))
        squeezed = DistanceMatrix(labels, clamp_to_restricted(r.transformed.values, r))
        raw = random_ultrametric_map(rng, labels)
        scale = r.gamma / max(raw.values()) * rng.uniform(0.4, 1.3)
        candidate = np.array([raw[p] * scale for p in all_pairs(labels)])
        clamped = clamp_to_restricted(candidate, r)
        assert is_ultrametric(dict(zip(all_pairs(labels), clamped)), tol=1e-9)
        for p in (1, 2, math.inf):
            assert lp_norm_error(clamped, squeezed, p) <= \
                lp_norm_error(candidate, squeezed, p) + 1e-9
    # pseudometric fix bound, alpha = 1/|S|
    for run in range(200):
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
            edges.append((a, name, rng.choice([0.0, rng.uniform(0.2, 2.0)])))
            edges.append((b, name, rng.choice([0.0, rng.uniform(0.2, 2.0)])))
            nodes.append(name)
        tree = WeightedTree(labels=tuple(labels), edges=tuple(edges))
        d = random_matrix(rng, tuple(labels), [1.0, 1.5, 2.0, 3.0])
        alpha = 1.0 / n
        fixed = pseudometric_to_metric(tree, d, alpha)
        assert lp_norm_error(fixed, d, 1) <= \
            (1.0 + alpha) * lp_norm_error(tree, d, 1) + 1e-9
        assert not fixed.has_zero_weight()
    report(6, "200 clamp runs ultrametric and non-increasing (p=1,2,inf); "
              "200 pseudometric fixes within (1+1/n)")


def _cc_fixtures(rng):
    out = []
    u5 = tuple("abcde")
    out.append((u5, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")]))
    u3 = tuple("xyz")
    out.append((u3, [("x", "y"), ("y", "z")]))
    out.append((u3, list(all_pairs(u3))))
    out.append((u3, []))
    for n in (6, 7, 8):
        universe = tuple(f"s{k}" for k in range(n))
        pool = list(all_pairs(universe))
        for density in (0.3, 0.6):
            out.append((universe, [p for p in pool if rng.random() < density]))
    return out


def test_criterion_7_corrclust_bounds():
    from treefit.core import EdgeSet

    rng = random.Random(707)
    worst_mean_ratio = 0.0
    for universe, pairs in _cc_fixtures(rng):
        edges = EdgeSet.from_pairs(universe, pairs)
        _, opt = exact_corr_cluster(universe, edges)
        sweep_cost = corr_cluster_cost(
            edges, corr_cluster(universe, edges, strategy="pivot-sweep"))
        assert sweep_cost >= opt
        costs = [corr_cluster_cost(
            edges, corr_cluster(universe, edges, strategy="kwik", seed=s))
            for s in range(200)]
        mean = statistics.fmean(costs)
        se = statistics.pstdev(costs) / math.sqrt(len(costs))
        assert mean <= 3.0 * opt + 2.0 * se + 1e-9
        if opt > 0:
            worst_mean_ratio = max(worst_mean_ratio, mean / opt)
    report(7, f"every fixture: mean kwik cost <= 3 OPT + 2 SE "
              f"(worst mean/OPT {worst_mean_ratio:.2f}); pivot-sweep >= OPT")


def test_criterion_8_lp_validation(tmp_path):
    rng = random.Random(808)
    script = Path(__file__).resolve().parents[1] / "scripts" / "check_lp_dump.py"
    for run in range(100):
        n = rng.randint(3, 6)
        labels = tuple(f"s{k}" for k in range(n))
        n_levels = rng.randint(1, 3)
        pool = list(all_pairs(labels))
        sets = tuple(
            __import__("treefit.core", fromlist=["EdgeSet"]).EdgeSet.from_pairs(
                labels, [p for p in pool if rng.random() < rng.uniform(0.2, 0.8)])
            for _ in range(n_levels))
        deltas = tuple(rng.uniform(0.4, 2.0) for _ in range(n_levels))
        inst = HccInstance(labels, deltas, sets)
        lp = build_lp(inst)
        sol = solve_lp(lp, 1e-7)
        assert max(sol.max_violation().values()) <= 1e-7
        _, opt = exact_hcc(inst)
        assert sol.objective <= opt + 1e-6
        dump = tmp_path / f"lp{run}.txt"
        dump.write_text(lp.dump_text(sol.x.reshape(-1), sol.objective))
        proc = subprocess.run([sys.executable, str(script), str(dump)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    report(8, "100 LPs feasible within 1e-7, below every integral hierarchy, "
              "dumps accepted by the external checker")


def test_criterion_9_flattening():
    rng = random.Random(909)
    for run in range(200):
        n = rng.randint(3, 7)
        labels = tuple(f"s{k}" for k in range(n))
        tree = UltrametricTree.from_map(
            labels, random_ultrametric_map(rng, labels))
        d = random_matrix(rng, labels, [1.0, 2.0])
        flat = flatten_to_12(tree, d)
        assert set(flat.distance_map().values()) <= {1.0, 2.0}
        assert lp_norm_error(flat, d, 1) <= lp_norm_error(tree, d, 1) + 1e-9
    report(9, "200 flattenings: error never increased, all values in {1,2}")
