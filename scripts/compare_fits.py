#!/usr/bin/env python3
"""Fit a fixed seeded grid of random tables and compare two such runs.

    PYTHONPATH=<checkout>/src python scripts/compare_fits.py > fits.jsonl
    python scripts/compare_fits.py --diff old.jsonl new.jsonl

The first form writes every table of the grid to CSV, reads it back (the
values must come back bit for bit), fits it through the public API and
writes one JSON line per fit: its id, the `repr` of `l1_error` and of
`lp_lower_bound`, the sha256 of the Newick string, and `opt`: the `repr` of
the exact optimum from `oracle.exact_ultrametric_l1` for an ultrametric fit
with n <= `oracle.ULTRAMETRIC_CAP`, null above the cap and in tree mode. The
grid holds
ultrametric fits for n = 3..20 and tree fits for n = 3..12, each with five
kinds of values: `int`, integers 1..4; `cont`, drawn from 8 random ones in
[1, 9] (continuous level gaps, few enough levels that n = 20 stays fast), so
the grid reaches both LP backends; `exact`, a table the mode fits with no
error (a planted ultrametric, or the path metric of a random tree with
integer edge weights 1..3), so clustering levels with no disagreements are
reached too; `near`, values clustered around a few centres with gaps
on both sides of the 1e-12 tolerance within which near ties merge, so the
merge rule is reached; and `flat`, one integer centre with some pairs nudged
above it by less than 1e-12, so every value merges into one: the one-value
star of an ultrametric fit and a near-tie transform in tree mode, while
`opt` searches the raw values unmerged. Run it once against each checkout
to compare.

`--diff A B` prints how many fits changed (Newick or error), how many
errors rose or fell, each changed fit with its old -> new error, and every
bound and every optimum that changed. Then it counts, in run A and in run B
(as `A -> B`), the fits whose bound is above their error, whose bound is
above their optimum, and whose error is below their optimum: a true bound
and a true optimum make all three 0. It exits 1 when the two runs do not
hold the same fits.
"""
import argparse
import hashlib
import json
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path


def planted_ultrametric(rng: random.Random, labels: list[str]) -> dict:
    """Random merges, each one to three units above its higher part."""
    parts = [([lab], 0) for lab in labels]
    values = {}
    while len(parts) > 1:
        (a, ha), (b, hb) = (parts.pop(rng.randrange(len(parts))) for _ in range(2))
        height = max(ha, hb) + rng.randint(1, 3)
        values.update(((x, y), float(height)) for x in a for y in b)
        parts.append((a + b, height))
    return values


def tree_path_metric(rng: random.Random, labels: list[str]) -> dict:
    """Path lengths between the labelled nodes of a random tree of n to 1.5 n
    nodes: each node hangs from an earlier one by an edge of weight 1..3, and
    the n labels sit on distinct random nodes."""
    n_nodes = len(labels) + rng.randrange(len(labels) // 2 + 1)
    depth, paths = [0], [[]]  # each node's path from the root, root left out
    for node in range(1, n_nodes):
        up = rng.randrange(node)
        depth.append(depth[up] + rng.randint(1, 3))
        paths.append(paths[up] + [node])
    at = dict(zip(labels, rng.sample(range(n_nodes), len(labels))))

    def distance(u: int, v: int) -> float:
        common = 0
        for a, b in zip(paths[u], paths[v]):
            if a != b:
                break
            common = a
        return float(depth[u] + depth[v] - 2 * depth[common])

    return {(x, y): distance(at[x], at[y]) for x, y in combinations(labels, 2)}


def near_values(rng: random.Random) -> list[float]:
    """Three clusters, each an integer centre c in 1..9 and two values above
    it, c + g1 and c + g1 + g2, with gaps g from 0.5e-12 to 1.5e-12."""
    pool = []
    for centre in rng.sample(range(1, 10), 3):
        value = float(centre)
        pool.append(value)
        for _ in range(2):
            value += rng.uniform(0.5e-12, 1.5e-12)
            pool.append(value)
    return pool


def flat_values(rng: random.Random) -> list[float]:
    """An integer centre c in 1..9, three times, and three values c + g with
    g from 0.1e-12 to 0.9e-12, all within 1e-12 of each other."""
    centre = float(rng.randint(1, 9))
    return [centre] * 3 + [centre + rng.uniform(0.1e-12, 0.9e-12) for _ in range(3)]


def grid(reps: int, max_n: int):
    """(id, mode, labels, values) of each fit, in a fixed order."""
    exact = {"ultrametric": planted_ultrametric, "tree": tree_path_metric}
    for mode, top in (("ultrametric", 20), ("tree", 12)):
        for n in range(3, min(top, max_n) + 1):
            for kind in ("int", "cont", "exact", "near", "flat"):
                for rep in range(reps):
                    fit_id = f"{mode}-n{n}-{kind}-{rep}"
                    rng = random.Random(fit_id)
                    labels = [f"s{k}" for k in range(n)]
                    if kind == "exact":
                        yield fit_id, mode, labels, exact[mode](rng, labels)
                        continue
                    if kind == "near":
                        pool = near_values(rng)
                    elif kind == "flat":
                        pool = flat_values(rng)
                    elif kind == "int":
                        pool = [1.0, 2.0, 3.0, 4.0]
                    else:
                        pool = [round(rng.uniform(1.0, 9.0), 3) for _ in range(8)]
                    values = {p: rng.choice(pool) for p in combinations(labels, 2)}
                    yield fit_id, mode, labels, values


def run(reps: int, max_n: int, out) -> None:
    from treefit import DistanceMatrix, fit_tree_metric, fit_ultrametric
    from treefit.io import newick_string, parse_matrix, write_matrix_csv
    from treefit.oracle import ULTRAMETRIC_CAP, exact_ultrametric_l1

    fits = {"ultrametric": fit_ultrametric, "tree": fit_tree_metric}
    with tempfile.TemporaryDirectory() as folder:
        csv = Path(folder, "table.csv")
        for fit_id, mode, labels, values in grid(reps, max_n):
            table = DistanceMatrix.from_pairs(labels, values)
            write_matrix_csv(table, csv)
            d = parse_matrix(csv)  # so that a change in the parser shows too
            if (d.labels, d.values.tobytes()) != (table.labels, table.values.tobytes()):
                raise AssertionError(f"{fit_id}: the table reads back from CSV changed")
            fitted = fits[mode](d)
            newick = newick_string(fitted).encode()
            opt = None
            if mode == "ultrametric" and d.n <= ULTRAMETRIC_CAP:
                opt = repr(exact_ultrametric_l1(d)[1])
            out.write(json.dumps({"id": fit_id, "l1_error": repr(fitted.l1_error),
                                  "lp_lower_bound": repr(fitted.lp_lower_bound),
                                  "newick_sha256": hashlib.sha256(newick).hexdigest(),
                                  "opt": opt}) + "\n")


def load(path: str) -> dict:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return {r["id"]: r for r in records}


def truth_counts(run: dict) -> tuple[int, int, int]:
    """The fits of a run whose bound is above their error, whose bound is
    above their optimum, and whose error is below their optimum."""
    known = [r for r in run.values() if r["opt"] is not None]
    return (sum(float(r["lp_lower_bound"]) > float(r["l1_error"]) for r in run.values()),
            sum(float(r["lp_lower_bound"]) > float(r["opt"]) for r in known),
            sum(float(r["l1_error"]) < float(r["opt"]) for r in known))


def diff(path_a: str, path_b: str, out) -> int:
    a, b = load(path_a), load(path_b)
    if a.keys() != b.keys():
        out.write(f"different fits: {len(a.keys() - b.keys())} only in {path_a}, "
                  f"{len(b.keys() - a.keys())} only in {path_b}\n")
        return 1
    changed = [k for k in a if (a[k]["l1_error"], a[k]["newick_sha256"])
               != (b[k]["l1_error"], b[k]["newick_sha256"])]
    rose = [k for k in changed if float(b[k]["l1_error"]) > float(a[k]["l1_error"])]
    fell = [k for k in changed if float(b[k]["l1_error"]) < float(a[k]["l1_error"])]
    bounds = [k for k in a if a[k]["lp_lower_bound"] != b[k]["lp_lower_bound"]]
    optima = [k for k in a if a[k]["opt"] != b[k]["opt"]]
    out.write(f"{len(a)} fits, {len(changed)} changed: "
              f"{len(rose)} errors rose, {len(fell)} fell\n")
    for k in changed:
        out.write(f"  {k}: l1_error {a[k]['l1_error']} -> {b[k]['l1_error']}\n")
    out.write(f"{len(bounds)} bounds changed\n")
    for k in bounds:
        out.write(f"  {k}: lp_lower_bound {a[k]['lp_lower_bound']} -> "
                  f"{b[k]['lp_lower_bound']}\n")
    out.write(f"{len(optima)} optima changed\n")
    for k in optima:
        out.write(f"  {k}: opt {a[k]['opt']} -> {b[k]['opt']}\n")
    truths = ("bounds above their error", "bounds above their optimum",
              "errors below their optimum")
    for what, count_a, count_b in zip(truths, truth_counts(a), truth_counts(b)):
        out.write(f"{count_a} -> {count_b} {what}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two runs instead of fitting")
    parser.add_argument("--reps", type=int, default=10,
                        help="tables per mode, size and value kind (default 10)")
    parser.add_argument("--max-n", type=int, default=20,
                        help="largest table size fitted (default 20)")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff, sys.stdout)
    run(args.reps, args.max_n, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
