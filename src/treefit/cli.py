"""Command-line surface: fit trees, run oracles, evaluate written trees.

Every command can emit a JSON report with a fixed key order; with --seed the
report is byte-identical across runs (timing is suppressed), which is the
determinism contract scripts rely on.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .core import VALUE_MERGE_TOL, DistanceMatrix, EdgeSet, WeightedTree, lp_norm_error
from .corrclust import corr_cluster, corr_cluster_cost, exact_corr_cluster
from .io import DataError, newick_string, parse_matrix, parse_newick, write_newick
from .lp import DEFAULT_FEAS_TOL, HccInstance, SolverError, build_lp, solve_lp
from .oracle import exact_hca, exact_ultrametric_l1
from .treemetric import fit_tree_metric
from .ultrametric import fit_ultrametric

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

RATIO_TOL = 1e-12


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


GLOBAL_DEFAULTS = {"seed": None, "lp_tol": DEFAULT_FEAS_TOL, "json_out": None,
                   "dump_lp": None}


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if math.isnan(value):  # `d <= nan` would make every label a singleton
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}")
    return value


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed; also makes JSON reports byte-identical")
    common.add_argument("--lp-tol", type=_tolerance, default=argparse.SUPPRESS,
                        help="LP feasibility tolerance")
    common.add_argument("--json-out", type=Path, default=argparse.SUPPRESS,
                        help="write the JSON report here")
    common.add_argument("--dump-lp", type=Path, default=argparse.SUPPRESS,
                        help="write the solved LP as a plain-text equation list")
    parser = _Parser(prog="treefit", parents=[common],
                     description="Fit distance matrices by ultrametrics or tree metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[common],
                         help="fit a tree to a distance matrix")
    fit.add_argument("mode", choices=["ultrametric", "tree"])
    fit.add_argument("matrix", type=Path)
    fit.add_argument("--format", choices=["auto", "csv", "phylip"], default="auto")
    fit.add_argument("--pivot", default=None, help="fixed pivot label (tree mode)")
    fit.add_argument("--strategy", choices=["pivot-sweep", "kwik", "exact"],
                     default="pivot-sweep", help="per-level clustering strategy")
    fit.add_argument("--tree-out", type=Path, default=None,
                     help="write the fitted tree as Newick")

    cc = sub.add_parser("corrclust", parents=[common],
                        help="cluster one thresholded level")
    cc.add_argument("matrix", type=Path)
    cc.add_argument("--format", choices=["auto", "csv", "phylip"], default="auto")
    cc.add_argument("--threshold", type=_threshold, default=None,
                    help="edges are pairs at distance <= threshold (default: min)")
    cc.add_argument("--exact", action="store_true", help="exact enumeration")

    orc = sub.add_parser("oracle", parents=[common],
                         help="exact brute-force solvers")
    orc.add_argument("which", choices=["ultrametric", "hca", "corrclust"])
    orc.add_argument("path", type=Path,
                     help="distance matrix, or a JSON instance for hca")
    orc.add_argument("--format", choices=["auto", "csv", "phylip"], default="auto")
    orc.add_argument("--threshold", type=_threshold, default=None)

    ev = sub.add_parser("eval", parents=[common],
                        help="L1 error of a Newick tree against a matrix")
    ev.add_argument("tree", type=Path)
    ev.add_argument("matrix", type=Path)
    ev.add_argument("--format", choices=["auto", "csv", "phylip"], default="auto")
    return parser


def _report(args, *, n, mode, l1_error, lp_lower_bound, num_levels,
            tree_newick, wall_ms) -> dict:
    """The fixed-schema report; a number in it that is not finite (a sum
    of distances that overflowed) raises a DataError that names it."""
    if lp_lower_bound is None:
        ratio = None
    elif lp_lower_bound > RATIO_TOL:
        ratio = l1_error / lp_lower_bound
    else:
        ratio = 1.0 if (l1_error is not None and l1_error <= RATIO_TOL) else None
    for name, value in (("l1_error", l1_error), ("lp_lower_bound", lp_lower_bound),
                        ("ratio_to_lp", ratio)):
        if value is not None and not math.isfinite(value):
            raise DataError(f"{name} is {value}, not a finite number: "
                            "the distances are too large")
    return {
        "n": n,
        "mode": mode,
        "l1_error": l1_error,
        "lp_lower_bound": lp_lower_bound,
        "num_levels": num_levels,
        "ratio_to_lp": ratio,
        "tree_newick": tree_newick,
        "wall_ms": 0 if args.seed is not None else wall_ms,
    }


def _emit(args, report: dict) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _edges_from_threshold(d: DistanceMatrix, threshold: float | None) -> EdgeSet:
    if threshold is None:
        threshold = min(d.values.tolist(), default=0.0)  # one label: no pairs
    return EdgeSet(d.labels, d.values <= threshold + VALUE_MERGE_TOL)


NO_LP_SINGLE_LABEL = "# lp-dump v1\n# no LP: single label\n"


def _dump_requested_lp(args, d: DistanceMatrix, fitted) -> None:
    """Dump the level LP of the instance the fit solved, `details["hcc"]`:
    in tree mode the winning pivot's subproblem.

    The point is the one behind the fit's reported bound; the LP is solved
    here only when the fit cost 0 and so skipped the solve.
    """
    if d.n == 1:
        args.dump_lp.write_text(NO_LP_SINGLE_LABEL)
        return
    hcc_result = fitted.details.get("hcc")
    if hcc_result is None:
        args.dump_lp.write_text("# lp-dump v1\n# no LP: single distinct distance\n")
        return
    lp = build_lp(hcc_result.instance)
    sol = hcc_result.lp_solution or solve_lp(lp, args.lp_tol)
    args.dump_lp.write_text(lp.dump_text(sol.x.reshape(-1), sol.objective))


def _cmd_fit(args) -> int:
    d = parse_matrix(args.matrix, args.format)
    seed = args.seed if args.seed is not None else 0  # keep kwik reproducible
    t0 = time.perf_counter()
    if args.mode == "ultrametric":
        fitted = fit_ultrametric(d, strategy=args.strategy, seed=seed,
                                 feas_tol=args.lp_tol)
    else:
        mode = "fixed" if args.pivot is not None else "all"
        fitted = fit_tree_metric(d, pivot_mode=mode, pivot=args.pivot,
                                 strategy=args.strategy, seed=seed,
                                 feas_tol=args.lp_tol)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    report = _report(args, n=d.n, mode=args.mode, l1_error=fitted.l1_error,
                     lp_lower_bound=fitted.lp_lower_bound, num_levels=fitted.num_levels,
                     tree_newick=newick_string(fitted), wall_ms=wall_ms)
    if args.tree_out is not None:
        write_newick(fitted, args.tree_out)
    if args.dump_lp is not None:
        _dump_requested_lp(args, d, fitted)
    _emit(args, report)
    return EXIT_OK


def _cmd_corrclust(args) -> int:
    d = parse_matrix(args.matrix, args.format)
    edges = _edges_from_threshold(d, args.threshold)
    t0 = time.perf_counter()
    if args.exact:
        partition, cost = exact_corr_cluster(d.labels, edges)
    else:
        partition = corr_cluster(d.labels, edges, strategy="pivot-sweep",
                                 seed=args.seed)
        cost = corr_cluster_cost(edges, partition)
    lp = sol = None
    if d.n > 1:  # one label has no pairs, so no LP; its bound is 0, as `fit` reports
        lp = build_lp(HccInstance(d.labels, (1.0,), (edges,)))
        sol = solve_lp(lp, args.lp_tol)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    for part in partition.parts:
        print("cluster:", " ".join(sorted(part)))
    if args.dump_lp is not None:
        args.dump_lp.write_text(NO_LP_SINGLE_LABEL if lp is None
                                else lp.dump_text(sol.x.reshape(-1), sol.objective))
    _emit(args, _report(args, n=d.n, mode="corrclust", l1_error=float(cost),
                        lp_lower_bound=0.0 if sol is None else sol.objective,
                        num_levels=1, tree_newick=None, wall_ms=wall_ms))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    if args.which == "hca":
        payload = json.loads(Path(args.path).read_text())
        try:
            labels = tuple(payload["labels"])
            deltas = tuple(float(x) for x in payload["deltas"])
            from .core import Partition

            partitions = [Partition.from_parts(labels, parts)
                          for parts in payload["partitions"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.path}: bad instance JSON: {exc}") from exc
        hierarchy, cost = exact_hca(labels, partitions, deltas)
        wall_ms = int(round((time.perf_counter() - t0) * 1000))
        report = _report(args, n=len(labels), mode="oracle-hca", l1_error=cost,
                         lp_lower_bound=None, num_levels=len(deltas),
                         tree_newick=None, wall_ms=wall_ms)
        for t, part in enumerate(hierarchy.levels, start=1):
            print(f"level {t}:", " | ".join(" ".join(sorted(p)) for p in part.parts))
        _emit(args, report)
        return EXIT_OK

    d = parse_matrix(args.path, args.format)
    if args.which == "ultrametric":
        tree, cost = exact_ultrametric_l1(d)
        wall_ms = int(round((time.perf_counter() - t0) * 1000))
        _emit(args, _report(args, n=d.n, mode="oracle-ultrametric",
                            l1_error=cost, lp_lower_bound=None,
                            num_levels=max(len(d.distinct_values()) - 1, 0),
                            tree_newick=newick_string(tree), wall_ms=wall_ms))
        return EXIT_OK
    edges = _edges_from_threshold(d, args.threshold)
    partition, cost = exact_corr_cluster(d.labels, edges)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    for part in partition.parts:
        print("cluster:", " ".join(sorted(part)))
    _emit(args, _report(args, n=d.n, mode="oracle-corrclust",
                        l1_error=float(cost), lp_lower_bound=None,
                        num_levels=1, tree_newick=None, wall_ms=wall_ms))
    return EXIT_OK


def _cmd_eval(args) -> int:
    d = parse_matrix(args.matrix, args.format)
    tree = parse_newick(Path(args.tree).read_text())
    named = set(tree.labels)
    missing = [lab for lab in d.labels if lab not in named]
    if missing:
        raise DataError(f"{args.tree}: tree is missing labels {missing}")
    t0 = time.perf_counter()
    # distances from the table's labels only, in the tree's label order so
    # each path is summed from the same end as over the whole tree
    wanted = set(d.labels)
    tree = WeightedTree(tuple(lab for lab in tree.labels if lab in wanted), tree.edges)
    total = lp_norm_error(tree, d, 1)
    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    _emit(args, _report(args, n=d.n, mode="eval", l1_error=total,
                        lp_lower_bound=None, num_levels=None,
                        tree_newick=None, wall_ms=wall_ms))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "corrclust":
            return _cmd_corrclust(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "eval":
            return _cmd_eval(args)
        parser.error(f"unknown command {args.command!r}")
        return EXIT_USAGE
    except SolverError as exc:
        print(f"treefit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, FileNotFoundError) as exc:  # DataError and JSONDecodeError too
        print(f"treefit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RecursionError:
        print("treefit: data error: tree too deep", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
