"""Command-line surface: fit trees, run oracles, evaluate written trees.

Every command can emit a JSON report with a fixed key order; with --seed the
report is byte-identical across runs (timing is suppressed), which is the
determinism contract scripts rely on. Each command returns its checked
report, the lines it prints and the files it writes; `main` writes every file
before it prints, so a run that fails prints nothing.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from pathlib import Path

from .core import (VALUE_MERGE_TOL, DistanceMatrix, EdgeSet, Partition, WeightedTree,
                   lp_norm_error)
from .corrclust import corr_cluster, corr_cluster_cost, exact_corr_cluster
from .hcc import lp_lower_bound
from .io import DataError, newick_string, parse_matrix, parse_newick
from .lp import DEFAULT_FEAS_TOL, HccInstance, LpSolution, SolverError, build_lp, solve_lp
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
    shared = argparse.ArgumentParser(add_help=False, parents=[common])  # of each subcommand
    shared.add_argument("--format", choices=["auto", "csv", "phylip"], default="auto")

    fit = sub.add_parser("fit", parents=[shared],
                         help="fit a tree to a distance matrix")
    fit.add_argument("mode", choices=["ultrametric", "tree"])
    fit.add_argument("matrix", type=Path)
    fit.add_argument("--pivot", default=None, help="fixed pivot label (tree mode)")
    fit.add_argument("--strategy", choices=["pivot-sweep", "kwik", "exact"],
                     default="pivot-sweep", help="per-level clustering strategy")
    fit.add_argument("--tree-out", type=Path, default=None,
                     help="write the fitted tree as Newick")

    cc = sub.add_parser("corrclust", parents=[shared],
                        help="cluster one thresholded level")
    cc.add_argument("matrix", type=Path)
    cc.add_argument("--threshold", type=_threshold, default=None,
                    help="edges are pairs at distance <= threshold (default: min)")
    cc.add_argument("--exact", action="store_true", help="exact enumeration")

    orc = sub.add_parser("oracle", parents=[shared],
                         help="exact brute-force solvers")
    orc.add_argument("which", choices=["ultrametric", "hca", "corrclust"])
    orc.add_argument("path", type=Path,
                     help="distance matrix, or a JSON instance for hca")
    orc.add_argument("--threshold", type=_threshold, default=None)

    ev = sub.add_parser("eval", parents=[shared],
                        help="L1 error of a Newick tree against a matrix")
    ev.add_argument("tree", type=Path)
    ev.add_argument("matrix", type=Path)
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


def _timed(compute, *args, **kwargs):
    """compute's result, and the milliseconds it took: a report's wall_ms."""
    t0 = time.perf_counter()
    result = compute(*args, **kwargs)
    return result, int(round((time.perf_counter() - t0) * 1000))


def _edges_from_threshold(d: DistanceMatrix, threshold: float | None) -> EdgeSet:
    if threshold is None:
        threshold = min(d.values.tolist(), default=0.0)  # one label: no pairs
    return EdgeSet(d.labels, d.values <= threshold + VALUE_MERGE_TOL)


def _cluster_lines(partition: Partition) -> list[str]:
    return [f"cluster: {' '.join(sorted(part))}" for part in partition.parts]


NO_LP = "# lp-dump v1\n# no LP: {}\n"


def _lp_dump(inst: HccInstance, sol: LpSolution | None, feas_tol: float) -> str:
    """The level LP of inst at sol, the point behind the reported bound; the
    LP is solved here only when the caller skipped the solve (a cost of 0,
    bound 0)."""
    lp = build_lp(inst)
    sol = sol or solve_lp(lp, feas_tol)
    return lp.dump_text(sol.x.reshape(-1), sol.objective)


def _cmd_fit(args):
    d = parse_matrix(args.matrix, args.format)
    seed = args.seed if args.seed is not None else 0  # keep kwik reproducible
    fit, kwargs = fit_ultrametric, {}
    if args.mode == "tree":
        mode = "fixed" if args.pivot is not None else "all"
        fit, kwargs = fit_tree_metric, {"pivot_mode": mode, "pivot": args.pivot}
    fitted, wall_ms = _timed(fit, d, strategy=args.strategy, seed=seed,
                             feas_tol=args.lp_tol, **kwargs)
    newick = newick_string(fitted)
    report = _report(args, n=d.n, mode=args.mode, l1_error=fitted.l1_error,
                     lp_lower_bound=fitted.lp_lower_bound, num_levels=fitted.num_levels,
                     tree_newick=newick, wall_ms=wall_ms)
    files = {}
    if args.tree_out is not None:
        files[args.tree_out] = newick + "\n"
    if args.dump_lp is not None:
        # the LP behind the bound: in tree mode the winning pivot's subproblem
        inst = fitted.details["instance"]
        files[args.dump_lp] = (
            _lp_dump(inst, fitted.details["lp_solution"], args.lp_tol) if inst is not None
            else NO_LP.format("single label" if d.n == 1 else "single distinct distance"))
    return report, [], files


def _cmd_corrclust(args):
    d = parse_matrix(args.matrix, args.format)
    edges = _edges_from_threshold(d, args.threshold)
    # one label has no pairs, so cost 0 and bound 0, as `fit` reports
    inst = HccInstance(d.labels, (1.0,), (edges,))

    def solve():
        if args.exact:
            partition, cost = exact_corr_cluster(d.labels, edges)
        else:
            partition = corr_cluster(d.labels, edges, strategy="pivot-sweep",
                                     seed=args.seed)
            cost = corr_cluster_cost(edges, partition)
        cost = float(cost)
        return partition, cost, *lp_lower_bound(inst, cost, feas_tol=args.lp_tol)

    (partition, cost, bound, sol), wall_ms = _timed(solve)
    report = _report(args, n=d.n, mode="corrclust", l1_error=cost, lp_lower_bound=bound,
                     num_levels=1, tree_newick=None, wall_ms=wall_ms)
    files = {}
    if args.dump_lp is not None:
        files[args.dump_lp] = (NO_LP.format("single label") if d.n == 1
                               else _lp_dump(inst, sol, args.lp_tol))
    return report, _cluster_lines(partition), files


def _cmd_oracle(args):
    if args.which == "hca":
        payload = json.loads(Path(args.path).read_text())
        try:
            labels = tuple(payload["labels"])
            deltas = tuple(float(x) for x in payload["deltas"])
            partitions = [Partition.from_parts(labels, parts)
                          for parts in payload["partitions"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.path}: bad instance JSON: {exc}") from exc
        (hierarchy, cost), wall_ms = _timed(exact_hca, labels, partitions, deltas)
        report = _report(args, n=len(labels), mode="oracle-hca", l1_error=cost,
                         lp_lower_bound=None, num_levels=len(deltas),
                         tree_newick=None, wall_ms=wall_ms)
        return report, [f"level {t}: " + " | ".join(" ".join(sorted(p)) for p in part.parts)
                        for t, part in enumerate(hierarchy.levels, start=1)], {}

    d = parse_matrix(args.path, args.format)
    if args.which == "ultrametric":
        (tree, cost), wall_ms = _timed(exact_ultrametric_l1, d)
        return _report(args, n=d.n, mode="oracle-ultrametric", l1_error=cost,
                       lp_lower_bound=None,
                       num_levels=max(len(d.distinct_values()) - 1, 0),
                       tree_newick=newick_string(tree), wall_ms=wall_ms), [], {}
    edges = _edges_from_threshold(d, args.threshold)
    (partition, cost), wall_ms = _timed(exact_corr_cluster, d.labels, edges)
    report = _report(args, n=d.n, mode="oracle-corrclust", l1_error=float(cost),
                     lp_lower_bound=None, num_levels=1, tree_newick=None,
                     wall_ms=wall_ms)
    return report, _cluster_lines(partition), {}


def _cmd_eval(args):
    d = parse_matrix(args.matrix, args.format)
    tree = parse_newick(Path(args.tree).read_text())
    named = set(tree.labels)
    missing = [lab for lab in d.labels if lab not in named]
    if missing:
        raise DataError(f"{args.tree}: tree is missing labels {missing}")

    def error():
        # distances from the table's labels only, in the tree's label order so
        # each path is summed from the same end as over the whole tree
        wanted = set(d.labels)
        kept = WeightedTree(tuple(lab for lab in tree.labels if lab in wanted), tree.edges)
        return lp_norm_error(kept, d, 1)

    total, wall_ms = _timed(error)
    return _report(args, n=d.n, mode="eval", l1_error=total, lp_lower_bound=None,
                   num_levels=None, tree_newick=None, wall_ms=wall_ms), [], {}


COMMANDS = {"fit": _cmd_fit, "corrclust": _cmd_corrclust, "oracle": _cmd_oracle,
            "eval": _cmd_eval}


def _write_all(files: dict[Path, str]) -> None:
    """Write every file or none: each text goes to a temporary file beside its
    destination, and all move into place once every write succeeded. A path
    that exists but is no regular file, such as /dev/null, cannot be swapped:
    it is written in place, after the others."""
    swaps, in_place = [], []  # swaps: (destination, temporary file, text)
    for k, (path, text) in enumerate(files.items()):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if path.exists() and not path.is_file():
            in_place.append((path, text))
        else:
            real = path.resolve()  # a symlink keeps pointing at the file written
            swaps.append((real, real.with_name(f".{real.name}.{os.getpid()}-{k}.tmp"), text))
    try:
        for _, temp, text in swaps:
            temp.write_text(text)
        for real, temp, _ in swaps:
            os.replace(temp, real)
    finally:
        for _, temp, _ in swaps:
            temp.unlink(missing_ok=True)
    for path, text in in_place:
        path.write_text(text)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for key, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:  # write every file, then print: a failure on the way prints nothing
        report, lines, files = COMMANDS[args.command](args)
        if args.json_out is not None:
            files[args.json_out] = json.dumps(report, indent=2, allow_nan=False) + "\n"
        if args.dump_lp is not None:  # a command that solves no LP says so
            files.setdefault(args.dump_lp, NO_LP.format(f"{report['mode']} solves none"))
        _write_all(files)
        try:
            for line in [*lines, *(f"{key}: {value}" for key, value in report.items())]:
                print(line)
            sys.stdout.flush()
        except BrokenPipeError:  # every file is written; only the reader stopped reading
            # what is left in the buffer goes to devnull at exit, not to a second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    except SolverError as exc:
        print(f"treefit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:  # DataError, JSONDecodeError, a path not read or written
        print(f"treefit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RecursionError:
        print("treefit: data error: tree too deep", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
