"""treefit fit benchmark: one closed-loop caller making one fit at a time.

    python3 perfbench/run.py --workload desk-batch --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, fits them through the public API
(`parse_matrix`, `fit_ultrametric`, `fit_tree_metric`, `newick_string`) and
checks every fit. Prints a readable summary, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 repeats untraced passes over the workload and reports the
end-to-end metrics, with every time adjusted to a reference host speed
(speed.py). --trace 1 alternates untraced and traced passes, checks
that both give the same answers, and reports the per-layer metrics.

`--workload all` runs the three workloads one after another.

Exit codes: 0 all fits correct, 1 a fit raised or failed a check, 2 the
library source (src/treefit next to this directory) is missing.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before imports

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import layers
from spans import Tracer
from speed import Mark, SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

WORKLOADS = ("desk-batch", "tree-pivots", "planted-large")
# fresh processes timed for setup_s; its median is reported
SETUP_PROBES = 9
# reported l1_error against the benchmark's own recomputation
ERROR_REL_TOL = 1e-9
# lp_lower_bound may exceed l1_error by the LP solver's feasibility scale
BOUND_REL_SLACK = 1e-6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Case:
    """One fit: the input table and the call a user would make on it."""

    table: inputs.Table
    kind: str  # "ultrametric" or "tree"
    planted: bool
    call: Callable[[], tuple]  # () -> (FittedTree, newick string or None)


@dataclass
class Pass:
    wall: float
    marks: list[tuple[Mark, Mark]]  # each fit's begin and end
    outcomes: list  # (FittedTree, newick or None), or the exception raised


def plain_mark() -> Mark:
    return time.perf_counter(), 0.0


def import_library():
    """treefit from this checkout's source tree, never an installed copy."""
    if not (SRC / "treefit" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'treefit'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import treefit
    import treefit.io

    return treefit


def prepare(name: str, seed: int, workdir: Path, api, tf):
    """The workload's cases and its untimed warm-up call, from the seed alone."""

    def matrix(table):
        return tf.DistanceMatrix.from_pairs(table.labels, table.pair_values())

    def cli_path(path: Path):
        def call():
            fitted = api.fit_ultrametric(api.parse_matrix(path))
            return fitted, api.newick_string(fitted)
        return call

    if name == "desk-batch":
        cases = [Case(t, "ultrametric", False,
                      lambda m=matrix(t): (api.fit_ultrametric(m), None))
                 for t in inputs.desk_tables(seed)]
        warm = matrix(inputs.desk_tables(None)[0])
        return cases, lambda: api.fit_ultrametric(warm)
    if name == "tree-pivots":
        cases = [Case(t, "tree", False,
                      lambda m=matrix(t): (api.fit_tree_metric(m), None))
                 for t in inputs.tree_tables(seed)]
        first = matrix(inputs.tree_tables(None)[0])
        # one pivot of the first table: loads HiGHS without a full fit
        return cases, lambda: api.fit_tree_metric(
            first, pivot_mode="fixed", pivot=first.labels[0])
    cases = []
    for k, table in enumerate(inputs.planted_tables(seed)):
        path = workdir / f"planted{k}.csv"
        path.write_text(table.csv())
        cases.append(Case(table, "ultrametric", True, cli_path(path)))
    warm = workdir / "warmup.csv"
    warm.write_text(inputs.warmup_planted_table(seed).csv())
    return cases, cli_path(warm)


def run_pass(cases: list[Case], mark: Callable[[], Mark] = plain_mark) -> Pass:
    gc.collect()
    marks, outcomes = [], []
    start = time.perf_counter()
    for case in cases:
        begin = mark()
        try:
            outcome = case.call()
        except Exception as exc:  # a fit that raises is a counted failure
            outcome = exc
        marks.append((begin, mark()))
        outcomes.append(outcome)
    return Pass(time.perf_counter() - start, marks, outcomes)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def tree_distances(tree, kind: str, labels: tuple[str, ...]) -> list[list[float | None]]:
    """Pairwise label distances recomputed from the tree's own structure."""
    pos = {lab: k for k, lab in enumerate(labels)}
    n = len(labels)
    dist: list[list[float | None]] = [[None] * n for _ in range(n)]
    if kind == "ultrametric":
        # leaves under different children of a node meet at its height
        leaves_of: dict[int, list[int]] = {}
        stack = [(tree.root, False)]
        while stack:
            node, expanded = stack.pop()
            if not node.children:
                leaves_of[id(node)] = [pos[node.label]]
            elif not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            else:
                groups = [leaves_of.pop(id(child)) for child in node.children]
                for g, group in enumerate(groups):
                    for other in groups[g + 1:]:
                        for a in group:
                            for b in other:
                                dist[a][b] = dist[b][a] = 2.0 * node.height
                leaves_of[id(node)] = [a for group in groups for a in group]
        return dist
    adj = adjacency(tree.edges)
    for src in labels:
        for lab, d in path_lengths(adj, src).items():
            if lab in pos:
                dist[pos[src]][pos[lab]] = d
    return dist


def adjacency(edges) -> dict[str, list[tuple[str, float]]]:
    adj: dict[str, list[tuple[str, float]]] = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    return adj


def path_lengths(adj, src: str) -> dict[str, float]:
    seen = {src: 0.0}
    stack = [src]
    while stack:
        cur = stack.pop()
        for nxt, w in adj.get(cur, ()):
            if nxt not in seen:
                seen[nxt] = seen[cur] + w
                stack.append(nxt)
    return seen


def tree_problems(tree, labels: tuple[str, ...]) -> list[str]:
    """A weighted tree must span every label with finite nonnegative weights."""
    nodes = set(labels)
    for u, v, w in tree.edges:
        nodes.update((u, v))
        if not 0.0 <= w < float("inf"):
            return [f"edge ({u},{v}) has weight {w!r}"]
    if len(tree.edges) != len(nodes) - 1:
        return [f"{len(tree.edges)} edges on {len(nodes)} nodes is not a tree"]
    if len(path_lengths(adjacency(tree.edges), labels[0])) != len(nodes):
        return ["tree is not connected"]
    return []


def check_fit(case: Case, outcome) -> list[str]:
    if isinstance(outcome, BaseException):
        return ["raised:\n" + "".join(traceback.format_exception(outcome))]
    fitted, _ = outcome
    labels, rows = case.table.labels, case.table.rows
    problems = tree_problems(fitted.tree, labels) if case.kind == "tree" else []
    dist = tree_distances(fitted.tree, case.kind, labels)
    pairs = [(a, b) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    if any(dist[a][b] is None for a, b in pairs):
        return problems + ["tree does not connect every pair of labels"]
    error = sum(abs(dist[a][b] - rows[a][b]) for a, b in pairs)
    reported = fitted.l1_error
    if abs(error - reported) > ERROR_REL_TOL * max(1.0, abs(error)):
        problems.append(f"l1_error {reported!r} but the tree is off by {error!r}")
    bound = fitted.lp_lower_bound
    if case.kind == "ultrametric" and not bound <= reported + BOUND_REL_SLACK * max(1.0, reported):
        problems.append(f"lp_lower_bound {bound!r} exceeds l1_error {reported!r}")
    if case.planted:
        if reported != 0.0:
            problems.append(f"planted ultrametric fitted with error {reported!r}")
        if any(dist[a][b] != rows[a][b] for a, b in pairs):
            problems.append("fitted distances differ from the planted ones")
    return problems


def fingerprint(tf, outcome):
    """What a traced or repeated pass must reproduce exactly."""
    if isinstance(outcome, BaseException):
        return None
    fitted, newick = outcome
    if newick is None:
        newick = tf.io.newick_string(fitted)
    return fitted.l1_error, fitted.lp_lower_bound, newick


class Ledger:
    """Fits attempted and failed; the first pass is the reference."""

    def __init__(self, tf, cases: list[Case]):
        self.tf = tf
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.reference: list | None = None
        self.wrong: set[int] = set()  # fits of the first pass that failed a check

    def add(self, result: Pass, label: str) -> None:
        """Check the first pass; later passes must reproduce it exactly."""
        self.attempted += len(result.outcomes)
        prints = [fingerprint(self.tf, out) for out in result.outcomes]
        if self.reference is None:
            self.reference = prints
            for k, (case, out) in enumerate(zip(self.cases, result.outcomes)):
                for problem in check_fit(case, out):
                    self.wrong.add(k)
                    print(f"FAIL fit {k}: {problem}", file=sys.stderr)
            self.failed += len(self.wrong)
            return
        for k, (ref, got) in enumerate(zip(self.reference, prints)):
            if k in self.wrong or got is None or got != ref:
                self.failed += 1
            if got != ref:
                print(f"FAIL fit {k}: {label} pass gave {got!r}, first pass {ref!r}",
                      file=sys.stderr)

    def sums(self) -> tuple[float, float]:
        ok = [p for p in self.reference or () if p is not None]
        return sum(p[0] for p in ok), sum(p[1] for p in ok)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate: a beta-weighted mean of all order statistics.

    Fit times are multimodal (fast path or not, per table size), and the
    plain median sits on a gap between modes; one table more or less on
    either side moved it by 30%. The weights spread over the neighbouring
    ranks, so the estimate moves smoothly instead.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(values)
    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Speed-adjusted set-up times of fresh processes: import, inputs, warm-up."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def err_over_lb(error: float, bound: float) -> float:
    # exact fits have error and bound 0: the error meets the bound
    if bound == 0.0:
        return 1.0 if error == 0.0 else float("inf")
    return error / bound


def untraced_run(args, cases, ledger) -> dict:
    """Times are speed-adjusted (speed.py): fits only, probe time removed."""
    raw_walls: list[float] = []
    marks: list[list[tuple[Mark, Mark]]] = []  # per pass, per fit
    deadline = time.perf_counter() + args.seconds
    with SpeedMeter() as meter:
        while True:
            result = run_pass(cases, meter.mark)
            ledger.add(result, "repeated")
            raw_walls.append(result.wall)
            marks.append(result.marks)
            del result  # one pass's trees alive at a time, so peak RSS is per pass
            # another pass if half of one fits: runs measure about --seconds
            if time.perf_counter() + statistics.median(raw_walls) / 2 > deadline:
                break
    per_pass = [[meter.adjusted(b, e) for b, e in fits] for fits in marks]
    walls = [sum(fits) for fits in per_pass]
    fits = [t for pass_fits in per_pass for t in pass_fits]
    error, bound = ledger.sums()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speeds = sorted(meter.speeds)
    setups = setup_seconds(args.workload, args.seed)
    print(f"{len(walls)} passes of {len(cases)} fits; "
          f"fit_s percentiles over {len(fits)} fits")
    print(f"unadjusted pass wall median {statistics.median(raw_walls):.3f} s; "
          f"{len(speeds)} speed probes, speed quartiles "
          + " ".join(f"{q:.3f}" for q in statistics.quantiles(speeds, n=4)))
    print("set-ups: " + " ".join(f"{t:.3f}" for t in setups) + " s")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "fit_s.p50": (quantile(fits, 0.5), "s"),
        "fit_s.p90": (quantile(fits, 0.9), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "err_over_lb": (err_over_lb(error, bound), "ratio"),
    }


def traced_run(args, cases, ledger, api) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    while True:
        result = run_pass(cases)
        ledger.add(result, "untraced")
        plain.append(result.wall)
        del result
        layers.install(tracer, api)
        try:
            result = run_pass(cases)
        finally:
            tracer.restore()
        ledger.add(result, "traced")
        traced.append(result.wall)
        del result
        per_pass.append(layers.layer_values(tracer.spans, tracer.counts))
        tracer.clear()
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() + pair > deadline:
            break
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    values: dict[str, float] = {}
    for name in per_pass[0]:
        samples = [p[name] for p in per_pass]
        values[name] = statistics.median(samples) if units[name] == "s" else samples[0]
    error, bound = ledger.sums()
    values["l1_error_sum"] = error
    values["lp_lower_bound_sum"] = bound
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)
    print(f"{len(traced)} untraced/traced pass pairs of {len(cases)} fits; "
          "share of traced wall time:")
    for name, unit, _, _ in layers.PER_LAYER:
        if unit == "s" and not name.startswith("trace."):
            print(f"  {name:38s} {values[name] / values['trace.wall_s']:7.1%}")
    return {name: (values[name], unit) for name, unit, _, _ in layers.PER_LAYER}


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the worst exit code."""
    codes = []
    for workload in WORKLOADS:
        codes.append(subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return max(codes)


@contextmanager
def set_up(args):
    """Import the library, build the inputs in a scratch directory, warm up."""
    tf = import_library()
    api = layers.public_api(tf)
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        cases, warm_up = prepare(args.workload, args.seed, Path(tmp), api, tf)
        warm_up()
        yield tf, api, cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds it took, exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:  # one fit at a time, on one thread
        os.environ[var] = "1"
    if args.setup_probe:  # set-up time is speed-adjusted like the fits
        with SpeedMeter() as meter, set_up(args):
            end = meter.mark()
        print(meter.adjusted((STARTED, 0.0), end))
        return 0
    with set_up(args) as (tf, api, cases):
        import numpy
        import scipy

        print(f"{args.workload} seed {args.seed}: {os.cpu_count()} cores, "
              f"Python {platform.python_version()}, numpy {numpy.__version__}, "
              f"scipy {scipy.__version__}")
        ledger = Ledger(tf, cases)
        if args.trace:
            metrics = traced_run(args, cases, ledger, api)
        else:
            metrics = untraced_run(args, cases, ledger)
    if "l1_error_sum" not in metrics:
        error, bound = ledger.sums()
        print(f"  l1_error_sum {error!r} distance, lp_lower_bound_sum {bound!r} distance")
    print(f"  failed_frac {ledger.failed / ledger.attempted!r} ratio "
          f"({ledger.failed} of {ledger.attempted} fits)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
