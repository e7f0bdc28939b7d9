#!/usr/bin/env python3
"""Time and peak memory of one seeded ultrametric fit per table size.

    PYTHONPATH=src python scripts/lp_scale_probe.py [--bound] [--values K] N ...

For each N it fits one table over the labels s0 .. s(N-1), whose values are
drawn from `random.Random(N).randint(1, K)` (K = 4 by default) in `all_pairs`
order, with `fit_ultrametric(d, lower_bound=...)`: the LP lower bound is
solved only under --bound. Each N is fitted in a fresh interpreter, so that
the peak of one fit does not hide the next, and prints one JSON line: `n`,
`levels` (the fit's level count), `wall_s` (the fit alone), `peak_rss_mb`
(the interpreter's `ru_maxrss`, imports included), `l1_error` and
`lp_lower_bound`.
"""
import argparse
import json
import random
import resource
import subprocess
import sys
import time

from treefit import DistanceMatrix, fit_ultrametric
from treefit.core import all_pairs


def probe_table(n: int, values: int) -> DistanceMatrix:
    rng = random.Random(n)
    labels = [f"s{k}" for k in range(n)]
    return DistanceMatrix.from_pairs(
        labels, {p: float(rng.randint(1, values)) for p in all_pairs(labels)})


def fit_one(n: int, values: int, bound: bool) -> dict:
    d = probe_table(n, values)
    start = time.perf_counter()
    fit = fit_ultrametric(d, lower_bound=bound)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"n": n, "levels": fit.num_levels, "wall_s": round(wall, 4),
            "peak_rss_mb": round(peak, 1), "l1_error": fit.l1_error,
            "lp_lower_bound": fit.lp_lower_bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bound", action="store_true", help="also solve the bound LP")
    parser.add_argument("--values", type=int, default=4, metavar="K",
                        help="draw the values from 1..K (default 4)")
    parser.add_argument("n", type=int, nargs="+", metavar="N")
    args = parser.parse_args(argv)
    if len(args.n) == 1:  # this interpreter has fitted nothing yet
        print(json.dumps(fit_one(args.n[0], args.values, args.bound)))
        return 0
    options = ["--values", str(args.values)] + ["--bound"] * args.bound
    for n in args.n:
        subprocess.run([sys.executable, __file__, *options, str(n)], check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
