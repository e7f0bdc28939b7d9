"""A fit loads no module that `import treefit` has not loaded, apart from the
HiGHS extension that the first sparse LP solve loads. A helper that pulls in
a module on first use (numpy's `np.unique` imports `numpy.ma`) adds set-up
time and memory to every process that fits.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HIGHS = {"scipy.optimize._highspy._core", "scipy.optimize._highspy._core.cb",
         "scipy.optimize._highspy._core.simplex_constants"}

SCRIPT = """
import json, random, sys
import treefit
from treefit.core import DistanceMatrix, all_pairs

def table(seed, n):
    rng = random.Random(seed)
    labels = [f"s{k:02d}" for k in range(n)]
    return DistanceMatrix.from_pairs(
        labels, {p: float(rng.randint(1, 4)) for p in all_pairs(labels)})

loaded = [set(sys.modules)]
small = treefit.fit_ultrametric(table(0, 6))
treefit.fit_tree_metric(table(0, 6))
loaded.append(set(sys.modules))
treefit.fit_ultrametric(table(1, 16))
treefit.fit_tree_metric(table(1, 16))
loaded.append(set(sys.modules))
print(json.dumps({"small_backend": small.details["hcc"].hca.lp.backend,
                  "small": sorted(loaded[1] - loaded[0]),
                  "large": sorted(loaded[2] - loaded[1])}))
"""


def test_fits_load_no_new_modules():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    # the 6-label fits clean and assemble, their LPs on the dense simplex
    assert got["small_backend"] == "simplex"
    assert got["small"] == []
    assert set(got["large"]) <= HIGHS
