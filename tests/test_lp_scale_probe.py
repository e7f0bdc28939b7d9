import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treefit import DistanceMatrix, fit_ultrametric
from treefit.core import all_pairs

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "lp_scale_probe.py"
KEYS = ["n", "levels", "wall_s", "peak_rss_mb", "l1_error", "lp_lower_bound"]


def run_probe(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def seeded_table(n, values):
    rng = random.Random(n)
    labels = [f"s{k}" for k in range(n)]
    return DistanceMatrix.from_pairs(
        labels, {p: float(rng.randint(1, values)) for p in all_pairs(labels)})


@pytest.mark.parametrize("options, sizes, values, bound", [
    ([], [6], 4, False),  # no bound LP: the fit reports 0
    (["--bound", "--values", "3"], [4, 6], 3, True),  # one interpreter per size
])
def test_one_line_per_size_with_the_fit_of_the_seeded_table(options, sizes, values, bound):
    lines = run_probe(*options, *map(str, sizes))
    assert [line["n"] for line in lines] == sizes
    for line in lines:
        assert list(line) == KEYS
        assert line["wall_s"] >= 0 and line["peak_rss_mb"] > 0
        fit = fit_ultrametric(seeded_table(line["n"], values), lower_bound=bound)
        assert (line["levels"], line["l1_error"], line["lp_lower_bound"]) == (
            fit.num_levels, fit.l1_error, fit.lp_lower_bound)


def load_probe():
    spec = importlib.util.spec_from_file_location("lp_scale_probe", SCRIPT)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_fit_runs_with_the_heap_layout_pinned(monkeypatch):
    probe = load_probe()
    children = []
    monkeypatch.setattr(probe.subprocess, "run",
                        lambda command, **kwargs: children.append((command, kwargs["env"])))
    for name in probe.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)
    assert probe.main(["--values", "3", "5"]) == 0  # one size, still a child
    assert probe.main(["4", "6"]) == 0
    assert [command[-3:] for command, _ in children] == [
        ["--values", "3", "5"], ["--values", "4", "4"], ["--values", "4", "6"]]
    for _, env in children:
        assert {name: env[name] for name in probe.PINNED_ENV} == \
            {"MALLOC_ARENA_MAX": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}


def test_a_pinned_interpreter_fits_its_one_size_itself(monkeypatch, capsys):
    probe = load_probe()
    monkeypatch.setattr(probe.subprocess, "run", None)  # any child would raise
    for name, value in probe.PINNED_ENV.items():
        monkeypatch.setenv(name, value)
    assert probe.main(["5"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["n"] == 5
