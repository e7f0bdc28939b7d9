import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "compare_fits.py"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_tiny_grid_and_diff(tmp_path):
    proc = run_script("--reps", "1", "--max-n", "4")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["id"] for r in records] == [
        f"{mode}-n{n}-{kind}-0" for mode in ("ultrametric", "tree")
        for n in (3, 4) for kind in ("int", "cont", "exact", "near", "flat")]
    for r in records:
        assert float(r["lp_lower_bound"]) <= float(r["l1_error"])
        assert len(r["newick_sha256"]) == 64
        if "-exact-" in r["id"]:
            assert float(r["l1_error"]) == 0.0
        if r["id"].startswith("tree-"):
            assert r["opt"] is None
        else:
            assert float(r["lp_lower_bound"]) - 1e-9 <= float(r["opt"]) <= float(r["l1_error"])
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text(proc.stdout)
    assert run_script("--reps", "1", "--max-n", "4").stdout == proc.stdout  # seeded

    new.write_text(proc.stdout)
    same = run_script("--diff", str(old), str(new))
    assert same.returncode == 0
    assert same.stdout == ("20 fits, 0 changed: 0 errors rose, 0 fell\n"
                           "0 bounds changed\n0 optima changed\n"
                           "0 -> 0 bounds above their error\n"
                           "0 -> 0 bounds above their optimum\n"
                           "0 -> 0 errors below their optimum\n")

    records[1] |= {"l1_error": repr(float(records[1]["l1_error"]) + 1.0),
                   "lp_lower_bound": "2.5"}
    records[2]["opt"] = "0.5"
    records[11]["newick_sha256"] = "0" * 64
    new.write_text("".join(json.dumps(r) + "\n" for r in records))
    lines = run_script("--diff", str(old), str(new)).stdout.splitlines()
    assert lines[0] == "20 fits, 2 changed: 1 errors rose, 0 fell"
    assert lines[1].startswith("  ultrametric-n3-cont-0: l1_error ")
    assert lines[2].startswith("  tree-n3-cont-0: l1_error ")
    assert lines[3:] == ["1 bounds changed", "  ultrametric-n3-cont-0: lp_lower_bound "
                         f"{json.loads(proc.stdout.splitlines()[1])['lp_lower_bound']} -> 2.5",
                         "1 optima changed", "  ultrametric-n3-exact-0: opt 0.0 -> 0.5",
                         "0 -> 1 bounds above their error",
                         "0 -> 1 bounds above their optimum",
                         "0 -> 1 errors below their optimum"]

    new.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
    assert run_script("--diff", str(old), str(new)).returncode == 1


def test_closed_stdout_is_no_error(tmp_path):
    # `--diff A B | head` stops reading early: the script exits 0 quietly
    run = tmp_path / "run.jsonl"
    run.write_text("".join(json.dumps({"id": f"fit-{k}", "l1_error": "1.0",
                                       "lp_lower_bound": "0.5", "newick_sha256": "0" * 64,
                                       "opt": None}) + "\n" for k in range(5)))
    for args in (["--diff", run, run], ["--reps", "1", "--max-n", "3"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, str(SCRIPT), *args], stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, "")
