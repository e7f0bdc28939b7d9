import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treefit.cli import main
from treefit.core import DistanceMatrix, lp_norm_error
from treefit.io import newick_string, parse_newick, write_matrix_csv
from conftest import planted_ultrametric, random_matrix, random_tree_metric

REPORT_KEYS = ["n", "mode", "l1_error", "lp_lower_bound", "num_levels",
               "ratio_to_lp", "tree_newick", "wall_ms"]


@pytest.fixture
def fix123(tmp_path):
    d = DistanceMatrix.from_pairs(
        ("1", "2", "3"), {("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})
    path = tmp_path / "fix123.csv"
    write_matrix_csv(d, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def _inputs(command, table, tmp_path):
    """The input paths of a command that reads the table: `oracle hca` reads
    an instance and `eval` a tree over the table's labels."""
    if command == ["oracle", "hca"]:
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"labels": ["1", "2", "3"], "deltas": [1.0],
                                    "partitions": [[["1", "2"], ["3"]]]}))
        return [path]
    if command == ["eval"]:
        path = tmp_path / "t.nwk"
        path.write_text("((1:1,2:1):1,3:2);\n")
        return [path, table]
    return [table]


class TestFit:
    def test_ultrametric_report_schema(self, fix123, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("fit", "ultrametric", fix123, "--json-out", out) == 0
        report = json.loads(out.read_text())
        assert list(report) == REPORT_KEYS
        assert report["l1_error"] >= report["lp_lower_bound"]
        assert report["mode"] == "ultrametric"
        assert report["n"] == 3

    def test_eval_reproduces_reported_error(self, fix123, tmp_path, capsys):
        tree = tmp_path / "t.nwk"
        out = tmp_path / "r.json"
        assert run_cli("fit", "ultrametric", fix123,
                       "--json-out", out, "--tree-out", tree) == 0
        report = json.loads(out.read_text())
        out2 = tmp_path / "e.json"
        assert run_cli("eval", tree, fix123, "--json-out", out2) == 0
        evaluated = json.loads(out2.read_text())
        assert evaluated["l1_error"] == pytest.approx(report["l1_error"], abs=1e-9)

    def test_eval_sums_the_tree_distances(self, rng, tmp_path, capsys):
        d, tree = random_tree_metric(rng, 12)
        noisy = DistanceMatrix.from_pairs(d.labels, {
            (i, j): v + rng.choice([0.0, 0.5, 1.25]) for i, j, v in d.pairs()})
        src, nwk, out = tmp_path / "m.csv", tmp_path / "t.nwk", tmp_path / "e.json"
        write_matrix_csv(noisy, src)
        nwk.write_text(newick_string(tree) + "\n")
        assert run_cli("eval", nwk, src, "--json-out", out) == 0
        expected = lp_norm_error(parse_newick(nwk.read_text()), noisy, 1)
        assert json.loads(out.read_text())["l1_error"] == expected

    def test_seeded_runs_byte_identical(self, fix123, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli("--seed", 7, "fit", "tree", fix123,
                           "--json-out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tree_mode_with_fixed_pivot(self, fix123, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("fit", "tree", fix123, "--pivot", "1",
                       "--json-out", out) == 0
        assert json.loads(out.read_text())["mode"] == "tree"

    def test_dump_lp_accepted_by_external_checker(self, fix123, tmp_path, capsys):
        dump = tmp_path / "lp.txt"
        assert run_cli("fit", "ultrametric", fix123, "--dump-lp", dump) == 0
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_lp_dump.py"
        proc = subprocess.run([sys.executable, str(script), str(dump)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestOtherCommands:
    def test_corrclust(self, fix123, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("corrclust", fix123, "--json-out", out) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "corrclust"
        assert report["num_levels"] == 1

    def test_corrclust_dump_matches_reported_bound(self, tmp_path, capsys):
        labels = tuple("abcde")
        values = {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0,
                  ("d", "e"): 1.0}
        d = DistanceMatrix.from_pairs(labels, {
            (i, j): values.get((i, j), 2.0)
            for k, i in enumerate(labels) for j in labels[k + 1:]})
        src, out, dump = tmp_path / "m.csv", tmp_path / "r.json", tmp_path / "lp.txt"
        write_matrix_csv(d, src)
        assert run_cli("corrclust", src, "--json-out", out, "--dump-lp", dump) == 0
        report = json.loads(out.read_text())
        assert report["lp_lower_bound"] > 0
        stated = [line for line in dump.read_text().splitlines()
                  if line.startswith("objective_value:")]
        assert stated == [f"objective_value: {report['lp_lower_bound']!r}"]

    def test_corrclust_exact_no_worse(self, fix123, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("corrclust", fix123, "--threshold", "2", "--json-out", a) == 0
        assert run_cli("corrclust", fix123, "--threshold", "2", "--exact",
                       "--json-out", b) == 0
        assert json.loads(b.read_text())["l1_error"] <= \
            json.loads(a.read_text())["l1_error"]

    def test_oracle_ultrametric(self, fix123, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("oracle", "ultrametric", fix123, "--json-out", out) == 0
        assert json.loads(out.read_text())["l1_error"] == pytest.approx(1.0)

    def test_oracle_ultrametric_one_label(self, tmp_path, capsys):
        src, out = tmp_path / "one.csv", tmp_path / "r.json"
        write_matrix_csv(DistanceMatrix.from_pairs(("a",), {}), src)
        assert run_cli("oracle", "ultrametric", src, "--seed", "7", "--json-out", out) == 0
        report = json.loads(out.read_text())
        assert (report["l1_error"], report["num_levels"], report["tree_newick"]) \
            == (0.0, 0, "(a:0.0);")

    def test_oracle_hca_json_instance(self, tmp_path, capsys):
        inst = {"labels": ["a", "b", "c", "d"],
                "deltas": [1.0, 1.0],
                "partitions": [[["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        out = tmp_path / "r.json"
        assert run_cli("oracle", "hca", path, "--json-out", out) == 0
        assert json.loads(out.read_text())["l1_error"] == pytest.approx(2.0)

    def test_oracle_hca_rejects_an_infinite_weight(self, tmp_path, capsys):
        # an infinite weight times no disagreement is NaN, so no cost was defined
        inst = {"labels": ["a", "b"], "deltas": [1.0, float("inf")],
                "partitions": [[["a", "b"]], [["a"], ["b"]]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        assert run_cli("oracle", "hca", path) == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("n, n_levels, message", [
        (7, 1, "capped at n=6"), (4, 4, "capped at 3 levels")])
    def test_oracle_hca_over_its_caps(self, n, n_levels, message, tmp_path, capsys):
        labels = [f"s{k}" for k in range(n)]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"labels": labels, "deltas": [1.0] * n_levels,
                                    "partitions": [[[lab] for lab in labels]] * n_levels}))
        assert run_cli("oracle", "hca", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("treefit: data error: ") and message in captured.err

    def test_oracle_corrclust(self, fix123, capsys):
        assert run_cli("oracle", "corrclust", fix123, "--threshold", "1") == 0


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli("no-such-command") == 1

    def test_missing_args(self, capsys):
        assert run_cli("fit") == 1

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(",a,b\na,0,0\nb,0,0\n")
        assert run_cli("fit", "ultrametric", bad) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-9"])
    def test_bad_lp_tol_is_a_usage_error(self, tol, fix123, capsys):
        # a NaN tolerance adds no triangle row, so the bound came out weaker
        assert run_cli("fit", "ultrametric", fix123, f"--lp-tol={tol}") == 1
        assert "--lp-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["corrclust"], ["oracle", "corrclust"]])
    @pytest.mark.parametrize("threshold", ["nan", "NaN", "-nan"])
    def test_nan_threshold_is_a_usage_error(self, command, threshold, fix123, capsys):
        # `d <= nan` is False everywhere, so every label came out a singleton
        assert run_cli(*command, fix123, f"--threshold={threshold}") == 1
        assert "--threshold" in capsys.readouterr().err

    def test_zero_lp_tol_accepted(self, fix123, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("fit", "ultrametric", fix123, "--lp-tol", "0",
                       "--json-out", out) == 0
        assert json.loads(out.read_text())["lp_lower_bound"] > 0

    def test_unknown_pivot_on_one_label(self, tmp_path, capsys):
        src = tmp_path / "one.csv"
        write_matrix_csv(DistanceMatrix.from_pairs(("a",), {}), src)
        assert run_cli("fit", "tree", src, "--pivot", "zzz") == 2
        assert "valid pivot" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", [["fit", "ultrametric"], ["fit", "tree"],
                                         ["oracle", "ultrametric"]])
    def test_overflowing_error_is_a_data_error(self, command, tmp_path, capsys):
        # values 1..4 times 2.5e307: every distance is finite, the error sum is not
        rng = random.Random(3)
        labels = [f"s{k}" for k in range(7)]
        src = tmp_path / "big.csv"
        write_matrix_csv(DistanceMatrix.from_pairs(labels, {
            p: rng.randint(1, 4) * 2.5e307 for p in itertools.combinations(labels, 2)}), src)
        written = {"--json-out": tmp_path / "r.json", "--dump-lp": tmp_path / "lp.txt"}
        if command[0] == "fit":
            written["--tree-out"] = tmp_path / "t.nwk"
        options = [x for item in written.items() for x in item]
        assert run_cli(*command, src, "--seed", "7", *options) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: l1_error is inf, not a finite number" in captured.err
        assert not any(path.exists() for path in written.values())

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("fit", "ultrametric", tmp_path / "nope.csv") == 2

    @pytest.mark.parametrize("command", [["fit", "ultrametric"], ["oracle", "hca"]])
    def test_directory_input_is_a_data_error(self, command, tmp_path, capsys):
        assert run_cli(*command, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("treefit: data error: ") and "Is a directory" in err
        assert err.count("\n") == 1

    def test_directory_tree_is_a_data_error(self, fix123, tmp_path, capsys):
        assert run_cli("eval", tmp_path, fix123) == 2
        assert capsys.readouterr().err.startswith("treefit: data error: ")

    @pytest.mark.parametrize("command, option", [
        *(pytest.param(["fit", "ultrametric"], option, id=option)
          for option in ("--json-out", "--tree-out", "--dump-lp")),
        *(pytest.param(command, option, id="-".join(command) + option)
          for command in (["corrclust"], ["oracle", "ultrametric"], ["oracle", "hca"],
                          ["oracle", "corrclust"], ["eval"])
          for option in ("--json-out", "--dump-lp"))])
    def test_directory_output_is_a_data_error(self, command, option, fix123, tmp_path,
                                              capsys):
        # nothing is printed before every file is written
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        assert run_cli(*command, *_inputs(command, fix123, tmp_path),
                       option, outputs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("treefit: data error: ")
        assert "Is a directory" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("failing", ["outputs", "missing/r.json"])
    def test_failed_run_leaves_every_output_as_it_was(self, failing, fix123, tmp_path,
                                                      capsys):
        # --json-out is written last: its failure keeps --tree-out unwritten
        (tmp_path / "outputs").mkdir()
        tree = tmp_path / "t.nwk"
        argv = ["fit", "ultrametric", fix123, "--tree-out", tree,
                "--json-out", tmp_path / failing]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().out == ""
        assert not tree.exists()
        tree.write_bytes(b"an earlier tree\n")
        assert run_cli(*argv) == 2
        assert tree.read_bytes() == b"an earlier tree\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fix123.csv", "outputs", "t.nwk"]
        assert not any((tmp_path / "outputs").iterdir())

    def test_outputs_through_a_link_and_a_device(self, fix123, tmp_path, capsys):
        # a link keeps pointing at the file written, and a device is written in place
        tree, link, null = tmp_path / "t.nwk", tmp_path / "link.nwk", tmp_path / "null"
        link.symlink_to(tree)
        null.symlink_to(os.devnull)
        assert run_cli("fit", "ultrametric", fix123, "--tree-out", link, "--json-out", null) == 0
        assert link.is_symlink() and null.is_symlink()
        printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert tree.read_text() == printed["tree_newick"] + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fix123.csv", "link.nwk",
                                                                "null", "t.nwk"]

    def test_deep_newick_evaluates(self, tmp_path, capsys):
        # a caterpillar nested 1500 deep, deeper than the recursion limit
        text = "x0:1"
        for k in range(1, 1500):
            text = f"({text},x{k}:1):1"
        nwk, src, out = tmp_path / "deep.nwk", tmp_path / "t.csv", tmp_path / "e.json"
        nwk.write_text(text + ";\n")
        write_matrix_csv(DistanceMatrix.from_pairs(("x0", "x1", "x1499"), {
            ("x0", "x1"): 3.0, ("x0", "x1499"): 1500.0, ("x1", "x1499"): 1500.0}), src)
        assert run_cli("eval", nwk, src, "--json-out", out) == 0
        assert json.loads(out.read_text())["l1_error"] == 1.0

    @pytest.mark.parametrize("length", ["nan", "inf", "1e400"])
    def test_non_finite_branch_length_is_a_data_error(self, length, fix123, tmp_path,
                                                      capsys):
        nwk, out = tmp_path / "t.nwk", tmp_path / "e.json"
        nwk.write_text(f"((1:1,2:{length}):1,3:2);\n")
        assert run_cli("eval", nwk, fix123, "--json-out", out) == 2
        assert "must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_too_deep_is_a_data_error(self, fix123, tmp_path, capsys, monkeypatch):
        import treefit.cli

        def too_deep(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(treefit.cli, "parse_newick", too_deep)
        nwk = tmp_path / "t.nwk"
        nwk.write_text("((1:1,2:1):1,3:2);\n")
        assert run_cli("eval", nwk, fix123) == 2
        assert "tree too deep" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_inputs_identical_reports(self, tmp_path, capsys, rng):
        labels = [f"s{k:02d}" for k in range(12)]
        d = planted_ultrametric(rng, labels, [1.0, 2.5, 4.0])
        src = tmp_path / "m.csv"
        write_matrix_csv(d, src)
        reports = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            assert run_cli("--seed", 13, "fit", "ultrametric", src,
                           "--json-out", out) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestTreeDump:
    def test_tree_mode_dump_lp_checked(self, fix123, tmp_path, capsys):
        dump = tmp_path / "lp.txt"
        assert run_cli("fit", "tree", fix123, "--dump-lp", dump) == 0
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_lp_dump.py"
        proc = subprocess.run([sys.executable, str(script), str(dump)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("mode", ["ultrametric", "tree"])
    def test_dump_reuses_the_bound_solve(self, mode, rng, tmp_path, capsys,
                                         monkeypatch):
        import treefit.cli
        import treefit.hcc

        solves = {"fit": 0, "dump": 0}

        def counted(where, solve):
            def wrapped(*args, **kwargs):
                solves[where] += 1
                return solve(*args, **kwargs)
            return wrapped

        # the bound LP is solved through hcc.lp_lower_bound; the CLI solves
        # on its own only when the fit took the clique shortcut
        monkeypatch.setattr(treefit.hcc, "solve_lp",
                            counted("fit", treefit.hcc.solve_lp))
        monkeypatch.setattr(treefit.cli, "solve_lp",
                            counted("dump", treefit.cli.solve_lp))
        d = random_matrix(rng, [f"s{k}" for k in range(6)], range(1, 5))
        src, out, dump = tmp_path / "m.csv", tmp_path / "r.json", tmp_path / "lp.txt"
        write_matrix_csv(d, src)
        assert run_cli("fit", mode, src, "--json-out", out, "--dump-lp", dump) == 0
        report = json.loads(out.read_text())
        assert report["lp_lower_bound"] > 0
        stated = [line for line in dump.read_text().splitlines()
                  if line.startswith("objective_value:")]
        assert stated == [f"objective_value: {report['lp_lower_bound']!r}"]
        assert solves == {"fit": 1, "dump": 0}

    @pytest.mark.parametrize("mode", ["ultrametric", "tree"])
    def test_one_label_dump_notes_no_lp(self, mode, tmp_path, capsys):
        src, dump = tmp_path / "one.csv", tmp_path / "lp.txt"
        write_matrix_csv(DistanceMatrix.from_pairs(("solo",), {}), src)
        assert run_cli("fit", mode, src) == 0
        assert run_cli("fit", mode, src, "--dump-lp", dump) == 0
        assert "no LP" in dump.read_text()

    def test_one_label_corrclust_reports_like_fit(self, tmp_path, capsys):
        # one label has no pairs: one cluster, cost 0 and bound 0, as `fit`
        # reports, and the dump says there is no LP
        src, dump = tmp_path / "one.csv", tmp_path / "lp.txt"
        fit_out, cc_out = tmp_path / "fit.json", tmp_path / "cc.json"
        write_matrix_csv(DistanceMatrix.from_pairs(("solo",), {}), src)
        assert run_cli("fit", "ultrametric", src, "--json-out", fit_out,
                       "--dump-lp", dump) == 0
        fit_dump = dump.read_text()
        capsys.readouterr()
        assert run_cli("corrclust", src, "--json-out", cc_out, "--dump-lp", dump) == 0
        assert capsys.readouterr().out.splitlines()[0] == "cluster: solo"
        report, fitted = json.loads(cc_out.read_text()), json.loads(fit_out.read_text())
        assert report["l1_error"] == fitted["l1_error"] == 0.0
        assert report["lp_lower_bound"] == fitted["lp_lower_bound"] == 0.0
        assert dump.read_text() == fit_dump == "# lp-dump v1\n# no LP: single label\n"
        for extra in (["--exact"], ["--threshold", "1"]):
            assert run_cli("corrclust", src, *extra) == 0
        assert run_cli("oracle", "corrclust", src) == 0

    @pytest.mark.parametrize("command", [["oracle", "ultrametric"], ["oracle", "hca"],
                                         ["oracle", "corrclust"], ["eval"]], ids="-".join)
    def test_command_without_lp_dump_notes_no_lp(self, command, fix123, tmp_path, capsys):
        dump = tmp_path / "lp.txt"
        assert run_cli(*command, *_inputs(command, fix123, tmp_path), "--dump-lp", dump) == 0
        mode = "-".join(command) if command[0] == "oracle" else "eval"
        assert dump.read_text() == f"# lp-dump v1\n# no LP: {mode} solves none\n"

    def test_trivial_dump_notes_no_lp(self, tmp_path, capsys):
        d = DistanceMatrix.from_pairs("ab", {("a", "b"): 2.0})
        src = tmp_path / "m.csv"
        write_matrix_csv(d, src)
        dump = tmp_path / "lp.txt"
        assert run_cli("fit", "ultrametric", src, "--dump-lp", dump) == 0
        assert "no LP" in dump.read_text()
