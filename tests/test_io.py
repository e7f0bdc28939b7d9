import json
import random
import warnings

import pytest

import treefit.io as io_module
from treefit.cli import main
from treefit.core import DistanceMatrix, UltraNode, UltrametricTree, WeightedTree
from treefit.treemetric import fit_tree_metric
from treefit.io import (
    DataError,
    newick_string,
    parse_matrix,
    parse_newick,
    write_matrix_csv,
    write_newick,
)
from conftest import (
    random_matrix,
    random_newick,
    random_tree_metric,
    random_ultrametric_map,
)

FIX123 = DistanceMatrix.from_pairs(
    ("1", "2", "3"), {("1", "2"): 1.0, ("1", "3"): 2.0, ("2", "3"): 3.0})


class TestParseMatrix:
    def test_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",1,2,3\n1,0,1,2\n2,1,0,3\n3,2,3,0\n")
        d = parse_matrix(p)
        assert d.labels == ("1", "2", "3")
        assert d.d == FIX123.d

    def test_phylip_equals_csv(self, tmp_path):
        p = tmp_path / "m.phy"
        p.write_text("3\n1\n2 1.0\n3 2.0 3.0\n")
        assert parse_matrix(p).d == FIX123.d

    def test_one_numeric_label_csv_is_not_phylip(self, tmp_path):
        # the header `,1` holds a comma, so it is no PHYLIP count line
        p = tmp_path / "m.csv"
        p.write_text(",1\n1,0\n")
        d = parse_matrix(p)
        assert d.labels == ("1",)
        assert len(d.values) == 0

    def test_explicit_format_flags(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("3\n1\n2 1.0\n3 2.0 3.0\n")
        assert parse_matrix(p, "phylip").d == FIX123.d

    def test_zero_off_diagonal_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,0\nb,0,0\n")
        with pytest.raises(DataError, match="nonpositive"):
            parse_matrix(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,1\nb,1\n")
        with pytest.raises(DataError, match="cells"):
            parse_matrix(p)

    def test_duplicate_labels_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,a\na,0,1\na,1,0\n")
        with pytest.raises(DataError, match="duplicate"):
            parse_matrix(p)

    def test_nonzero_diagonal_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,1,1\nb,1,0\n")
        with pytest.raises(DataError, match="diagonal"):
            parse_matrix(p)

    def test_nan_diagonal_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b,c\na,nan,1,2\nb,1,0,3\nc,2,3,0\n")
        with pytest.raises(DataError, match="diagonal for 'a' is nan"):
            parse_matrix(p)

    @pytest.mark.parametrize("header", [",a,,b", ",a,b,"])
    def test_empty_header_cell_rejected(self, tmp_path, header):
        # a trailing comma is an empty label too
        p = tmp_path / "m.csv"
        p.write_text(f"{header}\na,0,1\nb,1,0\n")
        with pytest.raises(DataError, match="empty label"):
            parse_matrix(p)

    def test_padded_cells_parse_the_same(self, tmp_path):
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text(",a,b,c\na,0,0.1,2e3\nb,0.1,0,3.25\nc,2e3,3.25,0\n")
        padded.write_text(" , a ,\tb, c\na ,0, 0.1 ,\t2e3\n\tb, 0.1,0 , 3.25 \n"
                          "c,2e3 ,3.25,  0\n")
        want, got = parse_matrix(plain), parse_matrix(padded)
        assert got.labels == want.labels
        assert got.values.tobytes() == want.values.tobytes()

    def test_bad_cell_message_shows_it_stripped(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0, 1 \nb, x ,0\n")
        with pytest.raises(DataError, match=r"m\.csv: line 3: could not convert "
                                            r"string to float: 'x'$"):
            parse_matrix(p)

    def test_asymmetry_averaged_with_warning(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,1.0\nb,1.2,0\n")
        with pytest.warns(UserWarning, match="asymmetry"):
            d = parse_matrix(p)
        assert d.value("a", "b") == pytest.approx(1.1)

    @pytest.mark.parametrize("name, text", [
        ("m.csv", ",a,b\na,0,1e308\nb,1e308,0\n"),
        ("m.phy", "2\na\nb 1e308\n"),
    ])
    def test_huge_finite_distance_kept_exactly(self, tmp_path, name, text):
        # the two cells' sum overflows, their average does not
        p = tmp_path / name
        p.write_text(text)
        assert parse_matrix(p).d == DistanceMatrix.from_pairs(("a", "b"), {("a", "b"): 1e308}).d

    def test_huge_asymmetric_pair_averaged(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(",a,b\na,0,1.5e308\nb,1.7e308,0\n")
        with pytest.warns(UserWarning, match="asymmetry"):
            assert parse_matrix(p).d[("a", "b")] == 1.6e308

    def test_round_trip_writer(self, tmp_path, rng):
        d, _ = random_tree_metric(rng, 6)
        p = tmp_path / "round.csv"
        write_matrix_csv(d, p)
        again = parse_matrix(p)
        for i, j, v in d.pairs():
            assert again.value(i, j) == pytest.approx(v, abs=1e-12)


class TestNewick:
    def test_golden_ultrametric(self):
        u = UltrametricTree.from_map(
            "abc", {("a", "b"): 1.0, ("a", "c"): 3.0, ("b", "c"): 3.0})
        assert newick_string(u) == "((a:0.5,b:0.5):1.0,c:1.5);"

    def test_single_label(self):
        u = UltrametricTree(("a",), UltraNode(0.0, (), "a"))
        assert newick_string(u) == "(a:0.0);"

    def test_round_trip_preserves_distances(self, tmp_path, rng):
        labels = tuple(f"s{k}" for k in range(8))
        m = random_ultrametric_map(rng, labels)
        u = UltrametricTree.from_map(labels, m)
        path = tmp_path / "t.nwk"
        write_newick(u, path)
        back = parse_newick(path.read_text())
        for (i, j), v in u.distance_map().items():
            assert back.distance(i, j) == pytest.approx(v, abs=1e-9)

    def test_weighted_round_trip_with_internal_species(self, rng):
        t = WeightedTree(labels=("a", "b", "c"),
                         edges=(("a", "b", 1.0), ("b", "c", 1.5)), root="a")
        back = parse_newick(newick_string(t))
        for i, j in [("a", "b"), ("a", "c"), ("b", "c")]:
            assert back.distance(i, j) == pytest.approx(t.distance(i, j))

    def test_deep_weighted_path_round_trip(self):
        # rooted at one end, a 1500-node path nests deeper than the recursion
        # limit; dyadic weights keep every path sum exact
        nodes = [f"p{k}" for k in range(1500)]
        edges = tuple((a, b, 0.25 + k % 7) for k, (a, b) in enumerate(zip(nodes, nodes[1:])))
        t = WeightedTree(labels=(*nodes[::100], nodes[-1]), edges=edges, root=nodes[0])
        back = parse_newick(newick_string(t))
        for (i, j), v in t.distance_map().items():
            assert back.distance(i, j) == v

    @pytest.mark.parametrize("text, labels, distances", [
        ("(@1:1,b:1);", ("@1", "b"), {("@1", "b"): 2.0}),
        ("((a:1,b:1):1,@1:2);", ("a", "b", "@1"),
         {("a", "b"): 2.0, ("a", "@1"): 4.0, ("b", "@1"): 4.0}),
    ])
    def test_unnamed_nodes_skip_taken_labels(self, tmp_path, capsys, text, labels,
                                             distances):
        tree = parse_newick(text)
        assert tree.labels == labels
        assert "@1" not in {u for u, _, _ in tree.edges}
        for (i, j), v in distances.items():
            assert tree.distance(i, j) == v
        nwk, src, out = tmp_path / "t.nwk", tmp_path / "t.csv", tmp_path / "e.json"
        nwk.write_text(text + "\n")
        write_matrix_csv(DistanceMatrix.from_pairs(labels, distances), src)
        assert main(["eval", str(nwk), str(src), "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["l1_error"] == 0.0

    def test_unnamed_nodes_keep_their_names_without_clashes(self):
        tree = parse_newick("((a:1,b:1):1,c:2);")
        assert tree.root == "@2"
        assert tree.edges == (("@1", "a", 1.0), ("@1", "b", 1.0),
                              ("@2", "@1", 1.0), ("@2", "c", 2.0))

    def test_blanks_around_names_are_skipped(self):
        tree = parse_newick("((a:1, b:2):1,\n c:2);")
        assert (tree.labels, tree.edges) == (("a", "b", "c"),
                                             parse_newick("((a:1,b:2):1,c:2);").edges)
        # blanks inside a name stay; blanks before a '(' are skipped too
        tree = parse_newick(" ( (x y:1, z :2) w : 1 ,\n\t(c:2, d:1) );")
        assert tree.labels == ("x y", "z", "w", "c", "d")
        assert tree.distance("x y", "c") == 4.0

    def test_rejects_unterminated(self):
        with pytest.raises(DataError):
            parse_newick("(a:1,b:1)")

    def test_rejects_awkward_labels(self):
        t = WeightedTree(labels=("a b",), edges=(), root="a b")
        with pytest.raises(DataError):
            newick_string(t)


def render(root, children, tail) -> str:
    """Newick text of the tree below root, walked with an explicit stack:
    children(node) lists its (child, edge) pairs in output order, and
    tail(node, edge) is the text after the node (edge is None at the root)."""
    out = []
    stack = [(root, None)]  # text to emit, or a (node, edge) to render
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, edge = item
        kids = children(node)
        if not kids:
            out.append(tail(node, edge))
            continue
        out.append("(")
        stack.append(")" + tail(node, edge))
        for k, kid in enumerate(reversed(kids)):
            if k:
                stack.append(",")
            stack.append(kid)
    return "".join(out)


def ultra_newick(tree) -> str:
    """The UltraNode writer the array writer replaced."""
    root = tree.root
    if root.is_leaf:
        return f"({root.label}:0.0);"

    def tail(node, parent_height):
        if node.is_leaf:
            return f"{node.label}:{parent_height!r}"
        return "" if parent_height is None else f":{(parent_height - node.height)!r}"

    return render(root, lambda node: [(c, node.height) for c in node.children], tail) + ";"


def weighted_newick(tree) -> str:
    """The edge-list writer the array writer replaced."""
    adj = {lab: [] for lab in tree.labels}
    for u, v, w in tree.edges:
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    root = tree.root if tree.root in adj else sorted(adj)[0]
    pos = {lab: k for k, lab in enumerate(tree.labels)}
    order = [root]
    children = {root: []}
    for node in order:
        for nxt, w in adj[node]:
            if nxt not in children:
                children[node].append((nxt, w))
                children[nxt] = []
                order.append(nxt)
    first = {}
    for node in reversed(order):
        kids = children[node]
        kids.sort(key=lambda kid: first[kid[0]])
        first[node] = min([pos.get(node, len(pos))] + [first[k] for k, _ in kids])

    def tail(node, weight):
        return (node if node in pos else "") + ("" if weight is None else f":{weight!r}")

    body = render(root, children.__getitem__, tail)
    if not body.startswith("("):
        body = f"({body}:0.0)"
    return body + ";"


def random_ultra_nodes(rng, labels, height=None):
    """A random UltraNode tree over the labels, children in random order."""
    if len(labels) == 1:
        return UltraNode(0.0, (), labels[0])
    height = rng.uniform(0.5, 3.0) if height is None else height
    labels = list(labels)
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(1, len(labels)), rng.randint(1, min(3, len(labels) - 1))))
    groups = [labels[a:b] for a, b in zip([0] + cuts, cuts + [len(labels)])]
    return UltraNode(height, tuple(
        random_ultra_nodes(rng, g, height * rng.uniform(0.2, 0.9)) for g in groups))


class TestArrayWriter:
    """newick_string against the object-graph writers it replaced."""

    def test_ultrametric_trees(self, rng):
        for _ in range(60):
            labels = tuple(f"s{k}" for k in range(rng.randint(1, 9)))
            trees = [UltrametricTree.from_map(labels, random_ultrametric_map(rng, labels)),
                     UltrametricTree(labels, random_ultra_nodes(rng, labels))]
            for tree in trees:
                assert newick_string(tree) == ultra_newick(tree)

    def test_weighted_trees(self, rng):
        for _ in range(60):
            n = rng.randint(1, 9)
            tree = parse_newick(random_newick(rng, n))
            unrooted = WeightedTree(tree.labels[::-1], tree.edges)
            fitted = fit_tree_metric(random_matrix(rng, tree.labels, (1, 2, 3))).tree
            trees = [tree, unrooted, fitted] + ([random_tree_metric(rng, n)[1]] if n > 1 else [])
            for t in trees:
                assert newick_string(t) == weighted_newick(t)

    def test_one_label_trees(self):
        for tree in (UltrametricTree(("a",), UltraNode(0.0, (), "a")),
                     UltrametricTree.from_distances(("a",), []),
                     WeightedTree(("a",), ()), parse_newick("a:1.5;")):
            assert newick_string(tree) == "(a:0.0);"


class TestParseMessages:
    """parse_matrix's warnings and errors, word for word, in row order."""

    def parse(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                parse_matrix(p)
                outcome = "ok"
            except ValueError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
        where = str(p)
        return ([str(w.message).replace(where, "<f>") for w in caught],
                outcome.replace(where, "<f>"))

    def test_csv_warns_up_to_the_first_nonpositive_pair(self, tmp_path):
        # (b,d) is asymmetric too, but comes after the failing pair (b,c)
        warned, outcome = self.parse(
            tmp_path, "m.csv",
            ",a,b,c,d\na,0,1.0,2,3\nb,1.5,0,-1,4\nc,2.25,-1,0,5\nd,3,4.5,5,0\n")
        assert warned == ["<f>: asymmetry at (a,b): 1.0 vs 1.5; averaging",
                          "<f>: asymmetry at (a,c): 2.0 vs 2.25; averaging"]
        assert outcome == "DataError: <f>: nonpositive distance -1.0 at row 'b' column 'c'"

    def test_csv_failing_pair_warns_first(self, tmp_path):
        warned, outcome = self.parse(tmp_path, "m.csv",
                                     ",a,b,c\na,0,2,1\nb,2,0,-3\nc,1,-1,0\n")
        assert warned == ["<f>: asymmetry at (b,c): -3.0 vs -1.0; averaging"]
        assert outcome == "DataError: <f>: nonpositive distance -2.0 at row 'b' column 'c'"

    def test_csv_nan_is_nonpositive(self, tmp_path):
        assert self.parse(tmp_path, "m.csv", ",a,b,c\na,0,1,nan\nb,1,0,2\nc,nan,2,0\n") == (
            [], "DataError: <f>: nonpositive distance nan at row 'a' column 'c'")

    def test_csv_inf_is_not_finite(self, tmp_path):
        assert self.parse(tmp_path, "m.csv", ",a,b,c\na,0,1,2\nb,1,0,inf\nc,2,inf,0\n") == (
            [], "ValueError: distance for ('b', 'c') must be finite and > 0, got inf")
        assert self.parse(tmp_path, "m.csv", ",a,b,c\na,0,1,2\nb,1,0,inf\nc,2,7,0\n") == (
            ["<f>: asymmetry at (b,c): inf vs 7.0; averaging"],
            "ValueError: distance for ('b', 'c') must be finite and > 0, got inf")

    def test_phylip_messages(self, tmp_path):
        assert self.parse(tmp_path, "a.phy", "4\na\nb 1\nc 2 0\nd 3 -2 4\n") == (
            [], "DataError: <f>: nonpositive distance 0.0 at row 'b' column 'c'")
        assert self.parse(tmp_path, "b.phy", "3\na\nb nan\nc 2 3\n") == (
            [], "DataError: <f>: nonpositive distance nan at row 'a' column 'b'")
        assert self.parse(tmp_path, "c.phy", "3\na\nb -0.0\nc 2 3\n") == (
            [], "DataError: <f>: nonpositive distance -0.0 at row 'a' column 'b'")
        assert self.parse(tmp_path, "d.phy", "3\na\nb 1\nc inf 3\n") == (
            [], "ValueError: distance for ('a', 'c') must be finite and > 0, got inf")

    @pytest.mark.parametrize("name, text", [
        ("m.csv", ",a,b,c\na,0,1,2\nb,1,0,inf\nc,2,inf,0\n"),
        ("m.phy", "3\na\nb 1\nc inf 3\n"),
    ])
    def test_inf_exits_2(self, tmp_path, capsys, name, text):
        p = tmp_path / name
        p.write_text(text)
        assert main(["fit", "ultrametric", str(p)]) == 2
        assert "must be finite and > 0, got inf" in capsys.readouterr().err


def csv_cell(rng, value: float) -> str:
    """value in a repr, exponent, fixed or padded form."""
    form = rng.randrange(5)
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:.17e}"
    if form == 2:
        return f"{value:.16E}".replace("E+", "E")
    if form == 3 and value < 1e20:
        return f"{value:.6f}"
    return f" {value!r}\t" if rng.random() < 0.5 else f"\t{value!r} "


# cells that `float` and np.loadtxt may read differently, or reject
ODD_CELLS = ["inf", "-inf", "Infinity", "nan", "+nan", "-nan", "1e400", "-1e400", "0", "-0.0",
             "1_0", "1_000.5", "1__0", "_1", "٣", "1٣", "１", "1#x", "#1", "1 2",
             "", " ", "1.", ".5", ".", "1e", "0x1p3", "1\x1f", "\x1f1", "1\xa0", " 1",
             "\t 2 \t", "1e-400", "5e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
             "1.7976931348623159e308", "'1'", '"1"', "1,5", "nan(1)", "infinite"]


def csv_corpus_file(rng) -> str:
    """A seeded CSV table, clean or with one odd cell or line."""
    n = rng.randint(1, 6)
    labels = [f"s{k}" for k in range(n)]
    rows = [["0"] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            value = 10.0 ** rng.uniform(-300, 300) * rng.uniform(1, 10)
            rows[a][b] = csv_cell(rng, value)
            rows[b][a] = rows[a][b] if rng.random() < 0.8 else csv_cell(rng, value)
    kind = rng.choice([0, 0, 0, 1, 1, 2, 3, 4, 5, 6])
    if kind == 1:  # an odd cell, off the diagonal or on it
        a, b = rng.randrange(n), rng.randrange(n)
        rows[a][b] = rng.choice(ODD_CELLS)
    lines = [",".join([""] + labels)] + [",".join([lab] + row) for lab, row in zip(labels, rows)]
    k = rng.randrange(1, n + 1)
    if kind == 2:  # a trailing comma
        lines[k] += ","
    elif kind == 3:  # a ragged row
        lines[k] = lines[k].rsplit(",", 1)[0]
    elif kind == 4:  # a row label that is not the header's
        lines[k] = "x" + lines[k]
    elif kind == 5:  # a line without a comma
        lines[k] = rng.choice([labels[k - 1], "0", "nan"])
    elif kind == 6:  # one cell too many or too few on every row
        lines[1:] = [line + ",1" if n % 2 else line.rsplit(",", 1)[0] for line in lines[1:]]
    return "\n".join(lines) + "\n"


class TestCsvFastPath:
    """The one-call loadtxt read against the row loop it falls back to."""

    def outcome(self, path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                d = parse_matrix(path)
            except ValueError as exc:
                return [str(w.message) for w in caught], f"{type(exc).__name__}: {exc}"
        return [str(w.message) for w in caught], (d.labels, d.values.tobytes())

    def test_matches_the_row_loop(self, tmp_path, monkeypatch):
        rng = random.Random(22)
        fast = []

        def recording_loadtxt_grid(rows, labels):
            grid = loadtxt_grid(rows, labels)
            fast.append(grid is not None)
            return grid

        loadtxt_grid = io_module._loadtxt_grid
        path = tmp_path / "m.csv"
        for _ in range(600):
            path.write_text(csv_corpus_file(rng))
            monkeypatch.setattr(io_module, "_loadtxt_grid", recording_loadtxt_grid)
            got = self.outcome(path)
            monkeypatch.setattr(io_module, "_loadtxt_grid", lambda rows, labels: None)
            assert got == self.outcome(path), path.read_text()
        assert 200 < sum(fast) < 400

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("٣", 3.0),
                                             (" 2 ", 2.0)])
    def test_cells_float_reads(self, cell, value, tmp_path):
        # loadtxt rejects the first two, so the row loop reads the table
        p = tmp_path / "m.csv"
        p.write_text(f",a,b\na,0,{cell}\nb,{cell},0\n")
        assert parse_matrix(p).values.tolist() == [value]

    @pytest.mark.parametrize("cell", ["1#x", "1\x1f", "#"])
    def test_cells_float_rejects(self, cell, tmp_path):
        # a "#" is no comment, and "\x1f" no whitespace, to float
        p = tmp_path / "m.csv"
        p.write_text(f",a,b,c\na,0,{cell},1\nb,1,0,1\nc,1,1,0\n")
        with pytest.raises(DataError, match="line 2: could not convert string to float"):
            parse_matrix(p)
