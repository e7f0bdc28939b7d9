"""Golden answers: sha256 digests of `--seed 7` JSON reports on fixed tables.

Any change to a fitted tree, its error or its bound shows up here as a
changed digest. The tables come from one seeded generator, so they are the
same on every run.
"""
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treefit.cli import main
from treefit.core import DistanceMatrix, WeightedTree, all_pairs
from treefit.io import newick_string, parse_newick, write_matrix_csv
from conftest import planted_ultrametric, random_matrix


def _labels(n):
    return [f"s{k}" for k in range(n)]


def _tables() -> dict[str, DistanceMatrix]:
    rng = random.Random(7)
    return {
        "int6": random_matrix(rng, _labels(6), [1, 2, 3, 4]),
        "int9": random_matrix(rng, _labels(9), [1, 2, 3, 4]),
        "two8": random_matrix(rng, _labels(8), [1, 2]),
        "cont8": DistanceMatrix.from_pairs(_labels(8), {
            pair: round(rng.uniform(1.0, 4.0), 3) for pair in all_pairs(_labels(8))}),
        "planted12": planted_ultrametric(rng, _labels(12), [1.0, 2.0, 3.5, 5.0]),
        "one": DistanceMatrix.from_pairs(["s0"], {}),
        "two": DistanceMatrix.from_pairs(_labels(2), {("s0", "s1"): 2.5}),
    }


TABLES = _tables()

GOLDEN = {
    "cont8-ultrametric-pivot-sweep":
        "a1b5fc850278b894b3bdfc866f41d2c4d4b4016487d84940eedb94f35c9c85a4",
    "cont8-ultrametric-kwik":
        "d0aeb294fe7db40f0d1b2d3f799fa1dc52a571a92499111063b617da479070ec",
    "cont8-tree-pivot-sweep":
        "592e4ae702ed98384a7e622a14e71d0d3e53d08160704110bbcb9ec1ea195d04",
    "cont8-tree-kwik":
        "70a1f96f043947a6d6ca9603ed9686ae0265a2afefd3c43e8c0cf30e52edc68d",
    "int6-ultrametric-pivot-sweep":
        "ee3ab9995d0480d580172fd6557486839a5ae0c6fa32868fdf417d62a7272ca8",
    "int6-ultrametric-kwik":
        "b0e77088fddd1d959efceba984374ee25030b5f575bd12726b9c09acf77da4ab",
    "int6-tree-pivot-sweep":
        "291eb361b425f0dde0681eab69e901feb99a733f0f79f96406a2c8ac68c964e0",
    "int6-tree-kwik":
        "ec42a5e8413bbf4e2098334be91b912785db3519cd309f63757bda0155673169",
    "int9-ultrametric-pivot-sweep":
        "4735a82153e49f86bfe053bf1092ad93df1eee0861c6eb38ba741cc396e20289",
    "int9-ultrametric-kwik":
        "54e642de36d46a92072b99e61bd91d85fe7ca39c01c60089b50b1293784e6d34",
    "int9-tree-pivot-sweep":
        "05e2e18e4a8c3dd9f043247c863cc30c70b74ea6aea5efebb5cf306009efccd4",
    "int9-tree-kwik":
        "15171feb1a850bbb52b0797784d744f86080e225efeef82b6054e6d250391dde",
    "one-ultrametric-pivot-sweep":
        "7bd2886833577377202e60623a931cc34b7db55dd7f6bcd58583864b208ca080",
    "one-ultrametric-kwik":
        "7bd2886833577377202e60623a931cc34b7db55dd7f6bcd58583864b208ca080",
    "one-tree-pivot-sweep":
        "580d72d489e6666a8b695b6f81e6cc7059751ce6f30f4178a5ce1f120b51dedb",
    "one-tree-kwik":
        "580d72d489e6666a8b695b6f81e6cc7059751ce6f30f4178a5ce1f120b51dedb",
    "planted12-ultrametric-pivot-sweep":
        "40a376ea6640b41abb54c445afcaaff14bfe3d73ff6f8cefce83c900212aceda",
    "planted12-ultrametric-kwik":
        "40a376ea6640b41abb54c445afcaaff14bfe3d73ff6f8cefce83c900212aceda",
    "planted12-tree-pivot-sweep":
        "258fce41354e7b40a1389094c9f64018842fa9e61e58a4a69ce2711b1ba007cd",
    "planted12-tree-kwik":
        "258fce41354e7b40a1389094c9f64018842fa9e61e58a4a69ce2711b1ba007cd",
    "two-ultrametric-pivot-sweep":
        "6a891470c60053cd159b6d55146d4d3bf5b3b95259cc894fec911eb8f929a10b",
    "two-ultrametric-kwik":
        "6a891470c60053cd159b6d55146d4d3bf5b3b95259cc894fec911eb8f929a10b",
    "two-tree-pivot-sweep":
        "088446daba6fc002cf25e4e6ff7d896c767b6fa72da2f6fc49698215aef7a13c",
    "two-tree-kwik":
        "088446daba6fc002cf25e4e6ff7d896c767b6fa72da2f6fc49698215aef7a13c",
    "two8-ultrametric-pivot-sweep":
        "ec8d8aa2a5f39b8e34942ab9f3bedff1b26391f07c964b7539dd7e21c08603dd",
    "two8-ultrametric-kwik":
        "2fbfbb2ca6d6348dfb2d472ed9725684fd0e7c9c84a1c223959a23a7321f9bb3",
    "two8-tree-pivot-sweep":
        "c1b8afdca1561b9fc39b9b68593120da519350b33b6187da295fdd5d3f657b72",
    "two8-tree-kwik":
        "93f35fecdbcdc55a0605fc8139266cdab896bc92a27e8792097a96599b9bdab1",
}


@pytest.mark.parametrize("strategy", ["pivot-sweep", "kwik"])
@pytest.mark.parametrize("mode", ["ultrametric", "tree"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_seeded_report_digest(table, mode, strategy, tmp_path, capsys):
    src, out = tmp_path / "m.csv", tmp_path / "r.json"
    write_matrix_csv(TABLES[table], src)
    assert main(["--seed", "7", "fit", mode, str(src), "--strategy", strategy,
                 "--json-out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[f"{table}-{mode}-{strategy}"]


# `--seed 7 --dump-lp` text of every table: keys are `<table>` for `fit
# ultrametric`, `<table>-tree` for `fit tree` and `<table>-corrclust` for
# `corrclust`. The dumped point shows any change in the solvers' bits, zero
# signs included.
DUMP_GOLDEN = {
    "int6": "2fbced6cafa2856db284243c65a640adcfb8aea3c4d3be005e77e17032bf83b4",
    "int9": "550989baed4c4b43549f0e51a66d94809430f4850f6a82e3842928a8c445419e",
    "two8": "4c8a09021ce420f6198bd714415c088a1b740c3268ba938ff8b64987c71b076c",
    "cont8": "d2e4ba6625c02968acf2879f6982a4ad1cf6c1363e4b21919a7d7c7cb65cef79",
    "one": "b983d5f0e9be76f774244a2e16a8c215d0f231560e3b38dcbd83aceefd151dad",
    "planted12": "5f28f12ad2153a7865ec457c1a968e9b5c74383979c5b2a4b4e24e835001be48",
    "two": "d9ff9420212bca351a7cc7d7120ef50482e28d4aa6c428cea36c3b3c218d2168",
    "cont8-tree": "53bb465db4b9c709bd1a9c1c12a982c41e6221ad710d0ebfc974ae7d5656a6b6",
    "int6-tree": "43acbe875e169abcbb388f6a497892c203200066e77c0c03028ba904e3d0b8a5",
    "int9-tree": "b8c7a675c8a089d07e80077f160d767cfe843a322b1344147329a68ca1bb5624",
    "one-tree": "b983d5f0e9be76f774244a2e16a8c215d0f231560e3b38dcbd83aceefd151dad",
    "planted12-tree": "7c6d97f2b8e1f13ec34661a48905d472cc1ce6d211c57a6c2afa2833acfb1fba",
    "two-tree": "d9ff9420212bca351a7cc7d7120ef50482e28d4aa6c428cea36c3b3c218d2168",
    "two8-tree": "ff35d1b002266bc15eb92bfa8049b7094177795d2fb6b087f6f7c13ecc4e5341",
    "cont8-corrclust": "4117b623085a2fef4f863f60dd3d6bf7ae7e0a5bf7e6d14f19fa655ffc2c5b75",
    "int6-corrclust": "4ca948308b2ab0f3fec0519eed126812cd9c1fd5ca4ae6d56281be3a376af63e",
    "int9-corrclust": "136fac6407a5945a3b180792b8afb8ef228097ad72a3c1379220da848a268be4",
    "one-corrclust": "b983d5f0e9be76f774244a2e16a8c215d0f231560e3b38dcbd83aceefd151dad",
    "planted12-corrclust": "e44f4248e0095a428836e10d7e8cd798a90ada26ae62971896a2f0d8cb23807e",
    "two-corrclust": "68bbace26e04369b82921948e4804a54b9aca407e4faaedac7766cd38bc42675",
    "two8-corrclust": "4c8a09021ce420f6198bd714415c088a1b740c3268ba938ff8b64987c71b076c",
}

DUMP_COMMANDS = {"": ["fit", "ultrametric"], "tree": ["fit", "tree"],
                 "corrclust": ["corrclust"]}
CHECKER = Path(__file__).resolve().parents[1] / "scripts" / "check_lp_dump.py"


@pytest.mark.parametrize("key", sorted(DUMP_GOLDEN))
def test_simplex_dump_digest(key, tmp_path, capsys):
    table, _, command = key.partition("-")
    src, dump = tmp_path / "m.csv", tmp_path / "lp.txt"
    write_matrix_csv(TABLES[table], src)
    assert main(["--seed", "7", *DUMP_COMMANDS[command], str(src),
                 "--dump-lp", str(dump)]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == DUMP_GOLDEN[key]
    if "# no LP" not in dump.read_text():
        proc = subprocess.run([sys.executable, str(CHECKER), str(dump)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _eval_newick(table: str) -> str:
    """A random weighted tree over the table's labels, listed in reverse, and
    two labels the table lacks; its leaves come out in another order than
    the table's, so `treefit eval` reorders the tree's distances."""
    rng = random.Random(f"eval-{table}")
    labels = [*reversed(TABLES[table].labels), "x0", "x1"]
    nodes, edges = list(labels), []
    while len(nodes) > 1:
        rng.shuffle(nodes)
        a, b = nodes.pop(), nodes.pop()
        hub = f"h{len(edges)}"
        edges += [(a, hub, round(rng.uniform(0.1, 3.0), 3)),
                  (b, hub, round(rng.uniform(0.1, 3.0), 3))]
        nodes.append(hub)
    return newick_string(WeightedTree(tuple(labels), tuple(edges), root=nodes[0]))


# `eval --seed 7` reports of those trees against the tables
EVAL_GOLDEN = {
    "cont8":
        "04578352b86f623e3c0976459d706eb52641c1ab8e7e0206c41cef51985f7086",
    "int6":
        "0cdf3900eb1bb92ce1d23225fbbb5df452a6cac33223703cf09a16e9646938e8",
    "int9":
        "d560acef1194dc0c7d4fe015ad7f444c074be9d824f22ca9d73506bc526fa7f8",
    "one":
        "cc36683f185e354a2633aea0f9c558466ec793cde9f1e174280c81d060510ed3",
    "planted12":
        "a90f03731d8a903e4b1c9b3e1d1cd134c82d4038e2f0280436b2102c64025b4d",
    "two":
        "121c77d0df648d566df02f2a74e2f71bb91d40caa3f3342b71efc312f9fafc7c",
    "two8":
        "6dfbd0149f3e6d94f83c32cda77d548d3eaac5a569a808a710aca42204059926",
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_seeded_eval_digest(table, tmp_path, capsys):
    src, nwk, out = tmp_path / "m.csv", tmp_path / "t.nwk", tmp_path / "r.json"
    write_matrix_csv(TABLES[table], src)
    nwk.write_text(_eval_newick(table) + "\n")
    assert parse_newick(nwk.read_text()).labels[:2] != TABLES[table].labels[:2]
    assert main(["--seed", "7", "eval", str(nwk), str(src), "--json-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVAL_GOLDEN[table]


# `oracle ultrametric` on the tables within its cap, and `oracle hca` on one
# fixed instance: digests of the printed lines followed by the `--seed 7`
# JSON report. The printed lines hold the chosen hierarchy of `oracle hca`,
# which its report lacks.
HCA_INSTANCE = {
    "labels": ["s0", "s1", "s2", "s3", "s4", "s5"],
    "deltas": [1.0, 0.5, 2.0],
    "partitions": [[["s0", "s1"], ["s2", "s3"], ["s4"], ["s5"]],
                   [["s0", "s2"], ["s1", "s3", "s4"], ["s5"]],
                   [["s0", "s1", "s2"], ["s3", "s4", "s5"]]],
}

ORACLE_GOLDEN = {
    "int6":
        "0385c7bfb00fd84e5a34d4bb945e94070dc0d6e5fdee959d63144c9a109420d6",
    "one":
        "a3b0b48544b0ba09c0e0a7c68111db4aa912effe7993ba08216abe1ce7c72c47",
    "two":
        "a9077f0e4566ad8f7678336b9b28347d6d30ff88912c91f646c1c1c4cf65f43a",
    "hca":
        "29a3b20b833f44b8d2095935b707f0517b6d8e24d3d3493a9588404aa9169b8b",
}


@pytest.mark.parametrize("key", sorted(ORACLE_GOLDEN))
def test_seeded_oracle_digest(key, tmp_path, capsys):
    src, out = tmp_path / "in", tmp_path / "r.json"
    if key == "hca":
        src.write_text(json.dumps(HCA_INSTANCE))
    else:
        write_matrix_csv(TABLES[key], src)
    assert main(["--seed", "7", "oracle", "ultrametric" if key in TABLES else "hca",
                 str(src), "--json-out", str(out)]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed + out.read_bytes()).hexdigest() == ORACLE_GOLDEN[key]
