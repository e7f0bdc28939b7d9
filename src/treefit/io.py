"""File formats: CSV / lower-triangular distance matrices and Newick trees.

A CSV table's data rows are read in one `np.loadtxt` call. When a row label
differs from the header's, or loadtxt rejects the rows (a ragged row, a cell
it cannot read), the rows are read again one by one with `float`: that loop
raises the first error, row by row, and reads the cells that `float` accepts
and loadtxt does not (`1_0`, non-ASCII digits). Either way a cell means what
`float` makes of it.
"""
from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import numpy as np

from .core import (
    DistanceMatrix,
    FittedTree,
    UltrametricTree,
    WeightedTree,
    _flat_pairs,
    _pair_ends,
    _square,
)

SYMMETRY_TOL = 1e-9
NEWICK_FORBIDDEN = set("():;,'\" \t\n")


class DataError(ValueError):
    """Malformed input data; the message carries row / column context."""


# ---------------------------------------------------------------------------
# Distance matrices
# ---------------------------------------------------------------------------

def parse_matrix(path: str | Path, fmt: str = "auto") -> DistanceMatrix:
    """Read a distance matrix from CSV (square) or PHYLIP (lower-triangular)."""
    text = Path(path).read_text()
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise DataError(f"{path}: empty file")
    if fmt == "auto":
        # a PHYLIP count line is one number; a CSV header holds a comma even for one label
        fmt = "phylip" if lines[0].isdigit() else "csv"
    if fmt == "csv":
        return _parse_csv(lines, str(path))
    if fmt == "phylip":
        return _parse_phylip(lines, str(path))
    raise DataError(f"unknown matrix format {fmt!r}")


def _check_labels(labels: list[str], where: str) -> None:
    if not all(labels):
        raise DataError(f"{where}: empty label")
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})
        raise DataError(f"{where}: duplicate labels {dup}")


def _build(labels: list[str], grid: np.ndarray, where: str) -> DistanceMatrix:
    """The table of a square grid, each pair's two cells averaged. In row order,
    asymmetric pairs warn up to the first nonpositive pair, which is the error."""
    i, j = _pair_ends(len(labels))
    flat = grid.reshape(-1)
    upper, lower = (flat[at] for at in _flat_pairs(len(labels)))
    with np.errstate(all="ignore"):  # inf - inf is nan, which fails every comparison
        values = (upper + lower) / 2.0
        # finite cells whose sum overflows are halved first
        big = np.isinf(values) & np.isfinite(upper) & np.isfinite(lower)
        values[big] = upper[big] / 2.0 + lower[big] / 2.0
        skewed = np.abs(upper - lower) > SYMMETRY_TOL
    bad = np.flatnonzero(~(values > 0))
    last = bad[0] if len(bad) else len(values)
    for k in np.flatnonzero(skewed[:last + 1]):
        warnings.warn(
            f"{where}: asymmetry at ({labels[i[k]]},{labels[j[k]]}): "
            f"{float(upper[k])} vs {float(lower[k])}; averaging")
    if len(bad):
        raise DataError(
            f"{where}: nonpositive distance {float(values[last])} at row"
            f" {labels[i[last]]!r} column {labels[j[last]]!r}")
    return DistanceMatrix(tuple(labels), values)


def _parse_csv(lines: list[str], where: str) -> DistanceMatrix:
    labels = [c.strip() for c in lines[0].split(",")[1:]]
    if not labels:
        raise DataError(f"{where}: header row has no labels")
    _check_labels(labels, where)
    n = len(labels)
    if len(lines) - 1 != n:
        raise DataError(f"{where}: expected {n} data rows, found {len(lines) - 1}")
    grid = _loadtxt_grid(lines[1:], labels)
    if grid is None:
        grid = _row_grid(lines[1:], labels, where)
    off = np.flatnonzero(~(np.abs(np.diagonal(grid)) <= SYMMETRY_TOL))
    if len(off):
        k = off[0]
        raise DataError(f"{where}: diagonal for {labels[k]!r} is {float(grid[k, k])}, expected 0")
    return _build(labels, grid, where)


def _loadtxt_grid(rows: list[str], labels: list[str]) -> np.ndarray | None:
    """The n x n grid of the data rows from one `np.loadtxt` call, or None
    when a row's label is not the header's or loadtxt does not read n cells
    from every row."""
    bodies = []
    for line, label in zip(rows, labels):
        head, _, body = line.partition(",")
        # loadtxt strips "\x1f" around a number as whitespace, float does not
        if head.strip() != label or not body or "\x1f" in body:
            return None
        bodies.append(body)
    try:
        # comments=None: a "#" is part of the cell, as it is to float
        grid = np.loadtxt(bodies, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    return grid if grid.shape == (len(labels), len(labels)) else None


def _row_grid(rows: list[str], labels: list[str], where: str) -> np.ndarray:
    """The grid of the data rows read row by row with `float`, raising a
    DataError at the first row that is malformed."""
    n = len(labels)
    grid: list[list[float]] = []
    for rownum, line in enumerate(rows, start=2):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataError(f"{where}: line {rownum} has {len(cells) - 1} cells, expected {n}")
        label = cells[0].strip()
        if label != labels[rownum - 2]:
            raise DataError(
                f"{where}: line {rownum} row label {label!r} does not match"
                f" header order ({labels[rownum - 2]!r})")
        try:
            grid.append(list(map(float, cells[1:])))
        except ValueError as exc:
            # float ignores surrounding whitespace; the message shows the cell
            # stripped, unless only whitespace float keeps ("\x1f") made it bad
            for c in cells[1:]:
                try:
                    float(c.strip())
                except ValueError as stripped:
                    raise DataError(f"{where}: line {rownum}: {stripped}") from stripped
            raise DataError(f"{where}: line {rownum}: {exc}") from exc
    return np.array(grid, dtype=np.float64)


def _parse_phylip(lines: list[str], where: str) -> DistanceMatrix:
    try:
        n = int(lines[0].split()[0])
    except ValueError as exc:
        raise DataError(f"{where}: bad count line {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise DataError(f"{where}: expected {n} rows, found {len(lines) - 1}")
    labels: list[str] = []
    rows: list[list[float]] = []
    for rownum, line in enumerate(lines[1:], start=2):
        cells = line.split()
        if len(cells) != rownum - 1:  # label + (row index - 1) distances
            raise DataError(
                f"{where}: line {rownum} has {len(cells) - 1} distances,"
                f" expected {rownum - 2}")
        labels.append(cells[0])
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise DataError(f"{where}: line {rownum}: {exc}") from exc
    _check_labels(labels, where)
    grid = np.zeros((n, n))
    below = np.tril_indices(n, -1)  # row by row, as the file lists them
    grid[below] = grid[below[::-1]] = [v for row in rows for v in row]
    return _build(labels, grid, where)


def write_matrix_csv(d: DistanceMatrix, path: str | Path) -> None:
    lines = ["," + ",".join(d.labels)]
    for a, (label, row) in enumerate(zip(d.labels, _square(d.values, d.n).tolist())):
        lines.append(",".join([label] + ["0" if a == b else repr(v) for b, v in enumerate(row)]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Newick
# ---------------------------------------------------------------------------

def _check_newick_label(label: str) -> None:
    if not label or set(label) & NEWICK_FORBIDDEN:
        raise DataError(f"label {label!r} cannot be written as Newick")


def newick_string(tree: UltrametricTree | WeightedTree | FittedTree) -> str:
    """Newick text of a tree, from its rooted arrays: the nodes in preorder,
    each labelled node named and each edge given its length."""
    if isinstance(tree, FittedTree):
        tree = tree.tree
    if not isinstance(tree, (UltrametricTree, WeightedTree)):
        raise TypeError(f"cannot serialize {type(tree)!r}")
    for lab in tree.labels:
        _check_newick_label(lab)
    parent = tree._parent.tolist()
    names = [tree.labels[k] if k >= 0 else "" for k in tree._label.tolist()]
    if len(parent) == 1:
        return f"({names[0]}:0.0);"
    tails = [name + f":{w!r}" for name, w in zip(names, tree._length.tolist())]
    tails[0] = names[0]
    out: list[str] = []
    open_: list[int] = []  # the nodes whose children are being written
    for v, up in enumerate(parent):
        while open_ and open_[-1] != up:
            out.append(")" + tails[open_.pop()])
        if v and up != v - 1:
            out.append(",")
        if v + 1 < len(parent) and parent[v + 1] == v:
            out.append("(")
            open_.append(v)
        else:
            out.append(tails[v])
    out.extend(")" + tails[v] for v in reversed(open_))
    return "".join(out) + ";"


def write_newick(tree, path: str | Path) -> None:
    Path(path).write_text(newick_string(tree) + "\n")


def parse_newick(text: str) -> WeightedTree:
    """Parse a Newick string into a weighted tree; named nodes become labels.
    Blanks around a name and before a '(' are skipped; blanks inside a name stay."""
    text = text.strip()
    if not text.endswith(";"):
        raise DataError("Newick text must end with ';'")
    body = text[:-1]
    edges: list[tuple[str | int, str | int, float]] = []
    labels: list[str] = []
    counter = 0
    # children (name, branch length) of each open parenthesis, innermost last
    groups: list[list[tuple[str, float | None]]] = []
    children: list[tuple[str, float | None]] = []  # of the node ending at k
    k = 0
    while True:
        if not children:
            while k < len(body) and (body[k] == "(" or body[k].isspace()):
                if body[k] == "(":
                    groups.append([])
                k += 1
        name_start = k
        while k < len(body) and body[k] not in ":():,;":
            k += 1
        name = body[name_start:k].strip()
        length = None
        if k < len(body) and body[k] == ":":
            k += 1
            num_start = k
            while k < len(body) and body[k] not in "(),;":
                k += 1
            raw = body[num_start:k]
            try:
                length = float(raw)
            except ValueError as exc:
                raise DataError(f"bad branch length {raw!r}") from exc
        if name:
            labels.append(name)
            node = name
        else:
            counter += 1
            node = counter  # named once every label is known
        for child, child_len in children:
            edges.append((node, child, 0.0 if child_len is None else child_len))
        if not groups:
            break
        groups[-1].append((node, length))
        if k >= len(body):
            raise DataError("unbalanced parentheses in Newick text")
        if body[k] == ",":
            k += 1
            children = []
        elif body[k] == ")":
            k += 1
            children = groups.pop()
        else:
            raise DataError(f"unexpected {body[k]!r} at position {k}")
    root = node
    if k != len(body):
        raise DataError(f"trailing characters in Newick text: {body[k:]!r}")
    _check_labels(labels, "newick")
    # unnamed nodes are @1, @2, ... in order of their closing, skipping labels
    taken = set(labels)
    fresh = (name for name in (f"@{k}" for k in itertools.count(1)) if name not in taken)
    names = {k: next(fresh) for k in range(1, counter + 1)}
    edges = [(names.get(u, u), names.get(v, v), w) for u, v, w in edges]
    return WeightedTree(labels=tuple(labels), edges=tuple(edges), root=names.get(root, root))
