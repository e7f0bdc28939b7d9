"""Seeded input tables for the benchmark workloads.

Everything here depends only on the workload name and the seed, never on the
library, so the same seed gives byte-identical tables on every commit.

The random-table workloads draw their tables once, from a fixed stream, and
`--seed` only shuffles the order of the batch. With a fresh draw per seed, the
share of desk-batch fits that take the fast path moved with the seed, and the
median fit time moved by about 20% between seeds. With the seed relabelling
every table, the simplex work per table still moved, and the median fit time
moved by about 10%, because it falls between the fast-path fits and the rest.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# desk-batch: desk-scale tables, the common interactive case, sizes cycling
# through 6, 7, 8.
DESK_TABLES = 99
DESK_SIZES = (6, 7, 8)
DESK_MAX_VALUE = 3

# tree-pivots: every pivot of a mid-size table, two sparse LPs per pivot.
TREE_TABLES = 3
TREE_N = 16
TREE_MAX_VALUE = 4

# planted-large: an exact ultrametric, so both LPs take their shortcut and
# per-level clustering and tree realization carry the run.
PLANTED_N = 224
PLANTED_VALUES = 8
# small planted table fitted once, untimed, to finish lazy set-up
WARMUP_PLANTED_N = 24


@dataclass(frozen=True)
class Table:
    """A symmetric table of positive integer distances with a zero diagonal."""

    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    def pair_values(self) -> dict[tuple[str, str], float]:
        n = len(self.labels)
        return {(self.labels[a], self.labels[b]): float(self.rows[a][b])
                for a in range(n) for b in range(a + 1, n)}

    def csv(self) -> str:
        """Square CSV with a label header row and column."""
        lines = ["," + ",".join(self.labels)]
        for lab, row in zip(self.labels, self.rows):
            lines.append(lab + "," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


# stream the random-table workloads draw their values from
VALUES_SEED = 0


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, so streams are stable across runs
    # and independent between workloads
    return random.Random(f"{workload}:{seed}")


def random_table(rng: random.Random, n: int, max_value: int) -> Table:
    """Independent uniform integer distances in 1..max_value."""
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = rng.randint(1, max_value)
    return Table(tuple(f"s{i}" for i in range(n)),
                 tuple(tuple(r) for r in rows))


def planted_table(rng: random.Random, n: int, n_values: int) -> Table:
    """Exact ultrametric with distances 1..n_values from a random hierarchy.

    Each group splits in two near its middle, one level value lower; pairs
    separated by a split get that level's value. Groups that reach the lowest
    value stay together as one polytomy. Near-even splits keep the per-level
    edge counts, and so the clustering work, about the same for every seed.
    """
    rows = [[0] * n for _ in range(n)]
    stack = [(list(range(n)), n_values)]
    while stack:
        members, value = stack.pop()
        if len(members) < 2:
            continue
        if value == 1:
            for a in members:
                for b in members:
                    if a != b:
                        rows[a][b] = 1
            continue
        rng.shuffle(members)
        size = len(members)
        cut = min(size - 1, max(1, rng.randint((9 * size) // 20, (11 * size) // 20)))
        left, right = members[:cut], members[cut:]
        for a in left:
            for b in right:
                rows[a][b] = rows[b][a] = value
        stack.append((left, value - 1))
        stack.append((right, value - 1))
    return Table(tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in rows))


def shuffled(tables: list[Table], rng: random.Random) -> list[Table]:
    """The same tables in a shuffled order."""
    out = list(tables)
    rng.shuffle(out)
    return out


def desk_tables(seed: int | None) -> list[Table]:
    """The batch in the seed's order; seed None keeps the order of the draw."""
    values = _rng("desk-batch", VALUES_SEED)
    tables = [random_table(values, DESK_SIZES[k % len(DESK_SIZES)], DESK_MAX_VALUE)
              for k in range(DESK_TABLES)]
    return tables if seed is None else shuffled(tables, _rng("desk-batch", seed))


def tree_tables(seed: int | None) -> list[Table]:
    """The batch in the seed's order; seed None keeps the order of the draw."""
    values = _rng("tree-pivots", VALUES_SEED)
    tables = [random_table(values, TREE_N, TREE_MAX_VALUE) for _ in range(TREE_TABLES)]
    return tables if seed is None else shuffled(tables, _rng("tree-pivots", seed))


def planted_tables(seed: int) -> list[Table]:
    return [planted_table(_rng("planted-large", seed), PLANTED_N, PLANTED_VALUES)]


def warmup_planted_table(seed: int) -> Table:
    return planted_table(_rng("planted-warmup", seed), WARMUP_PLANTED_N, PLANTED_VALUES)
