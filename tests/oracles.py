"""Literal checks kept as test oracles for the faster forms the package
uses."""

from __future__ import annotations

import itertools

from imqlink.abelian import FgAbGroup, cokernel
from imqlink.quandle import FiniteQuandle


def literal_axiom_violations(q: FiniteQuandle) -> list[str]:
    """Every violated instance of the four involutory medial quandle
    axioms, each checked literally; mediality takes O(n^4)."""
    bad = []
    n, op = q.n, q.op
    for x in range(n):
        if op[x][x] != x:
            bad.append(f"idempotence: {x}|>{x} = {op[x][x]}")
    for x, y in itertools.product(range(n), repeat=2):
        if op[op[x][y]][y] != x:
            bad.append(f"involution: ({x}|>{y})|>{y} = {op[op[x][y]][y]}")
    for x, y, z in itertools.product(range(n), repeat=3):
        if op[op[x][y]][z] != op[op[x][z]][op[y][z]]:
            bad.append(f"distributivity: ({x}|>{y})|>{z} != ({x}|>{z})|>({y}|>{z})")
    for w, x, y, z in itertools.product(range(n), repeat=4):
        if op[op[w][x]][op[y][z]] != op[op[w][y]][op[x][z]]:
            bad.append(f"mediality: ({w}|>{x})|>({y}|>{z}) != ({w}|>{y})|>({x}|>{z})")
    return bad


def open_deduction(table: dict[tuple[int, int], int]) -> str | None:
    """A deduction still open in a partial table x|>y = table[x, y], or
    None when the table is quiet: involution closed, and every mediality
    instance (w|>x)|>(y|>z) = (w|>y)|>(x|>z) whose four inner products are
    defined has both outer products undefined or equal.  Sweeps every pair
    of products, O(|table|^2)."""
    for (x, y), z in table.items():
        if table.get((z, y)) != x:
            return f"involution: ({x}|>{y})|>{y}"
    for (w, x), a in table.items():
        for (y, z), b in table.items():
            c, d = table.get((w, y)), table.get((x, z))
            if c is None or d is None:
                continue
            if table.get((a, b)) != table.get((c, d)):
                return f"mediality: ({w}|>{x})|>({y}|>{z})"
    return None


def dense_mat_mul(a: list[list[int]], b: list[list[int]], n_cols_b: int | None = None) -> list[list[int]]:
    """Product a*b by the literal triple loop over every entry, zeros
    included.  n_cols_b gives the width of an empty b."""
    if n_cols_b is None:
        n_cols_b = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(n_cols_b):
            total = 0
            for k in range(len(b)):
                total += row[k] * b[k][j]
            out_row.append(total)
        out.append(out_row)
    return out


def group_relation_rows(q: FiniteQuandle) -> list[list[int]]:
    """The relation rows 2g(y) - g(x) - g(x|>y) of the quandle's abelian
    group, one per ordered pair, nonzero and distinct, in sorted order."""
    rows = set()
    for x, y in itertools.product(range(q.n), repeat=2):
        row = [0] * q.n
        row[y] += 2
        row[x] -= 1
        row[q.op[x][y]] -= 1
        if any(row):
            rows.add(tuple(row))
    return [list(r) for r in sorted(rows)]


def literal_group_from_quandle(q: FiniteQuandle) -> FgAbGroup:
    """The quandle's abelian group as the cokernel of every relation row,
    with no reduction before the Smith form."""
    return cokernel(group_relation_rows(q), q.n).group
