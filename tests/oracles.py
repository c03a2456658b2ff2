"""Literal checks kept as test oracles for the faster forms the package
uses, and helpers only the tests call."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from imqlink.abelian import (
    FgAbGroup,
    GroupElt,
    Matrix,
    _stacked_relations,
    cokernel,
    int_det,
    subgroup_contains,
    subgroup_type,
)
from imqlink.arcquandle import (
    ArcQuandle,
    build_arc_quandle,
    characteristic_compatibility,
)
from imqlink.diagram import LinkDiagram, component_walk, make_even
from imqlink.imq import ImqResult
from imqlink.linkmodule import (
    InternalCheckError,
    LinkModule,
    build_link_module,
    relation_matrix,
)
from imqlink.quandle import (
    FiniteQuandle,
    Perm,
    characteristic_subquandle,
    check_axioms,
    displacement_group,
    is_isomorphic,
    orbits,
)


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


def stated_element_order(q: FiniteQuandle, arc_element: list[int]) -> list[int]:
    """The elements of q in the order `compute_imq` numbers them: the arc
    elements by least arc, then, one at a time, the first product x|>y
    not yet listed, rescanning the pairs of listed elements in
    lexicographic order from the start after every addition."""
    order: list[int] = []
    for e in arc_element:
        if e not in order:
            order.append(e)
    while len(order) < q.n:
        new = next(
            (
                q.op[x][y]
                for x, y in itertools.product(order, repeat=2)
                if q.op[x][y] not in order
            ),
            None,
        )
        if new is None:
            raise InternalCheckError("quandle not generated by its arc elements")
        order.append(new)
    return order


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


# ---------------------------------------------------------------------------
# abelian groups and integer matrices


def elements_of_order_dividing_2(group: FgAbGroup):
    r = group.free_rank
    choices = [(0, t // 2) if t % 2 == 0 else (0,) for t in group.torsion]
    for combo in itertools.product(*choices):
        yield GroupElt(group, (0,) * r + combo)


def subgroups_equal(group: FgAbGroup, gens_a: list[GroupElt], gens_b: list[GroupElt]) -> bool:
    return all(subgroup_contains(group, gens_b, g) for g in gens_a) and all(
        subgroup_contains(group, gens_a, g) for g in gens_b
    )


def quotient_by_subgroup(group: FgAbGroup, gens: list[GroupElt]) -> FgAbGroup:
    """Isomorphism type of group / <gens>."""
    return cokernel(_stacked_relations(group, gens), group.n_coords).group


def minor_gcds(rows: Matrix, n_cols: int) -> list[int]:
    """gcd of all k x k minors for k = 1..min(m, n), by brute force."""
    m = len(rows)
    out = []
    for k in range(1, min(m, n_cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, int_det(sub))
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# the arc module


def determinant_by_minors(d: LinkDiagram, base_arc: int = 0) -> int:
    """Independent determinant computation: gcd of all maximal minors of
    the relation matrix avoiding the base arc's column."""
    rows = relation_matrix(d)
    n = d.n_arcs
    if len(rows) < n - 1:
        return 0
    cols = [j for j in range(n) if j != base_arc]
    g = 0
    for rsel in itertools.combinations(range(len(rows)), n - 1):
        sub = [[rows[i][j] for j in cols] for i in rsel]
        g = gcd(g, int_det(sub))
    return g


def evenized_longitudes(d: LinkDiagram) -> tuple[LinkModule, list[GroupElt]]:
    """The module of make_even(d) and its longitudes, each the alternating
    over-arc sum along the kinked walk: the second module `longitudes`
    reads around."""
    even = make_even(d)
    mod = build_link_module(even)
    out = []
    for i in range(even.mu):
        total = mod.group.zero()
        for j, (_, over) in enumerate(component_walk(even, i)):
            term = mod.arc_class[over]
            total = total + (term if j % 2 == 0 else -term)
        out.append(total)
    return mod, out


def double_kernel_subgroup_check(mod: LinkModule) -> bool:
    """{x : weight 0, parity 0} equals 2 * {x : weight 0}; needs finite
    ker(weight)."""
    kw_elements = [t for t in mod.group.torsion_elements() if mod.weight(t) == 0]
    if mod.kernel.free_rank:
        raise ValueError("ker(weight) is infinite")
    joint = [t for t in kw_elements if not any(mod.parity(t))]
    doubled = [t.smul(2) for t in kw_elements]
    return set(joint) == set(doubled)


# ---------------------------------------------------------------------------
# quandles


def build_partition_quandle(
    n: int,
    partition: list[tuple[int, ...]],
    translations: dict[int, Perm],
) -> FiniteQuandle:
    """Quandle from a partition of {0..n-1} into pairs and singletons
    plus one involution per element, each a product of pair swaps.

    Required: every translation fixes its own element, moves elements
    only within their pair, and paired elements share a translation.
    """
    seen: set[int] = set()
    pair_of: dict[int, tuple[int, ...]] = {}
    for block in partition:
        if len(block) not in (1, 2) or any(not 0 <= v < n for v in block):
            raise ValueError(f"bad block {block}")
        for v in block:
            if v in seen:
                raise ValueError(f"element {v} in two blocks")
            seen.add(v)
            pair_of[v] = tuple(block)
    if seen != set(range(n)):
        raise ValueError("partition does not cover all elements")

    for y in range(n):
        t = translations[y]
        if len(t) != n:
            raise ValueError(f"translation of {y} has wrong size")
        if t[y] != y:
            raise ValueError(f"translation of {y} moves {y}")
        for x in range(n):
            if t[x] not in pair_of[x]:
                raise ValueError(f"translation of {y} breaks the partition at {x}")
        for mate in pair_of[y]:
            if translations[mate] != t:
                raise ValueError(f"paired elements {y},{mate} differ in translation")

    op = [[translations[y][x] for y in range(n)] for x in range(n)]
    q = FiniteQuandle(op)
    bad = check_axioms(q)
    if bad:
        raise ValueError(f"axioms violated: {bad[0]}")
    return q


# ---------------------------------------------------------------------------
# the coset quandle and the presented quandle


def literal_coset_table(qa: ArcQuandle) -> list[list[int]]:
    """Q_A's table built the literal way: x |> y = 2y - x in GroupElt
    arithmetic, looked up by element.  The package computes the same
    products on reduced coordinate tuples."""
    index = {e: i for i, e in enumerate(qa.elements)}
    return [[index[y.smul(2) - x] for y in qa.elements] for x in qa.elements]


def orbit_component(qa: ArcQuandle) -> dict[int, int]:
    """The component of each orbit of the coset quandle, by orbit index."""
    out = {}
    for idx, orb in enumerate(orbits(qa.quandle)):
        comps = {qa.component_of[x] for x in orb}
        if len(comps) != 1:
            raise InternalCheckError("orbit mixes components")
        out[idx] = comps.pop()
    return out


@dataclass
class DisKernelReport:
    ok: bool
    group_matches: bool
    all_translations: bool
    dis_group: FgAbGroup
    kernel_group: FgAbGroup


def displacement_matches_kernel(qa: ArcQuandle) -> DisKernelReport:
    """Every displacement of the coset quandle must be x -> x + k for a
    kernel element k, and the displacement group must be isomorphic to
    the kernel."""
    dis = displacement_group(qa.quandle)
    kernel_group = subgroup_type(qa.module.group, qa.kernel)
    group_matches = dis.group == kernel_group
    kernel_set = set(qa.kernel)
    index = {e: i for i, e in enumerate(qa.elements)}
    all_translations = True
    for p in dis.perms:
        k = qa.elements[p[0]] - qa.elements[0]
        if k not in kernel_set or any(
            p[i] != index[e + k] for i, e in enumerate(qa.elements)
        ):
            all_translations = False
            break
    return DisKernelReport(
        ok=group_matches and all_translations,
        group_matches=group_matches,
        all_translations=all_translations,
        dis_group=dis.group,
        kernel_group=kernel_group,
    )


def compare_with_characteristic(mod: LinkModule) -> bool:
    """Is the coset quandle isomorphic to the characteristic subquandle
    of ker(weight)?  Cross-checked against characteristic_compatibility,
    which decides the same question structurally."""
    if mod.determinant == 0:
        raise ValueError("determinant zero; comparison needs a finite quandle")
    qa = build_arc_quandle(mod)
    core_prime = characteristic_subquandle(mod.kernel)
    if core_prime.n != qa.quandle.n:
        raise InternalCheckError("cardinality equality violated")
    iso = is_isomorphic(qa.quandle, core_prime) is not None
    compat = characteristic_compatibility(mod)
    if compat.status != ("yes" if iso else "no"):
        raise InternalCheckError(
            f"characteristic compatibility ({compat.status}) disagrees with "
            f"quandle comparison ({iso})"
        )
    return iso


def longitude_fixes_orbit(res: ImqResult) -> bool:
    """On an even diagram, the walk product of over-arc translations of
    each component fixes that component's orbit pointwise."""
    d = res.diagram
    if not d.is_even():
        raise ValueError("diagram not even")
    orbs = orbits(res.quandle)
    for i in range(d.mu):
        perm = list(range(res.quandle.n))
        for _, over in component_walk(d, i):
            beta = res.quandle.translation(res.arc_element[over])
            perm = [beta[v] for v in perm]
        home = next(
            orb for orb in orbs if res.arc_element[d.components[i].arcs[0]] in orb
        )
        if any(perm[x] != x for x in home):
            return False
    return True
