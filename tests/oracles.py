"""Literal checks kept as test oracles for the faster forms the package
uses, and helpers only the tests call."""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass, replace
from math import gcd, prod

from imqlink import arcquandle, quandle
from imqlink.abelian import (
    FgAbGroup,
    GroupElt,
    Matrix,
    Presentation,
    Row,
    SmithForm,
    _add_scaled,
    _ext_gcd,
    _gf2_echelon,
    _gf2_reduce,
    _hermite_basis,
    _nearest_quotient,
    _stacked_relations,
    int_det,
    smith_normal_form,
    subgroup_contains,
    subgroup_type,
)
from imqlink.arcquandle import (
    ArcQuandle,
    _canonical_torsion_generators,
    _mod2_bits,
    _parity_block,
    _verify_unit_decomposition,
    _weight_adapted_basis,
    build_arc_quandle,
    characteristic_compatibility,
)
from imqlink.diagram import LinkDiagram, component_walk, make_even
from imqlink.imq import ImqResult, _finish
from imqlink.linkmodule import (
    InternalCheckError,
    LinkModule,
    build_link_module,
    check_listing_cap,
    relation_matrix,
)
from imqlink.quandle import (
    CapExceeded,
    FiniteQuandle,
    Perm,
    UnionFind,
    characteristic_subquandle,
    check_axioms,
    is_isomorphic,
    orbits,
)


def _mask(bits: tuple[int, ...]) -> int:
    return sum(b << k for k, b in enumerate(bits))


def _gf2_same_span(a: list[int], b: list[int]) -> bool:
    ba, bb = _gf2_echelon(a)[0], _gf2_echelon(b)[0]
    return len(ba) == len(bb) and not any(_gf2_reduce(ba, v) for v in bb)


def _torsion_span(gens: list[GroupElt], zero: GroupElt) -> set[GroupElt]:
    span = {zero}
    for g in gens:
        if g.order() == 0:
            raise ValueError("infinite-order generator")
        layer = set(span)
        for c in range(1, g.order()):
            layer |= {e + g.smul(c) for e in span}
        span = layer
    return span


def is_isomorphism(q1: FiniteQuandle, q2: FiniteQuandle, f: list[int]) -> bool:
    """Checked literally: f is a bijection q1 -> q2 with
    f(x |> y) = f(x) |> f(y) for every pair."""
    n = q1.n
    if q2.n != n or sorted(f) != list(range(n)):
        return False
    return all(
        f[q1.op[x][y]] == q2.op[f[x]][f[y]]
        for x, y in itertools.product(range(n), repeat=2)
    )


def literal_orbits(q: FiniteQuandle) -> list[list[int]]:
    """Connected classes of the relation x ~ x|>y, by one union per pair:
    the oracle for `quandle.orbits`."""
    uf = UnionFind(q.n)
    for x in range(q.n):
        for y in range(q.n):
            uf.union(x, q.op[x][y])
    return uf.classes()


def literal_signatures(q: FiniteQuandle) -> list[tuple[int, int]]:
    """Per element x, the size of its orbit and the fixed points of R_x,
    counted element by element: the oracle for `quandle._signatures`,
    which counts them column by column."""
    size = {x: len(orb) for orb in literal_orbits(q) for x in orb}
    return [(size[x], sum(q.op[y][x] == y for y in range(q.n))) for x in range(q.n)]


def fingerprints(q: FiniteQuandle, orbs: list[list[int]]) -> list[int]:
    """Operation-aware colour refinement, seeded by orbit sizes and the
    fixed points of each R_x and run until a round splits no colour class;
    isomorphic quandles get equal colour histograms and isomorphisms
    preserve colours."""
    orb_of = {}
    for orb in orbs:
        for x in orb:
            orb_of[x] = len(orb)
    fixed = [sum(1 for x in range(q.n) if q.op[x][y] == x) for y in range(q.n)]
    color = [hash((orb_of[x], fixed[x])) for x in range(q.n)]
    for _ in range(q.n):
        nxt = [
            hash(
                (
                    color[x],
                    tuple(sorted((color[y], color[q.op[x][y]]) for y in range(q.n))),
                    tuple(sorted((color[y], color[q.op[y][x]]) for y in range(q.n))),
                )
            )
            for x in range(q.n)
        ]
        if len(set(nxt)) == len(set(color)):
            color = nxt
            break
        color = nxt
    return color


def fingerprint_candidates(
    q1: FiniteQuandle, q2: FiniteQuandle
) -> list[list[int]] | None:
    """Per element x of q1, the elements of q2 with the fingerprint of x;
    None when orbit sizes or fingerprints already tell q1 and q2 apart:
    the oracle for `quandle._iso_candidates`."""
    if q1.n != q2.n:
        return None
    o1, o2 = orbits(q1), orbits(q2)
    if sorted(len(o) for o in o1) != sorted(len(o) for o in o2):
        return None
    c1, c2 = fingerprints(q1, o1), fingerprints(q2, o2)
    if sorted(c1) != sorted(c2):
        return None
    return [[y for y in range(q2.n) if c2[y] == c] for c in c1]


def literal_iso_search(
    q1: FiniteQuandle,
    q2: FiniteQuandle,
    candidates: list[list[int]],
    want_all: bool,
) -> list[list[int]]:
    """Isomorphisms f: q1 -> q2 with every f(x) in candidates[x], by
    backtracking: all of them, or the first.  Elements are assigned in
    order of their candidate counts, and f(x |> y) = f(x) |> f(y) is
    checked once both sides are assigned: the oracle for
    `quandle._iso_search`."""
    n = q1.n
    order = sorted(range(n), key=lambda x: len(candidates[x]))
    found: list[list[int]] = []
    fwd = [-1] * n
    used = [False] * n

    def consistent(x: int, y: int) -> bool:
        for a in range(n):
            if fwd[a] < 0:
                continue
            if fwd[q1.op[x][a]] >= 0 and fwd[q1.op[x][a]] != q2.op[y][fwd[a]]:
                return False
            if fwd[q1.op[a][x]] >= 0 and fwd[q1.op[a][x]] != q2.op[fwd[a]][y]:
                return False
        return True

    def rec(k: int) -> bool:
        if k == n:
            found.append(fwd[:])
            return not want_all
        x = order[k]
        for y in candidates[x]:
            if used[y] or not consistent(x, y):
                continue
            fwd[x] = y
            used[y] = True
            if rec(k + 1):
                return True
            fwd[x] = -1
            used[y] = False
        return False

    rec(0)
    return found


def automorphism_classes(q: FiniteQuandle, points: list[int]) -> list[list[int]]:
    """The classes of `points` under Aut(q): x and y share a class when
    some automorphism sends x to y.  Aut(q) is a group, so this is an
    equivalence relation: a pair already joined through others is skipped,
    and every other pair gets one `quandle._iso_search` with f(x) = y
    fixed, stopping at its first witness.  The oracle for the component
    classes that `arcquandle.reindexing_sensitivity` reads off the parity
    flag; the search is looked up on the module, so tests can wrap it."""
    candidates = quandle._iso_candidates(q, q)
    classes = UnionFind(len(points))
    for i, j in itertools.combinations(range(len(points)), 2):
        if classes.find(i) == classes.find(j):
            continue
        x, y = points[i], points[j]
        fixed = candidates[:]
        fixed[x] = [y] if y in candidates[x] else []
        if quandle._iso_search(q, q, fixed, want_all=False):
            classes.union(i, j)
    return [[points[i] for i in c] for c in classes.classes()]


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


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def literal_smith_normal_form(rows: Matrix, n_cols: int | None = None) -> SmithForm:
    """`abelian.smith_normal_form` written out literally: the same pivot
    rule, searched over columns t and up only, the same steps, and the
    witness check by the triple-loop product."""
    m = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    n = n_cols
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a = [row[:] for row in rows]
    u = identity_matrix(m)
    v = identity_matrix(n)
    v_inv = identity_matrix(n)

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t, re-pivoting on any nonzero remainder
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = _nearest_quotient(a[i][t], a[t][t])
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = _nearest_quotient(a[t][j], a[t][t])
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # pivot must divide every remaining entry to build the chain;
            # otherwise fold the offending row in and clear again
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [a[i][i] for i in range(min(m, n))]
    # internal consistency: witnesses really do transform A to diag
    check = dense_mat_mul(dense_mat_mul(u, rows, n), v, n)
    for i in range(m):
        for j in range(n):
            want = diag[i] if i == j and i < len(diag) else 0
            if check[i][j] != want:
                raise AssertionError("smith_normal_form witness check failed")
    return SmithForm(m=m, n=n, diag=diag, u=u, v=v, v_inv=v_inv)


def _dense(rows: list[Row], n_cols: int) -> Matrix:
    """Sparse rows as dense rows of n_cols entries."""
    out = []
    for row in rows:
        full = [0] * n_cols
        for j, x in row.items():
            full[j] = x
        out.append(full)
    return out


def literal_cokernel_group(rows, n_cols: int, smith=None) -> FgAbGroup:
    """Z^n_cols modulo the row space of rows, dense or sparse as `cokernel`
    takes them, read off the literal Smith form of the dense rows as given,
    with no Hermite step or unit split.  smith may be
    `abelian.smith_normal_form`, which takes the literal form's steps and
    checks its witnesses through `mat_mul`, skipping the zero entries."""
    rows = [_dense([row], n_cols)[0] if isinstance(row, dict) else row for row in rows]
    sf = (smith or literal_smith_normal_form)(rows, n_cols)
    diag = sf.diag + [0] * (n_cols - len(sf.diag))
    return FgAbGroup(diag.count(0), tuple(t for t in diag if t >= 2))


def row_lattice_basis(rows: Matrix, n_cols: int) -> Matrix:
    """`abelian._hermite_basis` of the rows, as one dense row per pivot
    column, in column order."""
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged matrix")
    basis, pivots = _hermite_basis({j: x for j, x in enumerate(row) if x} for row in rows)
    return _dense([basis[j] for j in pivots], n_cols)


def _literal_reduce_above_pivots(basis: dict[int, list[int]], upto: int) -> None:
    """`abelian._reduce_above_pivots` on dense rows."""
    pivots = sorted(basis)
    for i in reversed(pivots):
        if i > upto:
            continue
        row = basis[i]
        for k in pivots:
            if k > i and row[k]:
                q = _nearest_quotient(row[k], basis[k][k])
                if q:
                    row = [x - q * y for x, y in zip(row, basis[k])]
        basis[i] = row


def literal_row_lattice_basis(rows: Matrix, n_cols: int) -> Matrix:
    """`row_lattice_basis` on dense lists: the same steps in the
    same order, each rewriting a whole row, and every pivot column after a
    row's pivot scanned when the row is reduced."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        r = list(row)
        for j in range(n_cols):
            x = r[j]
            if not x:
                continue
            b = basis.get(j)
            if b is None:
                basis[j] = r if x > 0 else [-y for y in r]
                _literal_reduce_above_pivots(basis, j)
                break
            p = b[j]
            if x % p == 0:
                q = x // p
                r = [y - q * z for y, z in zip(r, b)]
                continue
            g, s, t = _ext_gcd(p, x)
            pg, xg = p // g, x // g
            basis[j] = [s * z + t * y for y, z in zip(r, b)]
            r = [pg * y - xg * z for y, z in zip(r, b)]
            _literal_reduce_above_pivots(basis, j)
        else:
            if any(r):
                raise AssertionError("row_lattice_basis: a row did not reduce to zero")
    return [basis[j] for j in sorted(basis)]


def literal_weight(mod: LinkModule, x: GroupElt) -> int:
    """The arc-coefficient sum of the lift of x."""
    return sum(mod.pres.lift(x))


def literal_parity(mod: LinkModule, x: GroupElt) -> tuple[int, ...]:
    """Mod-2 arc-coefficient sums of the lift of x, per component."""
    out = [0] * mod.mu
    for arc, coeff in enumerate(mod.pres.lift(x)):
        out[mod.diagram.kappa[arc]] += coeff
    return tuple(v % 2 for v in out)


def _combination(coeffs: Row, rows: list[Row]) -> Row:
    """The sparse row sum of x * rows[k] over coeffs' entries x at k."""
    out: Row = {}
    for k, x in coeffs.items():
        _add_scaled(out, rows[k], x)
    return out


def to_canonical(pres: Presentation, gen_vector: list[int]) -> GroupElt:
    """Image in the quotient of a Z-combination of generators."""
    if len(gen_vector) != pres.n_gens:
        raise ValueError("generator vector length mismatch")
    coeffs = {i: x for i, x in enumerate(gen_vector) if x}
    return pres._image(_combination(coeffs, pres._gen_rows))


def literal_generator_image(pres: Presentation, i: int) -> GroupElt:
    """to_canonical of the unit vector at generator i."""
    return to_canonical(pres, [1 if k == i else 0 for k in range(pres.n_gens)])


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
    with no reduction before the Smith form.  Those are up to |Q|^2 rows
    on |Q| columns, so it runs the package's form, whose witness check
    skips zero entries, not the literal triple loop."""
    return literal_cokernel_group(group_relation_rows(q), q.n, smith_normal_form)


def _perm_inverse(g: Perm) -> Perm:
    out = [0] * len(g)
    for x, v in enumerate(g):
        out[v] = x
    return tuple(out)


def literal_displacement_group(q: FiniteQuandle) -> tuple[tuple[Perm, ...], FgAbGroup]:
    """The displacement group as its permutations, in the order a search
    from the identity reaches them, and as an abstract abelian group: the
    oracle for `quandle.displacement_group`, which keeps only the set.

    The products beta_y * beta_0 outside the closure of those kept before
    are kept; every permutation carries its word over the kept products,
    and the differences of words that reach one permutation present the
    group.  Raises ValueError if two kept products do not commute, or if
    the presented group's order is not the number of permutations."""
    n = q.n
    if n == 0:
        raise ValueError("empty quandle")
    base = q.translation(0)
    ident = tuple(range(n))
    word: dict[Perm, tuple[int, ...]] = {ident: ()}
    gens: list[Perm] = []
    stepper: list[tuple[int, int, Perm]] = []
    for y in range(n):
        g = quandle._compose(q.translation(y), base)
        if g in word:
            continue
        i = len(gens)
        gens.append(g)
        word = {p: v + (0,) for p, v in word.items()}
        stepper += [(i, 1, g), (i, -1, _perm_inverse(g))]
        queue = deque(word)
        while queue:
            cur = queue.popleft()
            for j, sign, step in stepper:
                nxt = quandle._compose(step, cur)
                if nxt not in word:
                    vec = list(word[cur])
                    vec[j] += sign
                    word[nxt] = tuple(vec)
                    queue.append(nxt)
    for a, b in itertools.combinations(gens, 2):
        if quandle._compose(a, b) != quandle._compose(b, a):
            raise ValueError("displacement generators do not commute")

    relations: set[tuple[int, ...]] = set()
    for cur, vec in word.items():
        for j, sign, step in stepper:
            nvec = list(vec)
            nvec[j] += sign
            diff = tuple(a - b for a, b in zip(nvec, word[quandle._compose(step, cur)]))
            if any(diff):
                relations.add(diff)
    group = literal_cokernel_group([list(r) for r in sorted(relations)], len(gens))
    if group.order() != len(word):
        raise ValueError("displacement presentation does not match closure size")
    return tuple(word), group


def literal_is_semiregular(q: FiniteQuandle) -> bool:
    """Only the identity among the oracle's displacements fixes a point."""
    perms, _ = literal_displacement_group(q)
    ident = tuple(range(q.n))
    return all(p == ident or all(p[x] != x for x in range(q.n)) for p in perms)


# ---------------------------------------------------------------------------
# abelian groups and integer matrices


def torsion_elements(group: FgAbGroup):
    """All elements of finite order (free coordinates zero)."""
    r = group.free_rank
    for combo in itertools.product(*(range(t) for t in group.torsion)):
        yield GroupElt(group, (0,) * r + combo)


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
    return literal_cokernel_group(_stacked_relations(group, gens), group.n_coords)


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


def with_unknots(text: str, count: int) -> str:
    """The diagram of `text` beside `count` unknots of one arc each: a
    split link whose module gains one free factor per unknot."""
    obj = json.loads(text)
    for i in range(count):
        obj["arcs"].append(f"u{i}")
        obj["components"].append({"arcs": [f"u{i}"], "crossings": []})
    return json.dumps(obj)


def dense_relation_matrix(d: LinkDiagram) -> Matrix:
    """`linkmodule.relation_matrix` as dense rows, one entry per arc."""
    return _dense(relation_matrix(d), d.n_arcs)


def determinant_by_minors(d: LinkDiagram, base_arc: int = 0) -> int:
    """Independent determinant computation: gcd of all maximal minors of
    the relation matrix avoiding the base arc's column."""
    rows = dense_relation_matrix(d)
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
    kw_elements = [t for t in torsion_elements(mod.group) if mod.weight(t) == 0]
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


def literal_marking_kernel(mod: LinkModule) -> list[tuple[int, ...]]:
    """The marking kernel the literal way: the torsion listed, its
    elements of parity 0 and its doubles collected, compared, and the
    first sorted by coordinates.  The oracle for
    `arcquandle.marking_kernel`, which lists 2T off the invariant factors
    after one GF(2) check.  Raises CapExceeded past the listing cap."""
    check_listing_cap(mod)
    torsion = list(torsion_elements(mod.group))
    by_parity = {t for t in torsion if not any(mod.parity(t))}
    doubled = {t.smul(2) for t in torsion}
    if by_parity != doubled:
        raise InternalCheckError("marking kernel differs from doubled torsion")
    return sorted(t.coords for t in by_parity)


def literal_coset_table(qa: ArcQuandle) -> list[list[int]]:
    """Q_A's table built the literal way: x |> y = 2y - x in GroupElt
    arithmetic, looked up by element.  The package computes the same
    products on reduced coordinate tuples."""
    elems = [qa.group.element(e) for e in qa.elements]
    index = {e: i for i, e in enumerate(elems)}
    return [[index[y.smul(2) - x] for y in elems] for x in elems]


def literal_coset_checks(mod: LinkModule) -> tuple[int, list[int]] | None:
    """The checks the coset quandle once ran on its whole table, as the
    oracle for `arcquandle._cosets` and the generator check of
    `arcquandle._coset_table`: no two elements r_i + k collide, every
    product 2y - x is found by lookup, the orbits of the table are the
    cosets, one per component, and `quandle.is_semiregular` holds over the
    whole displacement group.  The size and the sorted orbit sizes, or
    None when a check fails.  K comes from `arcquandle.marking_kernel`,
    read through the module, so that a test can corrupt it for both."""
    kernel = [mod.group.element(k) for k in arcquandle.marking_kernel(mod)]
    elems: list[GroupElt] = []
    comp_of: list[int] = []
    for i, comp in enumerate(mod.diagram.components):
        rep = mod.arc_class[comp.arcs[0]]
        elems += [rep + k for k in kernel]
        comp_of += [i] * len(kernel)
    index = {e: i for i, e in enumerate(elems)}
    if len(index) != len(elems):
        return None
    try:
        q = FiniteQuandle([[index[y.smul(2) - x] for y in elems] for x in elems])
    except KeyError:
        return None
    orbs = orbits(q)
    if len(orbs) != mod.mu or any(
        {comp_of[x] for x in orb} != {comp_of[orb[0]]} or len(orb) != len(kernel)
        for orb in orbs
    ):
        return None
    if not quandle.is_semiregular(q):
        return None
    return len(elems), sorted(len(orb) for orb in orbs)


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
    perms, dis_group = literal_displacement_group(qa.quandle)
    kernel = [qa.group.element(k) for k in qa.kernel]
    kernel_group = subgroup_type(qa.group, kernel)
    group_matches = dis_group == kernel_group
    kernel_set = set(kernel)
    elems = [qa.group.element(e) for e in qa.elements]
    index = {e: i for i, e in enumerate(elems)}
    all_translations = True
    for p in perms:
        k = elems[p[0]] - elems[0]
        if k not in kernel_set or any(p[i] != index[e + k] for i, e in enumerate(elems)):
            all_translations = False
            break
    return DisKernelReport(
        ok=group_matches and all_translations,
        group_matches=group_matches,
        all_translations=all_translations,
        dis_group=dis_group,
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


# ---------------------------------------------------------------------------
# characteristic compatibility by search


@dataclass
class LiteralCharCompat:
    status: str  # "yes" | "no" | "unknown"
    indexings_tried: int
    witness: dict | None = None


def _bits_solve(
    cols: list[tuple[int, ...]], target: tuple[int, ...]
) -> list[int] | None:
    """0/1 coefficients with sum(c_i * cols[i]) == target, or None.  They
    are read off the null vector of cols + [target] that uses the target;
    only the last input's null vector can."""
    n = len(cols)
    null = _gf2_echelon([_mask(v) for v in cols + [target]])[1]
    if null and null[-1] >> n & 1:
        return [null[-1] >> i & 1 for i in range(n)]
    return None


def two_primary_elements(mod: LinkModule) -> list[GroupElt]:
    return [
        t
        for t in torsion_elements(mod.group)
        if t.order() and t.order() & (t.order() - 1) == 0
    ]


def is_pure_summand(mod: LinkModule, gens: list[GroupElt], shape: list[int]) -> bool:
    """gens generate an internal direct sum of the given cyclic shape
    that is pure in the torsion subgroup (hence a direct summand)."""
    if [g.order() for g in gens] != shape:
        return False
    span = _torsion_span(gens, mod.group.zero())
    if len(span) != prod(shape):
        return False
    torsion = set(torsion_elements(mod.group))
    exponent = max((t.order() for t in torsion), default=1)
    j = 2
    while j <= exponent:
        scaled_t = {t.smul(j) for t in torsion}
        scaled_s = {s.smul(j) for s in span}
        if span & scaled_t != scaled_s:
            return False
        j *= 2
    return True


def replay_unimodular_lift(rows: list[list[int]]) -> list[list[int]]:
    """Integer matrix of determinant +-1 congruent mod 2 to the given
    invertible GF(2) matrix, by replaying elementary row operations: the
    construction `arcquandle._gf2_unimodular_lift` replaced by Smith forms,
    kept so that `explicit_free_generators` shares nothing with it."""
    m = len(rows)
    g = [[x % 2 for x in r] for r in rows]
    ops: list[tuple[str, int, int]] = []
    for col in range(m):
        piv = next(i for i in range(col, m) if g[i][col])
        if piv != col:
            g[col], g[piv] = g[piv], g[col]
            ops.append(("swap", col, piv))
        for i in range(m):
            if i != col and g[i][col]:
                g[i] = [(a + b) % 2 for a, b in zip(g[i], g[col])]
                ops.append(("add", i, col))
    out = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for kind, i, j in reversed(ops):
        if kind == "swap":
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = [a - b for a, b in zip(out[i], out[j])]
    return out


def explicit_free_generators(
    mod: LinkModule,
    ordering: tuple[int, ...],
    adapted: list[GroupElt],
    torsion_slots: list[int],
) -> tuple[list[GroupElt], list[int]]:
    """Free generators completing the torsion ones to a full unit-image
    decomposition: the first maps to the weight unit, the rest to the
    parity units at the slots torsion does not cover.

    The weight-adapted basis is recombined by a determinant +-1 integer
    matrix and shifted by torsion elements; both moves preserve being a
    complement of the torsion subgroup, so only the markings change.  The
    recombination is found by backtracking over the kernel of the block
    map."""
    mu = mod.mu
    tgens = _canonical_torsion_generators(mod.group)

    def block(x: GroupElt) -> tuple[int, ...]:
        return _parity_block(mod, x, ordering)

    cols_tail = [block(c) for c in adapted[1:]]
    cols_tg = [block(g) for g in tgens]
    free_slots = [j for j in range(mu - 1) if j not in set(torsion_slots)]
    unit = {
        j: tuple(1 if i == j else 0 for i in range(mu - 1)) for j in range(mu - 1)
    }

    def corrected(base: GroupElt, coeffs: list[int], tail_len: int) -> GroupElt:
        out = base
        for l, c in enumerate(coeffs[:tail_len]):
            if c % 2:
                out = out + adapted[1 + l]
        for i, c in enumerate(coeffs[tail_len:]):
            if c % 2:
                out = out + tgens[i]
        return out

    sol = _bits_solve(cols_tail + cols_tg, block(adapted[0]))
    if sol is None:
        raise InternalCheckError("weight generator block not correctable")
    first = corrected(adapted[0], sol, len(cols_tail))

    m = len(cols_tail)
    kernel_span: set[tuple[int, ...]] = {tuple([0] * m)}
    for vec in _gf2_echelon([_mask(v) for v in cols_tail + cols_tg])[1]:
        head = tuple(vec >> i & 1 for i in range(m))
        kernel_span |= {
            tuple((a + b) % 2 for a, b in zip(s, head)) for s in kernel_span
        }
    particular: list[tuple[int, ...]] = []
    for s in free_slots:
        p = _bits_solve(cols_tail + cols_tg, unit[s])
        if p is None:
            raise InternalCheckError("free unit target not reachable")
        particular.append(tuple(v % 2 for v in p[:m]))

    chosen: list[tuple[int, ...]] = []

    def extend(j: int) -> bool:
        if j == len(free_slots):
            return True
        for k in kernel_span:
            cand = tuple((a + b) % 2 for a, b in zip(particular[j], k))
            if len(_gf2_echelon([_mask(v) for v in chosen + [cand]])[0]) == j + 1:
                chosen.append(cand)
                if extend(j + 1):
                    return True
                chosen.pop()
        return False

    if free_slots and not extend(0):
        raise InternalCheckError("no invertible recombination of the free tail")
    lift = replay_unimodular_lift(chosen) if chosen else []

    gens = [first]
    for j, s in enumerate(free_slots):
        acc = mod.group.zero()
        for l in range(m):
            acc = acc + adapted[1 + l].smul(lift[j][l])
        fix = _bits_solve(
            cols_tg,
            tuple((a + b) % 2 for a, b in zip(block(acc), unit[s])),
        )
        if fix is None:
            raise InternalCheckError("torsion correction unavailable")
        gens.append(corrected(acc, fix, 0))
    return gens, free_slots


def literal_characteristic_compatibility(
    mod: LinkModule, torsion_cap: int = 4096
) -> LiteralCharCompat:
    """The search `characteristic_compatibility` replaced: over every
    component ordering, every choice of unit slots and every tuple of
    2-primary elements with unit parity blocks, test for a pure summand of
    the 2-primary shape, then decide the free part by a span condition over
    GF(2) modulo torsion parities.  "unknown" when the tuples outnumber
    `torsion_cap`.  A witness goes through `_verify_unit_decomposition`."""
    mu = mod.mu
    shape = _mod2_bits(mod)[2]
    k = len(shape)
    two_primary = two_primary_elements(mod)
    if len(two_primary) ** k > torsion_cap:
        return LiteralCharCompat("unknown", 0)
    adapted = _weight_adapted_basis(mod)
    unit = {
        j: tuple(1 if i == j else 0 for i in range(mu - 1)) for j in range(mu - 1)
    }

    tried = 0
    for ordering in itertools.permutations(range(mu)):
        tried += 1

        def block(x: GroupElt) -> tuple[int, ...]:
            return _parity_block(mod, x, ordering)

        p_torsion = _gf2_echelon(
            [_mask(block(t)) for t in torsion_elements(mod.group)]
        )[0]
        by_unit: dict[int, list[GroupElt]] = {j: [] for j in range(mu - 1)}
        for t in two_primary:
            b = block(t)
            for j in range(mu - 1):
                if b == unit[j]:
                    by_unit[j].append(t)

        found_slots = None
        found_gens = None
        for slots in itertools.combinations(range(mu - 1), k):
            pools = [by_unit[j] for j in slots]
            for gens in itertools.product(*pools):
                if is_pure_summand(mod, list(gens), shape):
                    found_slots, found_gens = slots, list(gens)
                    break
            if found_slots is not None:
                break
        if k > 0 and found_slots is None:
            continue
        used = set(found_slots or ())
        remaining = [unit[j] for j in range(mu - 1) if j not in used]

        v1 = _mask(block(adapted[0]))
        rest = [_mask(block(c)) for c in adapted[1:]]
        reduced_rest = [_gf2_reduce(p_torsion, v) for v in rest]
        reduced_units = [_gf2_reduce(p_torsion, _mask(u)) for u in remaining]
        if not _gf2_same_span(reduced_rest, reduced_units):
            continue
        basis_rest = _gf2_echelon(reduced_rest)[0]
        if _gf2_reduce(basis_rest, _gf2_reduce(p_torsion, v1)):
            continue
        torsion_gens = found_gens or []
        torsion_slots = list(found_slots or ())
        free_gens, free_slots = explicit_free_generators(
            mod, ordering, adapted, torsion_slots
        )
        images = _verify_unit_decomposition(
            mod, ordering, free_gens, free_slots, torsion_gens, torsion_slots, shape
        )
        witness = {
            "ordering": ordering,
            "free_generators": [list(g.coords) for g in free_gens],
            "free_units": free_slots,
            "torsion_generators": [list(g.coords) for g in torsion_gens],
            "torsion_units": torsion_slots,
            "unit_images": images,
        }
        return LiteralCharCompat("yes", tried, witness)
    return LiteralCharCompat("no", tried)


# ---------------------------------------------------------------------------
# marking equivalence and parity profiles by search


def literal_torsion_parity_profile(mod: LinkModule) -> tuple[tuple[int, ...], ...]:
    """The least sorted multiset of torsion parity vectors over every
    permutation of the components, with no free-rank-1 shortcut."""
    vectors = [
        mod.parity(t) for t in torsion_elements(mod.group) if not t.is_zero()
    ]
    best = None
    for perm in itertools.permutations(range(mod.mu)):
        cand = tuple(sorted(tuple(v[i] for i in perm) for v in vectors))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def literal_marking_search(m1: LinkModule, m2: LinkModule) -> dict | None:
    """The search `marking_equivalent` replaced for determinant zero, on
    modules with equal groups: over every tuple of images of m1's canonical
    torsion generators that generates m2's torsion, and every re-indexing
    tau, match the torsion parities, then decide the free part by a span
    condition over GF(2) modulo torsion parities.  Both loops are
    exhaustive, so None means the markings are not equivalent."""
    mu = m1.mu
    gens = _canonical_torsion_generators(m1.group)
    t2 = [x for x in torsion_elements(m2.group) if not x.is_zero()]
    pools = [[x for x in t2 if g.order() % x.order() == 0] for g in gens]
    torsion_order = len(list(torsion_elements(m1.group)))
    adapted1 = _weight_adapted_basis(m1)
    adapted2 = _weight_adapted_basis(m2)
    p_torsion2 = _gf2_echelon(
        [_mask(m2.parity(t)) for t in torsion_elements(m2.group)]
    )[0]
    sources = [_mask(m2.parity(c)) for c in adapted2]
    red_s = [_gf2_reduce(p_torsion2, v) for v in sources[1:]]
    basis_s = _gf2_echelon(red_s)[0]
    s0 = _gf2_reduce(basis_s, _gf2_reduce(p_torsion2, sources[0]))

    for images in itertools.product(*pools):
        if len(_torsion_span(list(images), m2.group.zero())) != torsion_order:
            continue
        for tau in itertools.permutations(range(mu)):

            def shuffle(p: tuple[int, ...]) -> tuple[int, ...]:
                out = [0] * mu
                for i, v in enumerate(p):
                    out[tau[i]] = v
                return tuple(out)

            if any(
                shuffle(m1.parity(g)) != m2.parity(im)
                for g, im in zip(gens, images)
            ):
                continue
            # free part: m2's weight-adapted basis must realize the
            # tau-mapped parities of m1's, modulo torsion parities and an
            # invertible mod-2 change of basis
            targets = [_mask(shuffle(m1.parity(c))) for c in adapted1]
            red_t = [_gf2_reduce(p_torsion2, v) for v in targets[1:]]
            if not _gf2_same_span(red_s, red_t):
                continue
            t0 = _gf2_reduce(basis_s, _gf2_reduce(p_torsion2, targets[0]))
            if t0 != s0:
                continue
            return {
                "component_map": list(tau),
                "torsion_images": [list(i.coords) for i in images],
            }
    return None


# ---------------------------------------------------------------------------
# markings with no diagram behind them


@dataclass
class SyntheticMarking:
    """A group with the weight of each canonical unit and its parity
    bitmask over mu components; `weight` and `parity` are LinkModule's own,
    read off the same tables."""

    group: FgAbGroup
    mu: int
    _weights: tuple[int, ...]
    _parity_masks: tuple[int, ...]

    weight = LinkModule.weight
    parity = LinkModule.parity
    _check_group = LinkModule._check_group


def random_marking(rng: random.Random) -> SyntheticMarking:
    """r free and k even invariant factors with r + k = mu, the 2-parts
    mostly mixed (Z/2 + Z/4 and the like) and now and then an odd part;
    weights of gcd 1 on the free coordinates and 0 on the torsion; parity
    masks whose bit count is the weight mod 2, and 0 on an odd factor."""
    mu = rng.choice((1, 2, 3, 3, 4, 4, 4))
    r = rng.randint(1, rng.randint(1, mu))
    torsion = sorted(rng.choice((2, 2, 4, 4, 8)) for _ in range(mu - r))
    if len(torsion) == 1 and rng.random() < 0.2:
        torsion = [3, 3 * torsion[0]]
    elif torsion and rng.random() < 0.2:
        torsion[-1] *= 3
    group = FgAbGroup(r, tuple(torsion))
    weights = [0] * group.n_coords
    while gcd(*weights[:r]) != 1:
        weights[:r] = [rng.randint(-3, 3) for _ in range(r)]

    def mask(parity: int) -> int:
        while True:
            m = rng.randrange(1 << mu)
            if m.bit_count() % 2 == parity:
                return m

    masks = [mask(w % 2) for w in weights[:r]]
    masks += [mask(0) if t % 2 == 0 else 0 for t in torsion]
    return SyntheticMarking(group, mu, tuple(weights), tuple(masks))


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


# ---------------------------------------------------------------------------
# the presented quandle by saturation


class Saturator:
    """Congruence closure of a partial table of products.

    `table` maps (x, y) to x|>y on class representatives.  `uses[e]` holds
    the keys of the table whose key or value names e.  Processed products
    are indexed by element: `row[x]` maps y to x|>y and `col[y]` maps x to
    x|>y.  `queue` holds products defined but not yet processed, and
    `pending_unions` the equalities forced but not yet merged.
    """

    def __init__(self, max_elements: int, rng: random.Random | None):
        self.uf = UnionFind(0)
        self.find = self.uf.find
        self.table: dict[tuple[int, int], int] = {}
        self.uses: list[set[tuple[int, int]]] = []
        self.row: list[dict[int, int]] = []
        self.col: list[dict[int, int]] = []
        self.queue: list[tuple[int, int]] = []
        self.pending_unions: list[tuple[int, int]] = []
        self.rng = rng
        self.max_elements = max_elements
        self.created = 0

    def fresh(self) -> int:
        if self.created >= self.max_elements:
            raise CapExceeded("resource cap: element limit reached")
        e = len(self.uf.parent)
        self.uf.parent.append(e)
        self.created += 1
        self.uses.append(set())
        self.row.append({})
        self.col.append({})
        self.set_op(e, e, e)
        return e

    def set_op(self, x: int, y: int, z: int) -> None:
        x, y, z = self.find(x), self.find(y), self.find(z)
        key = (x, y)
        cur = self.table.get(key)
        if cur is None:
            self.table[key] = z
            self.uses[x].add(key)
            self.uses[y].add(key)
            self.uses[z].add(key)
            self.queue.append(key)
            # translations are involutions, so the reverse fact is forced
            if self.table.get((z, y)) != x:
                self.set_op(z, y, x)
        elif cur != z:
            self.pending_unions.append((cur, z))

    def merge(self, a: int, b: int) -> None:
        """Merge the classes of a and b, then rename and re-queue the
        products that named the absorbed class."""
        a, b = self.find(a), self.find(b)
        if not self.uf.union(a, b):
            return
        # the older (lower-numbered) class stays canonical
        gone = max(a, b)
        keys, self.uses[gone] = self.uses[gone], set()
        for key in keys:
            x, y = key
            z = self.table.pop(key)
            self.uses[x].discard(key)
            self.uses[y].discard(key)
            self.uses[z].discard(key)
            if y in self.row[x]:
                del self.row[x][y]
                del self.col[y][x]
            self.set_op(x, y, z)

    def reps(self) -> list[int]:
        return sorted({self.find(i) for i in range(self.created)})

    def close(self) -> None:
        """Deduce until the queue and the pending merges are empty."""
        queue, rng = self.queue, self.rng
        while True:
            if self.pending_unions:
                self.merge(*self.pending_unions.pop())
                continue
            if not queue:
                return
            if rng is not None:
                i = rng.randrange(len(queue))
                queue[i], queue[-1] = queue[-1], queue[i]
            x, y = key = queue.pop()
            z = self.table.get(key)
            # a renamed key is gone from the table; a processed one is done
            if z is not None and y not in self.row[x]:
                self.replay(x, y, z)

    def replay(self, p: int, q: int, r: int) -> None:
        """Index the product p|>q = r as processed, then apply mediality,
        (w|>x)|>(y|>z) = (w|>y)|>(x|>z), to every instance in which it is
        the inner product w|>x or the inner product y|>z and every other
        premise is processed.  Swapping x and y exchanges the two sides, so
        this covers the inner products w|>y and x|>z too.

        An instance whose last processed premise is an outer product needs
        no role of its own.  Say a = w|>x, b = y|>z, c = w|>y, d = x|>z and
        e = a|>b are processed, e last of the five.  The table is closed
        under involution, so a|>x = w and b|>z = y are in it too, and are
        processed before the closure is quiet.  The instance (a, b, x, z)
        reads (a|>b)|>(x|>z) = (a|>x)|>(b|>z), that is e|>d = w|>y = c.
        Its inner products are a|>b, x|>z, a|>x and b|>z, and its outer
        w|>y = c was processed before e.  So the last of its premises to
        be processed is an inner one, that replay concludes e|>d = c, and
        involution then gives c|>d = e, the outer role's conclusion.  The
        same holds with the sides exchanged.

        Right distributivity, (x|>y)|>z = (x|>z)|>(y|>z), needs no rule of
        its own: it is the mediality instance with (y, z) := (z, z), and
        `fresh` puts z|>z = z into the table for every element (merges keep
        it).
        """
        row, col, table = self.row, self.col, self.table
        row[p][q] = r
        col[q][p] = r

        # merges wait until the replay ends, so every name here is a
        # representative and a fact already in the table needs no set_op
        def conclude(x: int, y: int, z: int) -> None:
            if table.get((x, y)) != z:
                self.set_op(x, y, z)

        def relate(a: int, b: int, c: int, d: int) -> None:
            # the inner products a = w|>x, b = y|>z, c = w|>y, d = x|>z
            e = row[a].get(b)
            if e is not None:
                conclude(c, d, e)
                return
            e = row[c].get(d)
            if e is not None:
                conclude(a, b, e)

        # as w|>x = a: y runs over row w, z over row x
        row_x = row[q]
        for y, c in row[p].items():
            row_y = row[y]
            for z, d in row_x.items():
                b = row_y.get(z)
                if b is not None:
                    relate(r, b, c, d)
        # as y|>z = b: w runs over column y, x over column z
        col_z = col[q]
        for w, c in col[p].items():
            row_w = row[w]
            for x, d in col_z.items():
                a = row_w.get(x)
                if a is not None:
                    relate(a, r, c, d)




def saturate(
    mod: LinkModule,
    max_elements: int = 10_000,
    max_steps: int = 100_000,
    seed: int | None = None,
) -> ImqResult:
    """The presented quandle by saturation, kept as the reference the
    package's listing is tested against.

    A union-find tracks forced equalities, a partial table holds forced
    products, and deductions run until the table is quiet; only then is
    the oldest undefined product given a fresh element.  Elements are
    created only when forced and merged only when forced, so the closed
    table is the initial model of the presentation, whatever the number
    of components.

    Deductions follow the deduction-stack discipline of coset enumeration.
    Every new product goes on a queue.  A popped product joins per-element
    indexes of processed products (rows and columns) and is replayed
    against processed products only, once in each inner role it can play
    in a mediality instance (`Saturator.replay`).  So each instance is
    examined when its last premise arrives, and no deduction rescans the
    table.  A merge re-queues only the products that named the absorbed
    class.  A step, as counted by `max_steps`, is one closure to quiet
    plus one fresh element; `max_elements` caps the elements created,
    merged ones included.  Either cap raises CapExceeded.

    A quiet table is the least congruence-closed partial table holding the
    facts so far, and that does not depend on the order of deductions.  So
    fresh elements are created in the same order whatever that order, and
    the final table is identical for every `seed`, which shuffles the
    order in which deductions are popped.  Elements are numbered in order
    of creation, the order `compute_imq` states on every diagram the tests
    try.  `elements_created` counts every element created.
    """
    d = mod.diagram
    rng = random.Random(seed) if seed is not None else None
    s = Saturator(max_elements, rng)
    gen = [s.fresh() for _ in range(d.n_arcs)]
    for c in d.crossings:
        over = gen[c.over]
        u, v = c.under
        s.set_op(gen[u], over, gen[v])
        s.set_op(gen[v], over, gen[u])

    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise CapExceeded("resource cap: step limit reached")
        s.close()
        reps = s.reps()
        missing = None
        for x, y in itertools.product(reps, repeat=2):
            if (x, y) not in s.table:
                missing = (x, y)
                break
        if missing is None:
            break
        s.set_op(missing[0], missing[1], s.fresh())

    reps = s.reps()
    relabel = {r: i for i, r in enumerate(reps)}
    n = len(reps)
    op = [[0] * n for _ in range(n)]
    for (x, y), z in s.table.items():
        op[relabel[x]][relabel[y]] = relabel[z]
    arc_element = [relabel[s.find(gen[a])] for a in range(d.n_arcs)]
    return replace(_finish(d, op, arc_element), elements_created=s.created)
