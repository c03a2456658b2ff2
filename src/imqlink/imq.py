"""Exact computation of the presented involutory medial quandle of a
diagram.

One generator per arc, relations under |> over = other under at each
crossing.  `compute_imq` lists the finite quandle IMQ(L) these present from
the arc elements, inside a quandle known to contain it, and numbers the
elements in the order it states.  Which quandle depends on the number of
components mu.

For mu <= 2 it is the arc-coset quandle Q_A; `compute_imq` gives the
argument that Q_A is IMQ(L), and why it reads Q_A there.

For mu >= 3 it is an affine displacement mesh M.  Let a_i be the first arc
of component i and kappa(a) the component of arc a.
- D is the free abelian group on g_a, one per arc, with g_{a_i} = 0, and
  on d_ij for i < j.  Set d_ji = -d_ij and d_ii = 0.
- R_i holds, per crossing with over arc o and under arcs u, u' on
  component i, the row 2g_o - g_u - g_u' + d_{i,kappa(o)}.
- C_k holds the rows d_ij - d_kj + d_ki for all i, j.
- T = R + C, with R the sum of all R_k and C of all C_k, and
  S_i = R_i + C_i + 2T.
- M is the disjoint union of the D/S_i, with
  (g, i) |> (h, j) = (2h - g + d_ij, i).  Arc a is (g_a, kappa(a)).

IMQ(L) is the subquandle of M that the arcs generate.  This is exact:
- M is an involutory medial quandle.  |> is well defined, as 2S_j lies in
  2T, inside S_i.  d_ii = 0 gives idempotence, and applying (h, j) twice
  gives 2h - (2h - g + d_ij) + d_ij = g.  For w, x, y, z in components i,
  j, k, l the two sides of mediality differ by
  2(d_kl - d_jl + d_ik - d_ij) = 2(c_i + c_j), with c_i in C_i and c_j in
  C_j, which lies in 2T, inside S_i.
- M satisfies every crossing relation: u |> o and u' differ by a row of
  R_i.
- Take any involutory medial quandle Q that the arcs generate and that
  satisfies the crossing relations.  Dis(Q) is abelian, and each R_x acts
  on it by inversion.  Then x |> y = (2h - g + d_ij).a_i, where x = g.a_i,
  y = h.a_j and d_ij = R_{a_j} R_{a_i}.  The preimages P_i in D of the
  stabilisers contain R_i and C_i, and 2P_j lies in P_i.  So M maps onto
  Q, arcs to arcs.
- So the arc-generated part of M and IMQ(L) map onto each other, fixing
  the arcs.  They are equal.
For affine meshes of medial quandles see P. Jedlicka, A. Pilitowska,
D. Stanovsky and A. Zamojska-Dzienio, "The structure of medial quandles",
J. Algebra 443 (2015).

Both ways number the elements with `_renumber` and end in `_finish`,
which checks the quandle axioms, every crossing relation and the orbit
count on the table.  The axioms are checked on the rows of the table's
greedy generating set (`FiniteQuandle.generators`), which the `quandle`
docstring shows to be exact: n^2 |G| checks, |G| being 2 for T(2, n) and
4 for chain (6,6,6).

The mesh is listed from a generating set G of arcs (`_generating_arcs`),
breadth first under the right translations by G's elements: n |G|
products.  Every other column follows by lookups.  Four facts make this
exact; each holds in any involutory quandle, where R_{z |> g} =
R_g R_z R_g, that is x |> (z |> g) = ((x |> g) |> z) |> g.
1. Closure.  The elements that the R_g, g in G, reach from G form a
   subquandle: by induction on z, each column z |> g is R_g R_z R_g of
   earlier columns, so x |> (z |> g) is reached when x is.  This is also
   how the column of z |> g is filled, three lookups a row.
2. Generation.  Arc a joins G when the crossing relations u' = u |> o,
   read either way (u = u' |> o, by involution), do not reach it from the
   arcs already in G.  Every arc is then reached from G by products, so
   the subquandle of fact 1 holds every arc, and is all of IMQ(L).  An
   arc whose element is not listed raises InternalCheckError.
3. Numbering.  The order `compute_imq` states is read off the listed
   table by its lexicographic scan, which stops once all n elements are
   numbered; the rest of the table is a permutation of what is listed.
4. Homomorphism.  A map f between involutory quandles, the first
   generated by G under the R_g, is a homomorphism if f(x |> g) = f(x) |> f(g)
   for every x and every g in G.  Let Y be the y with f(x |> y) =
   f(x) |> f(y) for every x; it holds G.  For y = z |> g with z in Y,
   f(x |> y) = f(((x |> g) |> z) |> g) = ((f(x) |> f(g)) |> f(z)) |> f(g)
   = f(x) |> (f(z) |> f(g)) = f(x) |> f(y), using the identity above on
   both sides.  So Y is closed under the R_g, and is every element.
   `surjection_to_arc_quandle` checks its map on the table's greedy
   generating set: n |G| lookups in Q_A's table, not n^2.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .abelian import _gf2_echelon, _gf2_reduce, cokernel
from .arcquandle import ArcQuandle, build_arc_quandle
from .diagram import LinkDiagram
from .linkmodule import InternalCheckError, LinkModule, check_imq_bound, size_bounds
from .quandle import FiniteQuandle, check_axioms, orbits


def _sparse(terms) -> dict[int, int]:
    """The sum of x*e_c over the terms (c, x), as {c: x} without zeros; a
    term with c None is zero."""
    v: dict[int, int] = {}
    for c, x in terms:
        if c is not None:
            v[c] = v.get(c, 0) + x
    return {c: x for c, x in v.items() if x}


class _Mesh:
    """The displacement mesh of a diagram, with a canonical key for each
    element; see the module docstring for the mesh.

    The keys come from one `cokernel` of all the rows of the R_k and C_k.
    Its basis row at a unit pivot c is u_c = e_c plus a tail on the free
    columns, where the other basis rows H lie.  So v in D is the sum of
    v[c] u_c over the unit pivots c and of p(v) on the free columns.  Let
    U H V = diag(d_k) be the Smith form of H (d_k = 0 past its rank), f_k
    the rows of V^-1 and y = p(v) V, so p(v) = sum y_k f_k, and split
    y_k = q_k d_k + r_k by divmod (q_k = 0 where d_k = 0).  Then
    v = sum v[c] u_c + sum q_k d_k f_k + sum r_k f_k, where the u_c and the
    nonzero d_k f_k are a basis of T and the f_k are independent: the r_k
    are v's canonical residue mod T, and v's coordinates on that basis are
    the v[c] and the q_k.  r_k = 0 where d_k = 1; the other r_k are kept.

    As 2T <= S_i <= T, v mod S_i is that residue together with those
    coordinates mod 2, taken modulo the image of R_i + C_i in T/2T.
    `_gf2_reduce` by an echelon basis of that image makes this parity
    canonical, and is linear.  The key of (v, i) is (i, parity, *residue),
    the parity a bitmask over the unit pivots, then the Smith positions.
    The product (2h - g + d_ij, i) has y = 2y_h - y_g + y_d: a kept
    coordinate w = 2b - a + c of the residues splits as q d_k + r, and the
    product's parity is g's plus d_ij's plus the bits of the odd q, each
    reduced once when the mesh is built.
    """

    def __init__(self, d: LinkDiagram):
        mu, kappa = d.mu, d.kappa
        # columns: the arcs but each component's first, then the d_ij
        first = {comp.arcs[0] for comp in d.components}
        kept = [a for a in range(d.n_arcs) if a not in first]
        arc_col = {a: k for k, a in enumerate(kept)}
        pairs = itertools.combinations(range(mu), 2)
        delta_col = {ij: len(kept) + k for k, ij in enumerate(pairs)}

        def delta(i: int, j: int, x: int = 1) -> tuple[int | None, int]:
            # the term x*d_ij
            if i == j:
                return None, 0
            return (delta_col[i, j], x) if i < j else (delta_col[j, i], -x)

        rows: list[tuple[int, dict[int, int]]] = []  # (k, a row of R_k or C_k)
        for c in d.crossings:
            u, w = c.under
            i = kappa[u]
            rows.append((i, _sparse([
                (arc_col.get(c.over), 2), (arc_col.get(u), -1), (arc_col.get(w), -1),
                delta(i, kappa[c.over]),
            ])))
        for k in range(mu):
            for i, j in itertools.combinations(range(mu), 2):
                if k not in (i, j):
                    rows.append((k, _sparse([delta(i, j), delta(k, j, -1), delta(k, i)])))

        n_cols = len(arc_col) + len(delta_col)
        pres = cokernel([row for _, row in rows], n_cols)
        # parity bits: the unit-pivot columns, then the Smith positions
        units = sorted(set(range(n_cols)) - set(pres._columns))
        unit_bit = {c: 1 << k for k, c in enumerate(units)}
        moduli = pres.snf.diag + [0] * (pres.snf.n - pres.snf.m)  # one per position

        def split(v: dict[int, int]) -> tuple[list[int], int]:
            # v's residue mod T on the kept coordinates, and its
            # coordinates on T's basis mod 2
            p: dict[int, int] = {}
            for c, x in v.items():
                for f, y in pres._gen_rows[c].items():
                    p[f] = p.get(f, 0) + x * y
            mask = sum(unit_bit.get(c, 0) for c, x in v.items() if x & 1)
            residue = []
            for k, (y, m) in enumerate(zip(pres._coords(p), moduli), len(units)):
                q, r = divmod(y, m) if m else (0, y)
                mask |= (q & 1) << k
                if m != 1:
                    residue.append(r)
            return residue, mask

        spans: list[list[int]] = [[] for _ in range(mu)]
        for k, row in rows:
            residue, mask = split(row)
            if any(residue):
                raise InternalCheckError("a row of T does not reduce to zero")
            spans[k].append(mask)
        spans = [_gf2_echelon(masks)[0] for masks in spans]

        def key(v: dict[int, int], i: int) -> tuple[int, ...]:
            residue, mask = split(v)
            return (i, _gf2_reduce(spans[i], mask), *residue)

        # per component i, each kept coordinate's modulus and the parity a
        # product in component i adds when its quotient there is odd
        kept_positions = [(k, m) for k, m in enumerate(moduli, len(units)) if m != 1]
        self.moduli_carry = [
            [(m, _gf2_reduce(span, 1 << k)) for k, m in kept_positions] for span in spans
        ]
        self.delta_key = [
            [key(_sparse([delta(i, j)]), i) for j in range(mu)] for i in range(mu)
        ]
        self.arcs = [
            key(_sparse([(arc_col.get(a), 1)]), kappa[a]) for a in range(d.n_arcs)
        ]

    def product(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """The key of x |> y = (2h - g + d_ij, i), for x = (g, i) and
        y = (h, j) given by their keys."""
        i, mask, *rx = x
        _, pd, *rd = self.delta_key[i][y[0]]
        mask ^= pd
        residue = []
        for a, b, c, (m, carry) in zip(rx, y[2:], rd, self.moduli_carry[i]):
            w = 2 * b - a + c
            if m:
                q, w = divmod(w, m)
                if q & 1:
                    mask ^= carry
            residue.append(w)
        return (i, mask, *residue)


def _generating_arcs(d: LinkDiagram) -> list[int]:
    """The greedy generating set G of arcs, ascending: an arc joins G when
    the crossing relations u' = u |> o, read either way, do not reach it
    from the arcs already in G (fact 2 of the module docstring)."""
    touching: list[list] = [[] for _ in range(d.n_arcs)]
    for c in d.crossings:
        for a in {c.over, *c.under}:
            touching[a].append(c)
    reached = [False] * d.n_arcs
    gens = []
    for start in range(d.n_arcs):
        if reached[start]:
            continue
        gens.append(start)
        reached[start] = True
        stack = [start]
        while stack:
            for c in touching[stack.pop()]:
                u, w = c.under
                if reached[c.over] and reached[u] != reached[w]:
                    new = w if reached[u] else u
                    reached[new] = True
                    stack.append(new)
    return gens


def _list_in_mesh(d: LinkDiagram, bound: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The subquandle of the displacement mesh that the arcs generate,
    numbered in the order `compute_imq` states: its table, and each arc's
    element.

    Breadth first from G's elements under their right translations, the
    n |G| mesh products that are G's columns; every other column
    z |> g, z listed before it, by three lookups a row (facts 1-3 of the
    module docstring).  Listing more than `bound` elements raises
    InternalCheckError."""
    mesh = _Mesh(d)
    gens = list(dict.fromkeys(mesh.arcs[a] for a in _generating_arcs(d)))
    order = list(gens)  # elements by listing number
    number = {e: i for i, e in enumerate(order)}
    cols: list[list[int]] = [[] for _ in gens]  # cols[k][x] = x |> gens[k]
    via: list[tuple[int, int]] = []  # (z, k) for each element past G: z |> gens[k]
    for x, e in enumerate(order):  # the loop sees the elements appended in it
        for k, g in enumerate(gens):
            z = mesh.product(e, g)
            if z not in number:
                if len(order) >= bound:
                    raise InternalCheckError(f"listing passed the size bound {bound}")
                number[z] = len(order)
                order.append(z)
                via.append((x, k))
            cols[k].append(number[z])
    for z, k in via:
        cg, cz = cols[k], cols[z]
        cols.append(list(map(cg.__getitem__, map(cz.__getitem__, cg))))
    arc_element = [number.get(e) for e in mesh.arcs]
    if None in arc_element:
        raise InternalCheckError("quandle not generated by its arc elements")
    rows = list(zip(*cols))
    del cols  # so that at most two copies of the table are alive at once
    return _renumber(rows, arc_element, bound)


def _renumber(
    op: Sequence[Sequence[int]], arc_element: list[int], bound: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The table op, whose arc elements are arc_element, renumbered in the
    order `compute_imq` states, and each arc's element in it.

    The scan stops once all n elements are numbered; the rest of the table
    is then a permutation.  Raises InternalCheckError when it numbers more
    than `bound` elements, or ends before n because the arc elements do
    not generate op."""
    n = len(op)
    order: list[int] = []  # elements of op by new number
    number = [-1] * n

    def listed(e: int) -> None:
        if len(order) >= bound:
            raise InternalCheckError(f"listing passed the size bound {bound}")
        number[e] = len(order)
        order.append(e)

    for e in arc_element:
        if number[e] < 0:
            listed(e)
    # Every product in the rows before r is numbered, and so are the first
    # done[r] of row r, so the first product not numbered, in lexicographic
    # order, is the first one left in row r.
    done = [0] * n
    r = 0
    while len(order) < n:
        if r == len(order):
            raise InternalCheckError("quandle not generated by its arc elements")
        row = op[order[r]]
        for y in range(done[r], len(order)):
            if number[row[order[y]]] < 0:
                break
        else:
            done[r] = len(order)
            r += 1
            continue
        new = len(order)
        listed(row[order[y]])
        done[r] = y + 1
        # the rows before r now lack only the new column
        for first in range(r):
            if number[op[order[first]][order[new]]] < 0:
                done[first : r] = [new] * (r - first)
                r = first
                break
    pick = operator.itemgetter(*order) if n > 1 else lambda row: (row[order[0]],)
    renamed = number.__getitem__
    table = [tuple(map(renamed, pick(op[e]))) for e in order]
    return table, [number[e] for e in arc_element]


@dataclass
class ImqResult:
    quandle: FiniteQuandle
    arc_element: list[int]
    diagram: LinkDiagram
    elements_created: int


def compute_imq(mod: LinkModule) -> ImqResult:
    """The quandle presented by the crossing relations of the module's
    diagram.

    Rejects determinant-zero diagrams (the presented quandle is then
    infinite).  Raises CapExceeded before listing anything when the paper's
    bound on its size passes the listing cap (`check_imq_bound`), and
    InternalCheckError on listing past that bound.  `elements_created` is
    the number of elements listed.

    For mu <= 2 the elements are listed in the arc-coset quandle Q_A.  This
    is exact:
    - Q_A satisfies the presentation: `_finish` checks the quandle axioms
      and every crossing relation on the arc elements.
    - Q_A is generated by the arc elements: listing its elements from them
      by products reaches every element, or raises.
    - So IMQ(L) surjects onto Q_A.
    - |IMQ(L)| <= |det| = |Q_A|: by Joyce for mu = 1, and by the bound
      mu*det/2 for mu = 2; |Q_A| = mu*det/2^(mu-1) = |det| in both cases.
    - So the surjection is a bijection, and Q_A is IMQ(L).
    For mu >= 3 they are listed in the displacement mesh of the module
    docstring.  The mesh would give the same table for mu <= 2 too, but
    costs more there.  At T(2,17), `_Mesh(d)` alone takes 0.32 ms against
    0.20 ms for Q_A's cosets and table, and the whole mesh listing 0.48 ms
    against 0.23 ms for Q_A's cosets, table and renumbering (best of 50,
    2 vCPUs, from a built module; the README has more), so the knots and
    two-component links would list more slowly in the mesh.

    The elements are numbered thus: first the arc elements, in order of
    their least arc; then, one at a time, the first product x |> y not
    numbered yet, over the pairs of elements numbered so far in
    lexicographic order.
    """
    d = mod.diagram
    if mod.determinant == 0:
        raise ValueError("infinite quandle: determinant is zero")
    bound = check_imq_bound(mod)
    if d.mu <= 2:
        qa = build_arc_quandle(mod)
        op, arc_element = _renumber(qa.quandle.op, qa.arc_element, bound)
    else:
        op, arc_element = _list_in_mesh(d, bound)
    return _finish(d, op, arc_element)


def _finish(d: LinkDiagram, op: list[list[int]], arc_element: list[int]) -> ImqResult:
    """Check the table: the quandle axioms, every crossing relation, and
    one orbit per component.  Every element of the table counts as
    created."""
    q = FiniteQuandle(op)

    bad = check_axioms(q)
    if bad:
        raise InternalCheckError(f"presented table is not a quandle: {bad[0]}")
    for c in d.crossings:
        u, v = c.under
        if q.op[arc_element[u]][arc_element[c.over]] != arc_element[v]:
            raise InternalCheckError("crossing relation fails in the presented table")
    if len(orbits(q)) != d.mu:
        raise InternalCheckError("orbit count differs from component count")
    return ImqResult(
        quandle=q, arc_element=arc_element, diagram=d, elements_created=len(op)
    )


def surjection_to_arc_quandle(res: ImqResult, qa: ArcQuandle) -> list[int]:
    """The map sending each arc generator to its arc class, extended over
    the whole table; verified to be a surjective quandle homomorphism
    matching components orbit by orbit.

    The map is extended along the table's greedy generating set
    (`FiniteQuandle._reach`), which `compute_imq`'s axiom check has already
    built: each element reached as x |> g maps to f(x) |> f(g).
    `compute_imq` numbers the arc elements first, and they generate the
    table, so every generator is an arc element.  Then f(x |> g) =
    f(x) |> f(g) is checked for every x and every g in that set, n |G|
    lookups in Q_A's table; by fact 4 of the module docstring f is then a
    homomorphism."""
    if qa.diagram is not res.diagram and qa.diagram != res.diagram:
        raise ValueError("quandles come from different diagrams")
    f: list[int | None] = [None] * res.quandle.n
    for a, target in enumerate(qa.arc_element):
        cur = f[res.arc_element[a]]
        if cur is not None and cur != target:
            raise InternalCheckError("arc generators map inconsistently")
        f[res.arc_element[a]] = target
    op = qa.quandle.op
    for z, via in res.quandle._reach.items():
        if via is None:
            if f[z] is None:
                raise InternalCheckError("quandle not generated by its arc elements")
            continue
        x, g = via
        img = op[f[x]][f[g]]
        if f[z] is None:
            f[z] = img
        elif f[z] != img:
            raise InternalCheckError("map does not respect the operation")
    if set(f) != set(range(qa.quandle.n)):
        raise InternalCheckError("map is not surjective")
    for g in res.quandle.generators:
        fg = f[g]
        for x, row in enumerate(res.quandle.op):
            if f[row[g]] != op[f[x]][fg]:
                raise InternalCheckError("homomorphism check failed")
    for orb in orbits(res.quandle):
        comps = {qa.component_of[f[x]] for x in orb}
        gens = [
            a
            for a in range(res.diagram.n_arcs)
            if res.arc_element[a] in orb
        ]
        if len(comps) != 1 or {res.diagram.kappa[a] for a in gens} != comps:
            raise InternalCheckError("orbits do not map component to component")
    return f


def check_size_bounds(q: FiniteQuandle, det: int, mu: int) -> bool:
    """The paper's bounds (`size_bounds`): exact size for one component;
    the sandwich mu*det/2 >= n >= mu*det/2^(mu-1) plus the per-orbit det/2
    bound otherwise."""
    lower, upper = size_bounds(det, mu)
    if not lower <= q.n <= upper:
        return False
    return mu == 1 or all(2 * len(orb) <= abs(det) for orb in orbits(q))
