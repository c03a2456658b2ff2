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

Both ways list the elements with `_list_closure` and end in `_finish`,
which checks the quandle axioms, every crossing relation and the orbit
count on the table.  The axioms are checked on the rows of the table's
greedy generating set (`FiniteQuandle.generators`), which the `quandle`
docstring shows to be exact: n^2 |G| checks, |G| being 2 for T(2, n) and
4 for chain (6,6,6).  `surjection_to_arc_quandle` then extends its map
along the steps by which that generating set reaches each element, and
checks it on every pair.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable
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


def _list_closure(
    arcs: list[Hashable],
    product: Callable[[Hashable, Hashable], Hashable],
    bound: int,
) -> tuple[list[list[int]], list[int]]:
    """The closure of the arc elements under `product`, numbered in the
    order `compute_imq` states: its table, and each arc's element.

    Each product is computed once, when the listing reaches it.  Listing
    more than `bound` elements raises InternalCheckError."""
    order: list[Hashable] = []  # elements by number
    number: dict[Hashable, int] = {}
    # op[x] holds x |> y for the leading y of the order; every product
    # computed is numbered, so the scan of a row resumes at its end
    op: list[list[int]] = []

    def listed(e: Hashable) -> int:
        if e not in number:
            if len(order) >= bound:
                raise InternalCheckError(f"listing passed the size bound {bound}")
            number[e] = len(order)
            order.append(e)
            op.append([])
        return number[e]

    arc_element = [listed(e) for e in arcs]
    x = 0
    while x < len(order):
        row = op[x]
        while len(row) < len(order):
            n = len(order)
            row.append(listed(product(order[x], order[len(row)])))
            if len(order) > n:
                # a new element: the first product not numbered is now in row 0
                x = -1
                break
        x += 1
    return op, arc_element


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
    Q_A's table, renumbered, is faster (best of 5, 2 vCPUs: T(2,201) 17
    against 65 ms, T(2,511) 134 against 436 ms; the README has more), and
    `surjection_to_arc_quandle` builds it anyway.

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
        table = qa.quandle.op
        op, arc_element = _list_closure(qa.arc_element, lambda x, y: table[x][y], bound)
        if len(op) < len(table):
            raise InternalCheckError("quandle not generated by its arc elements")
    else:
        mesh = _Mesh(d)
        op, arc_element = _list_closure(mesh.arcs, mesh.product, bound)
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
    table, so every generator is an arc element.  Every pair is then
    checked."""
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
    for x in range(res.quandle.n):
        for y in range(res.quandle.n):
            if f[res.quandle.op[x][y]] != op[f[x]][f[y]]:
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
