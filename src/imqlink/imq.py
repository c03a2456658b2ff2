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

from .abelian import _dense, _gf2_echelon, _gf2_reduce, _hermite_basis, _unit_split
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

    The keys come from one basis of T: `_hermite_basis` of all the rows of
    the R_k and C_k, split by `_unit_split`.  A pivot of 1 is the only
    nonzero entry of its column, so the basis splits into unit rows u_c,
    one per unit-pivot column c, and the rows H of the other pivots, which
    live on the other columns, the free ones.  Every v in D is the sum of
    v[c] u_c over the unit-pivot columns c plus a vector p(v) on the free
    columns, the sum of v's entries times their images there; reducing
    p(v) by H gives v's canonical residue mod T and v's coordinates on H.
    Its coordinate on u_c is v[c] itself.

    As 2T <= S_i <= T, v mod S_i is that residue together with v's
    coordinates on the basis mod 2, taken modulo the image of R_i + C_i in
    T/2T.  `_gf2_reduce` by an echelon basis of that image makes the parity
    canonical, and is linear.  The key of (v, i) is (i, parity, *residue),
    with the parity as a bitmask, bit k for basis row k.  So a product
    reduces only its residue, and adds parities that were reduced once,
    when the mesh was built.

    The columns list the arcs from the last down, then the d_ij.  The keys
    are canonical in any column order; this one makes a crossing row of a
    braid closure, its arcs numbered in order of first appearance, lead
    with the arc the crossing starts, which has coefficient -1, so most
    rows enter the basis as unit rows with no gcd step.
    """

    def __init__(self, d: LinkDiagram):
        mu, kappa = d.mu, d.kappa
        # columns: the arcs but each component's first, last arc first;
        # then the d_ij
        first = {comp.arcs[0] for comp in d.components}
        kept = [a for a in reversed(range(d.n_arcs)) if a not in first]
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

        basis, pivots = _hermite_basis(row for _, row in rows)
        free, image, rest = _unit_split(basis, pivots, len(arc_col) + len(delta_col))
        bit = {j: 1 << k for k, j in enumerate(pivots)}
        unit_bit = {j: bit[j] for j in pivots if j not in rest}
        self.basis: list[list[int]] = _dense(list(rest.values()), len(free))  # H
        self.basis_pivot = [min(h) for h in rest.values()]
        raw_h_bits = [bit[j] for j in rest]

        def coords(v: dict[int, int]) -> tuple[list[int], int]:
            # v's residue mod T, and its coordinates in T's basis mod 2
            p = [0] * len(free)
            odd = 0
            for c, x in v.items():
                if x % 2 and c in unit_bit:
                    odd |= unit_bit[c]
                for f, y in image[c].items():
                    p[f] += x * y
            residue, mask = self._reduce(p, raw_h_bits)
            return residue, mask | odd

        spans: list[list[int]] = [[] for _ in range(mu)]
        for k, row in rows:
            residue, mask = coords(row)
            if any(residue):
                raise InternalCheckError("a row of T does not reduce to zero")
            spans[k].append(mask)
        spans = [_gf2_echelon(masks)[0] for masks in spans]

        def key(v: dict[int, int], i: int) -> tuple[int, ...]:
            residue, mask = coords(v)
            return (i, _gf2_reduce(spans[i], mask), *residue)

        # a product in component i adds h_bits[i][k] to the parity per row
        # k of H it subtracts an odd number of times
        self.h_bits = [[_gf2_reduce(span, b) for b in raw_h_bits] for span in spans]
        self.delta_key = [
            [key(_sparse([delta(i, j)]), i) for j in range(mu)] for i in range(mu)
        ]
        self.arcs = [
            key(_sparse([(arc_col.get(a), 1)]), kappa[a]) for a in range(d.n_arcs)
        ]

    def _reduce(self, w: list[int], bits: list[int]) -> tuple[list[int], int]:
        """w reduced by H, each pivot entry into [0, pivot): the canonical
        residue of w mod the span of H.  Also the XOR of bits[k] over the
        rows k of H subtracted an odd number of times."""
        mask = 0
        for h, j, b in zip(self.basis, self.basis_pivot, bits):
            q = w[j] // h[j]
            if q:
                w = [x - q * y for x, y in zip(w, h)]
                if q % 2:
                    mask ^= b
        return w, mask

    def product(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """The key of x |> y = (2h - g + d_ij, i), for x = (g, i) and
        y = (h, j) given by their keys."""
        i, px, *rx = x
        _, pd, *rd = self.delta_key[i][y[0]]
        w = [2 * b - a + c for a, b, c in zip(rx, y[2:], rd)]
        residue, mask = self._reduce(w, self.h_bits[i])
        return (i, px ^ pd ^ mask, *residue)


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
    Q_A's table, renumbered, is faster (best of 5, 2 vCPUs: T(2,201) 63
    against 144 ms, T(2,511) 235 against 623 ms; the README has more), and
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
