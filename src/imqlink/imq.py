"""Exact computation of the presented involutory medial quandle of a
diagram.

One generator per arc, relations under |> over = other under at each
crossing.  `compute_imq` lists the finite quandle IMQ(L) these present from
the arc elements, inside a quandle known to contain it, and numbers the
elements in the order it states.  Which quandle depends on the number of
components mu.

For mu <= 2 it is the arc-coset quandle Q_A, which every report builds
anyway; `compute_imq` gives the argument that Q_A is IMQ(L).

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
4 for chain (6,6,6).  `surjection_to_arc_quandle` then fills its map by
one search from the arc elements, and checks it on every pair.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from .abelian import _gf2_echelon, _gf2_reduce, row_lattice_basis
from .arcquandle import ArcQuandle, build_arc_quandle
from .diagram import LinkDiagram
from .linkmodule import InternalCheckError, LinkModule
from .quandle import CapExceeded, FiniteQuandle, check_axioms, orbits


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

    The keys come from one basis of T.  Every crossing row has -1 on its
    under arcs, so most rows of T, reduced by the rows before them, keep a
    unit entry and eliminate its column c.  `image[c]` is g_c written over
    the free columns, those no row eliminated, modulo the rows so far; it
    names no eliminated column.  With u_c = e_c - image[c], every v in D is
    the sum of v[c] u_c over the eliminated columns c plus its projection
    p(v), which lives on the free columns.  The rows left with no unit
    entry are projected, and `row_lattice_basis` gives a Hermite basis H of
    their span.  The u_c and the rows of H form a basis of T.

    Reducing p(v) by H gives v's canonical residue mod T and v's
    coordinates on H; its coordinates on the u_c are the v[c].  As
    2T <= S_i <= T, v mod S_i is that residue together with those
    coordinates mod 2, taken modulo the image of R_i + C_i in T/2T.
    `_gf2_reduce` by an echelon basis of that image makes the parity
    canonical, and is linear.  The key of (v, i) is (i, parity, *residue),
    with the parity as a bitmask: bit c for an eliminated column c, and
    bit n + k for row k of H, n being the number of columns.  So a product
    reduces only its residue, and adds parities that were reduced once,
    when the mesh was built.
    """

    def __init__(self, d: LinkDiagram):
        mu, kappa = d.mu, d.kappa
        # columns: the d_ij, then the arcs but each component's first
        pairs = itertools.combinations(range(mu), 2)
        delta_col = {ij: k for k, ij in enumerate(pairs)}
        first = {comp.arcs[0] for comp in d.components}
        kept = [a for a in range(d.n_arcs) if a not in first]
        arc_col = {a: len(delta_col) + k for k, a in enumerate(kept)}

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

        self.image: dict[int, dict[int, int]] = {}
        rest = self._eliminate_units([row for _, row in rows])
        n_cols = len(arc_col) + len(delta_col)
        free = [c for c in range(n_cols) if c not in self.image]
        self.free_pos = {c: k for k, c in enumerate(free)}
        self.basis = row_lattice_basis([self._project(r) for r in rest], len(free))
        self.basis_pivot = [next(j for j, x in enumerate(h) if x) for h in self.basis]

        raw_h_bits = [1 << (n_cols + k) for k in range(len(self.basis))]

        def coords(v: dict[int, int]) -> tuple[list[int], int]:
            # v's residue mod T, and its coordinates in T's basis mod 2
            residue, mask = self._reduce(self._project(v), raw_h_bits)
            odd = sum(1 << c for c, x in v.items() if x % 2 and c in self.image)
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

    def _substitute(self, v: dict[int, int]) -> dict[int, int]:
        """v with each eliminated column c replaced by image[c]."""
        image = self.image
        return _sparse(
            (f, x * y) for c, x in v.items() for f, y in image.get(c, {c: 1}).items()
        )

    def _eliminate_units(self, rows: list[dict[int, int]]) -> list[dict[int, int]]:
        """Fill `image` from the rows that keep a unit entry when reduced by
        the rows before them, and return the others, reduced.  A row
        eliminates its last unit column.  On a braid closure whose arcs are
        numbered in order of first appearance along the crossings, that is
        the arc the crossing starts, which no image names yet."""
        image = self.image
        rest = []
        for row in rows:
            r = self._substitute(row)
            units = [c for c, x in r.items() if x in (1, -1)]
            if not units:
                rest.append(r)
                continue
            c = max(units)
            sign = r.pop(c)
            for e, img in image.items():
                if c in img:
                    y = img.pop(c)
                    image[e] = _sparse(
                        [*img.items(), *((f, -sign * y * x) for f, x in r.items())]
                    )
            image[c] = {f: -sign * x for f, x in r.items()}
        return rest

    def _project(self, v: dict[int, int]) -> list[int]:
        """p(v), dense over the free columns."""
        out = [0] * len(self.free_pos)
        for c, x in self._substitute(v).items():
            out[self.free_pos[c]] = x
        return out

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
    max_elements: int,
) -> tuple[list[list[int]], list[int]]:
    """The closure of the arc elements under `product`, numbered in the
    order `compute_imq` states: its table, and each arc's element.

    Each product is computed once, when the listing reaches it.  Listing
    more than `max_elements` elements raises CapExceeded."""
    order: list[Hashable] = []  # elements by number
    number: dict[Hashable, int] = {}
    # op[x] holds x |> y for the leading y of the order; every product
    # computed is numbered, so the scan of a row resumes at its end
    op: list[list[int]] = []

    def listed(e: Hashable) -> int:
        if e not in number:
            if len(order) >= max_elements:
                raise CapExceeded("resource cap: element limit reached")
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


def compute_imq(mod: LinkModule, max_elements: int | None = None) -> ImqResult:
    """The quandle presented by the crossing relations of the module's
    diagram.

    Rejects determinant-zero diagrams (the presented quandle is then
    infinite).  `max_elements` defaults to 64 times the size bound
    mu*det/2, floor 10000.  Listing more elements than that raises
    CapExceeded, which is distinct from the infinite case.
    `elements_created` is the number of elements listed.

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
    there Q_A is already built and is faster to read.

    The elements are numbered thus: first the arc elements, in order of
    their least arc; then, one at a time, the first product x |> y not
    numbered yet, over the pairs of elements numbered so far in
    lexicographic order.
    """
    d = mod.diagram
    det = mod.determinant
    if det == 0:
        raise ValueError("infinite quandle: determinant is zero")
    if max_elements is None:
        max_elements = max(64 * (d.mu * det // 2), 10_000)
    if d.mu <= 2:
        qa = build_arc_quandle(mod)
        table = qa.quandle.op
        index = {e.coords: i for i, e in enumerate(qa.elements)}
        arcs = [index[mod.arc_class[a].coords] for a in range(d.n_arcs)]
        op, arc_element = _list_closure(arcs, lambda x, y: table[x][y], max_elements)
        if len(op) < len(table):
            raise InternalCheckError("quandle not generated by its arc elements")
    else:
        mesh = _Mesh(d)
        op, arc_element = _list_closure(mesh.arcs, mesh.product, max_elements)
    return _finish(d, op, arc_element, len(op))


def _finish(
    d: LinkDiagram, op: list[list[int]], arc_element: list[int], created: int
) -> ImqResult:
    """Label each element by its arcs and check the table: the quandle
    axioms, every crossing relation, and one orbit per component."""
    labels: dict[int, object] = {i: () for i in range(len(op))}
    for a, e in enumerate(arc_element):
        labels[e] = (*labels[e], d.arc_names[a])
    q = FiniteQuandle(op, labels=labels)

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
        quandle=q, arc_element=arc_element, diagram=d, elements_created=created
    )


def surjection_to_arc_quandle(res: ImqResult, qa: ArcQuandle) -> list[int]:
    """The map sending each arc generator to its arc class, extended over
    the whole table; verified to be a surjective quandle homomorphism
    matching components orbit by orbit.

    The map is filled by one breadth-first search from the arc elements
    under the right translations by arc elements.  `compute_imq` checked
    the table's axioms, so R_{x |> y} = R_y R_x R_y, and that search
    reaches the whole subquandle the arcs generate.  Every pair is then
    checked."""
    if qa.module.diagram is not res.diagram and qa.module.diagram != res.diagram:
        raise ValueError("quandles come from different diagrams")
    index = {e: i for i, e in enumerate(qa.elements)}
    f: list[int | None] = [None] * res.quandle.n
    for a in range(res.diagram.n_arcs):
        target = index[qa.module.arc_class[a]]
        cur = f[res.arc_element[a]]
        if cur is not None and cur != target:
            raise InternalCheckError("arc generators map inconsistently")
        f[res.arc_element[a]] = target
    arcs = list(dict.fromkeys(res.arc_element))
    queue = arcs[:]
    for x in queue:  # the loop sees the elements appended in it
        row, fx = res.quandle.op[x], qa.quandle.op[f[x]]
        for a in arcs:
            z, img = row[a], fx[f[a]]
            if f[z] is None:
                f[z] = img
                queue.append(z)
            elif f[z] != img:
                raise InternalCheckError("map does not respect the operation")
    if any(v is None for v in f):
        raise InternalCheckError("quandle not generated by its arc elements")
    if set(f) != set(range(qa.quandle.n)):
        raise InternalCheckError("map is not surjective")
    for x in range(res.quandle.n):
        for y in range(res.quandle.n):
            if f[res.quandle.op[x][y]] != qa.quandle.op[f[x]][f[y]]:
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
    return [v for v in f if v is not None]


def check_size_bounds(q: FiniteQuandle, det: int, mu: int) -> bool:
    """Exact size for one component; the sandwich mu*det/2 >= n >=
    mu*det/2^(mu-1) plus the per-orbit det/2 bound otherwise."""
    if det == 0:
        raise ValueError("bounds need a nonzero determinant")
    det = abs(det)
    if mu == 1:
        return q.n == det
    if 2 * q.n > mu * det or q.n * (1 << (mu - 1)) < mu * det:
        return False
    return all(2 * len(orb) <= det for orb in orbits(q))
