"""Exact computation of the presented involutory medial quandle of a
diagram.

One generator per arc, relations under |> over = other under at each
crossing.  `compute_imq` finds the finite quandle these present in one of
two ways, by the number of components mu.

For mu <= 2 it is the arc-coset quandle Q_A, which every report builds
anyway: Q_A satisfies the relations and is generated by the arcs, and its
size |det| bounds the presented quandle's from above, so the two are
equal (`compute_imq` gives the argument).  Its table is renumbered, not
saturated.

For mu >= 3 it is found by saturation: a union-find tracks forced
equalities, a partial table holds forced products, and deductions run
until the table is quiet; only then is the oldest undefined product given
a fresh element.  Elements are created only when forced and merged only
when forced, so the closed table is the initial model of the
presentation.

Deductions follow the deduction-stack discipline of coset enumeration.
Every new product goes on a queue.  A popped product joins per-element
indexes of processed products (rows and columns) and is replayed against
processed products only, once in each inner role it can play in a
mediality instance.  So each instance is examined when its last premise
arrives, and no deduction rescans the table.  A merge re-queues only the
products that named the absorbed class.  A step, as counted by
`max_steps`, is one closure to quiet plus one fresh element.

A quiet table is the least congruence-closed partial table holding the
facts so far, and that does not depend on the order of deductions.  So
fresh elements are created in the same order whatever that order, and the
final table is identical for every `seed`.

Both ways end in `_finish`, which checks the quandle axioms, every
crossing relation and the orbit count on the table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .arcquandle import ArcQuandle, build_arc_quandle
from .diagram import LinkDiagram
from .linkmodule import InternalCheckError, LinkModule
from .quandle import CapExceeded, FiniteQuandle, UnionFind, check_axioms, orbits


class _Saturator:
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
        e = self.uf.add()
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


@dataclass
class ImqResult:
    quandle: FiniteQuandle
    arc_element: list[int]
    diagram: LinkDiagram
    elements_created: int


def compute_imq(
    mod: LinkModule,
    max_elements: int | None = None,
    max_steps: int = 100_000,
    seed: int | None = None,
) -> ImqResult:
    """The quandle presented by the crossing relations of the module's
    diagram.

    Rejects determinant-zero diagrams (the presented quandle is then
    infinite).  `max_elements` defaults to 64 times the size bound
    mu*det/2, floor 10000; exceeding it raises CapExceeded, which is
    distinct from the infinite case.

    For mu <= 2 the table is the arc-coset quandle Q_A's, relabelled, and
    nothing is saturated.  This is exact:
    - Q_A satisfies the presentation: `_finish` checks the quandle axioms
      and every crossing relation on the arc elements.
    - Q_A is generated by the arc elements: listing its elements from them
      by products reaches every element, or raises.
    - So IMQ(L) surjects onto Q_A.
    - |IMQ(L)| <= |det| = |Q_A|: by Joyce for mu = 1, and by the bound
      mu*det/2 for mu = 2; |Q_A| = mu*det/2^(mu-1) = |det| in both cases.
    - So the surjection is a bijection, and Q_A is IMQ(L).
    On this path `elements_created` is |Q_A|, and the cap applies to it.

    For mu >= 3 the table is found by saturation.  `max_steps` caps the
    number of steps, each one closure to quiet plus one fresh element,
    raising CapExceeded too.  `seed` shuffles the order in which
    deductions are popped; the table comes out identical for every seed.
    Neither is read for mu <= 2.

    For mu <= 2 the elements are numbered thus: first the arc elements, in
    order of their least arc; then, one at a time, the first product
    x |> y not numbered yet, over the pairs of elements numbered so far in
    lexicographic order.  Saturation numbers them in order of creation,
    and on every diagram the tests try that is the same order.
    """
    d = mod.diagram
    det = mod.determinant
    if det == 0:
        raise ValueError("infinite quandle: determinant is zero")
    if max_elements is None:
        max_elements = max(64 * (d.mu * det // 2), 10_000)
    if d.mu <= 2:
        return _from_arc_quandle(mod, max_elements)
    return _saturate(mod, max_elements, max_steps, seed)


def _from_arc_quandle(mod: LinkModule, max_elements: int) -> ImqResult:
    """Q_A's table, renumbered in the order `compute_imq` states."""
    d = mod.diagram
    qa = build_arc_quandle(mod)
    table = qa.quandle.op
    n = len(table)
    if n > max_elements:
        raise CapExceeded("resource cap: element limit reached")
    index = {e.coords: i for i, e in enumerate(qa.elements)}
    arcs = [index[mod.arc_class[a].coords] for a in range(d.n_arcs)]
    # order lists Q_A elements by new number; number inverts it
    order: list[int] = []
    number = [-1] * n
    for i in arcs:
        if number[i] < 0:
            number[i] = len(order)
            order.append(i)
    # numbered[x]: how many leading products x |> y, y in order, are
    # numbered; numbering only grows, so the scan of a row resumes there
    numbered = [0] * n
    while len(order) < n:
        for x in range(len(order)):
            row = table[order[x]]
            k = numbered[x]
            while k < len(order) and number[row[order[k]]] >= 0:
                k += 1
            numbered[x] = k
            if k < len(order):
                z = row[order[k]]
                number[z] = len(order)
                order.append(z)
                break
        else:
            raise InternalCheckError("quandle not generated by its arc elements")
    op = [[number[table[x][y]] for y in order] for x in order]
    return _finish(d, op, [number[i] for i in arcs], n)


def _saturate(
    mod: LinkModule, max_elements: int, max_steps: int, seed: int | None
) -> ImqResult:
    """The presented quandle by saturation; see the module docstring."""
    d = mod.diagram
    rng = random.Random(seed) if seed is not None else None
    s = _Saturator(max_elements, rng)
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
    return _finish(d, op, arc_element, s.created)


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
    matching components orbit by orbit."""
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
    changed = True
    while changed:
        changed = False
        for x, y in itertools.product(range(res.quandle.n), repeat=2):
            fx, fy = f[x], f[y]
            if fx is None or fy is None:
                continue
            img = qa.quandle.op[fx][fy]
            z = res.quandle.op[x][y]
            if f[z] is None:
                f[z] = img
                changed = True
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
