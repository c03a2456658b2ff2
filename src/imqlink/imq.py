"""Exact computation of the presented involutory medial quandle of a
diagram.

One generator per arc, relations under |> over = other under at each
crossing.  The finite quandle these present is found by saturation: a
union-find tracks forced equalities, a partial table holds forced
products, sweeps of mediality instances are replayed until quiet, and only
then is the oldest undefined product given a fresh element.  Elements are
created only when forced and merged only when forced, so the closed table
is the initial model of the presentation.

A quiet table is the least congruence-closed partial table holding the
facts so far, and that does not depend on the order of deductions.  So
fresh elements are created in the same order whatever that order, and the
final table is identical for every `seed`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .arcquandle import ArcQuandle
from .diagram import LinkDiagram, component_walk
from .linkmodule import InternalCheckError, LinkModule
from .quandle import CapExceeded, FiniteQuandle, UnionFind, check_axioms, orbits


class _Saturator:
    def __init__(self, max_elements: int):
        self.uf = UnionFind(0)
        self.find = self.uf.find
        self.table: dict[tuple[int, int], int] = {}
        self.pending_unions: list[tuple[int, int]] = []
        self.max_elements = max_elements
        self.created = 0

    def fresh(self) -> int:
        if self.created >= self.max_elements:
            raise CapExceeded("resource cap: element limit reached")
        e = self.uf.add()
        self.created += 1
        self.set_op(e, e, e)
        return e

    def set_op(self, x: int, y: int, z: int) -> None:
        x, y, z = self.find(x), self.find(y), self.find(z)
        cur = self.table.get((x, y))
        if cur is None:
            self.table[(x, y)] = z
            # translations are involutions, so the reverse fact is forced
            if self.table.get((z, y)) != x:
                self.set_op(z, y, x)
        elif cur != z:
            self.pending_unions.append((cur, z))
            self.settle()

    def settle(self) -> None:
        """Drain merges, keeping the table congruence-closed."""
        while self.pending_unions:
            a, b = self.pending_unions.pop()
            # the older (lower-numbered) class stays canonical
            if not self.uf.union(a, b):
                continue
            rebuilt: dict[tuple[int, int], int] = {}
            for (x, y), z in list(self.table.items()):
                xf, yf, zf = self.find(x), self.find(y), self.find(z)
                old = rebuilt.get((xf, yf))
                if old is None:
                    rebuilt[(xf, yf)] = zf
                elif old != zf:
                    self.pending_unions.append((old, zf))
            # mutate in place so live aliases keep seeing current facts
            self.table.clear()
            self.table.update(rebuilt)

    def reps(self) -> list[int]:
        return sorted({self.find(i) for i in range(self.created)})

    def derive_pass(self, rng) -> bool:
        """One instantiation sweep of mediality, (w|>x)|>(y|>z) =
        (w|>y)|>(x|>z), over every pair of currently defined products;
        returns whether anything changed.

        Right distributivity, (x|>y)|>z = (x|>z)|>(y|>z), needs no sweep of
        its own: it is the mediality instance with (y, z) := (z, z), and
        `fresh` puts z|>z = z into the table for every element (merges keep
        it), so this sweep meets each of its instances.
        """
        changed = False
        items = list(self.table.items())
        if rng is not None:
            rng.shuffle(items)
        op = self.table

        def relate(key: tuple[int, int], val: int) -> None:
            nonlocal changed
            k = (self.find(key[0]), self.find(key[1]))
            v = self.find(val)
            cur = op.get(k)
            if cur is None or cur != v:
                changed = True
                self.set_op(k[0], k[1], v)

        for (w, x), a in items:
            if op.get((w, x)) != a:
                continue
            for (y, z), b in items:
                if op.get((y, z)) != b or op.get((w, x)) != a:
                    continue
                c = op.get((w, y))
                d = op.get((x, z))
                lhs = op.get((a, b))
                rhs = op.get((c, d)) if c is not None and d is not None else None
                if lhs is not None and c is not None and d is not None:
                    if rhs is None:
                        relate((c, d), lhs)
                    elif self.find(lhs) != self.find(rhs):
                        relate((a, b), rhs)
                elif lhs is None and rhs is not None:
                    relate((a, b), rhs)
        return changed


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
    distinct from the infinite case.  `max_steps` caps the number of
    deduction sweeps, raising CapExceeded too.  `seed` shuffles
    deduction order; the table comes out identical for every seed.
    """
    d = mod.diagram
    det = mod.determinant
    if det == 0:
        raise ValueError("infinite quandle: determinant is zero")
    bound = d.mu * det // 2
    if max_elements is None:
        max_elements = max(64 * bound, 10_000)
    rng = random.Random(seed) if seed is not None else None

    s = _Saturator(max_elements)
    gen = [s.fresh() for _ in range(d.n_arcs)]
    for c in d.crossings:
        over = gen[c.over]
        u, v = c.under
        s.set_op(gen[u], over, gen[v])
        s.set_op(gen[v], over, gen[u])
    s.settle()

    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise CapExceeded("resource cap: step limit reached")
        if s.derive_pass(rng):
            continue
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
    labels: dict[int, object] = {i: () for i in range(n)}
    arc_element = []
    for a in range(d.n_arcs):
        e = relabel[s.find(gen[a])]
        arc_element.append(e)
        labels[e] = (*labels[e], d.arc_names[a])
    q = FiniteQuandle(op, labels=labels)

    bad = check_axioms(q)
    if bad:
        raise InternalCheckError(f"saturation closed on a non-quandle: {bad[0]}")
    for c in d.crossings:
        u, v = c.under
        if q.op[arc_element[u]][arc_element[c.over]] != arc_element[v]:
            raise InternalCheckError("crossing relation lost in saturation")
    if len(orbits(q)) != d.mu:
        raise InternalCheckError("orbit count differs from component count")
    return ImqResult(
        quandle=q, arc_element=arc_element, diagram=d, elements_created=s.created
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
