"""Finite involutory medial quandles as explicit operation tables.

A table `op` of size n x n encodes x |> y = op[x][y].  The four axioms
(idempotence, involutory translations, right distributivity, mediality)
are checked literally.  On top of the raw tables this module provides
orbits, translation and displacement groups, core quandles of finite
abelian groups and their characteristic subquandles, exhaustive
isomorphism search, and the abelian group presented by a quandle.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .abelian import FgAbGroup, GroupElt, cokernel


class CapExceeded(RuntimeError):
    """A configured resource cap was hit before the computation closed."""


Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    """x -> p[q[x]]."""
    return tuple(p[x] for x in q)


class FiniteQuandle:
    """Immutable operation table with optional per-element labels."""

    def __init__(
        self,
        op: list[list[int]] | tuple[tuple[int, ...], ...],
        labels: dict[int, object] | None = None,
    ):
        self.n = len(op)
        self.op = tuple(tuple(row) for row in op)
        for x, row in enumerate(self.op):
            if len(row) != self.n or any(not 0 <= v < self.n for v in row):
                raise ValueError(f"malformed table row {x}")
        self.labels = dict(labels) if labels else {}

    def apply(self, x: int, y: int) -> int:
        return self.op[x][y]

    def translation(self, y: int) -> Perm:
        """The permutation x -> x |> y."""
        return tuple(self.op[x][y] for x in range(self.n))

    def __repr__(self) -> str:
        return f"FiniteQuandle(n={self.n})"


def check_axioms(q: FiniteQuandle) -> list[str]:
    """Every violated axiom instance; empty means q is an involutory
    medial quandle."""
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


class UnionFind:
    """Disjoint classes of 0..n-1; every class is named by its least
    member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def add(self) -> int:
        """A new singleton class."""
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False when already one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def classes(self) -> list[list[int]]:
        """The classes, each ascending, in order of their least members."""
        groups: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            groups.setdefault(self.find(x), []).append(x)
        return [groups[r] for r in sorted(groups)]


def orbits(q: FiniteQuandle) -> list[list[int]]:
    """Connected classes of the relation x ~ x|>y."""
    uf = UnionFind(q.n)
    for x in range(q.n):
        for y in range(q.n):
            uf.union(x, q.op[x][y])
    return uf.classes()


def orbit_of(q: FiniteQuandle, x: int) -> list[int]:
    for orb in orbits(q):
        if x in orb:
            return orb
    raise ValueError("element out of range")


@dataclass
class DisGroup:
    """The displacement group: all products of evenly many translations,
    held both as permutations and as an abstract abelian group."""

    perms: list[Perm]
    group: FgAbGroup
    elt_of_perm: dict[Perm, GroupElt]
    gen_of_translation: dict[int, GroupElt] = field(default_factory=dict)

    @property
    def identity(self) -> Perm:
        return next(p for p, e in self.elt_of_perm.items() if e.is_zero())


def _perm_inverse(g: Perm) -> Perm:
    out = [0] * len(g)
    for x, v in enumerate(g):
        out[v] = x
    return tuple(out)


def displacement_group(q: FiniteQuandle, cap: int = 10**6) -> DisGroup:
    """Closure of the translation products beta_y * beta_0; raises
    CapExceeded past `cap` permutations and ValueError if the closure is
    not abelian (it always is for a valid table)."""
    n = q.n
    if n == 0:
        raise ValueError("empty quandle")
    betas = [q.translation(y) for y in range(n)]
    base = betas[0]
    candidates: list[Perm] = []
    candidate_of: dict[int, Perm] = {}
    seen: set[Perm] = set()
    for y in range(n):
        g = _compose(betas[y], base)
        candidate_of[y] = g
        if g not in seen:
            seen.add(g)
            candidates.append(g)

    # keep only candidates outside the closure of the ones already kept;
    # the word vectors then live in a low-rank lattice and the relation
    # matrix stays tiny even when every candidate is distinct
    ident = tuple(range(n))
    word: dict[Perm, tuple[int, ...]] = {ident: ()}
    gens: list[Perm] = []
    stepper: list[tuple[int, int, Perm]] = []

    def reclose() -> None:
        queue = deque(word)
        while queue:
            cur = queue.popleft()
            vec = word[cur]
            for i, sign, g in stepper:
                nxt = _compose(g, cur)
                if nxt not in word:
                    if len(word) >= cap:
                        raise CapExceeded("displacement closure cap exceeded")
                    word[nxt] = tuple(
                        v + (sign if j == i else 0) for j, v in enumerate(vec)
                    )
                    queue.append(nxt)

    for g in candidates:
        if g in word:
            continue
        i = len(gens)
        gens.append(g)
        word = {p: v + (0,) for p, v in word.items()}
        stepper.append((i, 1, g))
        stepper.append((i, -1, _perm_inverse(g)))
        reclose()
    for a, b in itertools.combinations(gens, 2):
        if _compose(a, b) != _compose(b, a):
            raise ValueError("displacement generators do not commute")

    # second pass collects the relations among the kept generators
    relations: set[tuple[int, ...]] = set()
    for cur, vec in word.items():
        for i, sign, g in stepper:
            nxt = _compose(g, cur)
            nvec = tuple(v + (sign if j == i else 0) for j, v in enumerate(vec))
            diff = tuple(a - b for a, b in zip(nvec, word[nxt]))
            if any(diff):
                relations.add(diff)
    pres = cokernel([list(r) for r in sorted(relations)], len(gens))
    elt_of_perm = {p: pres.to_canonical(list(v)) for p, v in word.items()}
    if pres.group.order() != len(word):
        raise ValueError("displacement presentation does not match closure size")
    return DisGroup(
        perms=list(word),
        group=pres.group,
        elt_of_perm=elt_of_perm,
        gen_of_translation={
            y: elt_of_perm[g] for y, g in candidate_of.items()
        },
    )


def is_semiregular(q: FiniteQuandle, dis: DisGroup | None = None) -> bool:
    """True when only the identity displacement has a fixed point."""
    dis = dis or displacement_group(q)
    ident = tuple(range(q.n))
    return all(
        p == ident or all(p[x] != x for x in range(q.n)) for p in dis.perms
    )


def core_quandle(a: FgAbGroup) -> FiniteQuandle:
    """x |> y = 2y - x on all of the finite group a; labels are the
    group elements."""
    if a.order() == 0:
        raise ValueError("core quandle of an infinite group")
    elems = list(a.elements())
    index = {e: i for i, e in enumerate(elems)}
    op = [
        [index[y.smul(2) - x] for y in elems]
        for x in elems
    ]
    return FiniteQuandle(op, labels=dict(enumerate(elems)))


def _at_most_one_odd(elt: GroupElt) -> bool:
    odd = 0
    for coord, factor in zip(elt.coords[elt.group.free_rank :], elt.group.torsion):
        if factor % 2 == 0 and coord % 2 == 1:
            odd += 1
    return odd <= 1


def characteristic_subquandle(a: FgAbGroup) -> FiniteQuandle:
    """The subquandle of the core on elements having at most one odd
    coordinate in the even invariant factors: the union of k+1 cosets of
    the doubled group."""
    if a.order() == 0:
        raise ValueError("characteristic subquandle of an infinite group")
    core = core_quandle(a)
    return subquandle(
        core, [x for x in range(core.n) if _at_most_one_odd(core.labels[x])]
    )


def subquandle(q: FiniteQuandle, members: list[int]) -> FiniteQuandle:
    """Restriction to a subset, which must be closed under the operation."""
    index = {x: i for i, x in enumerate(members)}
    op = []
    for x in members:
        row = []
        for y in members:
            v = q.op[x][y]
            if v not in index:
                raise ValueError(f"{x}|>{y} leaves the subset")
            row.append(index[v])
        op.append(row)
    labels = {i: q.labels.get(x, x) for i, x in enumerate(members)}
    return FiniteQuandle(op, labels=labels)


def _fingerprints(q: FiniteQuandle, orbs: list[list[int]]) -> list[int]:
    """Operation-aware color refinement, seeded by the orbits of q;
    isomorphic quandles get equal color histograms and isomorphisms
    preserve colors."""
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


def _iso_search(
    q1: FiniteQuandle, q2: FiniteQuandle, want_all: bool
) -> list[list[int]]:
    # automorphisms pass q1 is q2: each invariant is then computed once
    if q1.n != q2.n:
        return []
    o1 = orbits(q1)
    o2 = o1 if q2 is q1 else orbits(q2)
    if sorted(len(o) for o in o1) != sorted(len(o) for o in o2):
        return []
    c1 = _fingerprints(q1, o1)
    c2 = c1 if q2 is q1 else _fingerprints(q2, o2)
    if sorted(c1) != sorted(c2):
        return []
    if q1.n > 1:
        try:
            d1 = displacement_group(q1)
            d2 = d1 if q2 is q1 else displacement_group(q2)
            if d1.group != d2.group:
                return []
        except CapExceeded:
            pass

    n = q1.n
    candidates = {x: [y for y in range(n) if c2[y] == c1[x]] for x in range(n)}
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


def is_isomorphic(q1: FiniteQuandle, q2: FiniteQuandle) -> list[int] | None:
    """A witness bijection f with f(x |> y) = f(x) |> f(y), or None; the
    search is exhaustive, so None disproves isomorphism."""
    res = _iso_search(q1, q2, want_all=False)
    return res[0] if res else None


def automorphisms(q: FiniteQuandle) -> list[list[int]]:
    return _iso_search(q, q, want_all=True)


def group_from_quandle(q: FiniteQuandle) -> FgAbGroup:
    """The abelian group on one generator per element, modulo
    2g(y) - g(x) - g(x|>y) for every ordered pair."""
    rows = set()
    for x, y in itertools.product(range(q.n), repeat=2):
        row = [0] * q.n
        row[y] += 2
        row[x] -= 1
        row[q.op[x][y]] -= 1
        if any(row):
            rows.add(tuple(row))
    return cokernel([list(r) for r in sorted(rows)], q.n).group


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


def serialize_quandle(q: FiniteQuandle) -> str:
    lines = [str(q.n)]
    lines.extend(" ".join(str(v) for v in row) for row in q.op)
    return "\n".join(lines) + "\n"


def parse_quandle(text: str) -> FiniteQuandle:
    parts = text.split()
    if not parts:
        raise ValueError("empty quandle text")
    n = int(parts[0])
    vals = [int(v) for v in parts[1:]]
    if len(vals) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(vals)}")
    return FiniteQuandle([vals[i * n : (i + 1) * n] for i in range(n)])
