"""Finite involutory medial quandles as explicit operation tables.

A table `op` of size n x n encodes x |> y = op[x][y], and R_y is the right
translation x -> x |> y.  On top of the raw tables this module provides
orbits, the displacement group as the set of its permutations (what
`is_semiregular` reads; its abstract group is the tests' oracle
`literal_displacement_group`), core quandles of finite abelian groups and
their characteristic subquandles, exhaustive isomorphism search, and the
abelian group presented by a quandle.

The axioms and the abelian group are checked on a generating set G
(`FiniteQuandle.generators`): a set from which the maps R_g, g in G,
reach every element.  Three facts make that exact.

1. Axioms.  Call z good when z |> z = z and R_z is an involutive
   endomorphism.  If y is good, then R_{x |> y} = R_y R_x R_y, since
   R_y(R_y(v) |> x) = v |> (x |> y).  So if x and y are good, R_{x |> y}
   is a product of involutive endomorphisms, R_y R_x R_y R_y R_x R_y is
   the identity, and (x |> y) |> (x |> y) = R_y R_x (x) = x |> y: x |> y
   is good.  Every element is reached from G by the R_g, so if every g
   in G is good, every element is.  That is n^2 |G| checks, not n^3.
2. Mediality.  A quandle is medial iff its displacement group Dis,
   generated by the R_x R_y^-1, is abelian (P. Jedlicka, A. Pilitowska,
   D. Stanovsky and A. Zamojska-Dzienio, "The structure of medial
   quandles", J. Algebra 443 (2015)).  In an involutory quandle
   R_x R_y = (R_x R_g)(R_y R_g)^-1 for any g, and
   R_{x |> y} R_g = (R_y R_g)(R_x R_g)^-1(R_y R_g), so the x with R_x R_g
   in the group H generated by the R_a R_g, a in G, are closed under |>
   and are every element.  So Dis = H, generated by |G| maps, and
   mediality is that they commute (compare A. Hulpke, D. Stanovsky and
   P. Vojtechovsky, "Connected quandles and transitive groups", J. Pure
   Appl. Algebra 220 (2016)).
3. Group.  Write row(x, y) = 2g(y) - g(x) - g(x |> y) for the relations
   of the abelian group of a quandle.  With x1 = x |> b and
   x2 = x1 |> a, R_{a |> b} = R_b R_a R_b gives
   row(x, a |> b) = row(x, b) - row(x1, a) + row(x2, b) - 2 row(a, b).
   So the y whose rows row(x, y), for every x, lie in the span of the
   rows with y in G are closed under |>, and are every element: the n|G|
   rows row(x, g), g in G, present the group.  Each element z outside G
   is first reached as z = x |> g, from an x reached before it, and
   row(x, g) = 0 sets g(z) = 2g(g) - g(x).  Those Tietze moves write
   every generator over G, leaving n|G| - (n - |G|) rows on |G| columns.

With G every element, each check is the literal one.

The isomorphism search (`_iso_search`) sets forced images and narrows the
images left to the rest.  Every choice f(a) = b is closed under the
operation in both directions against every element already set:
f(a |> c) = b |> f(c) and f(c |> a) = f(c) |> b.  Every pair (c, d) that
becomes set narrows each unset x with c |> x = d to the y with
f(c) |> y = f(d), a fibre of the left translation by f(c).  A conflicting
or repeated image, an image outside the candidates or an emptied domain
ends the branch.  It is exhaustive:

- an isomorphism is fixed by its images on a generating set.  After each
  closed choice the set elements form a subquandle, and the next choice
  lies outside it, so a branch is at most as deep as a generating set is
  long, and a full assignment, checked on every pair and never repeating
  an image, is an isomorphism between tables of equal size;
- every pruning condition holds for every isomorphism that extends the
  partial map, so none is lost;
- the branches at one node give the branching element different images, so
  every isomorphism is found exactly once, and an empty result proves that
  none exists.

These are the propagation and forward-checking steps of
individualisation-refinement (B. McKay and A. Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60 (2014)), without its refinement,
which on a quandle never splits the starting colours.  The search starts
from one signature per element, the size of its orbit and the number of
fixed points of R_x (`_iso_candidates`), and the refinement would add
nothing to it:

- each R_y is an automorphism, so the orbits of `orbits` are the orbits
  of the inner automorphism group;
- the signature is constant on each orbit, since R_{x |> y} = R_y R_x R_y^-1
  has as many fixed points as R_x;
- a refinement step colours x by c(x) and the multisets of (c(y), c(x |> y))
  and of (c(y), c(y |> x)) over all y.  As x |> y lies in the orbit of x
  and y |> x in the orbit of y, these are the multisets of (c(y), c(x))
  and of (c(y), c(y)): they depend only on c(x) and the histogram of the
  colours over the table;
- so no step splits a colour class, the refinement stops after one round,
  and two tables' refined colour histograms agree exactly when their
  signature histograms do.

Inner automorphisms also let `is_isomorphic` try one image per orbit for
the first element it branches on; the argument is in its docstring.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property

from .abelian import FgAbGroup, GroupElt, _sparse_rows, cokernel


class CapExceeded(RuntimeError):
    """A configured resource cap was hit before the computation closed."""


Perm = tuple[int, ...]
DISPLACEMENT_CAP = 10**6  # the most permutations a displacement closure lists


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
            if len(row) != self.n or min(row) < 0 or max(row) >= self.n:
                raise ValueError(f"malformed table row {x}")
        self.labels = dict(labels) if labels else {}

    def translation(self, y: int) -> Perm:
        """The permutation x -> x |> y."""
        return tuple(self.op[x][y] for x in range(self.n))

    @cached_property
    def fibres(self) -> tuple[tuple[int, ...], ...]:
        """fibres[c][d] is the bitmask of the y with c |> y = d: the fibres
        of the left translation by c.  Built once per table and read by
        every isomorphism search on it.  Equal masks are stored once: in a
        core quandle each fibre is empty or a coset of the 2-torsion, so
        there are at most n + 1 distinct ones, not n^2."""
        distinct: dict[int, int] = {}
        out = []
        for row in self.op:
            masks = [0] * self.n
            for y, d in enumerate(row):
                masks[d] |= 1 << y
            out.append(tuple(distinct.setdefault(m, m) for m in masks))
        return tuple(out)

    @cached_property
    def _reach(self) -> dict[int, tuple[int, int] | None]:
        """The greedy generating set and how it reaches the rest: every
        element, in the order first reached, mapped to the pair (x, g) with
        x |> g its first reach, or to None for an element of the set.

        Starting from no element, the least element not yet reached joins
        the set, and the set's right translations are applied to every
        element reached until nothing new appears; then again, until every
        element is reached.  Each element meets each right translation
        once, so this takes O(n |G|)."""
        op = self.op
        reach: dict[int, tuple[int, int] | None] = {}
        order: list[int] = []  # the keys of reach
        gens: list[int] = []
        applied = [0] * self.n  # how many of gens were applied to x
        for start in range(self.n):
            if start in reach:
                continue
            gens.append(start)
            reach[start] = None
            order.append(start)
            for x in order:  # the loop sees the elements appended in it
                row = op[x]
                for g in gens[applied[x] :]:
                    z = row[g]
                    if z not in reach:
                        reach[z] = (x, g)
                        order.append(z)
                applied[x] = len(gens)
        return reach

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set G, ascending: the right translations by G reach
        every element from G.  Greedy, from element 0 (see `_reach`); the
        axioms and the abelian group are checked on it."""
        return tuple(x for x, via in self._reach.items() if via is None)

    def __repr__(self) -> str:
        return f"FiniteQuandle(n={self.n})"


def check_axioms(q: FiniteQuandle) -> list[str]:
    """Every violated axiom instance on the rows of `q.generators`; empty
    means q is an involutory medial quandle.

    For each z in G: z |> z = z, R_z involutive ((x |> z) |> z = x) and
    R_z an endomorphism ((x |> y) |> z = (x |> z) |> (y |> z)): n^2 |G|
    triples.  By fact 1 of the module docstring, the elements with these
    properties are closed under |>, since R_{x |> y} = R_y R_x R_y, and
    so they are all of q.  Once these hold, q is a quandle, and it is
    medial iff its displacement group is abelian; by fact 2 that group is
    generated by the R_a R_g0, a in G and g0 the first element of G.  So
    mediality is that these |G| maps commute, and each pair that does not
    is reported as a mediality violation.  A violation on G is a literal
    violation, so the verdict is the literal one."""
    bad: list[str] = []
    op, gens = q.op, q.generators
    for z in gens:
        if op[z][z] != z:
            bad.append(f"idempotence: {z}|>{z} = {op[z][z]}")
        col = [row[z] for row in op]  # R_z
        for x, row in enumerate(op):
            if col[col[x]] != x:
                bad.append(f"involution: ({x}|>{z})|>{z} = {col[col[x]]}")
            xz = op[col[x]]
            if [col[v] for v in row] != [xz[w] for w in col]:
                bad.extend(
                    f"distributivity: ({x}|>{y})|>{z} != ({x}|>{z})|>({y}|>{z})"
                    for y, v in enumerate(row)
                    if col[v] != xz[col[y]]
                )
    if bad or not gens:
        return bad
    g0 = gens[0]
    base = [row[g0] for row in op]
    disp = [tuple(op[v][a] for v in base) for a in gens]  # R_a R_g0
    for (a, da), (b, db) in itertools.combinations(zip(gens, disp), 2):
        if _compose(da, db) != _compose(db, da):
            bad.append(f"mediality: R_{a}R_{g0} and R_{b}R_{g0} do not commute")
    return bad


class UnionFind:
    """Disjoint classes of 0..n-1; every class is named by its least
    member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

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
    """Connected classes of the relation x ~ x|>y, each ascending, in order
    of their least members.

    Found by a search over table rows: the row of x lists every x|>y.  The
    right translations of a quandle are permutations of finite order, so
    x is also some x|>y|>...|>y, and following rows reaches the whole
    class."""
    seen = [False] * q.n
    out = []
    for start in range(q.n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for v in q.op[x]:
                if not seen[v]:
                    seen[v] = True
                    orbit.append(v)
        out.append(sorted(orbit))
    return out


def displacement_group(q: FiniteQuandle) -> frozenset[Perm]:
    """The displacement group as a set of permutations: the closure of the
    products beta_y * beta_0.  Raises CapExceeded past DISPLACEMENT_CAP
    permutations and ValueError if two of them do not commute (they always
    do for a valid table).  Its abstract group is computed only by the
    tests' oracle `literal_displacement_group`.

    Each product c not yet in the group H built so far must commute with
    the products kept before it; then H, abelian, grows to the union of the
    cosets c^k H, up to the first power of c that lies in H."""
    n = q.n
    if n == 0:
        raise ValueError("empty quandle")
    base = q.translation(0)
    group = {tuple(range(n))}
    gens: list[Perm] = []
    for y in range(n):
        c = _compose(q.translation(y), base)
        if c in group:
            continue
        if any(_compose(c, g) != _compose(g, c) for g in gens):
            raise ValueError("displacement generators do not commute")
        gens.append(c)
        subgroup = list(group)  # H
        power = c
        while power not in group:
            if len(group) + len(subgroup) > DISPLACEMENT_CAP:
                raise CapExceeded("displacement closure cap exceeded")
            group.update(_compose(power, h) for h in subgroup)
            power = _compose(c, power)
    return frozenset(group)


def is_semiregular(q: FiniteQuandle) -> bool:
    """True when only the identity displacement has a fixed point."""
    ident = tuple(range(q.n))
    return all(
        p == ident or all(p[x] != x for x in range(q.n))
        for p in displacement_group(q)
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


def _signatures(q: FiniteQuandle) -> list[tuple[int, int]]:
    """Per element x, the size of its orbit and the number of fixed points
    of R_x, counted on column x of the table."""
    size = [0] * q.n
    for orb in orbits(q):
        for x in orb:
            size[x] = len(orb)
    fixed = [sum(map(operator.eq, col, range(q.n))) for col in zip(*q.op)]
    return list(zip(size, fixed))


def _iso_candidates(q1: FiniteQuandle, q2: FiniteQuandle) -> list[list[int]] | None:
    """Per element x of q1, the elements of q2 with the signature of x (see
    `_signatures`); None when the two tables' signature histograms differ,
    which includes tables of different sizes.  Every isomorphism keeps the
    signature, so none is lost.  This is the partition the colour
    refinement of individualisation-refinement would reach: by the module
    docstring it never splits the signature classes.  The elements of one
    signature share one list.  Automorphism searches pass q1 is q2, and the
    signatures are then computed once."""
    s1 = _signatures(q1)
    s2 = s1 if q2 is q1 else _signatures(q2)
    if sorted(s1) != sorted(s2):
        return None
    by_sig: dict[tuple[int, int], list[int]] = {}
    for y, s in enumerate(s2):
        by_sig.setdefault(s, []).append(y)
    return [by_sig[s] for s in s1]


def _most_constrained(dom: list[int], done: int, used: int, n: int) -> int:
    """The unset element with the fewest images left: the least on ties,
    and the first with at most one, which is forced or ends the branch; -1
    when every element is set.  Called once per branch node."""
    best, fewest = -1, n + 1
    free = ~used
    for x in range(n):
        if not done >> x & 1:
            k = (dom[x] & free).bit_count()
            if k < fewest:
                best, fewest = x, k
                if k <= 1:
                    break
    return best


def _iso_search(
    q1: FiniteQuandle,
    q2: FiniteQuandle,
    candidates: list[list[int]],
    want_all: bool,
) -> list[list[int]]:
    """Isomorphisms f: q1 -> q2 with every f(x) in candidates[x]: all of
    them, or the first.

    Each branch sets one f(x) and closes it under the operation.  `dom[x]`
    is the bitmask of the images x may still take; it starts at
    candidates[x] and is narrowed through the left-translation fibres of
    both tables as pairs become set.  Setting and narrowing are recorded on
    trails and undone on backtrack.

    Exhaustive, as the module docstring argues: an isomorphism is fixed by
    its images on a generating set, and a full assignment is only reached
    through closures that checked every pair; every pruning condition is
    necessary; and sibling branches differ on the branching element.  So every
    isomorphism is found exactly once, and an empty result is a proof."""
    n = q1.n
    op1, op2 = q1.op, q2.op
    fib1, fib2 = q1.fibres, q2.fibres
    f = [-1] * n
    dom = [0] * n
    for x, ys in enumerate(candidates):
        for y in ys:
            dom[x] |= 1 << y
    trail: list[int] = []
    narrowed: list[tuple[int, int]] = []
    found: list[list[int]] = []
    done = used = 0  # bitmasks of the set elements of q1 and their images

    def extend(a: int, b: int) -> bool:
        """Set f(a) = b and close; False on a conflict, leaving the trails
        for the caller to undo."""
        nonlocal done, used
        f[a] = b
        trail.append(a)
        done |= 1 << a
        used |= 1 << b
        i = len(trail) - 1
        while i < len(trail):
            x = trail[i]
            y = f[x]
            i += 1
            row1, row2, frow1, frow2 = op1[x], op2[y], fib1[x], fib2[y]
            for c in trail[:i]:
                fc = f[c]
                for z, w in ((row1[c], row2[fc]), (op1[c][x], op2[fc][y])):
                    fz = f[z]
                    if fz < 0:
                        if used >> w & 1 or not dom[z] >> w & 1:
                            return False
                        f[z] = w
                        trail.append(z)
                        done |= 1 << z
                        used |= 1 << w
                    elif fz != w:
                        return False
                for rest, allowed in (
                    (fib1[c][x] & ~done, fib2[fc][y]),
                    (frow1[c] & ~done, frow2[fc]),
                ):
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        z = low.bit_length() - 1
                        old = dom[z]
                        new = old & allowed
                        if new != old:
                            if not new & ~used:
                                return False
                            narrowed.append((z, old))
                            dom[z] = new
        return True

    def rec() -> bool:
        nonlocal done, used
        x = _most_constrained(dom, done, used, n)
        if x < 0:
            found.append(f[:])
            return not want_all
        choices = dom[x] & ~used
        mark, nmark, saved = len(trail), len(narrowed), (done, used)
        while choices:
            low = choices & -choices
            choices ^= low
            if extend(x, low.bit_length() - 1) and rec():
                return True
            while len(trail) > mark:
                f[trail.pop()] = -1
            while len(narrowed) > nmark:
                z, old = narrowed.pop()
                dom[z] = old
            done, used = saved
        return False

    rec()
    return found


def is_isomorphic(q1: FiniteQuandle, q2: FiniteQuandle) -> list[int] | None:
    """A witness bijection f with f(x |> y) = f(x) |> f(y), or None; the
    search is exhaustive, so None disproves isomorphism.

    The element x0 of q1 with the fewest candidates, where the search
    branches first, keeps only the least element of each orbit of q2 among
    them.  No verdict changes when q2 is a quandle: if f is an isomorphism
    with f(x0) = y, some product g of right translations of q2 sends y to
    the least element m of its orbit, and g is an automorphism of q2, so
    g f is an isomorphism with g f(x0) = m.  As g keeps every orbit, it
    keeps every signature, so g f respects every candidate list."""
    candidates = _iso_candidates(q1, q2)
    if candidates is None:
        return None
    if q1.n:
        least = {orb[0] for orb in orbits(q2)}
        x0 = min(range(q1.n), key=lambda x: len(candidates[x]))
        candidates[x0] = [y for y in candidates[x0] if y in least]
    res = _iso_search(q1, q2, candidates, want_all=False)
    return res[0] if res else None


def automorphisms(q: FiniteQuandle) -> list[list[int]]:
    """Every automorphism of q, by exhaustive search."""
    return _iso_search(q, q, _iso_candidates(q, q), want_all=True)


def group_from_quandle(q: FiniteQuandle) -> FgAbGroup:
    """The abelian group on one generator per element, modulo
    2g(y) - g(x) - g(x|>y) for every ordered pair.

    Precondition: q passes `check_axioms`.  The result is then exact, by
    fact 3 of the module docstring: the rows with y in G = `q.generators`
    span the rows of every pair, as row(x, a |> b) = row(x, b) - row(x1, a)
    + row(x2, b) - 2 row(a, b) with x1 = x |> b, x2 = x1 |> a.  Each element
    z outside G, first reached as z = x |> g, is written over G by its own
    row: g(z) = 2g(g) - g(x).  The other rows, rewritten over G, are n |G|
    - (n - |G|) rows on |G| columns, and `cokernel` takes them as they
    are."""
    gens = q.generators
    col = {g: i for i, g in enumerate(gens)}
    vec: list[list[int]] = [[]] * q.n  # g(z) over G
    for z, via in q._reach.items():
        if via is None:
            v = [0] * len(gens)
            v[col[z]] = 1
        else:
            x, g = via
            v = [2 * b - a for a, b in zip(vec[x], vec[g])]
        vec[z] = v
    rows = set()
    for x, row in enumerate(q.op):
        for g in gens:
            r = tuple(
                2 * b - a - c for a, b, c in zip(vec[x], vec[g], vec[row[g]])
            )
            if any(r):
                rows.add(r)
    return cokernel(_sparse_rows(sorted(rows)), len(gens)).group


def serialize_quandle(q: FiniteQuandle) -> str:
    lines = [str(q.n)]
    lines.extend(" ".join(str(v) for v in row) for row in q.op)
    return "\n".join(lines) + "\n"


def parse_quandle(text: str) -> FiniteQuandle:
    parts = text.split()
    if not parts:
        raise ValueError("empty quandle text")
    n = int(parts[0])
    if n < 0:
        raise ValueError(f"negative quandle size {n}")
    vals = [int(v) for v in parts[1:]]
    if len(vals) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(vals)}")
    return FiniteQuandle([vals[i * n : (i + 1) * n] for i in range(n)])
