"""Exact integer matrix algebra and finitely generated abelian groups.

All arithmetic uses plain Python ints, so arbitrary precision is automatic.
`cokernel` takes sparse rows (column -> nonzero entry), the form in which
a diagram's crossing relations come, at most three entries each; the
Smith form, the products and the solvers take dense lists of row lists.  A
product skips the zero entries of its left factor, so it costs
O(nnz(a) * cols(b)) multiply-adds.

The Smith normal form keeps unimodular witnesses U, V and V's inverse,
which is what lets a :class:`Presentation` translate between generator
coordinates and canonical coordinates of the quotient group.  It works on
dense lists.  Its inputs are small: the rows a Hermite basis leaves once
its unit pivots are split off (at most 3 x 4 from `cokernel` on the
benchmark's workloads), and the stacked relation matrices of the subgroup
questions (at most 7 x 4 there).

`cokernel` is the one place that presents a quotient lattice.  It reduces
the rows, sparse, by unimodular steps to a Hermite basis of at most one row
per column (`_hermite_basis`), whose certificate is that every input row
ends as a basis row or reduces to zero.  The basis does not depend on the
order the rows come in, but the cost does; `_hermite_order` gives the
cheapest order measured.  It then drops the unit pivots: modulo the basis
each unit-pivot generator is minus the rest of its row, which lies on the
other columns, the free ones.  The Smith form runs only on the remaining
rows over the free columns: one row on two columns for the crossing rows
of T(2, n).  On some drawings the Smith form of the literal rows grows
entries of over a hundred digits.  The IMQ's displacement mesh keys its
elements by a `cokernel` too, on its coordinates at every position of the
Smith form, where the lattice is diagonal.
`_gf2_echelon` and `_gf2_reduce` are the package's one eliminator over
GF(2); the coset quandle's marking questions, its re-indexing search and
the parity part of the IMQ's displacement mesh all use them.  The coset
quandle's unimodular lift of a GF(2) matrix runs no elimination of its
own: it is read off Smith forms.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import gcd, lcm, prod

Matrix = list[list[int]]
Row = dict[int, int]  # a sparse row: column -> nonzero entry


def mat_mul(a: Matrix, b: Matrix, n_cols_b: int | None = None) -> Matrix:
    """Product a*b.  n_cols_b disambiguates the shape of an empty b.

    Row i of the product is the sum of x * b[k] over the nonzero entries
    x = a[i][k], so zeros of a cost nothing."""
    if n_cols_b is None:
        n_cols_b = len(b[0]) if b else 0
    if any(len(bk) < n_cols_b for bk in b):
        raise ValueError("short row in mat_mul")
    out = []
    for row in a:
        if len(row) != len(b):
            raise ValueError("shape mismatch in mat_mul")
        acc = [0] * n_cols_b
        for x, bk in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, bk)]
        out.append(acc)
    return out


def vec_mat(x: list[int], b: Matrix, n_cols_b: int | None = None) -> list[int]:
    return mat_mul([x], b, n_cols_b)[0]


def int_det(a: Matrix) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("int_det needs a square matrix")
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass
class SmithForm:
    """U * A * V = diag(diag), with U, V unimodular.

    diag has min(m, n) entries, is a divisibility chain, and may end in
    zeros when A has deficient rank.
    """

    m: int
    n: int
    diag: list[int]
    u: Matrix
    v: Matrix
    v_inv: Matrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)


def _nearest_quotient(x: int, p: int) -> int:
    """x/p rounded to the nearest integer, so |x - q*p| <= |p|/2.  A floor
    quotient leaves remainders up to |p| - 1, and on some row orders the
    entries of the working matrix and witnesses then grow without bound."""
    return (2 * x + p) // (2 * p)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _add_scaled(dst: Row, src: Row, q: int) -> None:
    """dst += q * src on sparse rows, for q != 0, dropping the zeros it
    makes."""
    for k, y in src.items():
        x = dst.get(k)
        if x is None:
            dst[k] = q * y
        else:
            x += q * y
            if x:
                dst[k] = x
            else:
                del dst[k]


def _scaled_sum(a: int, x: Row, b: int, y: Row) -> Row:
    """a * x + b * y on sparse rows."""
    out = {k: a * v for k, v in x.items()} if a else {}
    if b:
        _add_scaled(out, y, b)
    return out


def _sparse_rows(rows: Matrix) -> list[Row]:
    """Dense rows as sparse rows, zeros dropped."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _reduce_row(row: Row, start: int, basis: dict[int, Row]) -> None:
    """Reduce each entry of row in a pivot column k >= start to at most
    basis[k][k]/2 in absolute value, lowest column first.  Subtracting
    basis[k] changes columns >= k only, so each column is met once."""
    todo = [k for k in row if k >= start and k in basis]
    if len(todo) > 1:
        todo.sort()
    while todo:
        k = todo.pop(0)
        x = row.get(k)
        if not x:
            continue
        b = basis[k]
        q = _nearest_quotient(x, b[k])
        if q:
            for c, y in b.items():
                z = row.get(c)
                if z is None:
                    row[c] = -q * y
                    if c in basis and c not in todo:
                        bisect.insort(todo, c)
                elif z == q * y:
                    del row[c]
                else:
                    row[c] = z - q * y


def _reduce_above_pivots(basis: dict[int, Row], pivots: list[int], j: int) -> None:
    """Bring basis back to Hermite form after basis[j] changed: each entry
    in another row's pivot column k is reduced to at most basis[k][k]/2 in
    absolute value.  Row j is reduced first, then the rows above it from
    the last up.  A row above j with no entry in column j is already
    reduced, as a reduced entry stays put under a second reduction, so
    only rows with an entry there are worked on, from column j.  pivots
    lists basis's keys in order."""
    _reduce_row(basis[j], j + 1, basis)
    for i in reversed(pivots[: bisect.bisect_left(pivots, j)]):
        row = basis[i]
        if j in row:
            _reduce_row(row, j, basis)


def _hermite_basis(rows: Iterable[Row]) -> tuple[dict[int, Row], list[int]]:
    """A basis of the lattice the sparse rows span, in Hermite normal form:
    one row per pivot column, each pivot positive, every entry in a pivot
    column above its pivot at most half the pivot in absolute value.  So a
    pivot of 1 is the only nonzero entry of its column.  Returns the basis
    rows by pivot column, and the pivot columns in order.

    The rows are inserted one at a time; they are copied, not changed.  A
    row meeting a pivot it is a multiple of subtracts that basis row;
    otherwise one unimodular 2x2 extended-gcd step makes the basis row's
    pivot the gcd and the new row's entry zero.  The reduction above the
    pivots after every change keeps the entries small; without it they
    grow without bound.  Every step is unimodular, so the basis spans
    exactly the rows' lattice, with certificate: each step clears the row's
    leading entry, so each row ends as a new basis row or as the zero
    vector.
    """
    basis: dict[int, Row] = {}
    pivots: list[int] = []
    for row in rows:
        r = dict(row)
        while r:
            j = min(r)
            x = r[j]
            b = basis.get(j)
            if b is None:
                basis[j] = r if x > 0 else {k: -y for k, y in r.items()}
                bisect.insort(pivots, j)
                _reduce_above_pivots(basis, pivots, j)
                break
            p = b[j]
            if x % p == 0:
                _add_scaled(r, b, -(x // p))
            else:
                g, s, t = _ext_gcd(p, x)
                basis[j] = _scaled_sum(s, b, t, r)
                r = _scaled_sum(p // g, r, -(x // g), b)
                _reduce_above_pivots(basis, pivots, j)
            if j in r:
                raise AssertionError("_hermite_basis: a row did not reduce to zero")
    return basis, pivots


def _gf2_reduce(basis: list[int], v: int) -> int:
    """v with the pivot (lowest set bit) of each row cleared in turn; for
    the rows of `_gf2_echelon` this clears every pivot.  That residue is
    the one vector of v's coset vanishing at every pivot, so it is linear
    in v.  Vectors over GF(2) are bitmasks: bit k is coordinate k."""
    for b in basis:
        if v & b & -b:
            v ^= b
    return v


def _gf2_echelon(vectors: list[int]) -> tuple[list[int], list[int]]:
    """Forward elimination over GF(2), in input order.

    Returns an echelon basis of the span and a basis of the null space:
    bitmasks c over the inputs with the XOR of vectors[i] over the bits i
    of c equal to 0.  Each row vanishes at the pivots of the rows before
    it, so `_gf2_reduce` by the rows gives the same residue for every
    echelon basis of one span.
    """
    width = max((v.bit_length() for v in vectors), default=0)
    low = (1 << width) - 1
    rows: list[int] = []
    null: list[int] = []
    for idx, v in enumerate(vectors):
        # a tail above the coordinates records which inputs were combined
        v = _gf2_reduce(rows, v | 1 << (width + idx))
        if v & low:
            rows.append(v)
        else:
            null.append(v >> width)
    return [r & low for r in rows], null


def smith_normal_form(rows: Matrix, n_cols: int | None = None) -> SmithForm:
    """Smith normal form with witnesses.

    Deterministic: the pivot is the nonzero entry of smallest absolute
    value, ties broken by lowest row index then lowest column index.  The
    caller's rows are copied, not changed, and each row or column step
    rewrites a whole row or column of the copy: the inputs are small (see
    the module docstring).
    """
    m = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    n = n_cols
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a = [list(row) for row in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    v_inv = [row[:] for row in v]

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in itertools.chain(a, v):
                row[i], row[j] = row[j], row[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst: int, src: int, q: int) -> None:
        if q:
            a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        if q:
            for row in itertools.chain(a, v):
                row[dst] += q * row[src]
            v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(m, n):
        entries = [(abs(x), i, j) for i in range(t, m) for j, x in enumerate(a[i]) if x]
        if not entries:
            break
        _, i, j = min(entries)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            # clear column t, re-pivoting on any nonzero remainder
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -_nearest_quotient(a[i][t], a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -_nearest_quotient(a[t][j], a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty or any(a[i][t] for i in range(t + 1, m)):
                continue
            # pivot must divide every remaining entry to build the chain;
            # otherwise fold the offending row in and clear again
            d = a[t][t]
            offender = next((i for i in range(t + 1, m) if any(x % d for x in a[i])), None)
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    diag = [a[i][i] for i in range(min(m, n))]
    # internal consistency: witnesses really do transform A to diag, every
    # entry compared
    want = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    if mat_mul(mat_mul(u, rows, n), v, n) != want:
        raise AssertionError("smith_normal_form witness check failed")
    return SmithForm(m=m, n=n, diag=diag, u=u, v=v, v_inv=v_inv)


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank plus cyclic factors Z/t for t in torsion.

    torsion is an ascending divisibility chain with every entry >= 2, so
    equal dataclasses mean isomorphic groups.  Element coordinates list the
    free coordinates first, then the torsion coordinates in chain order.
    moduli holds, per coordinate, what it is reduced by: 0 for a free
    coordinate, which is not reduced, and t for a torsion coordinate of
    order t.  Code doing arithmetic on raw coordinate tuples reduces them
    by moduli, as `_reduce` does.
    """

    free_rank: int
    torsion: tuple[int, ...]
    moduli: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion factors must be >= 2")
            if i and t % self.torsion[i - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        object.__setattr__(self, "moduli", (0,) * self.free_rank + self.torsion)

    @property
    def n_coords(self) -> int:
        return self.free_rank + len(self.torsion)

    def order(self) -> int:
        """Group order, with 0 meaning infinite."""
        return 0 if self.free_rank else prod(self.torsion, start=1)

    def element(self, coords) -> "GroupElt":
        coords = tuple(coords)
        if len(coords) != self.n_coords:
            raise ValueError("coordinate count mismatch")
        return GroupElt(self, self._reduce(coords))

    def _reduce(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([c % m if m else c for c, m in zip(coords, self.moduli)])

    def zero(self) -> "GroupElt":
        return GroupElt(self, (0,) * self.n_coords)

    def unit(self, i: int) -> "GroupElt":
        coords = [0] * self.n_coords
        coords[i] = 1
        return self.element(coords)

    def elements(self):
        """All elements; only valid for finite groups."""
        if self.free_rank:
            raise ValueError("infinite group")
        for combo in itertools.product(*(range(t) for t in self.torsion)):
            yield GroupElt(self, combo)

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupElt:
    group: FgAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElt") -> "GroupElt":
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return self.group.element(
            tuple(x + y for x, y in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroupElt":
        return self.group.element(tuple(-x for x in self.coords))

    def __sub__(self, other: "GroupElt") -> "GroupElt":
        return self + (-other)

    def smul(self, k: int) -> "GroupElt":
        return self.group.element(tuple(k * x for x in self.coords))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)

    def order(self) -> int:
        """Additive order, with 0 meaning infinite."""
        r = self.group.free_rank
        if any(self.coords[:r]):
            return 0
        out = 1
        for c, t in zip(self.coords[r:], self.group.torsion):
            if c:
                out = lcm(out, t // gcd(c, t))
        return out


@dataclass
class Presentation:
    """Z^n_gens modulo a lattice L, as `cokernel` splits it.

    Modulo L each generator is one sparse row over the free columns of L's
    Hermite basis; the other columns are its unit pivots.  snf is the
    Smith form U H V of the basis rows H left on the free columns.  An
    element's row times V (`_coords`) has a position per diagonal entry,
    and its canonical coordinates are read at the positions of the free
    coordinates, then of the torsion coordinates (diagonal 0, then 2 and
    up).  The displacement mesh reads every position, the unit factors'
    too."""

    n_gens: int
    snf: SmithForm
    group: FgAbGroup
    _gen_rows: list[Row]  # generator i over positions in _columns
    _columns: list[int]  # the free columns
    _read: list[int]  # the positions of the coordinates, in order

    def _coords(self, row: Row) -> list[int]:
        """row times V, the sum of x V[k] over the row's entries x at k:
        the element at every position of the Smith form, unreduced."""
        v = self.snf.v
        out = [0] * len(v)
        for k, x in row.items():
            out = [s + x * y for s, y in zip(out, v[k])]
        return out

    def _image(self, row: Row) -> GroupElt:
        y = self._coords(row)
        return self.group.element([y[j] for j in self._read])

    def generator_image(self, i: int) -> GroupElt:
        """The image of generator i in the quotient: its row."""
        return self._image(self._gen_rows[i])

    def lift(self, elt: GroupElt) -> list[int]:
        """A generator vector whose Z-combination of generators maps to elt,
        zero off the free columns."""
        if elt.group != self.group:
            raise ValueError("element of a different group")
        y = [0] * len(self._columns)
        for j, x in zip(self._read, elt.coords):
            y[j] = x
        out = [0] * self.n_gens
        for c, x in zip(self._columns, vec_mat(y, self.snf.v_inv, len(y))):
            out[c] = x
        return out


def _hermite_order(rows: list[Row]) -> list[Row]:
    """The rows in the order `cokernel` inserts them into `_hermite_basis`:
    by largest column, the last first, ties in the given order.

    The basis is the same in every order; only its cost changes, and this
    order was the cheapest of those measured.  On the crossing rows of 72
    diagrams (the fixtures, the test diagrams, padded and redrawn chains,
    30 seeded braid closures of 40-170 letters, T(2, 101) and T(2, 511))
    the Hermite steps took 94-100 ms in all in this order, 107-119 ms by
    leading column with the last first, 128-132 ms by leading column with
    the first first, and 568-591 ms as given (best of 3, two runs, 2 vCPUs,
    Python 3.11); on a 57-crossing padded chain 0.46, 0.90, 0.79 and
    2.1 ms."""
    return sorted(rows, key=lambda row: max(row, default=-1), reverse=True)


def cokernel(rows: list[Row], n_gens: int) -> Presentation:
    """The abelian group Z^n_gens modulo the row space of the sparse rows.

    The rows enter `_hermite_basis` in `_hermite_order`.  A pivot of 1 is
    the only nonzero entry of its column, so the basis row at a unit pivot
    c is e_c plus a tail on the other columns, the free ones, and every
    other basis row lies on the free columns.  Modulo the basis e_c is
    minus that tail, so the quotient is Z^free modulo the other rows, and
    the Smith form runs on those alone."""
    if any(not 0 <= j < n_gens or not x for row in rows for j, x in row.items()):
        raise ValueError("sparse row with a zero entry or a column out of range")
    basis, pivots = _hermite_basis(_hermite_order(rows))
    units = {j for j in pivots if basis[j][j] == 1}
    free = [c for c in range(n_gens) if c not in units]
    pos = {c: k for k, c in enumerate(free)}
    gen_rows = [
        {pos[f]: -y for f, y in basis[c].items() if f != c} if c in units else {pos[c]: 1}
        for c in range(n_gens)
    ]
    rest = [[basis[j].get(c, 0) for c in free] for j in pivots if j not in units]
    snf = smith_normal_form(rest, len(free))
    diag = snf.diag + [0] * (len(free) - len(snf.diag))
    group = FgAbGroup(diag.count(0), tuple(t for t in diag if t >= 2))
    # the free coordinates, then the torsion ones (a unit factor has none)
    read = [j for j, t in enumerate(diag) if t == 0]
    read += [j for j, t in enumerate(diag) if t >= 2]
    return Presentation(n_gens, snf, group, gen_rows, free, read)


def solve_in_row_space(rows: Matrix, n_cols: int, target: list[int]) -> list[int] | None:
    """x with x*rows == target, or None.  Empty solution list when rows=[]."""
    if len(target) != n_cols:
        raise ValueError("target length mismatch")
    snf = smith_normal_form(rows, n_cols)
    bv = vec_mat(target, snf.v, n_cols)
    z = [0] * snf.m
    for j in range(n_cols):
        d = snf.diag[j] if j < len(snf.diag) else 0
        if d == 0:
            if bv[j] != 0:
                return None
        else:
            if bv[j] % d != 0:
                return None
            z[j] = bv[j] // d
    return vec_mat(z, snf.u, snf.m)


def left_kernel_basis(rows: Matrix, n_cols: int) -> Matrix:
    """Basis of {x : x*rows == 0} as rows."""
    snf = smith_normal_form(rows, n_cols)
    out = []
    for j in range(snf.m):
        d = snf.diag[j] if j < len(snf.diag) else 0
        if d == 0:
            out.append(snf.u[j][:])
    return out


def _stacked_relations(group: FgAbGroup, gens: list[GroupElt]) -> Matrix:
    rows = [list(g.coords) for g in gens]
    r = group.free_rank
    for i, t in enumerate(group.torsion):
        row = [0] * group.n_coords
        row[r + i] = t
        rows.append(row)
    return rows


def subgroup_contains(group: FgAbGroup, gens: list[GroupElt], target: GroupElt) -> bool:
    """Is target in the subgroup generated by gens?"""
    for g in gens:
        if g.group != group:
            raise ValueError("generator from a different group")
    if target.group != group:
        raise ValueError("target from a different group")
    sol = solve_in_row_space(
        _stacked_relations(group, gens), group.n_coords, list(target.coords)
    )
    return sol is not None


def subgroup_type(group: FgAbGroup, gens: list[GroupElt]) -> FgAbGroup:
    """Isomorphism type of the subgroup generated by gens."""
    stacked = _stacked_relations(group, gens)
    kernel = left_kernel_basis(stacked, group.n_coords)
    coeff_rows = _sparse_rows([row[: len(gens)] for row in kernel])
    return cokernel(coeff_rows, len(gens)).group
