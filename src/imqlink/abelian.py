"""Exact integer matrix algebra and finitely generated abelian groups.

All arithmetic uses plain Python ints, so arbitrary precision is automatic.
Matrices are dense lists of row lists at the interface.  A product skips
the zero entries of its left factor, so it costs O(nnz(a) * cols(b))
multiply-adds: relation rows have at most three nonzeros.

The Smith normal form keeps unimodular witnesses U, V and V's inverse,
which is what lets a :class:`Presentation` translate between generator
coordinates and canonical coordinates of the quotient group.  It works on
sparse rows (column -> nonzero entry) for the matrix and all three
witnesses, so a step costs what the nonzeros it touches cost, not a full
row or column: on the 57-arc relation matrix of a padded chain it takes
about a third of the dense form's time.  Its steps are those of the dense
form, in the same order, so diag, U, V and V's inverse come out identical
entry for entry; the dense form is kept as a test oracle.  The witness
check U * A * V == diag still compares every entry, on the sparse rows.

A relation matrix whose quotient is needed only up to isomorphism can
first go through `row_lattice_basis`, which reduces its rows, also sparse,
by unimodular steps to a Hermite basis of at most one row per column; its
certificate is that every input row ends as a basis row or reduces to
zero.  The abelian group of a quandle and the weight kernel of a diagram
both go through it: on some drawings the Smith form of the weight kernel's
literal rows grows entries of over a hundred digits.
`_gf2_echelon` and `_gf2_reduce` are the package's one eliminator over
GF(2); the coset quandle's marking questions and the parity part of the
IMQ's displacement mesh both use them.
"""

from __future__ import annotations

import bisect
import itertools
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


def _combination(coeffs: Row, rows: list[Row]) -> Row:
    """The sparse row sum of x * rows[k] over coeffs' entries x at k."""
    out: Row = {}
    for k, x in coeffs.items():
        _add_scaled(out, rows[k], x)
    return out


def _dense(rows: list[Row], n_cols: int) -> Matrix:
    out = []
    for row in rows:
        full = [0] * n_cols
        for j, x in row.items():
            full[j] = x
        out.append(full)
    return out


def _reduce_row(row: Row, start: int, basis: dict[int, Row]) -> None:
    """Reduce each entry of row in a pivot column k >= start to at most
    basis[k][k]/2 in absolute value, lowest column first.  Subtracting
    basis[k] changes columns >= k only, so each column is met once."""
    todo = sorted(k for k in row if k >= start and k in basis)
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


def row_lattice_basis(rows: Matrix, n_cols: int) -> Matrix:
    """A basis of the lattice the rows span, in Hermite normal form: one row
    per pivot column, in column order, each pivot positive, every entry in a
    pivot column above its pivot at most half the pivot in absolute value.

    The rows are inserted one at a time, as sparse rows.  A row meeting a
    pivot it is a multiple of subtracts that basis row; otherwise one
    unimodular 2x2 extended-gcd step makes the basis row's pivot the gcd
    and the new row's entry zero.  The reduction above the pivots after
    every change keeps the entries small; without it they grow without
    bound.  Every step is unimodular, so the basis spans exactly the rows'
    lattice, with certificate: each step clears the row's leading entry,
    so each row ends as a new basis row or as the zero vector.
    """
    basis: dict[int, Row] = {}
    pivots: list[int] = []
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        r = {j: x for j, x in enumerate(row) if x}
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
                raise AssertionError("row_lattice_basis: a row did not reduce to zero")
    return _dense([basis[j] for j in pivots], n_cols)


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
    value, ties broken by lowest row index then lowest column index.

    The working matrix, U, V's columns and V's inverse are sparse rows
    (column -> nonzero value), so every step costs what its nonzeros cost.
    Once pivot t is placed, rows and columns before t hold only their
    diagonal entry, so column steps touch rows t.. only.  The steps are
    those of the dense elimination in the same order, so diag and the
    three witnesses equal the dense form's; they are returned dense.
    """
    m = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    n = n_cols
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    given = [{j: x for j, x in enumerate(row) if x} for row in rows]
    a = [dict(row) for row in given]
    u = [{i: 1} for i in range(m)]
    v_cols = [{j: 1} for j in range(n)]
    v_inv = [{j: 1} for j in range(n)]
    t = 0

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for r in range(t, m):
                row = a[r]
                x = row.pop(i, 0)
                y = row.pop(j, 0)
                if y:
                    row[i] = y
                if x:
                    row[j] = x
            v_cols[i], v_cols[j] = v_cols[j], v_cols[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        _add_scaled(a[dst], a[src], q)
        _add_scaled(u[dst], u[src], q)

    def add_col(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        for r in range(t, m):
            row = a[r]
            y = row.get(src)
            if y:
                x = row.get(dst, 0) + q * y
                if x:
                    row[dst] = x
                else:
                    del row[dst]
        _add_scaled(v_cols[dst], v_cols[src], q)
        _add_scaled(v_inv[src], v_inv[dst], -q)

    def negate_row(i: int) -> None:
        a[i] = {k: -x for k, x in a[i].items()}
        u[i] = {k: -x for k, x in u[i].items()}

    def find_pivot() -> tuple[int, int] | None:
        # rows in order, so a tie with an earlier row keeps the earlier
        # entry, and a unit is the pivot once the rest of its row is read
        best = None
        for i in range(t, m):
            for j, x in a[i].items():
                key = (abs(x), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 1:
                break
        return None if best is None else (best[1], best[2])

    while t < min(m, n):
        pos = find_pivot()
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t, re-pivoting on any nonzero remainder; a step
            # at row i (column j) leaves the later rows (columns) as they
            # were, so which of them to visit is known up front
            dirty = False
            for i in [i for i in range(t + 1, m) if t in a[i]]:
                q = _nearest_quotient(a[i][t], a[t][t])
                add_row(i, t, -q)
                if t in a[i]:
                    swap_rows(t, i)
                    dirty = True
            for j in sorted(j for j in a[t] if j > t):
                q = _nearest_quotient(a[t][j], a[t][t])
                add_col(j, t, -q)
                if j in a[t]:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            if any(t in a[i] for i in range(t + 1, m)):
                continue
            # pivot must divide every remaining entry to build the chain;
            # otherwise fold the offending row in and clear again
            d = a[t][t]
            if d == 1 or d == -1:
                break
            offender = next(
                (i for i in range(t + 1, m) if any(x % d for x in a[i].values())),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [a[i].get(i, 0) for i in range(min(m, n))]
    v_rows: list[Row] = [{} for _ in range(n)]
    for j, col in enumerate(v_cols):
        for i, x in col.items():
            v_rows[i][j] = x
    # internal consistency: witnesses really do transform A to diag, every
    # entry compared (a sparse row equals its target with zeros dropped)
    for i in range(m):
        want = {i: diag[i]} if i < len(diag) and diag[i] else {}
        if _combination(_combination(u[i], given), v_rows) != want:
            raise AssertionError("smith_normal_form witness check failed")
    return SmithForm(
        m=m,
        n=n,
        diag=diag,
        u=_dense(u, m),
        v=_dense(v_rows, n),
        v_inv=_dense(v_inv, n),
    )


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

    def torsion_elements(self):
        """All elements of finite order (free coordinates zero)."""
        r = self.free_rank
        for combo in itertools.product(*(range(t) for t in self.torsion)):
            yield GroupElt(self, (0,) * r + combo)

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
    """Quotient of Z^n_gens by the row space of a relation matrix."""

    n_gens: int
    relations: Matrix
    snf: SmithForm
    group: FgAbGroup
    _free_positions: list[int]
    _torsion_positions: list[int]

    def to_canonical(self, gen_vector: list[int]) -> GroupElt:
        """Image in the quotient of a Z-combination of generators."""
        if len(gen_vector) != self.n_gens:
            raise ValueError("generator vector length mismatch")
        y = vec_mat(gen_vector, self.snf.v, self.n_gens)
        coords = [y[j] for j in self._free_positions] + [
            y[j] for j in self._torsion_positions
        ]
        return self.group.element(coords)

    def generator_image(self, i: int) -> GroupElt:
        """to_canonical of the unit vector at i: row i of V, read at the
        free and torsion positions."""
        row = self.snf.v[i]
        return self.group.element(
            [row[j] for j in self._free_positions]
            + [row[j] for j in self._torsion_positions]
        )

    def lift(self, elt: GroupElt) -> list[int]:
        """A generator vector mapping to elt under to_canonical."""
        if elt.group != self.group:
            raise ValueError("element of a different group")
        y = [0] * self.n_gens
        r = self.group.free_rank
        for k, j in enumerate(self._free_positions):
            y[j] = elt.coords[k]
        for k, j in enumerate(self._torsion_positions):
            y[j] = elt.coords[r + k]
        return vec_mat(y, self.snf.v_inv, self.n_gens)


def cokernel(rows: Matrix, n_gens: int) -> Presentation:
    """The abelian group Z^n_gens modulo the row space of rows."""
    snf = smith_normal_form(rows, n_gens)

    def diag_at(j: int) -> int:
        return snf.diag[j] if j < len(snf.diag) else 0

    free_positions = [j for j in range(n_gens) if diag_at(j) == 0]
    torsion_positions = [j for j in range(n_gens) if diag_at(j) >= 2]
    group = FgAbGroup(
        free_rank=len(free_positions),
        torsion=tuple(diag_at(j) for j in torsion_positions),
    )
    return Presentation(
        n_gens=n_gens,
        relations=[row[:] for row in rows],
        snf=snf,
        group=group,
        _free_positions=free_positions,
        _torsion_positions=torsion_positions,
    )


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
    coeff_rows = [row[: len(gens)] for row in kernel]
    return cokernel(coeff_rows, len(gens)).group
