"""Exact integer matrix algebra and finitely generated abelian groups.

All arithmetic uses plain Python ints, so arbitrary precision is automatic.
Matrices are dense lists of row lists.  A product skips the zero entries of
its left factor, so it costs O(nnz(a) * cols(b)) multiply-adds: relation
rows have at most three nonzeros, and the witnesses stay mostly sparse.
The Smith normal form routine keeps unimodular witnesses U, V and V's
inverse, which is what lets a :class:`Presentation` translate between
generator coordinates and canonical coordinates of the quotient group.
A tall relation matrix whose quotient is needed only up to isomorphism can
first go through `row_lattice_basis`, which reduces its rows by unimodular
steps to a Hermite basis of at most one row per column; its certificate is
that every input row ends as a basis row or reduces to zero.
`_gf2_echelon` and `_gf2_reduce` are the package's one eliminator over
GF(2); the coset quandle's marking questions and the parity part of the
IMQ's displacement mesh both use them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm, prod

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def _reduce_above_pivots(basis: dict[int, list[int]], upto: int) -> None:
    """Bring every row of basis with pivot column <= upto to Hermite form:
    each entry in another row's pivot column k is reduced to at most
    basis[k][k]/2 in absolute value.  Rows are reduced from the last pivot
    up, so each subtracts rows that are already reduced."""
    pivots = sorted(basis)
    for i in reversed(pivots):
        if i > upto:
            continue
        row = basis[i]
        for k in pivots:
            if k > i and row[k]:
                q = _nearest_quotient(row[k], basis[k][k])
                if q:
                    row = [x - q * y for x, y in zip(row, basis[k])]
        basis[i] = row


def row_lattice_basis(rows: Matrix, n_cols: int) -> Matrix:
    """A basis of the lattice the rows span, in Hermite normal form: one row
    per pivot column, in column order, each pivot positive, every entry in a
    pivot column above its pivot at most half the pivot in absolute value.

    The rows are inserted one at a time.  A row meeting a pivot it is a
    multiple of subtracts that basis row; otherwise one unimodular 2x2
    extended-gcd step makes the basis row's pivot the gcd and the new
    row's entry zero.  The reduction above the pivots after every change
    keeps the entries small; without it they grow without bound.  Every
    step is unimodular, so the basis spans exactly the rows' lattice, with
    certificate: each row ends as a new basis row or as the zero vector.
    """
    basis: dict[int, list[int]] = {}
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
        r = list(row)
        for j in range(n_cols):
            x = r[j]
            if not x:
                continue
            b = basis.get(j)
            if b is None:
                basis[j] = r if x > 0 else [-y for y in r]
                _reduce_above_pivots(basis, j)
                break
            p = b[j]
            if x % p == 0:
                q = x // p
                r = [y - q * z for y, z in zip(r, b)]
                continue
            g, s, t = _ext_gcd(p, x)
            pg, xg = p // g, x // g
            basis[j] = [s * z + t * y for y, z in zip(r, b)]
            r = [pg * y - xg * z for y, z in zip(r, b)]
            _reduce_above_pivots(basis, j)
        else:
            if any(r):
                raise AssertionError("row_lattice_basis: a row did not reduce to zero")
    return [basis[j] for j in sorted(basis)]


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
    """
    m = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    n = n_cols
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a = [row[:] for row in rows]
    u = identity_matrix(m)
    v = identity_matrix(n)
    v_inv = identity_matrix(n)

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    key = (abs(a[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        return None if best is None else (best[1], best[2])

    t = 0
    while t < min(m, n):
        pos = find_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t, re-pivoting on any nonzero remainder
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = _nearest_quotient(a[i][t], a[t][t])
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = _nearest_quotient(a[t][j], a[t][t])
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # pivot must divide every remaining entry to build the chain;
            # otherwise fold the offending row in and clear again
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [a[i][i] for i in range(min(m, n))]
    # internal consistency: witnesses really do transform A to diag
    check = mat_mul(mat_mul(u, rows, n), v, n)
    for i in range(m):
        for j in range(n):
            want = diag[i] if i == j and i < len(diag) else 0
            if check[i][j] != want:
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
        vec = [0] * self.n_gens
        vec[i] = 1
        return self.to_canonical(vec)

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
