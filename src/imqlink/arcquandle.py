"""The finite quandle of arc-class cosets inside the core of the module.

When the determinant is nonzero the arc classes of a diagram sweep out,
inside Core(M), exactly one coset of ker(marking) per component; the
operation x |> y = 2y - x restricts to these cosets.  This module builds
that quandle and decides the two comparison questions: is the marking
obtainable from a direct-sum decomposition (characteristic compatibility),
and are two markings equivalent under a component re-indexing.  Both are
decided on M/2M, which has one bit per free and per even torsion
coordinate; `_mod2_bits` reads it off the module.

Let p: M/2M -> F_2^mu be the parity map, read off the module's
per-coordinate parity masks; W the image of the torsion; and U_a the span
of the even torsion units whose 2-part is at most 2^a.  U_a is the image
of the elements of T whose order divides 2^a, T the torsion: in a
coordinate Z/t with 2-part 2^b > 2^a those elements are even.  For a link
module p is invertible: the arcs generate M, their parities are the unit
vectors, and M/2M has dimension r + k = mu.  Every arc class has weight 1
and a unit parity vector, so the parities sum to the weight mod 2 on all
of M.

Characteristic compatibility asks for a cyclic decomposition
M = <f_1> + .. + <f_r> + <g_1> + .. + <g_k> + (odd torsion), with the f_i
free, the g_i of 2-power order (k is the number of even invariant factors,
and r + k = mu), and a dropped component o_0, such that f_1 has weight 1
and parity 0 off o_0, and each other generator has weight 0 and parity e_j
off o_0, for its own component j != o_0.  The answer is yes iff p is
invertible and, for some o_0, the vectors v_j = p^-1(e_j + e_o_0),
j != o_0, include exactly k in W, and those k are adapted to the flag:
for every a, as many of them lie in U_a as dim U_a.  Why this is exact:

- Every cyclic decomposition gives a basis of M/2M, the classes of the
  f_i and g_i; the odd part vanishes mod 2.
- The parities sum to the weight, so the required images force
  p(f_1) = e_o_0 and p(g) = e_j + e_o_0 for every other generator g: p maps
  a basis onto a basis, and the generators' classes are p^-1(e_o_0) and
  the v_j.
- The g_i lie in the torsion, so their classes are the v_j in W, and they
  span W, of dimension k.  A g of order at most 2^a has its class in U_a,
  and the g_i of order at most 2^a are as many as the invariant factors
  with 2-part at most 2^a, which is dim U_a; so the flag condition holds.
  Conversely, give each v_j in W the order 2^a of the least U_a holding
  it, and lift it to g = sum (t_c / 2^(a_c)) e_c over its bits c, where e_c
  is the unit of the coordinate Z/t_c and 2^(a_c) the 2-part of t_c.  By
  the flag condition these orders are the 2-parts of the invariant
  factors, so they multiply to |T_2|, T_2 the 2-primary torsion.  The g
  span T_2 mod 2T_2, hence span T_2, and independent elements whose orders
  multiply to |T_2| decompose it.
- The free part is automatic.  Take the weight-adapted basis c_1..c_r of
  the free coordinates (weights 1, 0, .., 0).  Any integer matrix
  [[1, *], [0, B]] over it with det B = +-1, shifted by torsion elements,
  gives free generators complementing the torsion with the same weights.
  The classes p^-1(e_o_0) and the v_j outside W are independent mod W, so
  they fix that matrix mod 2, and B is a unimodular lift of its block.
- Only o_0 matters: permuting the other components permutes the slots.

So the verdict is always "yes" or "no".  A "yes" carries the
decomposition built above, re-verified from scratch by
`_verify_unit_decomposition`.

Marking equivalence asks for an isomorphism phi: M_1 -> M_2 and a
re-indexing tau in S_mu with w_2 phi = w_1 and p_2 phi = tau p_1.  Put
P_a = p(U_a).  Two modules with equal groups (hence equal mu = r + k)
have equivalent markings iff some tau maps P_a of the first onto P_a of
the second at every level a.  Why this is exact:

- Necessity: phi mod 2 is p_2^-1 tau p_1, and phi maps the elements of
  order dividing 2^a onto those of M_2, so it maps U_a onto U_a.
- Sufficiency: let psi = p_2^-1 tau p_1, which maps each U_a onto U_a.
  Torsion part: send each even torsion unit g_c of the first module, of
  2-part 2^(a_c), to the lift of psi(g_c) above, of order dividing
  2^(a_c), and the odd part identically.  The images span T_2 mod 2T_2,
  hence T_2, so this map onto a group of the same order is an isomorphism.
  Free part: over the weight-adapted bases c of M_1 and d of M_2, psi(c_j)
  mod W has coordinates B_j over d.  Weight mod 2 is the sum of the
  parities and tau keeps that sum, so psi keeps the weight mod 2, and B has
  first column e_1; psi is invertible mod W, so the lower block of B is
  invertible.  Lift B with that first column, its first row by 0/1 and its
  lower block by `_gf2_unimodular_lift`, and shift by torsion lifts of the
  W parts: the free generators keep their weights and phi lifts psi.
- Since P_a nests and dim P_a = dim U_a on both sides, it suffices that
  tau sends the parity of each even torsion unit into P_a at that unit's
  own level.

So the verdict is always "equivalent" or "not_equivalent", for every
determinant, found by one GF(2) reduction per torsion bit and tau.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abelian import (
    FgAbGroup,
    GroupElt,
    _gf2_echelon,
    _gf2_reduce,
    left_kernel_basis,
    smith_normal_form,
    subgroup_contains,
)
from .linkmodule import InternalCheckError, LinkModule
from .quandle import FiniteQuandle, automorphism_classes, is_semiregular, orbits

Bits = tuple[int, ...]


# ---------------------------------------------------------------------------
# M/2M and small GF(2) helpers; the eliminator in `abelian` takes vectors
# as bitmasks


def _mod2_bits(mod: LinkModule) -> tuple[list[int], list[int], list[int]]:
    """M/2M, one bit per free and then per even torsion coordinate: the
    canonical coordinate of each bit, its parity mask, and the 2-parts of
    the torsion bits in order."""
    group = mod.group
    r = group.free_rank
    coord = [*range(r), *(r + i for i, t in enumerate(group.torsion) if t % 2 == 0)]
    shape = [group.torsion[c - r] & -group.torsion[c - r] for c in coord[r:]]
    if r + len(shape) != mod.mu:
        raise InternalCheckError("module shape off")
    return coord, [mod._parity_masks[c] for c in coord], shape


def _gf2_solve(cols: list[int], target: int) -> int:
    """The bitmask c with the XOR of cols[i] over the bits i of c equal to
    target, for independent cols that span it.  It is read off the null
    vector of cols + [target] that uses the target; only the last input's
    null vector can."""
    n = len(cols)
    null = _gf2_echelon(cols + [target])[1]
    if not (null and null[-1] >> n & 1):
        raise InternalCheckError("GF(2) target outside the span")
    return null[-1] ^ 1 << n


def _gf2_unimodular_lift(rows: list[list[int]]) -> list[list[int]]:
    """Integer matrix of determinant +-1 congruent mod 2 to the given
    invertible GF(2) matrix, by replaying elementary row operations."""
    m = len(rows)
    g = [[x % 2 for x in r] for r in rows]
    ops: list[tuple[str, int, int]] = []
    for col in range(m):
        piv = next(i for i in range(col, m) if g[i][col])
        if piv != col:
            g[col], g[piv] = g[piv], g[col]
            ops.append(("swap", col, piv))
        for i in range(m):
            if i != col and g[i][col]:
                g[i] = [(a + b) % 2 for a, b in zip(g[i], g[col])]
                ops.append(("add", i, col))
    out = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for kind, i, j in reversed(ops):
        if kind == "swap":
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = [a - b for a, b in zip(out[i], out[j])]
    return out


# ---------------------------------------------------------------------------
# the quandle of arc-class cosets


@dataclass
class ArcQuandle:
    quandle: FiniteQuandle
    module: LinkModule
    elements: list[GroupElt]
    component_of: list[int]
    kernel: list[GroupElt]


def marking_kernel(mod: LinkModule) -> list[GroupElt]:
    """Finite-order elements killed by both weight and parity; equals the
    doubled torsion subgroup, and both routes are computed and compared."""
    torsion = list(mod.group.torsion_elements())
    by_parity = {t for t in torsion if not any(mod.parity(t))}
    doubled = {t.smul(2) for t in torsion}
    if by_parity != doubled:
        raise InternalCheckError("marking kernel differs from doubled torsion")
    return sorted(by_parity, key=lambda e: e.coords)


def build_arc_quandle(mod: LinkModule) -> ArcQuandle:
    """The coset quandle of the module.  Its table is built on the first
    call and kept on the module for every later one."""
    if mod.arc_quandle_parts is None:
        mod.arc_quandle_parts = _coset_table(mod)
    q, elems, comp_of, kernel = mod.arc_quandle_parts
    return ArcQuandle(
        quandle=q, module=mod, elements=elems, component_of=comp_of, kernel=kernel
    )


def _coset_table(
    mod: LinkModule,
) -> tuple[FiniteQuandle, list[GroupElt], list[int], list[GroupElt]]:
    """The checked coset quandle, its elements, their components and the
    marking kernel."""
    det = mod.determinant
    if det == 0:
        raise ValueError("Q_A infinite; use algebraic comparisons")
    kernel = marking_kernel(mod)
    elems: list[GroupElt] = []
    comp_of: list[int] = []
    index: dict[tuple[int, ...], int] = {}  # by coordinates in mod.group
    for i, comp in enumerate(mod.diagram.components):
        rep = mod.arc_class[comp.arcs[0]]
        for k in kernel:
            e = rep + k
            if e.coords in index:
                raise InternalCheckError("coset representatives collide")
            index[e.coords] = len(elems)
            elems.append(e)
            comp_of.append(i)
    mu = mod.mu
    expected = mu * det
    if expected % (1 << (mu - 1)):
        raise InternalCheckError("size formula not integral")
    if len(elems) != expected // (1 << (mu - 1)):
        raise InternalCheckError("coset count disagrees with size formula")

    # 2y - x on coordinate tuples, reduced by the group's moduli exactly as
    # GroupElt arithmetic reduces them; no GroupElt is built per product
    moduli = mod.group.moduli
    doubled = [tuple([2 * c for c in y.coords]) for y in elems]
    try:
        op = [
            [
                index[
                    tuple([
                        (d - c) % m if m else d - c
                        for c, d, m in zip(x.coords, y2, moduli)
                    ])
                ]
                for y2 in doubled
            ]
            for x in elems
        ]
    except KeyError:
        raise InternalCheckError("cosets not closed under the operation") from None
    labels = {i: (comp_of[i], e) for i, e in enumerate(elems)}
    q = FiniteQuandle(op, labels=labels)

    orbs = orbits(q)
    if len(orbs) != mu:
        raise InternalCheckError("orbit count differs from component count")
    for orb in orbs:
        if {comp_of[x] for x in orb} != {comp_of[orb[0]]} or len(orb) != len(kernel):
            raise InternalCheckError("orbits do not match cosets")
    if not is_semiregular(q):
        raise InternalCheckError("arc quandle not semiregular")
    return q, elems, comp_of, kernel


# ---------------------------------------------------------------------------
# characteristic compatibility


@dataclass
class CharCompatReport:
    status: str  # "yes" | "no"
    witness: dict | None = None


def _weight_adapted_basis(mod: LinkModule) -> list[GroupElt]:
    """Free-part basis c with weight profile (1, 0, ..., 0): the rows of U
    in the Smith form of the free coordinates' weight column."""
    group = mod.group
    r = group.free_rank
    snf = smith_normal_form([[w] for w in mod._weights[:r]], 1)
    if snf.diag[:1] != [1]:
        raise InternalCheckError("weight not surjective on the free part")
    out = [group.element(row + [0] * len(group.torsion)) for row in snf.u]
    if mod.weight(out[0]) == -1:
        out[0] = -out[0]
    if [mod.weight(c) for c in out] != [1] + [0] * (r - 1):
        raise InternalCheckError("weight adaptation failed")
    return out


def _parity_block(mod: LinkModule, x: GroupElt, ordering: tuple[int, ...]) -> Bits:
    p = mod.parity(x)
    return tuple(p[c] for c in ordering[1:])


def _canonical_torsion_generators(group: FgAbGroup) -> list[GroupElt]:
    return [group.unit(group.free_rank + i) for i in range(len(group.torsion))]


def _verify_unit_decomposition(
    mod: LinkModule,
    ordering: tuple[int, ...],
    free_gens: list[GroupElt],
    free_slots: list[int],
    torsion_gens: list[GroupElt],
    torsion_slots: list[int],
    shape: list[int],
) -> list[list[int]]:
    """Check the witness generators really decompose the module with unit
    markings, and return those markings.  Any failure is an engine bug."""
    group = mod.group
    mu = mod.mu
    if sorted(free_slots + torsion_slots) != list(range(mu - 1)):
        raise InternalCheckError("unit slots do not cover the components")

    images: list[list[int]] = []
    marked = list(zip(free_gens, [None] + free_slots)) + list(
        zip(torsion_gens, torsion_slots)
    )
    for pos, (g, slot) in enumerate(marked):
        w = mod.weight(g)
        b = _parity_block(mod, g, ordering)
        want_w = 1 if pos == 0 else 0
        want_b = tuple(1 if j == slot else 0 for j in range(mu - 1))
        if w != want_w or b != want_b:
            raise InternalCheckError("witness marking is not a unit vector")
        images.append([w, *b])

    # the claimed cyclic orders, with the odd part carried by the
    # canonical generators it already lives on
    all_gens = list(free_gens) + list(torsion_gens)
    orders = [0] * len(free_gens) + list(shape)
    for i, d in enumerate(group.torsion):
        odd = d
        while odd % 2 == 0:
            odd //= 2
        if odd > 1:
            all_gens.append(_canonical_torsion_generators(group)[i].smul(d // odd))
            orders.append(odd)
    for g, d in zip(all_gens, orders):
        if g.order() != d:
            raise InternalCheckError("witness generator has the wrong order")
    if not all(
        subgroup_contains(group, all_gens, group.unit(i))
        for i in range(group.n_coords)
    ):
        raise InternalCheckError("witness generators do not generate")
    stack = [list(g.coords) for g in all_gens]
    for i, t in enumerate(group.torsion):
        row = [0] * group.n_coords
        row[group.free_rank + i] = t
        stack.append(row)
    kernel = left_kernel_basis(stack, group.n_coords)
    n = len(all_gens)
    for row in kernel:
        for x, d in zip(row[:n], orders):
            if x if d == 0 else x % d:
                raise InternalCheckError("witness relations exceed cyclic orders")
    return images


def characteristic_compatibility(mod: LinkModule) -> CharCompatReport:
    """Is the marking that of a cyclic decomposition of the module whose
    free and 2-primary generators map to distinct unit vectors of weight
    and parity off one dropped component?  Decided by the criterion on
    M/2M in the module docstring; a "yes" carries the decomposition that
    its proof builds, verified from scratch."""
    mu, r = mod.mu, mod.group.free_rank
    coord, masks, shape = _mod2_bits(mod)
    if _gf2_echelon(masks)[1]:
        return CharCompatReport("no")
    pre = [_gf2_solve(masks, 1 << j) for j in range(mu)]  # p^-1(e_j)
    free = (1 << r) - 1  # W is where these bits vanish

    def order(v: int) -> int:  # that of v's lift: the least 2^a with v in U_a
        return max(shape[i - r] for i in range(r, mu) if v >> i & 1)

    for o0 in range(mu):
        v = {j: pre[j] ^ pre[o0] for j in range(mu) if j != o0}
        in_w = sorted((j for j in v if not v[j] & free), key=lambda j: order(v[j]))
        if [order(v[j]) for j in in_w] == shape:
            witness = _witness(mod, coord, o0, pre, in_w, shape)
            return CharCompatReport("yes", witness)
    return CharCompatReport("no")


def _witness(
    mod: LinkModule,
    coord: list[int],
    o0: int,
    pre: list[int],
    in_w: list[int],
    shape: list[int],
) -> dict:
    """The decomposition the criterion's proof builds, dropping o0: pre[j]
    is the class in M/2M of parity e_j, and in_w lists the components
    whose generator is torsion, in the order of their 2-parts."""
    group = mod.group
    mu, r = mod.mu, group.free_rank
    ordering = (o0, *(j for j in range(mu) if j != o0))
    v = {j: pre[j] ^ pre[o0] for j in ordering[1:]}
    free_js = [j for j in v if j not in in_w]

    def torsion_sum(bits: int, scale) -> GroupElt:
        # sum of scale(t) e_c over the torsion bits i >= r of bits
        coords = [0] * group.n_coords
        for i in range(r, mu):
            if bits >> i & 1:
                coords[coord[i]] = scale(group.torsion[coord[i] - r])
        return group.element(coords)

    torsion_gens = [torsion_sum(v[j], lambda t: t // (t & -t)) for j in in_w]
    # free generators over the weight-adapted basis c: solve each class in
    # the basis (c_2..c_r, even torsion units) of ker w mod 2, then lift the
    # c_2..c_r block of all but the first unimodularly
    adapted = _weight_adapted_basis(mod)
    cbar = [sum((x & 1) << i for i, x in enumerate(c.coords[:r])) for c in adapted]
    basis = cbar[1:] + [1 << i for i in range(r, mu)]
    targets = [pre[o0] ^ cbar[0]] + [v[j] for j in free_js]
    sols = [_gf2_solve(basis, x) for x in targets]
    rows = [[s >> i & 1 for i in range(r - 1)] for s in sols]
    rows[1:] = _gf2_unimodular_lift(rows[1:])
    free_gens = []
    for row, s in zip(rows, sols):
        acc = torsion_sum(s << 1, lambda t: 1)  # s's unit bits are at i - 1
        for c, x in zip(adapted[1:], row):
            acc = acc + c.smul(x)
        free_gens.append(acc)
    # over c, the free part's matrix is [[1, rows[0]], [0, lift]]: det +-1
    free_gens[0] = free_gens[0] + adapted[0]
    free_slots = [ordering.index(j) - 1 for j in free_js]
    torsion_slots = [ordering.index(j) - 1 for j in in_w]
    images = _verify_unit_decomposition(
        mod, ordering, free_gens, free_slots, torsion_gens, torsion_slots, shape
    )
    return {
        "ordering": ordering,
        "free_generators": [list(g.coords) for g in free_gens],
        "free_units": free_slots,
        "torsion_generators": [list(g.coords) for g in torsion_gens],
        "torsion_units": torsion_slots,
        "unit_images": images,
    }


# ---------------------------------------------------------------------------
# marking equivalence


@dataclass
class MarkingComparison:
    status: str  # "equivalent" | "not_equivalent"
    reason: str
    witness: dict | None = None


def marking_equivalent(m1: LinkModule, m2: LinkModule) -> MarkingComparison:
    """Are the markings equivalent under a component re-indexing?  Decided
    for every determinant by the flag criterion on M/2M in the module
    docstring.  An "equivalent" carries the re-indexing: component i of m1
    goes to component_map[i] of m2."""
    if m1.group != m2.group:
        return MarkingComparison("not_equivalent", "module groups differ")
    r = m1.group.free_rank
    (_, masks1, shape), (_, masks2, _) = _mod2_bits(m1), _mod2_bits(m2)
    if _gf2_echelon(masks1)[1] or _gf2_echelon(masks2)[1]:
        raise InternalCheckError("parity map not invertible on M/2M")
    # per torsion bit of m1: an echelon basis of P_a of m2 at its level a
    flag = [
        _gf2_echelon([m for m, b in zip(masks2[r:], shape) if b <= a])[0]
        for a in shape
    ]
    for tau in itertools.permutations(range(m1.mu)):
        if not any(
            _gf2_reduce(level, sum((m >> i & 1) << t for i, t in enumerate(tau)))
            for m, level in zip(masks1[r:], flag)
        ):
            return MarkingComparison(
                "equivalent",
                "parity flags on M/2M match under a re-indexing",
                {"component_map": list(tau)},
            )
    return MarkingComparison(
        "not_equivalent", "parity flags on M/2M match under no re-indexing"
    )


# ---------------------------------------------------------------------------
# re-indexing sensitivity


@dataclass
class ReindexingReport:
    status: str  # "ok" | "unknown"
    classes: list[tuple[int, ...]]


def reindexing_sensitivity(mod: LinkModule) -> ReindexingReport:
    """Partition of the components by interchangeability under coset
    quandle automorphisms; a singleton class marks a component that every
    automorphism pins down.

    No automorphism is listed.  Each translation R_y is an automorphism,
    and the orbits of Q_A are the orbits of Inn(Q_A) = <R_y>.  So if some
    automorphism maps orbit i into orbit j, composing it with an inner one
    gives an automorphism that sends any one element of orbit i to any one
    element of orbit j.  The orbits are the component cosets (checked when
    Q_A is built), so the components' classes are the classes of one
    element per coset under Aut(Q_A), found by at most mu(mu-1)/2 searches
    that each stop at their first witness."""
    if mod.determinant == 0:
        return ReindexingReport(status="unknown", classes=[])
    if mod.mu == 1:
        # one component is one class, whatever the automorphisms are
        return ReindexingReport(status="ok", classes=[(0,)])
    qa = build_arc_quandle(mod)
    reps = [qa.component_of.index(c) for c in range(mod.mu)]
    return ReindexingReport(
        status="ok",
        classes=[
            tuple(qa.component_of[x] for x in cls)
            for cls in automorphism_classes(qa.quandle, reps)
        ],
    )
