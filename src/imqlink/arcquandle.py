"""The finite quandle of arc-class cosets inside the core of the module.

When the determinant is nonzero the arc classes of a diagram sweep out,
inside Core(M), exactly one coset of ker(marking) per component; the
operation x |> y = 2y - x restricts to these cosets.  This module builds
that quandle and decides three questions: is the marking obtainable from a
direct-sum decomposition (characteristic compatibility), are two markings
equivalent under a component re-indexing, and which components some
automorphism of the coset quandle can interchange.  All three are decided
on M/2M, which has one bit per free and per even torsion coordinate;
`_mod2_bits` reads it off the module.

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
  lower block A by a unimodular integer matrix congruent to it mod 2: with
  U A V = D the Smith form, det A is odd, so D = I mod 2 and
  A = U^-1 V^-1 mod 2, a product of unimodular matrices
  (`_gf2_unimodular_lift`).  Shift by torsion lifts of the W parts: the
  free generators keep their weights and phi lifts psi.
- Since P_a nests and dim P_a = dim U_a on both sides, it suffices that
  tau sends the parity of each even torsion unit into P_a at that unit's
  own level.

So the verdict is always "equivalent" or "not_equivalent", for every
determinant.  `_flag_reindexing` searches for tau one component at a time.

The component classes come from the same flag.  Let det != 0, so r = 1 and
T = ker w.  Orbit i of Q_A is x_i + 2T = {w = 1, p = e_i}, x_i an arc class
of component i: T meets ker p in 2T (`marking_kernel` checks it), and
`_cosets` checks that the orbits are these cosets.  Components i and j
share a class (some automorphism of Q_A maps orbit i onto orbit j) iff some
tau in S_mu maps every level P_a onto itself with tau(i) = j.  Why:

- Flag => class.  The sufficiency proof above, with m_1 = m_2, gives an
  automorphism phi of M with w phi = w and p phi = tau p.  It keeps
  x |> y = 2y - x, and maps {w = 1, p = e_i} onto {w = 1, p = e_tau(i)}, so
  it restricts to an automorphism of Q_A mapping orbit i onto orbit tau(i).
- Class => flag.  Let f be an automorphism of Q_A; it permutes the orbits,
  mapping orbit i onto orbit tau(i).
  1. R_y R_z is x -> x + 2(y - z).  Differences of arc classes generate T,
     as the arc classes generate M and have weight 1, so Dis(Q_A), which
     the R_y R_z generate, is the group of the translations by 2T, and it
     acts faithfully.
  2. f R_y f^-1 = R_f(y), so f conjugates Dis onto Dis, through an
     automorphism alpha of 2T, and f(x + s) = f(x) + alpha(s).
  3. Put y_i = f(x_i), in orbit tau(i).  Applying f to
     x_i |> x_j = x_i + 2(x_j - x_i) gives y_i + alpha(2(x_j - x_i)) =
     y_i |> y_j = 2y_j - y_i, so alpha(2(x_j - x_i)) = 2(y_j - y_i).
  4. Every arc class of component j lies in x_j + 2T, so T is spanned by
     the x_j - x_1 and 2T.  Take t in T of order dividing 2^a, a >= 1,
     written t = sum n_j (x_j - x_1) + 2s, and put
     t' = sum n_j (y_j - y_1) + alpha(2s).  Then t' is in T,
     2t' = alpha(2t) has order dividing 2^(a-1), so t' has order dividing
     2^a, and p(t') = sum n_j (e_tau(j) + e_tau(1)) = tau p(t).
  5. So tau maps P_a = p(T[2^a]) into P_a, and onto it, as tau is
     injective and the dimensions are equal.

So `reindexing_sensitivity` reads the classes off the flag, and builds no
Q_A.  The search over Aut(Q_A) it replaced is the test oracle
`automorphism_classes`.

The marking kernel K, where ker p meets T, is 2T iff the parities of the
even torsion units are independent; `marking_kernel` checks that and lists
2T off the invariant factors.  Why: p maps into a group of exponent 2, so
2T lies in ker p, and p factors through T/2T, which is Z/2 per even
invariant factor, with the even torsion units as a basis.  So ker p meets
T in 2T iff p is injective on T/2T, iff those units' parities are
independent.  The listing it replaced, of both sets, compared, is the test
oracle `literal_marking_kernel`.

Q_A itself is checked on its mu coset representatives, not on its table
(`_cosets`).  Let r_i be the class of the first arc of component i, and Q
the union of the cosets r_i + K.  The checks the whole table once ran,
kept as the test oracle `literal_coset_checks`, reject the same modules:

- Distinct cosets.  r_i + K and r_j + K are equal or disjoint, and equal
  iff r_i - r_j is in K.  So the mu |K| elements r_i + k are distinct iff
  no r_i - r_j, i < j, is in K.
- Closure.  For x = r_i + k and y = r_j + k',
  x |> y = 2y - x = x + 2(r_j - r_i) + (2k' - k), and 2k' - k is in K.
  So every x |> y lies in the coset of x iff every 2(r_j - r_i) is in K:
  mu^2 checks.  If one is not, r_i |> r_j leaves the coset of r_i, and the
  table either misses it or has an orbit meeting two cosets.
- Orbits.  R_z R_y is x -> x + 2(z - y), so a word of even length in the
  R_y is a translation by an element of D, the span of the 2(z - y) over
  y, z in Q, and one of odd length maps x to 2y - x - d = x + 2(y - x) - d,
  again in x + D.  So the orbit of x is x + D.  As
  z - y = (r_j - r_1) - (r_l - r_1) + (k' - k), D is spanned by 2K and the
  2(r_j - r_1); and 2K = 4T is spanned by the 4 e_c, e_c the torsion
  units.  Under closure D lies in K, so the orbits are the cosets iff
  D = K, which a search from 0 decides in |K| steps, each adding every
  spanning element.
- Semiregularity.  Dis(Q) is generated by the R_x R_y, so its elements
  are translations by elements of D, and one with a fixed point x,
  x + d = x in M, has d = 0 and fixes everything.  Distinct closed cosets
  are always semiregular; nothing is left to check.
- Size.  mu |K| must be the lower bound of `size_bounds`,
  mu det / 2^(mu-1).

So the report reads |Q_A| = mu |K| and its orbit sizes, |K| each, off
the cosets, and lists no element.  The table (`_coset_table`) is built on
its first read, from the checked cosets, and checks only itself against
them (the generator check): for g in `FiniteQuandle.generators` and g0 the
first of them, R_g R_g0 must be the translation by 2(e_g - e_g0), e_g the
element numbered g, on every element, n |G| lookups.  The table is the
operation 2y - x on the closed set Q, an involutory quandle, so by fact 2
of the `quandle` docstring these maps generate its displacement group;
every displacement of the table is then a translation, and it is
semiregular by the argument above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .abelian import (
    FgAbGroup,
    GroupElt,
    _gf2_echelon,
    _gf2_reduce,
    _stacked_relations,
    mat_mul,
    smith_normal_form,
)
from .diagram import LinkDiagram
from .linkmodule import InternalCheckError, LinkModule, check_listing_cap, size_bounds
from .quandle import FiniteQuandle, UnionFind

Bits = tuple[int, ...]
Coords = tuple[int, ...]  # an element in its group's canonical coordinates


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


def _gf2_solve(cols: list[int], targets: list[int]) -> list[int]:
    """Per target, the bitmask c with the XOR of cols[i] over the bits i of
    c equal to it, for independent cols that span every target: one
    elimination of cols + targets.  The cols leave no null vector, so
    target t is spanned iff it leaves one, and that one uses no other
    target, as no target before it became a row."""
    n = len(cols)
    null = _gf2_echelon(cols + targets)[1]
    if [v >> n for v in null] != [1 << t for t in range(len(targets))]:
        raise InternalCheckError("GF(2) target outside the span")
    return [v ^ 1 << n + t for t, v in enumerate(null)]


def _gf2_unimodular_lift(rows: list[list[int]]) -> list[list[int]]:
    """Integer matrix of determinant +-1 congruent mod 2 to the given
    invertible GF(2) matrix A.  With U A V = D its Smith form, D has odd
    determinant, so every diagonal entry is odd and A = U^-1 V^-1 mod 2.
    U is unimodular, so its own Smith form U' U V' = I gives
    U^-1 = V' U'; the lift is V' U' V^-1."""
    snf = smith_normal_form(rows, len(rows))
    inv = smith_normal_form(snf.u, len(rows))
    return mat_mul(mat_mul(inv.v, inv.u), snf.v_inv)


# ---------------------------------------------------------------------------
# the quandle of arc-class cosets


@dataclass
class ArcQuandle:
    """Q_A as its checked cosets, in the canonical coordinates of `group`:
    the coset representatives r_i, the marking kernel K and the element of
    each arc, element i |K| + k being r_i + K[k].  Built once per module,
    which keeps it; the elements, their components and the table are built
    on their first read."""

    diagram: LinkDiagram
    group: FgAbGroup
    reps: list[Coords]
    kernel: list[Coords]
    arc_element: list[int]

    @cached_property
    def elements(self) -> list[Coords]:
        m = self.group.moduli
        return [_combine(1, x, 1, k, m) for x in self.reps for k in self.kernel]

    @cached_property
    def component_of(self) -> list[int]:
        return [i for i in range(len(self.reps)) for _ in self.kernel]

    @cached_property
    def quandle(self) -> FiniteQuandle:
        return _coset_table(self)


def marking_kernel(mod: LinkModule) -> list[Coords]:
    """Finite-order elements killed by both weight and parity: 2T, by the
    GF(2) check of the module docstring, listed in coordinate order off
    the invariant factors, the even residues of an even one and every
    residue of an odd one.  Raises CapExceeded past the listing cap."""
    check_listing_cap(mod)
    r, torsion = mod.group.free_rank, mod.group.torsion
    if _gf2_echelon(_mod2_bits(mod)[1][r:])[1]:
        raise InternalCheckError("marking kernel differs from doubled torsion")
    residues = (range(0, t, 2 if t % 2 == 0 else 1) for t in torsion)
    return [(0,) * r + k for k in itertools.product(*residues)]


def build_arc_quandle(mod: LinkModule) -> ArcQuandle:
    """The coset quandle of the module, listed and checked on the first
    call and kept on the module for every later one."""
    if mod.arc_quandle is None:
        mod.arc_quandle = _cosets(mod)
    return mod.arc_quandle


def _combine(a: int, x: Coords, b: int, y: Coords, moduli: Coords) -> Coords:
    """a x + b y on coordinate tuples, reduced by the group's moduli exactly
    as GroupElt arithmetic reduces it; no GroupElt is built."""
    return tuple([
        (a * p + b * q) % m if m else a * p + b * q for p, q, m in zip(x, y, moduli)
    ])


def _cosets(mod: LinkModule) -> ArcQuandle:
    """Q_A, coset r_i + K by coset, with r_i the class of the first arc of
    component i.  Checked on the mu representatives, as the module
    docstring proves: distinct mod K, as many as the size formula says,
    closed (2(r_j - r_i) in K), and spanning K with 2K, so that the orbits
    are the cosets.  Each arc's class lies in its component's coset."""
    det = mod.determinant
    if det == 0:
        raise ValueError("Q_A infinite; use algebraic comparisons")
    kernel = marking_kernel(mod)
    group, d = mod.group, mod.diagram
    moduli = group.moduli
    in_k = {k: i for i, k in enumerate(kernel)}  # each element's place in K
    reps = [mod.arc_class[comp.arcs[0]].coords for comp in d.components]
    mu = len(reps)
    if any(
        _combine(1, x, -1, y, moduli) in in_k
        for x, y in itertools.combinations(reps, 2)
    ):
        raise InternalCheckError("coset representatives collide")
    if mu * len(kernel) != size_bounds(det, mu)[0]:
        raise InternalCheckError("coset count disagrees with size formula")
    if any(_combine(2, y, -2, x, moduli) not in in_k for x in reps for y in reps):
        raise InternalCheckError("cosets not closed under the operation")

    # the span D of 2K and the 2(r_j - r_1), listed by a search from 0;
    # 2K = 4T is spanned by 4 e_c over the torsion units
    r, torsion = group.free_rank, group.torsion
    gens = [
        (0,) * (r + c) + (4 % t,) + (0,) * (len(torsion) - c - 1)
        for c, t in enumerate(torsion)
    ]
    gens += [_combine(2, y, -2, reps[0], moduli) for y in reps[1:]]
    span = [(0,) * group.n_coords]
    seen = set(span)
    for x in span:  # the loop sees the elements appended in it
        for g in gens:
            y = _combine(1, x, 1, g, moduli)
            if y not in seen:
                seen.add(y)
                span.append(y)
    if seen != in_k.keys():
        raise InternalCheckError("orbits do not match cosets")

    arc_element = []
    for a, i in enumerate(d.kappa):
        k = in_k.get(_combine(1, mod.arc_class[a].coords, -1, reps[i], moduli))
        if k is None:
            raise InternalCheckError("arc class outside its coset")
        arc_element.append(i * len(kernel) + k)
    return ArcQuandle(d, group, reps, kernel, arc_element)


def _coset_table(qa: ArcQuandle) -> FiniteQuandle:
    """The table of the checked cosets, x |> y = 2y - x, by index
    arithmetic in K, and the generator check of the module docstring, whose
    n |G| lookups of coordinate tuples cross-check the arithmetic.

    `marking_kernel` lists K in mixed radix: coordinate c of K[l] is
    e_c s_c, with e_c = 2 for an even factor t_c and 1 for an odd one, and
    s_c < h_c = t_c / e_c.  Element i |K| + l is r_i + K[l], and as the
    cosets are closed, (r_i + K[k]) |> (r_j + K[l]) = r_i + K[b] + 2K[l],
    where K[b] = 2(r_j - r_i) - K[k].  Digit by digit, b and the place of
    K[b] + 2K[l] are sums mod h_c.  So row i |K| + k joins, over j, the
    lists of the places of K[b] + 2K[l], offset by i |K|: built once per
    table, and the b once per pair (i, j)."""
    reps, moduli, size = qa.reps, qa.group.moduli, len(qa.kernel)
    # (coordinate, e_c, h_c) of each factor with h_c > 1
    digits = [
        (i, 2 - t % 2, t // (2 - t % 2))
        for i, t in enumerate(qa.group.torsion, qa.group.free_rank)
        if t > 2
    ]

    def places(v: Coords, c: int, start: int = 0) -> list[int]:
        """start + the place of v + c K[l], for each l; v in K."""
        out, stride = [start], size
        for i, e, h in digits:
            stride //= h
            out = [y + (v[i] // e + c * s) % h * stride for y in out for s in range(h)]
        return out

    shifted = [places(k, 2, i * size) for i in range(len(reps)) for k in qa.kernel]
    op = []
    for i, x in enumerate(reps):
        bs = [places(_combine(2, y, -2, x, moduli), -1) for y in reps]
        op += [
            list(itertools.chain(*[shifted[i * size + b[k]] for b in bs]))
            for k in range(size)
        ]
    q = FiniteQuandle(op)

    elems = qa.elements
    index = {e: i for i, e in enumerate(elems)}
    g0 = q.generators[0]
    for g in q.generators:
        shift = _combine(2, elems[g], -2, elems[g0], moduli)
        for x, e in enumerate(elems):
            if op[op[x][g0]][g] != index.get(_combine(1, e, 1, shift, moduli)):
                raise InternalCheckError("arc quandle not semiregular")
    return q


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
    # the generators and the torsion relations span Z^n_coords iff the
    # Smith form is all units, and the rows of U past the rank span the
    # relations among them
    snf = smith_normal_form(_stacked_relations(group, all_gens), group.n_coords)
    if snf.diag != [1] * group.n_coords:
        raise InternalCheckError("witness generators do not generate")
    n = len(all_gens)
    for row in snf.u[snf.rank :]:
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
    pre = _gf2_solve(masks, [1 << j for j in range(mu)])  # p^-1(e_j)
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
    sols = _gf2_solve(basis, targets)
    rows = [[s >> i & 1 for i in range(r - 1)] for s in sols]
    if len(rows) > 1:  # at free rank 1 the block is 0 x 0
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
# the parity flag and the re-indexings that keep it


# (levels, colours), as `_parity_flag` returns them
_Flag = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _parity_flag(mod: LinkModule) -> _Flag:
    """The parity flag of a module: an echelon basis of each level P_a, by
    ascending 2-part 2^a of the torsion bits, and per component i its
    colour, the count, per level, of the components j != i with e_i + e_j
    in it and whether e_i is in it.  A re-indexing tau that maps every
    level of one flag onto the same level of another maps e_i + e_j to
    e_tau(i) + e_tau(j), so it keeps the colours: colour(i) of the first is
    colour(tau(i)) of the second."""
    r, mu = mod.group.free_rank, mod.mu
    _, masks, shape = _mod2_bits(mod)
    if _gf2_echelon(masks)[1]:
        raise InternalCheckError("parity map not invertible on M/2M")
    levels = tuple(
        tuple(_gf2_echelon([m for m, b in zip(masks[r:], shape) if b <= a])[0])
        for a in sorted(set(shape))
    )

    def colour(i: int) -> tuple[int, ...]:
        out = []
        for level in levels:
            pairs = (1 << i | 1 << j for j in range(mu) if j != i)
            out.append(sum(not _gf2_reduce(level, v) for v in pairs))
            out.append(int(not _gf2_reduce(level, 1 << i)))
        return tuple(out)

    return levels, tuple(colour(i) for i in range(mu))


def _image(v: int, tau: list[int]) -> int:
    """The bitmask of the tau[i] over the bits i of v."""
    out = 0
    for i, t in enumerate(tau):
        if v >> i & 1:
            out |= 1 << t
    return out


def _flag_reindexing(
    src: _Flag, dst: _Flag, pin: tuple[int, int] | None = None
) -> list[int] | None:
    """The least tau, in lexicographic order, that maps every level of the
    flag src onto the same level of dst: component i goes to component
    tau[i].  With pin = (i, j), some tau with tau[i] = j.  None when there
    is none.

    tau is set one component at a time, each to the images of its colour
    in ascending order: component i first when pinned, then the others in
    ascending order.  So without a pin the first full tau is the least.
    Each level is rewritten over a basis whose vectors have distinct last
    components in that order, the echelon basis of `_gf2_echelon` on the
    components in reverse order; the level's vectors on the components set
    so far are spanned by the basis vectors whose last component is set.
    So after setting a component the search checks that the image of each
    basis vector ending at it lies in the level of dst.  That is every
    condition the set components decide, and a full tau that passes maps
    each level into, hence onto, the level of dst, whose dimension is the
    same.  Colours and the checks hold for every such tau, so none is lost
    and a None is a proof."""
    (levels1, colours1), (levels2, colours2) = src, dst
    mu = len(colours1)
    if sorted(colours1) != sorted(colours2):
        return None
    order = list(range(mu))
    if pin is not None:
        order.remove(pin[0])
        order.insert(0, pin[0])
    pos = [0] * mu
    for c, i in enumerate(order):
        pos[i] = c
    # bit k of a reversed vector is the component order[mu - 1 - k], so the
    # pivot of an echelon row, its lowest bit, is its last position
    to_rev, from_rev = [mu - 1 - c for c in pos], order[::-1]
    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(mu)]
    for level1, level2 in zip(levels1, levels2, strict=True):
        for v in _gf2_echelon([_image(v, to_rev) for v in level1])[0]:
            last = mu - (v & -v).bit_length()
            checks[last].append((_image(v, from_rev), level2))
    domains = [[t for t in range(mu) if colours2[t] == colours1[i]] for i in order]
    if pin is not None:
        domains[0] = [pin[1]] if pin[1] in domains[0] else []
    tau = [0] * mu

    def rec(c: int, used: int) -> bool:
        if c == mu:
            return True
        i = order[c]
        for t in domains[c]:
            if used >> t & 1:
                continue
            tau[i] = t
            if all(
                not _gf2_reduce(level2, _image(v, tau)) for v, level2 in checks[c]
            ) and rec(c + 1, used | 1 << t):
                return True
        return False

    return tau if rec(0, 0) else None


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
    docstring: some tau maps each level of the parity flag of m1 onto that
    of m2.  `_flag_reindexing` searches for it, and the re-indexing
    classes use the same search.  An "equivalent" carries the least such
    tau in lexicographic order: component i of m1 goes to component_map[i]
    of m2."""
    if m1.group != m2.group:
        return MarkingComparison("not_equivalent", "module groups differ")
    tau = _flag_reindexing(_parity_flag(m1), _parity_flag(m2))
    if tau is None:
        return MarkingComparison(
            "not_equivalent", "parity flags on M/2M match under no re-indexing"
        )
    return MarkingComparison(
        "equivalent",
        "parity flags on M/2M match under a re-indexing",
        {"component_map": tau},
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

    No automorphism of Q_A is searched.  By the class criterion of the
    module docstring, components i and j share a class iff some tau that
    maps every level of the parity flag onto itself has tau(i) = j.  The
    classes are those of the group of such tau, so a pair already joined
    through others is skipped, and every other pair gets one
    `_flag_reindexing` with tau(i) = j pinned; a tau found joins each
    component to its image."""
    if mod.determinant == 0:
        return ReindexingReport(status="unknown", classes=[])
    flag = _parity_flag(mod)
    classes = UnionFind(mod.mu)
    for i, j in itertools.combinations(range(mod.mu), 2):
        if classes.find(i) != classes.find(j):
            tau = _flag_reindexing(flag, flag, (i, j))
            for x, y in enumerate(tau or ()):
                classes.union(x, y)
    return ReindexingReport(
        status="ok", classes=[tuple(c) for c in classes.classes()]
    )
