"""The integral module presented by the crossing relations of a diagram.

Every crossing (over a, unders b, b') contributes the relation
2*a - b - b' over the free abelian group on the arcs; coinciding arcs
coalesce.  The cokernel carries two extra structures: the weight map w
(every arc class has weight 1) and the component-parity map p into
(Z/2)^mu.  The pair (w, p) drives all re-indexing and equivalence logic.

Since w is onto Z, the module splits as M = Z (+) ker(w).  So ker(w), the
first homology of the double branched cover, is M with one free factor
dropped, and the determinant is |ker(w)| (0 when infinite); both are read
off M's invariant factors once, in `build_link_module`, from the Smith
form of the crossing rows' Hermite basis.  That function also presents
ker(w) literally, as the crossing rows plus a unit row at one arc reduced
to their Hermite basis (`weight_kernel`), and raises InternalCheckError
unless the two agree.

w and p are linear in the canonical coordinates of M, so each module
keeps their values on the unit coordinates, from the lift of each, and
reads w(x) and p(x) off x's coordinates without lifting x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod

from .abelian import (
    FgAbGroup,
    GroupElt,
    Matrix,
    Presentation,
    cokernel,
    row_lattice_basis,
)
from .diagram import LinkDiagram, component_walk
from .quandle import CapExceeded

# The most torsion elements a report lists, for the parity profile and the
# marking kernel; it bounds the coset quandle Q_A too, whose table holds
# |Q_A|^2 entries (see `check_listing_cap`).  Near the cap a `--no-imq`
# report of the twist chain (13,13,12), |T| = |Q_A| = 2028, peaks at
# 159 MiB RSS in 7.7 s, and one of (11,11,15), |T| = |Q_A| = 1815, at
# 163 MiB in 6.7 s; past it, (11,11,17) exits 3 in 0.13 s at 21 MiB
# (2 vCPUs, Python 3.11).
LISTING_CAP = 2048


def relation_matrix(d: LinkDiagram) -> Matrix:
    """One row per crossing: 2*over - under - under', coalesced."""
    rows = []
    for c in d.crossings:
        row = [0] * d.n_arcs
        row[c.over] += 2
        row[c.under[0]] -= 1
        row[c.under[1]] -= 1
        rows.append(row)
    return rows


@dataclass
class LinkModule:
    diagram: LinkDiagram
    pres: Presentation
    group: FgAbGroup
    arc_class: tuple[GroupElt, ...]
    kernel: FgAbGroup  # ker(weight)
    determinant: int
    # the coset quandle's table, elements, components and kernel, set by
    # the first build_arc_quandle call; nothing in it refers back to the
    # module, so no reference cycle delays freeing a dropped module
    arc_quandle_parts: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # per canonical coordinate k: the weight of pres.lift(unit k), and its
    # mod-2 coefficient sums per component as a bitmask (bit i: component i)
    _weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _parity_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kappa = self.diagram.kappa
        weights, masks = [], []
        for k in range(self.group.n_coords):
            vec = self.pres.lift(self.group.unit(k))
            weights.append(sum(vec))
            mask = 0
            for arc, coeff in enumerate(vec):
                if coeff & 1:
                    mask ^= 1 << kappa[arc]
            masks.append(mask)
        self._weights = tuple(weights)
        self._parity_masks = tuple(masks)

    @property
    def mu(self) -> int:
        return self.diagram.mu

    def _check_group(self, x: GroupElt) -> None:
        if x.group is not self.group and x.group != self.group:
            raise ValueError("element of a different group")

    def weight(self, x: GroupElt) -> int:
        """The homomorphism to Z sending every arc class to 1: the sum of
        the arc coefficients of pres.lift(x), which is linear in x's
        coordinates, so it is read off the per-coordinate table."""
        self._check_group(x)
        return sum(c * w for c, w in zip(x.coords, self._weights))

    def parity(self, x: GroupElt) -> tuple[int, ...]:
        """Mod-2 arc-coefficient sums of pres.lift(x) per component, read
        off the per-coordinate table like `weight`; arc classes map to
        unit vectors."""
        self._check_group(x)
        mask = 0
        for c, m in zip(x.coords, self._parity_masks):
            if c & 1:
                mask ^= m
        return tuple((mask >> i) & 1 for i in range(self.mu))


class InternalCheckError(AssertionError):
    """A structural fact guaranteed by the construction failed to hold."""


def build_link_module(d: LinkDiagram) -> LinkModule:
    rows = relation_matrix(d)
    # weight and parity must kill every relation row
    for i, row in enumerate(rows):
        if sum(row) != 0:
            raise InternalCheckError(f"relation row {i} has nonzero weight")
        per_comp = [0] * d.mu
        for arc, coeff in enumerate(row):
            per_comp[d.kappa[arc]] += coeff
        if any(v % 2 for v in per_comp):
            raise InternalCheckError(f"relation row {i} has odd component sum")
    # the Smith form runs on the rows' Hermite basis: on long random braid
    # closures the Smith form of the literal rows grows its entries for
    # minutes
    pres = cokernel(row_lattice_basis(_leading_last(rows), d.n_arcs), d.n_arcs)
    r = pres.group.free_rank
    k = sum(1 for t in pres.group.torsion if t % 2 == 0)
    if not (1 <= r <= d.mu and r + k == d.mu):
        raise InternalCheckError(
            f"module shape violated: free rank {r}, even factors {k}, mu {d.mu}"
        )
    kernel = FgAbGroup(r - 1, pres.group.torsion)
    mod = LinkModule(
        diagram=d,
        pres=pres,
        group=pres.group,
        arc_class=tuple(pres.generator_image(a) for a in range(d.n_arcs)),
        kernel=kernel,
        determinant=kernel.order(),
    )
    for a in range(d.n_arcs):
        if mod.weight(mod.arc_class[a]) != 1:
            raise InternalCheckError(f"arc {a} has weight != 1")
        want = tuple(1 if i == d.kappa[a] else 0 for i in range(d.mu))
        if mod.parity(mod.arc_class[a]) != want:
            raise InternalCheckError(f"arc {a} has wrong parity vector")
    if weight_kernel(mod) != kernel:
        raise InternalCheckError("presented weight kernel differs from the split")
    return mod


def weight_kernel(mod: LinkModule, base_arc: int = 0) -> FgAbGroup:
    """ker(weight), presented by the crossing rows plus a unit row at
    base_arc; isomorphic to the first homology of the double branched
    cover."""
    if not 0 <= base_arc < mod.diagram.n_arcs:
        raise ValueError("base_arc out of range")
    n = mod.diagram.n_arcs
    unit = [0] * n
    unit[base_arc] = 1
    # the literal crossing rows, not the module's basis of them, so that
    # this stays a computation independent of build_link_module's
    rows = _leading_last(relation_matrix(mod.diagram) + [unit])
    return cokernel(row_lattice_basis(rows, n), n).group


def _leading_last(rows: Matrix) -> Matrix:
    """The rows by leading column, the last first.  Their Hermite basis is
    the same in every order; in this one a new pivot seldom has basis rows
    above it to reduce."""
    return sorted(
        rows,
        key=lambda row: next((j for j, x in enumerate(row) if x), len(row)),
        reverse=True,
    )


def link_determinant(mod: LinkModule) -> int:
    """|ker(weight)| when finite, else 0."""
    return mod.determinant


def longitudes(mod: LinkModule) -> list[GroupElt]:
    """One longitude per component, read off the module of any diagram.

    Let a_0..a_{k-1} be a component's arcs in walk order, o_j the
    over-arc of the crossing that ends a_j, and S = sum_j (-1)^j o_j.  On
    an even component (k even) the longitude is the alternating over-arc
    sum S.  An odd component is read as `make_even` would kink it: the
    kink splits a_0 into a_0, a_0' with the self-crossing over a_0, so the
    kinked walk's over-arcs are a_0, o_0, .., o_{k-1} and its alternating
    sum is a_0 - S.  A component with no crossings gets two kinks, whose
    sum a - a' is 0.  This is exact: each kink relation forces the new
    half equal to the old arc and the other relations are unchanged up to
    that identification, so M(make_even(d)) is isomorphic to M(d) arc
    class by arc class, and the isomorphism carries the kinked diagram's
    longitudes to these.  Element orders and zero sums are invariant
    under it.

    Each result is 2-torsion, so the starting point and direction of the
    walk do not matter.
    """
    d = mod.diagram
    out = []
    for i, comp in enumerate(d.components):
        total = mod.group.zero()
        if comp.crossings:
            for j, (_, over) in enumerate(component_walk(d, i)):
                term = mod.arc_class[over]
                total = total + (term if j % 2 == 0 else -term)
            if len(comp.arcs) % 2:
                total = mod.arc_class[comp.arcs[0]] - total
        out.append(total)
    return out


def longitude_zero_subset(
    mod: LinkModule, longs: list[GroupElt]
) -> tuple[int, ...] | None:
    """Smallest nonempty proper component subset whose longitudes sum to
    zero; None when there is none.  Nonempty iff the determinant is 0."""
    mu = mod.mu
    if mu < 2:
        raise ValueError("needs at least 2 components")
    for size in range(1, mu):
        for combo in itertools.combinations(range(mu), size):
            total = mod.group.zero()
            for i in combo:
                total = total + longs[i]
            if total.is_zero():
                return combo
    return None


def check_listing_cap(mod: LinkModule) -> None:
    """Raise CapExceeded when the torsion T has more than LISTING_CAP
    elements.  |T| is read off the invariant factors, so this runs before
    anything is listed.  It bounds Q_A too: with det != 0, |T| = det and
    |Q_A| = mu det / 2^(mu-1) <= |T|, as mu <= 2^(mu-1)."""
    size = prod(mod.group.torsion)
    if size > LISTING_CAP:
        raise CapExceeded(
            f"resource cap: {size} torsion elements to list, past {LISTING_CAP}"
        )


def torsion_parity_profile(mod: LinkModule) -> tuple[tuple[int, ...], ...]:
    """Sorted multiset of parity vectors of the nonzero finite-order
    elements, canonicalized to the least multiset over coordinate
    permutations (so it is invariant under component re-indexing).
    Raises CapExceeded past the listing cap.

    With free rank 1, p(T) is the whole even-weight space: the torsion has
    weight 0, the parities sum to the weight mod 2, and p is invertible on
    M/2M, which T fills but for one bit.  Each vector of it is hit equally
    often, so every coordinate permutation keeps the multiset."""
    check_listing_cap(mod)
    vectors = [
        mod.parity(t) for t in mod.group.torsion_elements() if not t.is_zero()
    ]
    if mod.group.free_rank == 1:
        return tuple(sorted(vectors))
    best = None
    for perm in itertools.permutations(range(mod.mu)):
        cand = tuple(sorted(tuple(v[i] for i in perm) for v in vectors))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()
