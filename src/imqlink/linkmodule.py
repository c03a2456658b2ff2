"""The integral module presented by the crossing relations of a diagram.

Every crossing (over a, unders b, b') contributes the relation
2*a - b - b' over the free abelian group on the arcs; coinciding arcs
coalesce.  `relation_matrix` keeps each relation as a sparse row of at most
three entries, and `cokernel` takes those rows as they are, so no step
from the diagram to the module holds an n x n matrix.  The cokernel
carries two extra structures: the weight map w (every arc class has
weight 1) and the component-parity map p into (Z/2)^mu.  The pair (w, p)
drives all re-indexing and equivalence logic.

Since w is onto Z, the module splits as M = Z (+) ker(w).  So ker(w), the
first homology of the double branched cover, is M with one free factor
dropped, and the determinant is |ker(w)| (0 when infinite); both are read
off M's invariant factors once, in `build_link_module`, from the
`cokernel` of the crossing rows.  That function also presents ker(w) as
M/<[arc 0]> (`weight_kernel`), and raises InternalCheckError unless the
two agree.  This is the literal presentation, the crossing rows plus a
unit row e_0, on M's own coordinates:

- Z^n / (L + Z e_0) = (Z^n / L) / <[e_0]>, L the lattice of the crossing
  rows, by the third isomorphism theorem.
- `cokernel` carries Z^n / L onto M = Z^c / D, c = `n_coords` and D
  spanned by the t_i e_(r+i), through an isomorphism it certifies:
  `_hermite_basis` spans exactly L (every row ends as a basis row or as
  zero), and the Smith form's witnesses are checked entry by entry.  It
  sends e_0 to `arc_class[0]`.
- So the group is Z^c modulo D and the row `arc_class[0].coords`:
  len(torsion) + 1 sparse rows, where the literal form sends all n
  crossing rows through the Hermite reduction a second time.

Arc 0 has weight 1, so Z [arc 0] is a complement of ker(w) and
M/<[arc 0]> = ker(w).  The literal presentation is the test oracle
`literal_weight_kernel`.

w and p are linear in the canonical coordinates of M, so each module
keeps their values on the unit coordinates, from the lift of each, and
reads w(x) and p(x) off x's coordinates without lifting x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING

from .abelian import FgAbGroup, GroupElt, Presentation, Row, _gf2_echelon, cokernel
from .diagram import LinkDiagram, component_walk
from .quandle import CapExceeded

if TYPE_CHECKING:
    from .arcquandle import ArcQuandle

# The most elements a report holds of the torsion T, the coset quandle Q_A
# or the presented quandle, whose tables hold n^2 entries.  Near it a
# `--no-imq` report of chain (13,13,12), |T| = |Q_A| = 2028, peaks at
# 21 MiB RSS in 0.1 s, and a full one of chain (2,2,341), |IMQ| = 2046,
# at 89 MiB in 14 s (ru_maxrss of a fresh process, 2 vCPUs, Python 3.11).
LISTING_CAP = 2048


def relation_matrix(d: LinkDiagram) -> list[Row]:
    """One sparse row {arc: coefficient} per crossing: 2*over - under -
    under', coalesced, zeros dropped, so at most three entries."""
    rows = []
    for c in d.crossings:
        row = {c.over: 2}
        for u in c.under:
            row[u] = row.get(u, 0) - 1
        rows.append({a: x for a, x in row.items() if x})
    return rows


@dataclass
class LinkModule:
    diagram: LinkDiagram
    pres: Presentation
    group: FgAbGroup
    arc_class: tuple[GroupElt, ...]
    kernel: FgAbGroup  # ker(weight)
    determinant: int
    # the coset quandle, set by the first build_arc_quandle call; it does
    # not refer back to the module, so no reference cycle delays freeing a
    # dropped module
    arc_quandle: ArcQuandle | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # M/2M and one elimination of its masks, set by the first _mod2_bits call
    _mod2: tuple | None = field(default=None, init=False, repr=False, compare=False)
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
        mask = self._mask(x.coords)
        return tuple((mask >> i) & 1 for i in range(self.mu))

    def _mask(self, coords: tuple[int, ...]) -> int:
        """The parity of the element with these coordinates as a bitmask,
        bit i for component i."""
        mask = 0
        for c, m in zip(coords, self._parity_masks):
            if c & 1:
                mask ^= m
        return mask


class InternalCheckError(AssertionError):
    """A structural fact guaranteed by the construction failed to hold."""


def build_link_module(d: LinkDiagram) -> LinkModule:
    rows = relation_matrix(d)
    kappa = d.kappa
    # weight and parity must kill every relation row
    for i, row in enumerate(rows):
        if sum(row.values()) != 0:
            raise InternalCheckError(f"relation row {i} has nonzero weight")
        per_comp: dict[int, int] = {}
        for arc, coeff in row.items():
            per_comp[kappa[arc]] = per_comp.get(kappa[arc], 0) + coeff
        if any(v % 2 for v in per_comp.values()):
            raise InternalCheckError(f"relation row {i} has odd component sum")
    # cokernel takes the Smith form of what the rows' unit pivots leave: one
    # row on two columns for T(2, n); on long random braid closures the
    # Smith form of the literal rows grows its entries for minutes
    pres = cokernel(rows, d.n_arcs)
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
    for a, x in enumerate(mod.arc_class):
        if mod.weight(x) != 1:
            raise InternalCheckError(f"arc {a} has weight != 1")
        if mod._mask(x.coords) != 1 << kappa[a]:
            raise InternalCheckError(f"arc {a} has wrong parity vector")
    if weight_kernel(mod) != kernel:
        raise InternalCheckError("presented weight kernel differs from the split")
    return mod


def weight_kernel(mod: LinkModule) -> FgAbGroup:
    """ker(weight) as M/<[arc 0]>: the cokernel of the torsion rows
    t_i e_(r+i) and the coordinates of arc 0's class, the literal crossing
    rows plus a unit row at arc 0 read in M's coordinates (see the module
    docstring); isomorphic to the first homology of the double branched
    cover."""
    group = mod.group
    r = group.free_rank
    rows = [{r + i: t} for i, t in enumerate(group.torsion)]
    rows.append({k: c for k, c in enumerate(mod.arc_class[0].coords) if c})
    return cokernel(rows, group.n_coords).group


def _mod2_bits(
    mod: LinkModule,
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """M/2M, one bit per free and then per even torsion coordinate: the
    canonical coordinate of each bit, its parity mask, the 2-parts of the
    torsion bits in order, and the rows and null vectors of one
    `_gf2_echelon` of the masks, the torsion bits' first.  Built on the
    first call and kept on the module.

    The elimination meets its inputs in order, so what it has made from the
    first j of them is an elimination of those alone: the rows an echelon
    basis of their span, and the null vectors, input i the highest bit of
    the one it ends, a basis of their null space.  With the torsion bits
    first, their span and whether they are independent are read off it,
    and so is each level of the parity flag: the 2-parts ascend, as each
    invariant factor divides the next."""
    if mod._mod2 is None:
        group = mod.group
        r = group.free_rank
        coord = [*range(r), *(r + i for i, t in enumerate(group.torsion) if t % 2 == 0)]
        shape = [group.torsion[c - r] & -group.torsion[c - r] for c in coord[r:]]
        if r + len(shape) != mod.mu:
            raise InternalCheckError("module shape off")
        masks = [mod._parity_masks[c] for c in coord]
        mod._mod2 = (coord, masks, shape, *_gf2_echelon(masks[r:] + masks[:r]))
    return mod._mod2


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
    walk do not matter.  The sum is taken on coordinate tuples and reduced
    once per component.
    """
    d = mod.diagram
    out = []
    for i, comp in enumerate(d.components):
        total = [0] * mod.group.n_coords
        if comp.crossings:
            walk = [mod.arc_class[over].coords for _, over in component_walk(d, i)]
            total = [sum(c[0::2]) - sum(c[1::2]) for c in zip(*walk)]
            if len(comp.arcs) % 2:
                total = [a - t for a, t in zip(mod.arc_class[comp.arcs[0]].coords, total)]
        out.append(mod.group.element(total))
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


def size_bounds(det: int, mu: int) -> tuple[int, int]:
    """The paper's bounds on |IMQ(L)| for det != 0, as (lower, upper).
    The lower one is |Q_A| = mu det / 2^(mu-1); the upper one is det for a
    knot, where |IMQ(K)| = det, and mu det / 2 for a link."""
    if det == 0:
        raise ValueError("bounds need a nonzero determinant")
    det = abs(det)
    if mu * det % (1 << (mu - 1)):
        raise InternalCheckError("size formula not integral")
    return mu * det // (1 << (mu - 1)), det if mu == 1 else mu * det // 2


def check_imq_bound(mod: LinkModule) -> int:
    """The upper bound of `size_bounds` on |IMQ(L)|.  Raise CapExceeded
    when T or the bound passes the listing cap, so that no listing the cap
    could stop starts."""
    check_listing_cap(mod)
    bound = size_bounds(mod.determinant, mod.mu)[1]
    if bound > LISTING_CAP:
        raise CapExceeded(
            f"resource cap: up to {bound} presented quandle elements to list, "
            f"past {LISTING_CAP}"
        )
    return bound


def torsion_parity_profile(mod: LinkModule) -> tuple[tuple[int, ...], ...]:
    """Sorted multiset of parity vectors of the nonzero finite-order
    elements, canonicalized to the least multiset over coordinate
    permutations (so it is invariant under component re-indexing).
    Raises CapExceeded past the listing cap: it has |T| - 1 entries.

    0 = p(t x) = p(x) for a unit x of odd order t, so an odd factor's mask
    is 0, and p maps T linearly onto V, the span of the torsion masks, each
    vector |T| / |V| times, 0 once fewer.  Sorted, the image under a
    permutation pi is 0, |T| / |V| - 1 times, then each later vector of
    sorted pi(V), |T| / |V| times, as 0 is least in every order; so
    permutations compare as their sorted pi(V) do, and the loop reads pi(V)
    off V's bit columns in the order pi.  It runs only for V != 0 at free
    rank 2 or more: at free rank 1 every pi fixes V, the even-weight space
    (T has weight 0, the parities sum to the weight mod 2, and p is
    invertible on M/2M, which T fills but for one bit).  Both are checked."""
    check_listing_cap(mod)
    r, mu, torsion = mod.group.free_rank, mod.mu, mod.group.torsion
    if any(m for m, t in zip(mod._parity_masks[r:], torsion) if t % 2):
        raise InternalCheckError("odd torsion factor with nonzero parity")
    _, _, shape, rows, null = _mod2_bits(mod)
    k = len(shape)
    basis = rows[: k - sum(v >> k == 0 for v in null)]  # the torsion bits' rows
    if r == 1 and (len(basis) != mu - 1 or any(b.bit_count() % 2 for b in basis)):
        raise InternalCheckError("torsion parities are not the even-weight space")
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    perms = itertools.permutations(range(mu)) if r > 1 and basis else [range(mu)]
    least = min(sorted(zip(*([v >> i & 1 for v in span] for i in pi))) for pi in perms)
    return tuple(v for v in least for _ in range(prod(torsion) // len(span)))[1:]
