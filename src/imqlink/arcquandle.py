"""The finite quandle of arc-class cosets inside the core of the module.

When the determinant is nonzero the arc classes of a diagram sweep out,
inside Core(M), exactly one coset of ker(marking) per component; the
operation x |> y = 2y - x restricts to these cosets.  This module builds
that quandle and decides the two comparison questions: is the marking
obtainable from a direct-sum decomposition (characteristic compatibility),
and are two markings equivalent under a component re-indexing.
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
from .linkmodule import InternalCheckError, LinkModule, torsion_parity_profile
from .quandle import (
    FiniteQuandle,
    automorphism_classes,
    is_isomorphic,
    is_semiregular,
    orbits,
)

Bits = tuple[int, ...]


# ---------------------------------------------------------------------------
# small GF(2) helpers on tuple vectors; the eliminator in `abelian` takes
# them as bitmasks


def _mask(bits: Bits) -> int:
    return sum(b << k for k, b in enumerate(bits))


def _gf2_solve(cols: list[Bits], target: Bits) -> list[int] | None:
    """0/1 coefficients with sum(c_i * cols[i]) == target, or None.  They
    are read off the null vector of cols + [target] that uses the target;
    only the last input's null vector can."""
    n = len(cols)
    null = _gf2_echelon([_mask(v) for v in cols + [target]])[1]
    return [null[-1] >> i & 1 for i in range(n)] if null and null[-1] >> n & 1 else None


def _gf2_same_span(a: list[int], b: list[int]) -> bool:
    ba, bb = _gf2_echelon(a)[0], _gf2_echelon(b)[0]
    return len(ba) == len(bb) and not any(_gf2_reduce(ba, v) for v in bb)


def _gf2_unimodular_lift(rows: list[Bits]) -> list[list[int]]:
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
    status: str  # "yes" | "no" | "unknown"
    indexings_tried: int
    witness: dict | None = None
    detail: str = ""


def _two_primary_shape(group: FgAbGroup) -> list[int]:
    out = []
    for t in group.torsion:
        if t % 2 == 0:
            out.append(t & -t)
    return out


def _two_primary_elements(mod: LinkModule) -> list[GroupElt]:
    return [
        t
        for t in mod.group.torsion_elements()
        if t.order() and t.order() & (t.order() - 1) == 0
    ]


def _torsion_span(gens: list[GroupElt], zero: GroupElt) -> set[GroupElt]:
    span = {zero}
    for g in gens:
        if g.order() == 0:
            raise ValueError("infinite-order generator")
        layer = set(span)
        for c in range(1, g.order()):
            layer |= {e + g.smul(c) for e in span}
        span = layer
    return span


def _is_pure_summand(
    mod: LinkModule, gens: list[GroupElt], shape: list[int]
) -> bool:
    """gens generate an internal direct sum of the given cyclic shape
    that is pure in the torsion subgroup (hence a direct summand)."""
    if [g.order() for g in gens] != shape:
        return False
    zero = mod.group.zero()
    span = _torsion_span(gens, zero)
    expected = 1
    for s in shape:
        expected *= s
    if len(span) != expected:
        return False
    torsion = set(mod.group.torsion_elements())
    exponent = max((t.order() for t in torsion), default=1)
    j = 2
    while j <= exponent:
        scaled_t = {t.smul(j) for t in torsion}
        scaled_s = {s.smul(j) for s in span}
        if span & scaled_t != scaled_s:
            return False
        j *= 2
    return True


def _weight_adapted_basis(mod: LinkModule) -> list[GroupElt]:
    """Free-part basis c with weight profile (1, 0, ..., 0)."""
    r = mod.group.free_rank
    basis = [
        mod.group.element([1 if i == j else 0 for j in range(mod.group.n_coords)])
        for i in range(r)
    ]
    col = [[mod.weight(b)] for b in basis]
    snf = smith_normal_form(col, 1)
    if snf.diag[:1] != [1]:
        raise InternalCheckError("weight not surjective on the free part")
    transformed = []
    for i in range(r):
        acc = mod.group.zero()
        for j in range(r):
            acc = acc + basis[j].smul(snf.u[i][j])
        transformed.append(acc)
    if mod.weight(transformed[0]) == -1:
        transformed[0] = -transformed[0]
    for i, c in enumerate(transformed):
        if mod.weight(c) != (1 if i == 0 else 0):
            raise InternalCheckError("weight adaptation failed")
    return transformed


def _parity_block(mod: LinkModule, x: GroupElt, ordering: tuple[int, ...]) -> Bits:
    p = mod.parity(x)
    return tuple(p[c] for c in ordering[1:])


def _canonical_torsion_generators(group: FgAbGroup) -> list[GroupElt]:
    return [group.unit(group.free_rank + i) for i in range(len(group.torsion))]


def _explicit_free_generators(
    mod: LinkModule,
    ordering: tuple[int, ...],
    adapted: list[GroupElt],
    torsion_slots: list[int],
) -> tuple[list[GroupElt], list[int]]:
    """Free generators completing the torsion ones to a full unit-image
    decomposition: the first maps to the weight unit, the rest to the
    parity units at the slots torsion does not cover.

    The weight-adapted basis is recombined by a determinant +-1 integer
    matrix and shifted by torsion elements; both moves preserve being a
    complement of the torsion subgroup, so only the markings change."""
    mu = mod.mu
    tgens = _canonical_torsion_generators(mod.group)

    def block(x: GroupElt) -> Bits:
        return _parity_block(mod, x, ordering)

    cols_tail = [block(c) for c in adapted[1:]]
    cols_tg = [block(g) for g in tgens]
    free_slots = [j for j in range(mu - 1) if j not in set(torsion_slots)]
    unit = {
        j: tuple(1 if i == j else 0 for i in range(mu - 1)) for j in range(mu - 1)
    }

    def corrected(base: GroupElt, coeffs: list[int], tail_len: int) -> GroupElt:
        out = base
        for l, c in enumerate(coeffs[:tail_len]):
            if c % 2:
                out = out + adapted[1 + l]
        for i, c in enumerate(coeffs[tail_len:]):
            if c % 2:
                out = out + tgens[i]
        return out

    sol = _gf2_solve(cols_tail + cols_tg, block(adapted[0]))
    if sol is None:
        raise InternalCheckError("weight generator block not correctable")
    first = corrected(adapted[0], sol, len(cols_tail))

    m = len(cols_tail)
    # tail rows: pick one coefficient vector per remaining unit, jointly
    # invertible over GF(2); row choices differ by the kernel of the
    # block map modulo torsion parities
    kernel_span: set[Bits] = {tuple([0] * m)}
    for vec in _gf2_echelon([_mask(v) for v in cols_tail + cols_tg])[1]:
        head = tuple(vec >> i & 1 for i in range(m))
        kernel_span |= {
            tuple((a + b) % 2 for a, b in zip(s, head)) for s in kernel_span
        }
    particular: list[Bits] = []
    for s in free_slots:
        p = _gf2_solve(cols_tail + cols_tg, unit[s])
        if p is None:
            raise InternalCheckError("free unit target not reachable")
        particular.append(tuple(v % 2 for v in p[:m]))

    chosen: list[Bits] = []

    def extend(j: int) -> bool:
        if j == len(free_slots):
            return True
        for k in kernel_span:
            cand = tuple((a + b) % 2 for a, b in zip(particular[j], k))
            if len(_gf2_echelon([_mask(v) for v in chosen + [cand]])[0]) == j + 1:
                chosen.append(cand)
                if extend(j + 1):
                    return True
                chosen.pop()
        return False

    if free_slots and not extend(0):
        raise InternalCheckError("no invertible recombination of the free tail")
    lift = _gf2_unimodular_lift(chosen) if chosen else []

    gens = [first]
    for j, s in enumerate(free_slots):
        acc = mod.group.zero()
        for l in range(m):
            acc = acc + adapted[1 + l].smul(lift[j][l])
        fix = _gf2_solve(
            cols_tg,
            tuple((a + b) % 2 for a, b in zip(block(acc), unit[s])),
        )
        if fix is None:
            raise InternalCheckError("torsion correction unavailable")
        gens.append(corrected(acc, fix, 0))
    return gens, free_slots


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


def characteristic_compatibility(
    mod: LinkModule, torsion_cap: int = 4096
) -> CharCompatReport:
    """Does some component ordering admit a direct-sum decomposition of
    the module whose designated free and 2-primary generators map to the
    distinct unit vectors of the combined weight-and-parity form?

    Torsion generators are sought with unit parity blocks spanning pure
    summands; the free part is then a span condition over GF(2) modulo
    torsion parities.  On success the witness carries explicit free
    generators as well, so all mu unit images appear, and the whole
    decomposition is re-verified from scratch.
    """
    mu = mod.mu
    shape = _two_primary_shape(mod.group)
    k = len(shape)
    r = mod.group.free_rank
    if r + k != mu:
        raise InternalCheckError("module shape off")
    two_primary = _two_primary_elements(mod)
    if len(two_primary) ** k > torsion_cap:
        return CharCompatReport(
            status="unknown",
            indexings_tried=0,
            detail="torsion search space exceeds cap",
        )
    adapted = _weight_adapted_basis(mod)

    tried = 0
    for ordering in itertools.permutations(range(mu)):
        tried += 1

        def block(x: GroupElt) -> Bits:
            return _parity_block(mod, x, ordering)

        p_torsion = _gf2_echelon(
            [_mask(block(t)) for t in mod.group.torsion_elements()]
        )[0]

        unit = {
            j: tuple(1 if i == j else 0 for i in range(mu - 1))
            for j in range(mu - 1)
        }
        # candidate torsion generators per unit slot
        by_unit: dict[int, list[GroupElt]] = {j: [] for j in range(mu - 1)}
        for t in two_primary:
            b = block(t)
            for j in range(mu - 1):
                if b == unit[j]:
                    by_unit[j].append(t)

        found_slots = None
        found_gens = None
        for slots in itertools.combinations(range(mu - 1), k):
            pools = [by_unit[j] for j in slots]
            for gens in itertools.product(*pools):
                if _is_pure_summand(mod, list(gens), shape):
                    found_slots, found_gens = slots, list(gens)
                    break
            if found_slots is not None:
                break
        if k > 0 and found_slots is None:
            continue
        used = set(found_slots or ())
        remaining = [unit[j] for j in range(mu - 1) if j not in used]

        v1 = _mask(block(adapted[0]))
        rest = [_mask(block(c)) for c in adapted[1:]]
        reduced_rest = [_gf2_reduce(p_torsion, v) for v in rest]
        reduced_units = [_gf2_reduce(p_torsion, _mask(u)) for u in remaining]
        if not _gf2_same_span(reduced_rest, reduced_units):
            continue
        basis_rest = _gf2_echelon(reduced_rest)[0]
        if _gf2_reduce(basis_rest, _gf2_reduce(p_torsion, v1)):
            continue
        torsion_gens = found_gens or []
        torsion_slots = list(found_slots or ())
        free_gens, free_slots = _explicit_free_generators(
            mod, ordering, adapted, torsion_slots
        )
        images = _verify_unit_decomposition(
            mod, ordering, free_gens, free_slots, torsion_gens, torsion_slots, shape
        )
        witness = {
            "ordering": ordering,
            "free_generators": [list(g.coords) for g in free_gens],
            "free_units": free_slots,
            "torsion_generators": [list(g.coords) for g in torsion_gens],
            "torsion_units": torsion_slots,
            "unit_images": images,
        }
        return CharCompatReport(status="yes", indexings_tried=tried, witness=witness)
    return CharCompatReport(
        status="no",
        indexings_tried=tried,
        detail="no component ordering admits unit-vector generators",
    )


# ---------------------------------------------------------------------------
# marking equivalence


@dataclass
class MarkingComparison:
    status: str  # "equivalent" | "not_equivalent" | "unknown"
    reason: str
    witness: dict | None = None


def _torsion_isos(
    m1: LinkModule, m2: LinkModule
) -> tuple[list[GroupElt], list[list[GroupElt]]]:
    """Canonical torsion generators of m1 and, per generator, the m2
    elements of compatible order they may map to."""
    gens = _canonical_torsion_generators(m1.group)
    t2 = [x for x in m2.group.torsion_elements() if not x.is_zero()]
    pools = [[x for x in t2 if g.order() % x.order() == 0] for g in gens]
    return gens, pools


def marking_equivalent(m1: LinkModule, m2: LinkModule) -> MarkingComparison:
    """Tiered decision of marking equivalence under component
    re-indexing: invariant factors, then parity profiles, then an exact
    coset-quandle comparison (nonzero determinants) or a bounded
    explicit-isomorphism search (determinant zero)."""
    if m1.group != m2.group:
        return MarkingComparison("not_equivalent", "module groups differ")
    if m1.mu != m2.mu:
        return MarkingComparison("not_equivalent", "component counts differ")
    if torsion_parity_profile(m1) != torsion_parity_profile(m2):
        return MarkingComparison("not_equivalent", "torsion parity profiles differ")
    det1, det2 = m1.determinant, m2.determinant
    if (det1 == 0) != (det2 == 0):
        return MarkingComparison("not_equivalent", "one determinant is zero")
    if det1 != 0:
        if det1 != det2:
            return MarkingComparison("not_equivalent", "determinants differ")
        w = is_isomorphic(build_arc_quandle(m1).quandle, build_arc_quandle(m2).quandle)
        if w is None:
            return MarkingComparison(
                "not_equivalent", "arc-coset quandles are not isomorphic"
            )
        return MarkingComparison(
            "equivalent", "arc-coset quandles isomorphic", {"bijection": w}
        )
    return _marking_search_det0(m1, m2)


def _marking_search_det0(m1: LinkModule, m2: LinkModule) -> MarkingComparison:
    mu = m1.mu
    gens, pools = _torsion_isos(m1, m2)
    torsion_order = len(list(m1.group.torsion_elements()))
    adapted1 = _weight_adapted_basis(m1)
    adapted2 = _weight_adapted_basis(m2)
    p_torsion2 = _gf2_echelon(
        [_mask(m2.parity(t)) for t in m2.group.torsion_elements()]
    )[0]
    sources = [_mask(m2.parity(c)) for c in adapted2]
    red_s = [_gf2_reduce(p_torsion2, v) for v in sources[1:]]
    basis_s = _gf2_echelon(red_s)[0]
    s0 = _gf2_reduce(basis_s, _gf2_reduce(p_torsion2, sources[0]))

    for images in itertools.product(*pools):
        if len(_torsion_span(list(images), m2.group.zero())) != torsion_order:
            continue
        for tau in itertools.permutations(range(mu)):

            def shuffle(p: Bits) -> Bits:
                out = [0] * mu
                for i, v in enumerate(p):
                    out[tau[i]] = v
                return tuple(out)

            if any(
                shuffle(m1.parity(g)) != m2.parity(im)
                for g, im in zip(gens, images)
            ):
                continue
            # free part: m2's weight-adapted basis must realize the
            # tau-mapped parities of m1's, modulo torsion parities and an
            # invertible mod-2 change of basis
            targets = [_mask(shuffle(m1.parity(c))) for c in adapted1]
            red_t = [_gf2_reduce(p_torsion2, v) for v in targets[1:]]
            if not _gf2_same_span(red_s, red_t):
                continue
            t0 = _gf2_reduce(basis_s, _gf2_reduce(p_torsion2, targets[0]))
            if t0 != s0:
                continue
            return MarkingComparison(
                "equivalent",
                "explicit compatible isomorphism found",
                {
                    "component_map": list(tau),
                    "torsion_images": [list(i.coords) for i in images],
                },
            )
    return MarkingComparison(
        "unknown",
        "groups, profiles and determinants agree; bounded search found no witness",
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
