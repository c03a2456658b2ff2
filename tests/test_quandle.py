"""Finite quandle toolkit: axioms, displacement groups, cores, isomorphism."""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest
from oracles import (
    build_partition_quandle,
    elements_of_order_dividing_2,
    is_isomorphism,
    literal_axiom_violations,
    quotient_by_subgroup,
)
from sympy import factorint

from imqlink import quandle
from imqlink.abelian import FgAbGroup
from imqlink.quandle import (
    CapExceeded,
    FiniteQuandle,
    UnionFind,
    automorphism_classes,
    automorphisms,
    characteristic_subquandle,
    check_axioms,
    core_quandle,
    displacement_group,
    group_from_quandle,
    is_isomorphic,
    is_semiregular,
    orbits,
    parse_quandle,
    serialize_quandle,
    subquandle,
)

RNG_SEED = 20260823


def _core_of(torsion) -> FiniteQuandle:
    return core_quandle(FgAbGroup(0, tuple(torsion)))


def _sampled_axiom_check(q: FiniteQuandle, rng: random.Random, samples: int = 1500):
    n = q.n
    for x in range(n):
        assert q.apply(x, x) == x
    for _ in range(samples):
        x, y = rng.randrange(n), rng.randrange(n)
        assert q.apply(q.apply(x, y), y) == x
        z = rng.randrange(n)
        lhs = q.apply(q.apply(x, y), z)
        rhs = q.apply(q.apply(x, z), q.apply(y, z))
        assert lhs == rhs
        w = rng.randrange(n)
        assert q.apply(q.apply(x, y), q.apply(z, w)) == q.apply(
            q.apply(x, z), q.apply(y, w)
        )


def test_axioms_hold_for_dihedral():
    assert check_axioms(_core_of([5])) == []


def test_axioms_catch_corruption():
    table = [list(row) for row in _core_of([3]).op]
    table[0][0] = 1  # break idempotence
    violations = check_axioms(FiniteQuandle(table))
    assert violations and any("idempotence" in v for v in violations)

    table = [list(row) for row in _core_of([5]).op]
    table[1][2], table[2][2] = table[2][2], table[1][2]
    violations = check_axioms(FiniteQuandle(table))
    assert violations


def test_malformed_table_rejected():
    with pytest.raises(ValueError, match="malformed"):
        FiniteQuandle([[0, 1], [1]])
    with pytest.raises(ValueError, match="malformed"):
        FiniteQuandle([[0, 5], [1, 1]])


def test_orbits_of_core_are_doubling_cosets():
    q = _core_of([2, 4])
    assert sorted(len(o) for o in orbits(q)) == [2, 2, 2, 2]
    doubles = {(x + x) for x in (q.labels[i] for i in range(q.n))}
    for orbit in orbits(q):
        base = q.labels[orbit[0]]
        assert {q.labels[i] - base for i in orbit} == doubles
    q6 = _core_of([6])
    assert sorted(len(o) for o in orbits(q6)) == [3, 3]


def test_displacement_of_dihedral():
    dis = displacement_group(_core_of([5]))
    assert dis.group == FgAbGroup(0, (5,))
    assert tuple(range(5)) in dis.perms
    assert is_semiregular(_core_of([5]), dis)


def test_displacement_cap():
    with pytest.raises(CapExceeded):
        displacement_group(_core_of([8]), cap=1)


def _transposition_quandle(k: int) -> FiniteQuandle:
    """Conjugation quandle on the transpositions of S_k, s |> t = tst:
    involutory and self-distributive, and not medial for k >= 4."""
    trans = list(itertools.combinations(range(k), 2))
    index = {t: i for i, t in enumerate(trans)}

    def conj(s, t):
        swap = {t[0]: t[1], t[1]: t[0]}
        return index[tuple(sorted(swap.get(v, v) for v in s))]

    return FiniteQuandle([[conj(s, t) for t in trans] for s in trans])


def _core_of_permutations(k: int) -> FiniteQuandle:
    """Core of the symmetric group S_k, x |> y = y x^-1 y: involutory and
    self-distributive, and not medial for k >= 3."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[v] for v in q)

    def inv(p):
        out = [0] * k
        for v, img in enumerate(p):
            out[img] = v
        return tuple(out)

    return FiniteQuandle(
        [[index[mul(mul(y, inv(x)), y)] for y in perms] for x in perms]
    )


@pytest.mark.parametrize("n, t", [(5, 2), (7, 3), (9, 4), (8, 3), (12, 5)])
def test_alexander_quandles_are_checked_for_involution(n, t):
    # x |> y = t x + (1 - t) y on Z/n is idempotent, distributive and
    # medial; its translations are involutions iff t^2 = 1 mod n
    q = FiniteQuandle([[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)])
    violations = check_axioms(q)
    if t * t % n == 1:
        assert violations == literal_axiom_violations(q) == []
    else:
        assert violations and all(v.startswith("involution") for v in violations)
        assert literal_axiom_violations(q)


def test_empty_table_passes_the_checks():
    q = parse_quandle("0")
    assert q.generators == ()
    assert check_axioms(q) == literal_axiom_violations(q) == []
    assert group_from_quandle(q) == FgAbGroup(0, ())


def test_displacement_group_is_built_once_per_table():
    q = _core_of([2, 4])
    dis = displacement_group(q)
    assert displacement_group(q) is dis
    assert is_semiregular(q)
    # a cap below the cached closure's size still raises
    with pytest.raises(CapExceeded):
        displacement_group(q, cap=len(dis.perms) - 1)
    assert displacement_group(FiniteQuandle(q.op)) is not dis


def test_displacement_rejects_nonmedial():
    # conjugation quandle on the six transpositions of S4: involutory and
    # self-distributive but not medial, so translations do not commute
    table = [
        [0, 3, 4, 1, 2, 0],
        [3, 1, 5, 0, 1, 2],
        [4, 5, 2, 2, 0, 1],
        [1, 0, 3, 3, 5, 4],
        [2, 4, 0, 5, 4, 3],
        [5, 2, 1, 4, 3, 5],
    ]
    q = FiniteQuandle(table)
    violations = check_axioms(q)
    assert violations and all("mediality" in v for v in violations)
    with pytest.raises(ValueError, match="do not commute"):
        displacement_group(q)


@pytest.mark.parametrize(
    "q",
    [_transposition_quandle(4), _transposition_quandle(5), _core_of_permutations(3)],
    ids=["S4", "S5", "core-S3"],
)
def test_nonmedial_quandles_report_mediality(q):
    violations = check_axioms(q)
    assert violations and all("mediality" in v for v in violations)
    oracle = literal_axiom_violations(q)
    assert oracle and all("mediality" in v for v in oracle)


def _corruptions(q: FiniteQuandle, rng: random.Random, count: int):
    """Copies of q with one entry changed."""
    for _ in range(count):
        table = [list(row) for row in q.op]
        x, y = rng.randrange(q.n), rng.randrange(q.n)
        table[x][y] = (table[x][y] + rng.randrange(1, q.n)) % q.n
        yield FiniteQuandle(table)


def test_check_axioms_agrees_with_literal_oracle():
    rng = random.Random(RNG_SEED)
    cases = [_transposition_quandle(4), _transposition_quandle(5)]
    cases.append(_core_of_permutations(3))
    for n in range(1, 13):
        for a in _abelian_shapes(n):
            cases.append(core_quandle(a))
            cases.append(characteristic_subquandle(a))
    for base in (_core_of([5]), _core_of([2, 4]), _transposition_quandle(4)):
        cases.extend(_corruptions(base, rng, 15))
    verdicts = set()
    for q in cases:
        verdict = bool(check_axioms(q))
        assert verdict == bool(literal_axiom_violations(q)), serialize_quandle(q)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_core_fixed_point_profile_z2z4():
    # every translation of the full core fixes exactly |{x : 2x = 0}| = 4
    # points, because x |> y = x reduces to 2(y - x) = 0
    q = _core_of([2, 4])
    for y in range(q.n):
        t = q.translation(y)
        assert sum(1 for x in range(q.n) if t[x] == x) == 4


def test_characteristic_subquandle_z2z4_profile():
    a = FgAbGroup(0, (2, 4))
    cq = characteristic_subquandle(a)
    assert cq.n == 6
    fixed = sorted(
        sum(1 for x in range(cq.n) if cq.translation(y)[x] == x)
        for y in range(cq.n)
    )
    assert fixed == [2, 2, 4, 4, 4, 4]
    # independent route: count solutions of 2x = 2y among the members
    members = [cq.labels[i] for i in range(cq.n)]
    fixed2 = sorted(
        sum(1 for x in members if (x + x) == (y + y)) for y in members
    )
    assert fixed == fixed2


def test_characteristic_subquandle_is_closed_subquandle():
    a = FgAbGroup(0, (2, 8))
    cq = characteristic_subquandle(a)
    assert check_axioms(cq) == []
    assert cq.n == 3 * 4  # (k+1) cosets of the doubled subgroup 2A


def test_subquandle_requires_closure():
    with pytest.raises(ValueError, match="leaves the subset"):
        subquandle(_core_of([4]), [0, 1])


def test_automorphisms_of_dihedral_three():
    assert len(automorphisms(_core_of([3]))) == 6


@pytest.mark.parametrize("torsion", ([3], [2, 4], [8], [2, 2, 2], [3, 3]))
def test_automorphism_classes_match_every_automorphism(torsion):
    q = _core_of(torsion)
    listed = UnionFind(q.n)
    for f in automorphisms(q):
        for x in range(q.n):
            listed.union(x, f[x])
    assert automorphism_classes(q, list(range(q.n))) == listed.classes()
    # a subset of points gets the classes restricted to it
    points = list(range(0, q.n, 3))
    assert automorphism_classes(q, points) == [
        [x for x in c if x in points]
        for c in listed.classes()
        if any(x in points for x in c)
    ]


def test_self_search_compares_no_displacement_groups(monkeypatch):
    q = _core_of([2, 4])
    calls = []
    real = quandle.displacement_group

    def counted(q1, *args, **kwargs):
        calls.append(q1)
        return real(q1, *args, **kwargs)

    monkeypatch.setattr(quandle, "displacement_group", counted)
    assert len(automorphisms(q)) > 1
    assert len(automorphism_classes(q, [0, 1])) >= 1
    assert calls == []
    # two distinct tables still compare their displacement groups
    assert is_isomorphic(q, FiniteQuandle(q.op)) is not None
    assert len(calls) == 2


def test_is_isomorphism_checks_bijection_and_operation():
    q = _core_of([5])
    assert is_isomorphism(q, q, list(range(5)))
    assert is_isomorphism(q, q, [(2 * x) % 5 for x in range(5)])
    # a constant map respects the operation but is no bijection
    assert not is_isomorphism(q, q, [0] * 5)
    # a transposition is a bijection that breaks the operation
    assert not is_isomorphism(q, q, [1, 0, 2, 3, 4])
    assert not is_isomorphism(q, _core_of([3]), [0, 1, 2])


def test_isomorphic_after_relabeling():
    q = _core_of([2, 4])
    rng = random.Random(5)
    perm = list(range(q.n))
    rng.shuffle(perm)
    inv = [0] * q.n
    for i, p in enumerate(perm):
        inv[p] = i
    table = [
        [perm[q.apply(inv[x], inv[y])] for y in range(q.n)] for x in range(q.n)
    ]
    other = FiniteQuandle(table)
    mapping = is_isomorphic(q, other)
    assert mapping is not None
    for x in range(q.n):
        for y in range(q.n):
            assert mapping[q.apply(x, y)] == other.apply(mapping[x], mapping[y])


def test_not_isomorphic_different_orbit_structure():
    assert is_isomorphic(_core_of([8]), _core_of([2, 4])) is None


def test_serialize_parse_round_trip():
    q = _core_of([2, 4])
    text = serialize_quandle(q)
    back = parse_quandle(text)
    assert back.op == q.op
    with pytest.raises(ValueError):
        parse_quandle("2\n0 1\n")


def test_partition_quandle_construction_and_validation():
    # two pairs, translations swap the other pair
    swap01 = (1, 0, 2, 3)
    swap23 = (0, 1, 3, 2)
    ident = (0, 1, 2, 3)
    q = build_partition_quandle(
        4,
        [(0, 1), (2, 3)],
        {0: swap23, 1: swap23, 2: swap01, 3: swap01},
    )
    assert check_axioms(q) == []
    assert sorted(len(o) for o in orbits(q)) == [2, 2]

    with pytest.raises(ValueError):  # translation must fix its own index
        build_partition_quandle(4, [(0, 1), (2, 3)], {0: swap01, 1: swap01, 2: ident, 3: ident})
    with pytest.raises(ValueError):  # paired elements must share translations
        build_partition_quandle(4, [(0, 1), (2, 3)], {0: swap23, 1: ident, 2: ident, 3: ident})
    with pytest.raises(ValueError):  # blocks must cover 0..n-1 exactly
        build_partition_quandle(4, [(0, 1)], {0: ident, 1: ident, 2: ident, 3: ident})


def test_partition_quandle_rejects_cross_block_translation():
    crossed = (2, 3, 0, 1)  # moves elements between blocks
    ident = (0, 1, 2, 3)
    with pytest.raises(ValueError):
        build_partition_quandle(
            4, [(0, 1), (2, 3)], {0: crossed, 1: crossed, 2: ident, 3: ident}
        )


def test_partition_data_always_yields_valid_quandle():
    # any structurally valid assignment passes the axioms: translations are
    # products of the designated transpositions, hence commuting
    # involutions, and paired elements sharing translations gives
    # distributivity
    rng = random.Random(3)
    partition = [(0, 1), (2, 3), (4, 5), (6,)]
    for _ in range(25):
        translations = {}
        for block in partition:
            perm = list(range(7))
            for other in partition:
                if other is block or len(other) == 1:
                    continue
                if rng.random() < 0.5:
                    a, b = other
                    perm[a], perm[b] = perm[b], perm[a]
            for y in block:
                translations[y] = tuple(perm)
        q = build_partition_quandle(7, partition, translations)
        assert check_axioms(q) == []


# ---------------------------------------------------------------------------
# randomized structure suite over small finite abelian groups


def _random_chain(rng: random.Random) -> tuple[int, ...]:
    while True:
        d = rng.choice([2, 2, 2, 3, 4, 5, 6, 7, 8, 9])
        chain = [d]
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice([1, 1, 2, 2, 3, 4])
            chain.append(d)
        if prod(chain) <= 64:
            return tuple(chain)


def test_random_group_core_suite():
    rng = random.Random(RNG_SEED)
    for _ in range(200):
        a = FgAbGroup(0, _random_chain(rng))
        core = core_quandle(a)
        if core.n <= 20:
            assert check_axioms(core) == []
        else:
            _sampled_axiom_check(core, rng)

        k = sum(1 for t in a.torsion if t % 2 == 0)
        assert len(orbits(core)) == 2**k

        dis = displacement_group(core)
        two_torsion = list(elements_of_order_dividing_2(a))
        assert dis.group == quotient_by_subgroup(a, two_torsion)
        assert is_semiregular(core, dis)

        cq = characteristic_subquandle(a)
        if cq.n <= 20:
            assert check_axioms(cq) == []
        else:
            _sampled_axiom_check(cq, rng)
        assert len(orbits(cq)) == k + 1
        assert displacement_group(cq).group == dis.group


def _partitions(e: int):
    if e == 0:
        yield []
        return
    for first in range(e, 0, -1):
        for rest in _partitions(e - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def _abelian_shapes(n: int):
    """Every abelian group of order n, as canonical invariant factors."""
    if n == 1:
        yield FgAbGroup(0, ())
        return
    per_prime = []
    for p, e in factorint(n).items():
        per_prime.append(
            [sorted((p**i for i in part), reverse=True) for part in _partitions(e)]
        )
    for combo in itertools.product(*per_prime):
        depth = max(len(c) for c in combo)
        factors = []
        for i in range(depth):
            factors.append(prod(c[i] for c in combo if i < len(c)))
        yield FgAbGroup(0, tuple(sorted(f for f in factors if f > 1)))


def test_characteristic_subquandle_classifies_groups():
    """Two finite abelian groups are isomorphic exactly when their
    characteristic subquandles are."""
    for n in range(2, 33):
        shapes = list(_abelian_shapes(n))
        quandles = [characteristic_subquandle(a) for a in shapes]
        for i, j in itertools.combinations(range(len(shapes)), 2):
            assert shapes[i] != shapes[j]
            assert is_isomorphic(quandles[i], quandles[j]) is None


def test_semiregular_orbits_model_core_of_displacement():
    # in the semiregular core, each orbit with the induced operation is a
    # copy of the core of the displacement group
    for torsion in ([2, 4], [12], [3, 6]):
        q = _core_of(torsion)
        dis = displacement_group(q)
        model = core_quandle(dis.group)
        for orbit in orbits(q):
            assert is_isomorphic(subquandle(q, orbit), model) is not None
