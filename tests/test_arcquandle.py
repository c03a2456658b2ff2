"""Coset quandle on arc classes, characteristic compatibility, markings."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter, defaultdict
from math import factorial, prod
from pathlib import Path

import pytest
from conftest import UNKNOT, time_limit

from imqlink import arcquandle, quandle
from imqlink.abelian import _gf2_reduce, int_det, subgroup_type
from imqlink.arcquandle import (
    ReindexingReport,
    _mod2_bits,
    build_arc_quandle,
    characteristic_compatibility,
    marking_equivalent,
    marking_kernel,
    reindexing_sensitivity,
)
from imqlink.cli import main
from imqlink.diagram import parse_diagram
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.linkmodule import (
    LISTING_CAP,
    InternalCheckError,
    build_link_module,
    link_determinant,
    weight_kernel,
)
from imqlink.quandle import (
    UnionFind,
    automorphisms,
    check_axioms,
    displacement_group,
    is_isomorphic,
    is_semiregular,
    orbits,
)
from oracles import (
    automorphism_classes,
    compare_with_characteristic,
    displacement_matches_kernel,
    literal_characteristic_compatibility,
    literal_coset_checks,
    literal_coset_table,
    literal_displacement_group,
    literal_marking_kernel,
    literal_marking_search,
    orbit_component,
    random_marking,
    replay_unimodular_lift,
    torsion_elements,
)

FINITE = ("hopf2", "sixthree", "trefoil", "fig8", "t22t24")
INFINITE = ("fig5l", "figt", "lprime", "ldprime")


@pytest.mark.parametrize(
    "name,size,orbit_sizes",
    [
        ("hopf2", 3, [1, 1, 1]),
        ("sixthree", 3, [1, 1, 1]),
        ("trefoil", 3, [3]),
        ("fig8", 5, [5]),
        ("t22t24", 6, [2, 2, 2]),
    ],
)
def test_sizes_and_orbits(name, size, orbit_sizes, arc_quandles):
    qa = arc_quandles[name]
    assert qa.quandle.n == size
    assert sorted(len(o) for o in orbits(qa.quandle)) == orbit_sizes
    assert check_axioms(qa.quandle) == []
    assert is_semiregular(qa.quandle)


@pytest.mark.parametrize("name", FINITE)
def test_cardinality_formula(name, modules, arc_quandles):
    mod = modules[name]
    qa = arc_quandles[name]
    assert qa.quandle.n * 2 ** (mod.mu - 1) == mod.mu * link_determinant(mod)


@pytest.mark.parametrize("name", FINITE)
def test_orbits_are_components(name, modules, arc_quandles):
    qa = arc_quandles[name]
    mapping = orbit_component(qa)
    mu = qa.diagram.mu
    assert sorted(set(mapping.values())) == list(range(mu))
    for elt, comp in zip(qa.elements, qa.component_of):
        assert modules[name].parity(qa.group.element(elt))[comp] == 1


@pytest.mark.parametrize("name", ("trefoil", "fig8", "t22t24"))
def test_coset_table_closure_check_fires(name, diagrams, monkeypatch):
    # shifting one kernel element by a free unit makes the sets cosets of
    # no subgroup: 0 leaves the kernel, and with it every 2(r_i - r_i)
    real = arcquandle.marking_kernel

    def shifted(mod):
        kernel = real(mod)
        return [(kernel[0][0] + 1, *kernel[0][1:])] + kernel[1:]

    monkeypatch.setattr(arcquandle, "marking_kernel", shifted)
    with pytest.raises(
        InternalCheckError, match="cosets not closed under the operation"
    ):
        build_arc_quandle(build_link_module(diagrams[name]))


@pytest.mark.parametrize("name", INFINITE)
def test_infinite_case_rejected(name, modules):
    with pytest.raises(ValueError, match="infinite"):
        build_arc_quandle(modules[name])


@pytest.mark.parametrize("name", FINITE)
def test_marking_kernel_is_doubled_torsion(name, modules):
    mod = modules[name]
    kernel = [mod.group.element(k) for k in marking_kernel(mod)]
    doubled = {t + t for t in torsion_elements(mod.group)}
    assert set(kernel) == doubled
    for k in kernel:
        assert mod.weight(k) == 0
        assert all(b == 0 for b in mod.parity(k))


@pytest.mark.parametrize("name", FINITE)
def test_displacement_matches_kernel(name, arc_quandles):
    report = displacement_matches_kernel(arc_quandles[name])
    assert report.ok
    qa = arc_quandles[name]
    perms, _ = literal_displacement_group(qa.quandle)
    assert displacement_group(qa.quandle) == set(perms)
    kernel = [qa.group.element(k) for k in qa.kernel]
    assert report.dis_group == subgroup_type(qa.group, kernel)


COMPAT = {
    "hopf2": "yes",
    "sixthree": "yes",
    "trefoil": "yes",
    "fig8": "yes",
    "t22t24": "yes",
    "figt": "yes",
    "ldprime": "yes",
    "fig5l": "no",
    "lprime": "no",
}


@pytest.mark.parametrize("name,verdict", sorted(COMPAT.items()))
def test_characteristic_compatibility_verdicts(name, verdict, modules):
    report = characteristic_compatibility(modules[name])
    assert report.status == verdict
    if verdict == "no":
        assert report.witness is None
        # the search oracle exhausts every component ordering before "no"
        literal = literal_characteristic_compatibility(modules[name])
        assert literal.indexings_tried == 24
    else:
        assert report.witness is not None


def test_figt_witness_maps_generators_to_unit_vectors(modules):
    mod = modules["figt"]
    report = characteristic_compatibility(mod)
    witness = report.witness
    ordering = witness["ordering"]
    assert sorted(ordering) == [0, 1, 2, 3]

    # two free and two torsion generators, whose combined weight and
    # parity images are the four distinct unit vectors
    assert len(witness["free_generators"]) == 2
    assert len(witness["torsion_generators"]) == 2
    images = []
    for pos, coords in enumerate(
        witness["free_generators"] + witness["torsion_generators"]
    ):
        elt = mod.group.element(coords)
        assert mod.weight(elt) == (1 if pos == 0 else 0)
        parity = mod.parity(elt)
        reduced = tuple(parity[c] for c in ordering[1:])
        images.append((mod.weight(elt), *reduced))
    expected = {tuple(1 if i == j else 0 for i in range(4)) for j in range(4)}
    assert set(images) == expected
    assert [list(img) for img in images] == witness["unit_images"]

    for coords in witness["torsion_generators"]:
        elt = mod.group.element(coords)
        assert elt.order() == 8
        # the raw parity vector of a torsion element always has even
        # support; only dropping the leading component yields a unit
        assert sum(mod.parity(elt)) % 2 == 0


def _verify(mod, witness, free_gens, torsion_gens, shape):
    group = mod.group
    return arcquandle._verify_unit_decomposition(
        mod,
        witness["ordering"],
        [group.element(c) for c in free_gens],
        witness["free_units"],
        [group.element(c) for c in torsion_gens],
        witness["torsion_units"],
        shape,
    )


def test_unit_decomposition_check_rejects_what_markings_and_orders_miss(
    modules, perfbench_module
):
    # ldprime, Z^2 x Z/2 x Z/2: three times the second free generator has
    # its marking and its infinite order, but index 3 in what it replaces
    mod = modules["ldprime"]
    w = characteristic_compatibility(mod).witness
    free, torsion = w["free_generators"], w["torsion_generators"]
    assert _verify(mod, w, free, torsion, [2, 2]) == w["unit_images"]
    tripled = [free[0], [3 * x for x in free[1]]]
    with pytest.raises(InternalCheckError, match="do not generate"):
        _verify(mod, w, tripled, torsion, [2, 2])

    # chain (2,8), Z x Z/2 x Z/8: the generator g of order 2 shifted by
    # twice the one of order 8 keeps its marking, has order 4 and still
    # generates, but orders 4 and 8 multiply past |Z/2 x Z/8|
    gen = perfbench_module("gen")
    word = gen.chain_word([2, 8], random.Random(1))
    mod = build_link_module(parse_diagram(gen.to_text(gen.closure(word, 3))))
    w = characteristic_compatibility(mod).witness
    free, (g, h) = w["free_generators"], w["torsion_generators"]
    assert [mod.group.element(c).order() for c in (g, h)] == [2, 8]
    assert _verify(mod, w, free, [g, h], [2, 8]) == w["unit_images"]
    shifted = [x + 2 * y for x, y in zip(g, h)]
    with pytest.raises(InternalCheckError, match="exceed cyclic orders"):
        _verify(mod, w, free, [shifted, h], [4, 8])


@pytest.mark.parametrize("name", FINITE)
def test_compatibility_matches_quandle_comparison(name, modules):
    # the abstract verdict must agree with the concrete isomorphism test
    # between the arc-coset quandle and the characteristic subquandle
    assert compare_with_characteristic(modules[name]) == (
        COMPAT[name] == "yes"
    )


GATE_DIAGRAMS = Path(__file__).with_name("diagrams")
# the diagrams of the byte gate (`machine_output_large.json`); the other
# files there are regression inputs of the isomorphism search
GATE_NAMES = (
    "chain_2_2_2", "chain_2_2_2_2", "chain_2_3_pad30", "chain_2_6", "t2_13"
)


def _check_against_search(mod):
    """The search oracle's report on mod.  Where it decided, the
    criterion's verdict equals its, with a witness exactly on "yes"."""
    want = literal_characteristic_compatibility(mod)
    if want.status != "unknown":
        got = characteristic_compatibility(mod)
        assert got.status == want.status
        assert (got.witness is not None) == (want.status == "yes")
    return want


def test_characteristic_compatibility_agrees_with_the_search(modules):
    mods = dict(modules)
    for name in GATE_NAMES:
        text = (GATE_DIAGRAMS / f"{name}.json").read_text()
        mods[name] = build_link_module(parse_diagram(text))
    undecided = [
        name for name, mod in mods.items()
        if _check_against_search(mod).status == "unknown"
    ]
    # (Z/2)^4 exceeds the search's cap; the chain test below checks it
    assert undecided == ["chain_2_2_2_2"]


def test_characteristic_compatibility_agrees_on_random_braid_closures(
    perfbench_module,
):
    gen = perfbench_module("gen")
    decided = 0
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        word = [
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(n, 3 * n))
        ]
        mod = build_link_module(parse_diagram(json.dumps(gen.closure(word, n))))
        decided += _check_against_search(mod).status != "unknown"
    assert decided >= 40


def test_characteristic_compatibility_agrees_on_synthetic_markings():
    decided = []
    for seed in range(250):
        marking = random_marking(random.Random(seed))
        report = _check_against_search(marking)
        if report.status != "unknown":
            decided.append((marking, report))
    assert len(decided) >= 200
    # the sample reaches both conditions a shortcut could skip: mixed
    # 2-parts, where the flag condition bites, and a "yes" only after the
    # search exhausted the (mu-1)! orderings that drop component 0
    two_parts = [{t & -t for t in m.group.torsion if t % 2 == 0} for m, _ in decided]
    assert sum(len(parts) > 1 for parts in two_parts) >= 20
    assert any(
        r.status == "yes" and r.indexings_tried > factorial(m.mu - 1)
        for m, r in decided
    )


def _chain_module(gen, regions):
    word = gen.chain_word(list(regions), random.Random(1))
    text = gen.to_text(gen.closure(word, len(regions) + 1))
    return build_link_module(parse_diagram(text))


CAPPED_CHAINS = ((2, 2, 2, 2), (2, 2, 2, 4), (4, 4, 2, 2), (2, 2, 2, 2, 3), (2, 4, 8))


@pytest.mark.parametrize(
    "regions", CAPPED_CHAINS, ids=["_".join(map(str, r)) for r in CAPPED_CHAINS]
)
def test_compatibility_matches_quandle_comparison_on_chains(regions, perfbench_module):
    mod = _chain_module(perfbench_module("gen"), regions)
    # beyond the search's cap, the criterion decides and Q_A agrees
    assert literal_characteristic_compatibility(mod).status == "unknown"
    assert characteristic_compatibility(mod).status == "yes"
    assert compare_with_characteristic(mod)


def test_marking_comparisons(modules):
    match = "parity flags on M/2M match under a re-indexing"
    no_match = "parity flags on M/2M match under no re-indexing"
    expect = [
        ("hopf2", "sixthree", "equivalent", match),
        ("trefoil", "fig8", "not_equivalent", "module groups differ"),
        ("hopf2", "trefoil", "not_equivalent", "module groups differ"),
        ("fig5l", "figt", "not_equivalent", no_match),
        ("lprime", "ldprime", "not_equivalent", no_match),
    ]
    for a, b, status, reason in expect:
        result = marking_equivalent(modules[a], modules[b])
        assert result.status == status
        assert result.reason == reason
        mirrored = marking_equivalent(modules[b], modules[a])
        assert mirrored.status == status


@pytest.mark.parametrize("name", INFINITE)
def test_marking_self_comparison_finds_witness(name, modules):
    # determinant zero is decided on M/2M like any other; a diagram
    # compared with itself gets a re-indexing as its witness
    fresh = build_link_module(parse_diagram(fixture_text(name)))
    result = marking_equivalent(modules[name], fresh)
    assert result.status == "equivalent"
    assert result.witness is not None
    assert "component_map" in result.witness


@pytest.mark.parametrize("name", FINITE)
def test_marking_self_comparison_finite(name, modules):
    assert marking_equivalent(modules[name], modules[name]).status == "equivalent"




SAME_GROUP_CHAINS = (
    ((2, 2, 4), (2, 4, 2)),
    ((2, 2, 2, 4), (2, 4, 2, 2)),
    ((2, 2, 4, 4), (2, 4, 2, 4)),
    ((2, 2, 8), (2, 8, 2)),
)


@pytest.mark.parametrize(
    "first,second", SAME_GROUP_CHAINS, ids=[f"{a}-{b}" for a, b in SAME_GROUP_CHAINS]
)
def test_chains_with_one_group_and_different_markings(first, second, perfbench_module):
    gen = perfbench_module("gen")
    m1, m2 = _chain_module(gen, first), _chain_module(gen, second)
    assert m1.group == m2.group and m1.determinant != 0
    assert marking_equivalent(m1, m2).status == "not_equivalent"
    assert marking_equivalent(m2, m1).status == "not_equivalent"
    q1, q2 = build_arc_quandle(m1).quandle, build_arc_quandle(m2).quandle
    assert is_isomorphic(q1, q2) is None


def _agreement_sample(gen) -> list:
    """Seeded braid closures, half of them missing one letter so that they
    split and have determinant zero; every ordering of some twist chains;
    and split pairs of chains, whose groups repeat across orderings."""

    def closure(word, n):
        return build_link_module(parse_diagram(json.dumps(gen.closure(word, n))))

    mods = []
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        gap = rng.randint(1, n - 1) if seed % 2 else None
        letters = [i for i in range(1, n) if i != gap]
        word = [
            rng.choice((1, -1)) * rng.choice(letters)
            for _ in range(rng.randint(n, 2 * n + 2))
        ]
        mods.append(closure(word, n))
    for regions in ((2, 2, 4), (2, 4, 3), (2, 2, 3, 3), (2, 2, 8), (2, 6, 2)):
        for order in sorted(set(itertools.permutations(regions))):
            mods.append(_chain_module(gen, order))
    splits = ((2, 4), (2,)), ((2, 2), (4,)), ((2, 2), (2,)), ((2, 3), (2,))
    for left, right in splits + tuple((b, a) for a, b in splits):
        w1 = gen.chain_word(list(left), random.Random(1))
        w2 = gen.chain_word(list(right), random.Random(2))
        shift = len(left) + 1
        w2 = [x + shift if x > 0 else x - shift for x in w2]
        mods.append(closure(w1 + w2, len(left) + len(right) + 2))
    return mods


def test_marking_criterion_agrees_with_the_search_and_with_q_a(perfbench_module):
    # the literal search costs |pools|^k * mu! per pair: its torsion is
    # capped at 16, and Q_A's at 64
    by_group = defaultdict(list)
    for mod in _agreement_sample(perfbench_module("gen")):
        if prod(mod.group.torsion) <= (16 if mod.determinant == 0 else 64):
            by_group[mod.group].append(mod)
    seen = defaultdict(int)
    for mods in by_group.values():
        for m1, m2 in itertools.combinations_with_replacement(mods, 2):
            got = marking_equivalent(m1, m2)
            if m1.determinant == 0:
                want = literal_marking_search(m1, m2) is not None
            else:
                q1, q2 = build_arc_quandle(m1).quandle, build_arc_quandle(m2).quandle
                want = is_isomorphic(q1, q2) is not None
            assert got.status == ("equivalent" if want else "not_equivalent")
            seen[m1.determinant == 0, got.status] += 1
    assert seen[True, "not_equivalent"] >= 10 and seen[False, "not_equivalent"] >= 2
    assert seen[True, "equivalent"] >= 100 and seen[False, "equivalent"] >= 50


def test_equivalent_markings_imply_same_weight_kernel(modules):
    assert (
        weight_kernel(modules["hopf2"])
        == weight_kernel(modules["sixthree"])
    )


def test_reindexing_classes(modules):
    assert reindexing_sensitivity(modules["hopf2"]).classes == [(0, 1, 2)]
    assert reindexing_sensitivity(modules["sixthree"]).classes == [(0, 1, 2)]
    report = reindexing_sensitivity(modules["t22t24"])
    assert report.status == "ok"
    assert report.classes == [(0, 1), (2,)]
    assert reindexing_sensitivity(modules["lprime"]).status == "unknown"


# twist chains generated as the benchmark does: the closure of
# chain_word(regions, Random(1)) on len(regions) + 1 strands.  (4,10) and
# (2,20) have a singleton class beside a merged one; the rest have one class
CHAINS = ((4, 10), (2, 20), (3, 6), (3, 3, 2), (2, 2, 9))
CHAIN_NAMES = tuple("chain_" + "_".join(map(str, r)) for r in CHAINS)


@pytest.fixture(scope="module")
def chain_modules(perfbench_module):
    gen = perfbench_module("gen")
    out = {}
    for name, regions in zip(CHAIN_NAMES, CHAINS):
        word = gen.chain_word(list(regions), random.Random(1))
        text = gen.to_text(gen.closure(word, len(regions) + 1))
        out[name] = build_link_module(parse_diagram(text))
    return out


@pytest.mark.parametrize("name", FINITE + CHAIN_NAMES)
def test_reindexing_classes_match_every_automorphism(name, modules, chain_modules):
    mod = modules[name] if name in modules else chain_modules[name]
    qa = build_arc_quandle(mod)
    orbs = orbits(qa.quandle)
    orbit_of = {x: oi for oi, orb in enumerate(orbs) for x in orb}
    component = orbit_component(qa)
    classes = UnionFind(mod.mu)
    for f in automorphisms(qa.quandle):
        for oi, orb in enumerate(orbs):
            classes.union(component[oi], component[orbit_of[f[orb[0]]]])
    assert reindexing_sensitivity(mod) == ReindexingReport(
        "ok", [tuple(c) for c in classes.classes()]
    )


def _no_search(*args, **kwargs):
    raise AssertionError("the coset quandle was built or searched")


def test_reindexing_skips_the_automorphism_search_for_knots(modules, monkeypatch):
    monkeypatch.setattr(quandle, "_iso_search", _no_search)
    monkeypatch.setattr(arcquandle, "build_arc_quandle", _no_search)
    monkeypatch.setattr(arcquandle, "_flag_reindexing", _no_search)
    knots = [mod for mod in modules.values() if mod.mu == 1]
    assert len(knots) == 2
    for mod in knots:
        assert reindexing_sensitivity(mod) == ReindexingReport("ok", [(0,)])


@pytest.mark.parametrize("name", ("hopf2", "sixthree", "t22t24") + CHAIN_NAMES)
def test_reindexing_runs_one_search_per_unjoined_pair(
    name, modules, chain_modules, monkeypatch
):
    # one pinned flag search per pair of components not yet joined, and no
    # coset quandle built or searched
    mod = modules[name] if name in modules else chain_modules[name]
    searched = []
    real_search = arcquandle._flag_reindexing

    def counted(src, dst, pin=None):
        assert src is dst and pin is not None
        out = real_search(src, dst, pin)
        searched.append((pin, out is not None))
        return out

    monkeypatch.setattr(quandle, "_iso_search", _no_search)
    monkeypatch.setattr(arcquandle, "build_arc_quandle", _no_search)
    monkeypatch.setattr(arcquandle, "_flag_reindexing", counted)
    report = reindexing_sensitivity(mod)
    assert mod.mu >= 2 and report.status == "ok"
    assert sorted(x for c in report.classes for x in c) == list(range(mod.mu))
    assert 1 <= len(searched) <= mod.mu * (mod.mu - 1) // 2
    assert len({pin for pin, _ in searched}) == len(searched)
    # a pin is found iff its components share a class, and every tau found
    # joins at least two classes: no pair already joined is searched
    class_of = {x: c for c, cls in enumerate(report.classes) for x in cls}
    for (i, j), found in searched:
        assert found == (class_of[i] == class_of[j])
    assert sum(found for _, found in searched) <= mod.mu - len(report.classes)


def _seeded_small_links(gen) -> list:
    """Seeded braid closures and twist chains with det != 0, mu >= 2 and
    |Q_A| <= 60."""
    mods = []
    for seed in range(200):
        rng = random.Random(seed)
        if seed % 2:
            n = rng.randint(3, 6)
            word = [
                rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n, 3 * n))
            ]
            text = json.dumps(gen.closure(word, n))
        else:
            regions = [rng.choice((2, 2, 3, 4, 4, 6, 8)) for _ in range(rng.randint(1, 5))]
            word = gen.chain_word(regions, random.Random(1))
            text = gen.to_text(gen.closure(word, len(regions) + 1))
        mod = build_link_module(parse_diagram(text))
        size = mod.mu * mod.determinant >> (mod.mu - 1)
        if mod.mu >= 2 and 0 < size <= 60:
            mods.append(mod)
    return mods


def test_flag_classes_equal_the_automorphism_search(
    modules, chain_modules, perfbench_module
):
    mods = [m for m in modules.values() if m.determinant and m.mu >= 2]
    mods += [
        build_link_module(parse_diagram((GATE_DIAGRAMS / f"{n}.json").read_text()))
        for n in GATE_NAMES
    ]
    mods += list(chain_modules.values())
    mods += _seeded_small_links(perfbench_module("gen"))
    split = 0
    for mod in mods:
        qa = build_arc_quandle(mod)
        reps = [qa.component_of.index(c) for c in range(mod.mu)]
        want = [
            tuple(qa.component_of[x] for x in cls)
            for cls in automorphism_classes(qa.quandle, reps)
        ]
        assert reindexing_sensitivity(mod) == ReindexingReport("ok", want)
        split += len(want) > 1
    assert len(mods) >= 120 and split >= 30


def _literal_flag(mod) -> dict[int, set[int]]:
    """P_a by 2-part 2^a of the torsion: the parity bitmasks of the
    torsion elements of order dividing 2^a, listed."""
    parts = {t & -t for t in mod.group.torsion if t % 2 == 0}
    out: dict[int, set[int]] = {b: set() for b in parts}
    for t in torsion_elements(mod.group):
        bits = sum(v << i for i, v in enumerate(mod.parity(t)))
        for b in parts:
            if t.smul(b).is_zero():
                out[b].add(bits)
    return out


def _mapped(level: set[int], tau) -> set[int]:
    return {sum(1 << t for i, t in enumerate(tau) if v >> i & 1) for v in level}


def test_marking_maps_are_the_least_that_keep_every_flag_level(perfbench_module):
    # the witness is the first permutation, in itertools order, that maps
    # each listed level onto the other's; with none, "not_equivalent"
    by_group = defaultdict(list)
    for mod in _agreement_sample(perfbench_module("gen")):
        if prod(mod.group.torsion) <= 128 and mod.mu <= 5:
            by_group[mod.group].append(mod)
    seen = defaultdict(int)
    for mods in by_group.values():
        for m1, m2 in itertools.combinations_with_replacement(mods[:6], 2):
            f1, f2 = _literal_flag(m1), _literal_flag(m2)
            want = next(
                (
                    list(tau)
                    for tau in itertools.permutations(range(m1.mu))
                    if all(_mapped(f1[b], tau) == f2[b] for b in f1)
                ),
                None,
            )
            got = marking_equivalent(m1, m2)
            assert got.status == ("not_equivalent" if want is None else "equivalent")
            assert (got.witness or {}).get("component_map") == want
            seen[got.status] += 1
            seen["moved"] += want is not None and want != sorted(want)
    assert seen["equivalent"] >= 250 and seen["not_equivalent"] >= 15
    assert seen["moved"] >= 30


def test_report_of_chain_4_4_4_4_is_bounded(capsys):
    # Q_A has 80 elements in five orbits of 16; a search over Aut(Q_A)
    # was still running after 90 s
    path = GATE_DIAGRAMS / "chain_4_4_4_4.json"
    with time_limit(2):
        code = main(["--format", "machine", "--no-imq", "report", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["component_classes"] == [
        [0, 1, 2, 3, 4]
    ]


@pytest.mark.parametrize("mu", (8, 9, 10, 16))
def test_marking_of_long_chains_is_bounded(mu, perfbench_module):
    # mu! re-indexings are 40320 to 3628800 at mu <= 10.  At mu = 16 the
    # flag checks alone leave a "not_equivalent" search of seconds; the
    # colours cut it to milliseconds
    gen = perfbench_module("gen")
    last = (2,) * (mu - 2) + (4,)
    half = (mu - 2) // 2
    middle = last[:half] + (4,) + last[half:-1]
    m1, m2, m3 = (_chain_module(gen, r) for r in (last, middle, last[::-1]))
    assert m1.group == m2.group == m3.group and m1.mu == mu
    with time_limit(0.5):
        same = marking_equivalent(m1, m3)
    with time_limit(0.5):
        different = marking_equivalent(m1, m2)
    assert same.status == "equivalent" and different.status == "not_equivalent"


def test_classes_of_chain_2_7_are_bounded(perfbench_module):
    mod = _chain_module(perfbench_module("gen"), (2,) * 7)
    with time_limit(0.5):
        report = reindexing_sensitivity(mod)
    assert report == ReindexingReport("ok", [tuple(range(8))])


def _multi_factor_closures(gen) -> list:
    """Seeded twist chains and braid closures with det != 0, |Q_A| <= 120
    and two or more invariant factors, at most two of each torsion."""
    mods, seen = [], Counter()
    rng = random.Random(31)
    for seed in range(400):
        if seed % 2:
            n = rng.randint(3, 5)
            word = [
                rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n, 3 * n))
            ]
            text = json.dumps(gen.closure(word, n))
        else:
            regions = [rng.randint(2, 9) for _ in range(rng.randint(2, 4))]
            word = gen.chain_word(regions, random.Random(1))
            text = gen.to_text(gen.closure(word, len(regions) + 1))
        mod = build_link_module(parse_diagram(text))
        torsion = mod.group.torsion
        size = mod.mu * mod.determinant >> (mod.mu - 1)
        if len(torsion) >= 2 and 0 < size <= 120 and seen[torsion] < 2:
            seen[torsion] += 1
            mods.append(mod)
    return mods


@pytest.mark.parametrize(
    "name", FINITE + CHAIN_NAMES + GATE_NAMES + ("unknot", "multi_factor")
)
def test_coset_table_matches_literal_oracle(
    name, modules, chain_modules, perfbench_module
):
    # the unknot's K is trivial, with no invariant factor; the seeded
    # closures have two or more, and K two or more cyclic factors on some
    if name in modules:
        mods = [modules[name]]
    elif name in chain_modules:
        mods = [chain_modules[name]]
    elif name == "unknot":
        mods = [build_link_module(parse_diagram(UNKNOT))]
        assert mods[0].group.torsion == ()
    elif name == "multi_factor":
        mods = _multi_factor_closures(perfbench_module("gen"))
        # K's factor at t is Z/h, h = t / 2 for an even t and t for an odd one
        multi = [
            m for m in mods
            if sum(t // (2 - t % 2) > 1 for t in m.group.torsion) >= 2
        ]
        assert len(mods) >= 40 and len(multi) >= 10
        assert any(len({t % 2 for t in m.group.torsion}) == 2 for m in multi)
        assert any(m.mu == 1 for m in multi) and any(m.mu >= 3 for m in multi)
        assert any(len(m.group.torsion) >= 3 for m in mods)
    else:
        text = (GATE_DIAGRAMS / f"{name}.json").read_text()
        mods = [build_link_module(parse_diagram(text))]
    for mod in mods:
        qa = build_arc_quandle(mod)
        assert [list(row) for row in qa.quandle.op] == literal_coset_table(qa)


def _coset_check_modules(gen) -> list:
    """Fresh modules, det != 0 and |Q_A| <= 256: the fixtures, the
    diagrams in tests/diagrams/, and 40 seeded twist chains of one to
    three regions (mu <= 4), each drawn plain, R2-padded, and R2-padded
    then redrawn."""
    texts = [fixture_text(name) for name in FIXTURE_NAMES]
    texts += [path.read_text() for path in sorted(GATE_DIAGRAMS.glob("*.json"))]
    for seed in range(40):
        rng = random.Random(seed)
        regions = [rng.choice((2, 3, 4, 5, 6, 8)) for _ in range(rng.randint(1, 3))]
        strands = len(regions) + 1
        word = gen.chain_word(regions, rng)
        padded = gen.pad_r2(word, strands, len(word) + 8, rng)
        obj = gen.closure(padded, strands)
        for drawn in (gen.closure(word, strands), obj, gen.redraw(obj, rng)):
            texts.append(gen.to_text(drawn))
    mods = [build_link_module(parse_diagram(text)) for text in texts]
    return [
        m
        for m in mods
        if m.determinant
        and prod(m.group.torsion) <= LISTING_CAP
        and m.mu * abs(m.determinant) >> (m.mu - 1) <= 256
    ]


def _coset_step(mod) -> tuple[int, list[int]] | None:
    """The size and orbit sizes that a report reads off the cosets step,
    after the table and its generator check are built too; None when a
    check fails."""
    try:
        qa = build_arc_quandle(mod)
        qa.quandle
    except InternalCheckError:
        return None
    return len(qa.elements), [len(qa.kernel)] * mod.mu


def test_coset_checks_equal_the_literal_table_checks(perfbench_module):
    mus = Counter()
    for mod in _coset_check_modules(perfbench_module("gen")):
        want = literal_coset_checks(mod)
        assert want is not None
        assert _coset_step(mod) == want
        # orbit i is {w = 1, p = e_i}
        qa = build_arc_quandle(mod)
        unit = [tuple(int(j == i) for j in range(mod.mu)) for i in range(mod.mu)]
        assert all(
            mod.parity(mod.group.element(e)) == unit[i]
            for e, i in zip(qa.elements, qa.component_of)
        )
        mus[mod.mu] += 1
    assert sorted(mus) == [1, 2, 3, 4, 5, 11] and sum(mus.values()) >= 120


def _shift_one(mod, kernel):
    # no subgroup: 0 is moved off by a free unit.  A one-element K moved
    # so gives a translate of Q_A, which the table checks accept
    if len(kernel) == 1:
        return kernel
    return [(kernel[0][0] + 1, *kernel[0][1:])] + kernel[1:]


def _whole_torsion(mod, kernel):
    # a subgroup holding every difference of representatives
    return [t.coords for t in torsion_elements(mod.group)]


def _doubled(mod, kernel):
    # 2K, a proper subgroup where T has an even part
    group = mod.group
    return sorted({group.element(k).smul(2).coords for k in kernel})


@pytest.mark.parametrize("corrupt", (_shift_one, _whole_torsion, _doubled))
def test_coset_checks_reject_what_the_literal_table_checks_reject(
    corrupt, monkeypatch, perfbench_module
):
    real = arcquandle.marking_kernel
    mods = [
        m for m in _coset_check_modules(perfbench_module("gen"))
        if set(corrupt(m, real(m))) != set(real(m))
    ]
    monkeypatch.setattr(arcquandle, "marking_kernel", lambda m: corrupt(m, real(m)))
    for mod in mods:
        assert literal_coset_checks(mod) is None
        assert _coset_step(mod) is None
    assert len(mods) >= 40


def test_marking_kernel_equals_the_literal_listing(perfbench_module):
    mods = _coset_check_modules(perfbench_module("gen"))
    for mod in mods:
        assert marking_kernel(mod) == literal_marking_kernel(mod)
    # the fixtures and tests/diagrams/ are 22 diagrams: 100 are seeded
    assert len(mods) >= 122


def test_marking_kernel_rejects_dependent_even_torsion_parities(perfbench_module):
    # two even torsion units e_c, e_c' of one parity: e_c + e_c' lies in
    # ker p but not in 2T
    mods = [
        m for m in _coset_check_modules(perfbench_module("gen"))
        if sum(t % 2 == 0 for t in m.group.torsion) >= 2
    ]
    for mod in mods:
        r = mod.group.free_rank
        c, c2 = _mod2_bits(mod)[0][r : r + 2]
        masks = list(mod._parity_masks)
        masks[c2] = masks[c]
        mod._parity_masks = tuple(masks)
        for listing in (marking_kernel, literal_marking_kernel):
            with pytest.raises(InternalCheckError, match="differs from doubled torsion"):
                listing(mod)
    assert len(mods) >= 40


def test_t22t24_distinguished_component_has_small_doubling_fiber(arc_quandles):
    # the component no automorphism can move is the one whose orbit
    # elements have only two solutions of 2u = 2x in the module
    qa = arc_quandles["t22t24"]
    elements = [qa.group.element(e) for e in qa.elements]
    fiber = {
        i: sum(1 for u in elements if u + u == x + x)
        for i, x in enumerate(elements)
    }
    for orbit in orbits(qa.quandle):
        comp = qa.component_of[orbit[0]]
        sizes = {fiber[i] for i in orbit}
        assert sizes == ({2} if comp == 2 else {4})


def test_arc_quandles_of_equivalent_diagrams_isomorphic(arc_quandles):
    assert (
        is_isomorphic(arc_quandles["hopf2"].quandle, arc_quandles["sixthree"].quandle)
        is not None
    )
    assert (
        is_isomorphic(arc_quandles["trefoil"].quandle, arc_quandles["fig8"].quandle)
        is None
    )


def _invertible_gf2_matrices() -> list[list[list[int]]]:
    """Every invertible 0/1 matrix up to 3 x 3, then 40 seeded ones of each
    size 4 to 6."""
    out = []
    for m in range(1, 4):
        for bits in itertools.product((0, 1), repeat=m * m):
            rows = [list(bits[i * m : (i + 1) * m]) for i in range(m)]
            if int_det(rows) % 2:
                out.append(rows)
    rng = random.Random(25)
    for m in range(4, 7):
        found = 0
        while found < 40:
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
            if int_det(rows) % 2:
                out.append(rows)
                found += 1
    return out


@pytest.mark.parametrize(
    "lift",
    (arcquandle._gf2_unimodular_lift, replay_unimodular_lift),
    ids=("smith", "replay"),
)
def test_unimodular_lift_is_congruent_mod_2(lift):
    mats = _invertible_gf2_matrices()
    assert sum(len(a) <= 3 for a in mats) == 175
    assert lift([]) == []
    for a in mats:
        b = lift(a)
        assert abs(int_det(b)) == 1
        assert [[x % 2 for x in row] for row in b] == a


def test_witness_lifts_no_empty_block(modules, monkeypatch, perfbench_module):
    # at free rank 1, which every nonzero determinant has, the block of the
    # free generators past the first is 0 x 0, and no lift is taken of it
    real = arcquandle._gf2_unimodular_lift
    sizes = Counter()

    def counted(rows):
        sizes[len(rows)] += 1
        return real(rows)

    monkeypatch.setattr(arcquandle, "_gf2_unimodular_lift", counted)
    yes = Counter()
    for mod in [*modules.values(), *_seeded_flag_modules(perfbench_module("gen"))]:
        if characteristic_compatibility(mod).status == "yes":
            yes[mod.group.free_rank] += 1
    assert sizes[0] == 0 and sum(sizes.values()) == yes.total() - yes[1]
    assert yes[1] >= 50 and yes.total() - yes[1] >= 5


def _seeded_flag_modules(gen) -> list:
    """Seeded twist chains of one to five regions, even ones among them,
    and split pairs of chains, whose determinant is zero; mu <= 6."""
    mods = []
    for seed in range(150):
        rng = random.Random(seed)
        regions = [rng.choice((2, 3, 4, 6, 8)) for _ in range(rng.randint(1, 5))]
        word = gen.chain_word(regions, rng)
        n = len(regions) + 1
        if seed % 3 == 0:
            right = [rng.choice((2, 3, 4)) for _ in range(rng.randint(1, 2))]
            word += [x + n if x > 0 else x - n for x in gen.chain_word(right, rng)]
            n += len(right) + 1
        mod = build_link_module(parse_diagram(json.dumps(gen.closure(word, n))))
        if mod.mu <= 6:
            mods.append(mod)
    return mods


def _keeping_the_flag(src, dst, mu: int) -> list[list[int]]:
    """Every tau in S_mu, in lexicographic order, that maps each level of
    the parity flag src into the same level of dst, hence onto it, as the
    levels have equal dimensions."""
    (levels1, _), (levels2, _) = src, dst
    assert [len(l) for l in levels1] == [len(l) for l in levels2]
    return [
        list(tau)
        for tau in itertools.permutations(range(mu))
        if all(
            not _gf2_reduce(list(level2), v)
            for level1, level2 in zip(levels1, levels2)
            for v in _mapped(set(level1), tau)
        )
    ]


def test_flag_reindexing_is_the_least_tau_of_the_brute_force(
    modules, perfbench_module
):
    # unpinned, the least tau that keeps every level; pinned to (i, j), the
    # least with tau(i) = j; None when there is none.  Every module against
    # itself, and every pair with one group
    mods = list(modules.values())
    mods += [
        build_link_module(parse_diagram(path.read_text()))
        for path in sorted(GATE_DIAGRAMS.glob("*.json"))
    ]
    mods = [m for m in mods if m.mu <= 6]
    mods += _seeded_flag_modules(perfbench_module("gen"))
    by_group = defaultdict(list)
    for mod in mods:
        by_group[mod.group, mod.mu].append(mod)
    seen = Counter()
    for group_mods in by_group.values():
        for m1, m2 in itertools.combinations_with_replacement(group_mods[:4], 2):
            src, dst, mu = arcquandle._parity_flag(m1), arcquandle._parity_flag(m2), m1.mu
            keeping = _keeping_the_flag(src, dst, mu)
            assert arcquandle._flag_reindexing(src, dst) == (keeping or [None])[0]
            for i, j in itertools.product(range(mu), repeat=2):
                want = next((tau for tau in keeping if tau[i] == j), None)
                assert arcquandle._flag_reindexing(src, dst, (i, j)) == want
                seen["pinned", want is not None] += 1
            seen["split"] += m1.determinant == 0
            seen["moved"] += bool(keeping) and keeping[0] != sorted(keeping[0])
            seen["none"] += not keeping
    assert len(mods) >= 150 and max(m.mu for m in mods) == 6
    assert seen["split"] >= 40 and seen["moved"] >= 10 and seen["none"] >= 10
    assert seen["pinned", True] >= 1500 and seen["pinned", False] >= 1000
