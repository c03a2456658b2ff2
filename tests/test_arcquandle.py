"""Coset quandle on arc classes, characteristic compatibility, markings."""

from __future__ import annotations

import json
import random
from math import factorial
from pathlib import Path

import pytest

from imqlink import arcquandle, quandle
from imqlink.abelian import subgroup_type
from imqlink.arcquandle import (
    ReindexingReport,
    build_arc_quandle,
    characteristic_compatibility,
    marking_equivalent,
    marking_kernel,
    reindexing_sensitivity,
)
from imqlink.diagram import parse_diagram
from imqlink.fixtures import fixture_text
from imqlink.linkmodule import (
    InternalCheckError,
    build_link_module,
    link_determinant,
    weight_kernel,
)
from imqlink.quandle import (
    UnionFind,
    automorphisms,
    check_axioms,
    is_isomorphic,
    is_semiregular,
    orbits,
)
from oracles import (
    compare_with_characteristic,
    displacement_matches_kernel,
    literal_characteristic_compatibility,
    literal_coset_table,
    orbit_component,
    random_marking,
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
def test_orbits_are_components(name, arc_quandles):
    qa = arc_quandles[name]
    mapping = orbit_component(qa)
    mu = qa.module.mu
    assert sorted(set(mapping.values())) == list(range(mu))
    for i in range(qa.quandle.n):
        comp, elt = qa.quandle.labels[i]
        assert qa.component_of[i] == comp
        assert qa.module.parity(elt)[comp] == 1


@pytest.mark.parametrize("name", ("trefoil", "fig8", "t22t24"))
def test_coset_table_closure_check_fires(name, diagrams, monkeypatch):
    # shifting one kernel element by a free unit makes the sets the table
    # is built on cosets of no subgroup, so some 2y - x falls outside them
    real = arcquandle.marking_kernel

    def shifted(mod):
        kernel = real(mod)
        return [kernel[0] + mod.group.unit(0)] + kernel[1:]

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
    kernel = marking_kernel(mod)
    doubled = {t + t for t in mod.group.torsion_elements()}
    assert set(kernel) == doubled
    for k in kernel:
        assert mod.weight(k) == 0
        assert all(b == 0 for b in mod.parity(k))


@pytest.mark.parametrize("name", FINITE)
def test_displacement_matches_kernel(name, arc_quandles):
    report = displacement_matches_kernel(arc_quandles[name])
    assert report.ok
    qa = arc_quandles[name]
    assert report.dis_group == subgroup_type(qa.module.group, qa.kernel)


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


@pytest.mark.parametrize("name", FINITE)
def test_compatibility_matches_quandle_comparison(name, modules):
    # the abstract verdict must agree with the concrete isomorphism test
    # between the arc-coset quandle and the characteristic subquandle
    assert compare_with_characteristic(modules[name]) == (
        COMPAT[name] == "yes"
    )


GATE_DIAGRAMS = Path(__file__).with_name("diagrams")
GATE_NAMES = tuple(sorted(p.stem for p in GATE_DIAGRAMS.glob("*.json")))


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


CAPPED_CHAINS = ((2, 2, 2, 2), (2, 2, 2, 4), (4, 4, 2, 2), (2, 2, 2, 2, 3), (2, 4, 8))


@pytest.mark.parametrize(
    "regions", CAPPED_CHAINS, ids=["_".join(map(str, r)) for r in CAPPED_CHAINS]
)
def test_compatibility_matches_quandle_comparison_on_chains(regions, perfbench_module):
    gen = perfbench_module("gen")
    word = gen.chain_word(list(regions), random.Random(1))
    text = gen.to_text(gen.closure(word, len(regions) + 1))
    mod = build_link_module(parse_diagram(text))
    # beyond the search's cap, the criterion decides and Q_A agrees
    assert literal_characteristic_compatibility(mod).status == "unknown"
    assert characteristic_compatibility(mod).status == "yes"
    assert compare_with_characteristic(mod)


def test_marking_comparisons(modules):
    expect = [
        ("hopf2", "sixthree", "equivalent", "arc-coset quandles isomorphic"),
        ("trefoil", "fig8", "not_equivalent", "module groups differ"),
        ("hopf2", "trefoil", "not_equivalent", "module groups differ"),
        ("fig5l", "figt", "not_equivalent", "torsion parity profiles differ"),
        ("lprime", "ldprime", "not_equivalent", "torsion parity profiles differ"),
    ]
    for a, b, status, reason in expect:
        result = marking_equivalent(modules[a], modules[b])
        assert result.status == status
        assert result.reason == reason
        mirrored = marking_equivalent(modules[b], modules[a])
        assert mirrored.status == status


@pytest.mark.parametrize("name", INFINITE)
def test_marking_self_comparison_finds_witness(name, modules):
    # determinant-zero pairs fall back to the explicit bounded search,
    # which must find a witness when comparing a diagram with itself
    fresh = build_link_module(parse_diagram(fixture_text(name)))
    result = marking_equivalent(modules[name], fresh)
    assert result.status == "equivalent"
    assert result.witness is not None
    assert "component_map" in result.witness


@pytest.mark.parametrize("name", FINITE)
def test_marking_self_comparison_finite(name, modules):
    assert marking_equivalent(modules[name], modules[name]).status == "equivalent"


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


def test_reindexing_skips_the_automorphism_search_for_knots(modules, monkeypatch):
    def no_search(q, points):
        raise AssertionError("automorphism search run for a knot")

    monkeypatch.setattr(arcquandle, "automorphism_classes", no_search)
    knots = [mod for mod in modules.values() if mod.mu == 1]
    assert len(knots) == 2
    for mod in knots:
        assert reindexing_sensitivity(mod) == ReindexingReport("ok", [(0,)])


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


@pytest.mark.parametrize("name", ("hopf2", "sixthree", "t22t24") + CHAIN_NAMES)
def test_reindexing_runs_one_search_per_unjoined_pair(
    name, modules, chain_modules, monkeypatch
):
    mod = modules[name] if name in modules else chain_modules[name]
    found = []
    real_search = quandle._iso_search

    def counted(q1, q2, candidates, want_all):
        assert q1 is q2 and not want_all
        out = real_search(q1, q2, candidates, want_all)
        found.append(bool(out))
        return out

    def no_listing(q):
        raise AssertionError("every automorphism listed")

    monkeypatch.setattr(quandle, "_iso_search", counted)
    monkeypatch.setattr(quandle, "automorphisms", no_listing)
    report = reindexing_sensitivity(mod)
    assert mod.mu >= 2 and report.status == "ok"
    assert 1 <= len(found) <= mod.mu * (mod.mu - 1) // 2
    # every witness joins two classes: no pair already joined is searched
    assert sum(found) == mod.mu - len(report.classes)


@pytest.mark.parametrize("name", FINITE + CHAIN_NAMES + GATE_NAMES)
def test_coset_table_matches_literal_oracle(name, modules, chain_modules):
    if name in modules:
        mod = modules[name]
    elif name in chain_modules:
        mod = chain_modules[name]
    else:
        text = (GATE_DIAGRAMS / f"{name}.json").read_text()
        mod = build_link_module(parse_diagram(text))
    qa = build_arc_quandle(mod)
    assert [list(row) for row in qa.quandle.op] == literal_coset_table(qa)
    assert [qa.quandle.labels[i][1] for i in range(qa.quandle.n)] == qa.elements


def test_t22t24_distinguished_component_has_small_doubling_fiber(arc_quandles):
    # the component no automorphism can move is the one whose orbit
    # elements have only two solutions of 2u = 2x in the module
    qa = arc_quandles["t22t24"]
    elements = [qa.quandle.labels[i][1] for i in range(qa.quandle.n)]
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
