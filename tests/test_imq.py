"""The presented quandle, read off the arc-coset quandle for one or two
components and listed in the displacement mesh otherwise, against the
saturation oracle; its size bounds, and the surjection onto the arc-class
quandle."""

import json
import random
from pathlib import Path

import pytest

from conftest import FINITE
from oracles import (
    Saturator,
    build_partition_quandle,
    literal_axiom_violations,
    literal_displacement_group,
    literal_group_from_quandle,
    longitude_fixes_orbit,
    open_deduction,
    saturate,
    stated_element_order,
)

from imqlink import imq, linkmodule
from imqlink.arcquandle import build_arc_quandle
from imqlink.diagram import make_even, parse_diagram
from imqlink.imq import (
    check_size_bounds,
    compute_imq,
    surjection_to_arc_quandle,
)
from imqlink.linkmodule import build_link_module, link_determinant, weight_kernel
from imqlink.quandle import (
    CapExceeded,
    FiniteQuandle,
    check_axioms,
    core_quandle,
    displacement_group,
    group_from_quandle,
    is_isomorphic,
    is_semiregular,
    orbits,
    parse_quandle,
    serialize_quandle,
)

RECORDED_LARGE = Path(__file__).with_name("machine_output_large.json")


def _recorded_table(name):
    return json.loads(RECORDED_LARGE.read_text())[name]["table"]


def _large_module(name):
    text = (RECORDED_LARGE.parent / "diagrams" / f"{name}.json").read_text()
    return build_link_module(parse_diagram(text))


def _assert_same(res, want, why=None):
    assert serialize_quandle(res.quandle) == serialize_quandle(want.quandle), why
    assert res.arc_element == want.arc_element, why
    assert res.quandle.labels == want.quandle.labels, why


EXPECTED = {
    "hopf2": (6, [2, 2, 2]),
    "sixthree": (6, [2, 2, 2]),
    "trefoil": (3, [3]),
    "fig8": (5, [5]),
    "t22t24": (12, [4, 4, 4]),
}

# standalone two-component twist diagrams, two and four crossings
HOPF_TEXT = """
{"arcs": ["a", "b"],
 "crossings": [["a", "b", "b"], ["b", "a", "a"]],
 "components": [{"arcs": ["a"], "crossings": [1]},
                {"arcs": ["b"], "crossings": [0]}]}
"""
T24_TEXT = """
{"arcs": ["u1", "u2", "v1", "v2"],
 "crossings": [["u1", "v1", "v2"], ["v2", "u1", "u2"],
               ["u2", "v2", "v1"], ["v1", "u2", "u1"]],
 "components": [{"arcs": ["u1", "u2"], "crossings": [1, 3]},
                {"arcs": ["v1", "v2"], "crossings": [0, 2]}]}
"""


@pytest.mark.parametrize("name", FINITE)
def test_sizes_and_orbits(name, imq_results):
    q = imq_results[name].quandle
    size, orbit_sizes = EXPECTED[name]
    assert q.n == size
    assert sorted(len(o) for o in orbits(q)) == orbit_sizes


def test_hopf2_middle_component_acts_trivially(imq_results, diagrams):
    res = imq_results["hopf2"]
    d = diagrams["hopf2"]
    identity = tuple(range(res.quandle.n))
    by_name = {name: res.arc_element[i] for i, name in enumerate(d.arc_names)}
    # the two elements over the shared component translate trivially,
    # and nothing else does
    trivial = {e for e in range(res.quandle.n) if res.quandle.translation(e) == identity}
    assert by_name["b"] != by_name["b'"]
    assert trivial == {by_name["b"], by_name["b'"]}


def test_sixthree_has_no_trivial_translation(imq_results):
    q = imq_results["sixthree"].quandle
    identity = tuple(range(q.n))
    assert all(q.translation(e) != identity for e in range(q.n))


def test_sixthree_matches_partition_model(imq_results):
    # three pairs; each translation swaps the two other pairs
    swap = {
        0: (0, 1, 3, 2, 5, 4),
        1: (0, 1, 3, 2, 5, 4),
        2: (1, 0, 2, 3, 5, 4),
        3: (1, 0, 2, 3, 5, 4),
        4: (1, 0, 3, 2, 4, 5),
        5: (1, 0, 3, 2, 4, 5),
    }
    model = build_partition_quandle(6, [(0, 1), (2, 3), (4, 5)], swap)
    assert is_isomorphic(imq_results["sixthree"].quandle, model) is not None


def test_hopf2_and_sixthree_not_isomorphic(imq_results):
    # same size, same orbit profile, same module; separated only by the
    # existence of a trivial translation
    assert (
        is_isomorphic(imq_results["hopf2"].quandle, imq_results["sixthree"].quandle)
        is None
    )


@pytest.mark.parametrize("name", ("trefoil", "fig8"))
def test_knot_quandle_is_core_of_kernel(name, imq_results, modules):
    q = imq_results[name].quandle
    core = core_quandle(weight_kernel(modules[name]))
    assert is_isomorphic(q, core) is not None
    assert is_semiregular(q)


@pytest.mark.parametrize("name", FINITE)
def test_surjection_fibers_are_uniform(name, imq_results, arc_quandles):
    res = imq_results[name]
    qa = arc_quandles[name]
    f = surjection_to_arc_quandle(res, qa)
    sizes = {f.count(v) for v in set(f)}
    assert sizes == {res.quandle.n // qa.quandle.n}


@pytest.mark.parametrize("name", ("hopf2", "t22t24"))
def test_surjection_two_to_one(name, imq_results, arc_quandles):
    res = imq_results[name]
    qa = arc_quandles[name]
    f = surjection_to_arc_quandle(res, qa)
    assert res.quandle.n == 2 * qa.quandle.n
    assert all(f.count(v) == 2 for v in set(f))


@pytest.mark.parametrize(
    "text,det", [(HOPF_TEXT, 2), (T24_TEXT, 4)], ids=["hopf", "t24"]
)
def test_two_component_surjection_is_bijective(text, det):
    d = parse_diagram(text)
    assert d.mu == 2
    mod = build_link_module(d)
    assert link_determinant(mod) == det
    res = compute_imq(mod)
    qa = build_arc_quandle(mod)
    f = surjection_to_arc_quandle(res, qa)
    assert res.quandle.n == qa.quandle.n == det
    assert sorted(f) == list(range(qa.quandle.n))


@pytest.mark.parametrize("name", ("trefoil", "fig8"))
def test_single_component_surjection_is_bijective(name, imq_results, arc_quandles):
    f = surjection_to_arc_quandle(imq_results[name], arc_quandles[name])
    assert sorted(f) == list(range(arc_quandles[name].quandle.n))


@pytest.mark.parametrize("name", FINITE)
def test_size_bounds(name, imq_results, modules, diagrams):
    det = link_determinant(modules[name])
    assert check_size_bounds(imq_results[name].quandle, det, diagrams[name].mu)


def test_size_bounds_rejects_det_zero(imq_results):
    with pytest.raises(ValueError, match="nonzero"):
        check_size_bounds(imq_results["trefoil"].quandle, 0, 1)


@pytest.mark.parametrize("name", ("trefoil", "fig8"))
def test_knot_size_equals_determinant(name, imq_results, modules):
    assert imq_results[name].quandle.n == link_determinant(modules[name])


@pytest.mark.parametrize("name", FINITE)
def test_group_reconstruction(name, imq_results, modules):
    # presenting an abelian group by the quandle operation recovers the
    # link module exactly
    assert group_from_quandle(imq_results[name].quandle) == modules[name].group


@pytest.mark.parametrize("name", FINITE)
def test_displacements_commute_and_act_orbitwise(name, imq_results):
    q = imq_results[name].quandle
    perms, group = literal_displacement_group(q)  # raises if not abelian
    assert displacement_group(q) == set(perms)
    for orb in orbits(q):
        assert group.order() % len(orb) == 0
        stabilizer = [p for p in perms if all(p[x] == x for x in orb)]
        assert len(stabilizer) == group.order() // len(orb)


DIS_GROUPS = {
    "hopf2": (0, (2, 2)),
    "sixthree": (0, (2, 2)),
    "trefoil": (0, (3,)),
    "fig8": (0, (5,)),
    "t22t24": (0, (2, 4)),
}


@pytest.mark.parametrize("name", FINITE)
def test_displacement_group_values(name, imq_results):
    q = imq_results[name].quandle
    perms, group = literal_displacement_group(q)
    assert displacement_group(q) == set(perms)
    rank, torsion = DIS_GROUPS[name]
    assert group.free_rank == rank
    assert group.torsion == torsion


@pytest.mark.parametrize("name", FINITE)
def test_seeded_runs_agree_up_to_isomorphism(name, modules, imq_results):
    # a quiet table does not depend on deduction order, so the seed leaves
    # even the element numbering unchanged
    base = imq_results[name].quandle
    for seed in (0, 1, 2):
        r = saturate(modules[name], seed=seed)
        assert r.quandle.n == base.n
        assert is_isomorphic(r.quandle, base) is not None
        assert serialize_quandle(r.quandle) == serialize_quandle(base)


@pytest.mark.parametrize("name", ("hopf2", "t22t24"))
def test_make_even_preserves_quandle(name, diagrams, imq_results):
    ev = compute_imq(build_link_module(make_even(diagrams[name])))
    assert is_isomorphic(ev.quandle, imq_results[name].quandle) is not None


@pytest.mark.parametrize("name", FINITE)
def test_longitude_fixes_orbit(name, diagrams):
    res = compute_imq(build_link_module(make_even(diagrams[name])))
    assert longitude_fixes_orbit(res)


def test_longitude_check_requires_even(imq_results, diagrams):
    assert not diagrams["trefoil"].is_even()
    with pytest.raises(ValueError, match="not even"):
        longitude_fixes_orbit(imq_results["trefoil"])


def test_cap_exceeded_is_distinct_from_infinite(modules, monkeypatch):
    # chain (2^10): |T| = 1024 and mu det / 2 = 5632, read before listing
    with pytest.raises(CapExceeded, match="up to 5632 presented quandle elements"):
        compute_imq(_large_module("chain_2x10"))
    # t22t24: |T| = det = 8 and mu det / 2 = 12, past a cap of 11
    monkeypatch.setattr(linkmodule, "LISTING_CAP", 11)
    with pytest.raises(CapExceeded, match="up to 12 presented quandle elements"):
        compute_imq(modules["t22t24"])
    with pytest.raises(ValueError, match="infinite quandle"):
        compute_imq(modules["fig5l"])


def test_step_cap_raises(modules):
    # t22t24 closes in 7 steps: each closes the table to quiet and then
    # adds one fresh element, 6 in all, and the last finds none missing
    with pytest.raises(CapExceeded, match="step limit"):
        saturate(modules["t22t24"], max_steps=1)
    with pytest.raises(CapExceeded, match="step limit"):
        saturate(modules["t22t24"], max_steps=6)
    assert saturate(modules["t22t24"], max_steps=7).quandle.n == 12


@pytest.mark.parametrize("name", ("hopf2", "sixthree"))
def test_partition_round_trip(name, imq_results):
    # both six-element quandles have two-element orbits whose members
    # share a translation, so their own data rebuilds them
    q = imq_results[name].quandle
    partition = [tuple(sorted(o)) for o in orbits(q)]
    translations = {e: q.translation(e) for e in range(q.n)}
    rebuilt = build_partition_quandle(q.n, partition, translations)
    assert rebuilt.op == q.op


@pytest.mark.parametrize("name", FINITE)
def test_check_axioms_agrees_with_literal_oracle(name, imq_results, arc_quandles):
    for q in (imq_results[name].quandle, arc_quandles[name].quandle):
        assert check_axioms(q) == literal_axiom_violations(q) == []


@pytest.mark.parametrize("name", ("t2_13", "chain_2_2_2"))
def test_check_axioms_agrees_with_literal_oracle_on_larger_tables(name):
    q = parse_quandle(_recorded_table(name))
    assert check_axioms(q) == literal_axiom_violations(q) == []


# elements the saturation creates on each gate diagram, the same for every
# deduction order; chain_2_3_pad30 merges 26 of them away
CREATED_LARGE = {"t2_13": 13, "chain_2_2_2": 16, "chain_2_6": 18, "chain_2_3_pad30": 32}


@pytest.mark.parametrize("name", sorted(CREATED_LARGE))
def test_seeded_runs_match_recorded_larger_tables(name):
    # any deduction order closes on the recorded table, creating only the
    # elements it forces
    want = _recorded_table(name)
    mod = _large_module(name)
    for seed in (None, 0, 1, 2):
        res = saturate(mod, seed=seed)
        assert serialize_quandle(res.quandle) == want
        assert res.elements_created == CREATED_LARGE[name]


@pytest.mark.parametrize("name", ("hopf2", "t22t24", "t2_13", "chain_2_3_pad30"))
def test_every_closure_is_quiet(name, modules, monkeypatch):
    # each step's closure must leave no deduction open, or the fresh
    # element it is followed by may be one the presentation does not force
    mod = modules[name] if name in modules else _large_module(name)
    close = Saturator.close
    closures = []

    def checked_close(s):
        close(s)
        reps = set(s.reps())
        assert all({x, y, z} <= reps for (x, y), z in s.table.items())
        assert all(s.table[(e, e)] == e for e in reps)
        assert open_deduction(s.table) is None
        closures.append(len(s.table))

    monkeypatch.setattr(Saturator, "close", checked_close)
    for seed in (None, 0, 1):
        closures.clear()
        res = saturate(mod, seed=seed)
        assert closures[-1] == res.quandle.n ** 2


def _mesh(mod):
    # the displacement mesh's table, which compute_imq lists only for mu >= 3
    mesh = imq._Mesh(mod.diagram)
    op, arc_element = imq._list_closure(mesh.arcs, mesh.product, 10_000)
    return imq._finish(mod.diagram, op, arc_element)


@pytest.mark.parametrize("name", FINITE + tuple(sorted(CREATED_LARGE)))
def test_mesh_equals_saturation(name, modules):
    mod = modules[name] if name in modules else _large_module(name)
    _assert_same(_mesh(mod), saturate(mod))


@pytest.fixture(scope="module")
def random_closures(perfbench_module):
    # closures of random braid words on four or five strands with at least
    # three components and, by the upper bound, at most 32 elements in the
    # presented quandle
    gen = perfbench_module("gen")
    rng = random.Random(7)
    out = []
    while len(out) < 24:
        strands = rng.randint(4, 5)
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(4, 14))
        ]
        mod = build_link_module(parse_diagram(gen.to_text(gen.closure(word, strands))))
        if mod.mu >= 3 and 0 < mod.mu * mod.determinant <= 64:
            out.append((word, mod))
    return out


def test_mesh_equals_saturation_on_random_closures(random_closures):
    with_armless_element = 0
    for word, mod in random_closures:
        res = compute_imq(mod)
        _assert_same(res, saturate(mod), word)
        with_armless_element += len(set(res.arc_element)) < res.quandle.n
    assert {mod.mu for _, mod in random_closures} == {3, 4}
    assert with_armless_element > 0


# twist-chain regions with mu >= 3, each R2-padded to the given length
# (0: unpadded) and drawn twice: as generated, with arcs numbered in order
# of first appearance along the crossings, and with the "arcs" list
# shuffled before parsing, which numbers them in another order
MU_GE_3_CHAINS = (((2, 2), 40), ((2, 6), 44), ((2, 2, 2), 30), ((2, 4, 2), 60), ((3, 4, 2), 0))


@pytest.mark.parametrize(
    "regions, target",
    MU_GE_3_CHAINS,
    ids=["_".join(map(str, r)) + f"-pad{t}" for r, t in MU_GE_3_CHAINS],
)
def test_mesh_equals_saturation_on_padded_and_renumbered_chains(
    regions, target, perfbench_module
):
    gen = perfbench_module("gen")
    rng = random.Random(3)
    strands = len(regions) + 1
    word = gen.chain_word(list(regions), rng)
    if target:
        word = gen.pad_r2(word, strands, target, rng)
    obj = gen.closure(word, strands)
    shuffled = dict(obj, arcs=rng.sample(obj["arcs"], len(obj["arcs"])))
    drawn = [parse_diagram(gen.to_text(o)) for o in (obj, shuffled)]
    assert drawn[0].arc_names != drawn[1].arc_names
    for d in drawn:
        mod = build_link_module(d)
        assert mod.mu >= 3
        _assert_same(_mesh(mod), saturate(mod), d.arc_names)


# twist-chain regions with mu <= 2 and det <= 36; each is drawn plain,
# R2-padded, and R2-padded then redrawn
MU_LE_2_CHAINS = (
    (3,), (9,), (15,), (21,), (3, 3), (3, 5), (3, 7), (3, 3, 3),
    (2,), (4,), (2, 3), (4, 3), (2, 9), (3, 6), (3, 2, 3), (4, 9),
)


@pytest.fixture(scope="module")
def mu_le_2_chains(perfbench_module):
    gen = perfbench_module("gen")
    rng = random.Random(1)
    out = []
    for regions in MU_LE_2_CHAINS:
        strands = len(regions) + 1
        word = gen.chain_word(list(regions), rng)
        padded = gen.pad_r2(word, strands, len(word) + 8, rng)
        for obj in (
            gen.closure(word, strands),
            gen.closure(padded, strands),
            gen.redraw(gen.closure(padded, strands), rng),
        ):
            mod = build_link_module(parse_diagram(gen.to_text(obj)))
            assert mod.mu <= 2 and 0 < mod.determinant <= 36
            out.append((regions, mod))
    return out


@pytest.mark.parametrize("name", ("trefoil", "fig8", "t2_13", "chain_2_3_pad30"))
def test_arc_quandle_path_equals_saturation(name, modules):
    mod = modules[name] if name in modules else _large_module(name)
    _assert_same(compute_imq(mod), saturate(mod))


def test_arc_quandle_path_equals_saturation_on_twist_chains(mu_le_2_chains):
    with_armless_element = 0
    for regions, mod in mu_le_2_chains:
        res = compute_imq(mod)
        _assert_same(res, saturate(mod), regions)
        with_armless_element += len(set(res.arc_element)) < res.quandle.n
    # elements that contain no arc are numbered by the product loop, not
    # by the arcs, so the loop's order is compared too
    assert with_armless_element > 0


def test_mesh_equals_arc_quandle_path_on_twist_chains(mu_le_2_chains):
    for regions, mod in mu_le_2_chains:
        _assert_same(_mesh(mod), compute_imq(mod), regions)


def test_knot_imq_is_core_of_kernel_on_twist_chains(mu_le_2_chains):
    # Joyce: IMQ(K) is the core quandle of H_1 of the double branched cover
    knots = [(r, mod) for r, mod in mu_le_2_chains if mod.mu == 1]
    assert knots
    for regions, mod in knots:
        q = compute_imq(mod).quandle
        assert is_isomorphic(q, core_quandle(mod.kernel)) is not None, regions


def test_mu_le_2_never_builds_the_mesh(modules, monkeypatch):
    def refuse(*args):
        raise AssertionError("mesh built for mu <= 2")

    monkeypatch.setattr(imq, "_Mesh", refuse)
    for name in ("trefoil", "fig8", "t2_13", "chain_2_3_pad30"):
        mod = modules[name] if name in modules else _large_module(name)
        res = compute_imq(mod)
        assert res.quandle.n == res.elements_created == mod.determinant


@pytest.mark.parametrize("name", FINITE + tuple(sorted(CREATED_LARGE)))
def test_elements_are_numbered_in_the_stated_order(name, modules, imq_results):
    # the order --dump-quandle writes, on both paths
    res = imq_results[name] if name in imq_results else compute_imq(_large_module(name))
    q = res.quandle
    assert stated_element_order(q, res.arc_element) == list(range(q.n))


def test_generator_checks_equal_literal_oracles_on_seeded_chains(
    random_closures, mu_le_2_chains
):
    # check_axioms reads the rows of q.generators, group_from_quandle the
    # rows (x, g) with g in it; their literal forms read every row
    for _, mod in random_closures + mu_le_2_chains:
        q = compute_imq(mod).quandle
        assert check_axioms(q) == []
        if q.n <= 20:  # the literal mediality check takes n^4 steps
            assert literal_axiom_violations(q) == []
        assert group_from_quandle(q) == literal_group_from_quandle(q) == mod.group


def _chain_imq(gen, regions):
    word = gen.chain_word(list(regions), random.Random(1))
    d = parse_diagram(gen.to_text(gen.closure(word, len(regions) + 1)))
    return compute_imq(build_link_module(d)).quandle


def _reached(q, gens):
    """The elements the right translations by gens reach from gens."""
    out = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            if q.op[x][g] not in out:
                out.add(q.op[x][g])
                frontier.append(q.op[x][g])
    return out


@pytest.mark.parametrize(
    "regions, size, count",
    [((201,), 201, 2), ((6, 6, 6), 432, 4), ((2,) * 7, 512, 8)],
    ids=["T(2,201)", "chain_6_6_6", "chain_2x7"],
)
def test_generating_set_sizes(regions, size, count, perfbench_module):
    # counts, not timings: the axioms take n^2 |G| steps and the group
    # n |G| rows on |G| columns
    q = _chain_imq(perfbench_module("gen"), regions)
    assert q.n == size
    gens = q.generators
    assert len(gens) == count
    assert gens[0] == 0 and list(gens) == sorted(gens)
    assert _reached(q, gens) == set(range(q.n))
    assert _reached(q, gens[:-1]) != set(range(q.n))


def _corrupted_outside_generators(q, rng, count):
    """Copies of q with one entry x |> y changed for a y outside
    q.generators, then copies with the row of an x outside it replaced by
    the row of another such element."""
    gens = set(q.generators)
    outside = [x for x in range(q.n) if x not in gens]
    for _ in range(count):
        table = [list(row) for row in q.op]
        x, y = rng.randrange(q.n), rng.choice(outside)
        table[x][y] = (table[x][y] + rng.randrange(1, q.n)) % q.n
        yield "entry", FiniteQuandle(table)
    for _ in range(count):
        table = [list(row) for row in q.op]
        x, other = rng.sample(outside, 2)
        table[x] = list(q.op[other])
        yield "row", FiniteQuandle(table)


@pytest.mark.parametrize("name", ("t2_17", "chain_2_2_2"))
def test_corruptions_outside_the_generators_fail_both_checks(name, perfbench_module):
    if name == "t2_17":
        q = _chain_imq(perfbench_module("gen"), (17,))
    else:
        q = parse_quandle(_recorded_table(name))
    assert check_axioms(q) == []
    rng = random.Random(3)
    for kind, bad in _corrupted_outside_generators(q, rng, 6):
        if kind == "entry":
            # the greedy set reads only its own columns
            assert bad.generators == q.generators
        assert check_axioms(bad), kind
        assert literal_axiom_violations(bad), kind
