"""Presented module, determinant, weight kernel, longitudes, markings."""

from __future__ import annotations

import random
import signal
from collections import Counter
from pathlib import Path

import pytest

from imqlink.abelian import FgAbGroup, cokernel, solve_in_row_space
from imqlink.diagram import make_even, parse_diagram
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.linkmodule import (
    build_link_module,
    link_determinant,
    longitude_zero_subset,
    longitudes,
    relation_matrix,
    torsion_parity_profile,
    weight_kernel,
)
from oracles import (
    determinant_by_minors,
    double_kernel_subgroup_check,
    evenized_longitudes,
    literal_generator_image,
    literal_parity,
    literal_torsion_parity_profile,
    literal_weight,
    subgroups_equal,
)

DIAGRAMS = Path(__file__).with_name("diagrams")
GATE_DIAGRAMS = ("t2_13", "chain_2_2_2", "chain_2_6", "chain_2_3_pad30")

EXPECTED = {
    # name: (module, weight kernel, determinant)
    "hopf2": (FgAbGroup(1, (2, 2)), FgAbGroup(0, (2, 2)), 4),
    "sixthree": (FgAbGroup(1, (2, 2)), FgAbGroup(0, (2, 2)), 4),
    "trefoil": (FgAbGroup(1, (3,)), FgAbGroup(0, (3,)), 3),
    "fig8": (FgAbGroup(1, (5,)), FgAbGroup(0, (5,)), 5),
    "t22t24": (FgAbGroup(1, (2, 4)), FgAbGroup(0, (2, 4)), 8),
    "fig5l": (FgAbGroup(2, (8, 8)), FgAbGroup(1, (8, 8)), 0),
    "figt": (FgAbGroup(2, (8, 8)), FgAbGroup(1, (8, 8)), 0),
    "lprime": (FgAbGroup(2, (2, 2)), FgAbGroup(1, (2, 2)), 0),
    "ldprime": (FgAbGroup(2, (2, 2)), FgAbGroup(1, (2, 2)), 0),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_module_kernel_and_determinant(name, modules):
    mod = modules[name]
    group, kernel, det = EXPECTED[name]
    assert mod.group == group
    assert weight_kernel(mod) == kernel
    assert link_determinant(mod) == det


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_determinant_agrees_with_minor_oracle(name, diagrams, modules):
    assert determinant_by_minors(diagrams[name]) == link_determinant(modules[name])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_arc_classes_have_weight_one_and_unit_parity(name, modules):
    mod = modules[name]
    kappa = mod.diagram.kappa
    for a, x in enumerate(mod.arc_class):
        assert mod.weight(x) == 1
        parity = mod.parity(x)
        assert sum(parity) == 1 and parity[kappa[a]] == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES + GATE_DIAGRAMS)
def test_tables_equal_literal_lifts(name, modules):
    # weight and parity read off per-coordinate tables, and generator
    # images read off V's rows, against the lift and vec_mat they replace
    if name in GATE_DIAGRAMS:
        mod = build_link_module(parse_diagram((DIAGRAMS / f"{name}.json").read_text()))
    else:
        mod = modules[name]
    for a, x in enumerate(mod.arc_class):
        assert x == literal_generator_image(mod.pres, a)
    elements = list(mod.arc_class) + list(mod.group.torsion_elements())
    # sums of arc classes mix free and torsion coordinates
    elements += [x + y.smul(3) for x, y in zip(mod.arc_class, mod.arc_class[1:])]
    for x in elements:
        assert mod.weight(x) == literal_weight(mod, x)
        assert mod.parity(x) == literal_parity(mod, x)


# A 4-component twist chain (6,9,6,4) redrawn by perfbench/gen.py `redraw`:
# 25 crossings, det 1296.  Its crossing rows plus the unit row at arc 0 sent
# the Smith form into entries of 147 digits for minutes; the module's own
# rows take milliseconds.
STALLING_CHAIN = (
    '{"arcs":["r15","r18","r12","r20","r16","r5","r4","r3","r9","r14","r24",'
    '"r21","r11","r6","r23","r13","r10","r0","r19","r22","r8","r7","r2","r1",'
    '"r17"],"components":[{"arcs":["r16","r4","r9","r24","r11","r23","r13",'
    '"r0","r22","r3","r14","r21","r6","r18","r12"],"crossings":[4,6,8,10,12,'
    '14,15,17,19,7,9,11,13,0,2]},{"arcs":["r1","r10","r19","r8","r7"],'
    '"crossings":[23,16,18,20,21]},{"arcs":["r15","r20","r5"],"crossings":'
    '[1,3,5]},{"arcs":["r2","r17"],"crossings":[22,24]}],"crossings":[["r15",'
    '"r18","r12"],["r12","r15","r20"],["r20","r12","r16"],["r16","r20","r5"],'
    '["r5","r16","r4"],["r4","r5","r15"],["r3","r4","r9"],["r9","r3","r14"],'
    '["r14","r9","r24"],["r24","r14","r21"],["r21","r24","r11"],["r11","r21",'
    '"r6"],["r6","r11","r23"],["r23","r6","r18"],["r18","r23","r13"],["r10",'
    '"r13","r0"],["r0","r10","r19"],["r19","r0","r22"],["r22","r19","r8"],'
    '["r8","r22","r3"],["r3","r8","r7"],["r2","r7","r1"],["r1","r2","r17"],'
    '["r17","r1","r10"],["r10","r17","r2"]]}'
)


def _out_of_time(signum, frame):
    raise TimeoutError("build_link_module ran past its time limit")


def test_weight_kernel_of_a_redrawn_chain_finishes():
    d = parse_diagram(STALLING_CHAIN)
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        signal.alarm(3)
        mod = build_link_module(d)
        kernel = weight_kernel(mod)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert mod.kernel == kernel == FgAbGroup(0, (6, 6, 36))
    assert mod.determinant == 1296


def test_module_shape_relation():
    # free rank r and even-torsion count k always satisfy r + k = mu
    for name, (group, _, _) in EXPECTED.items():
        mu = {"trefoil": 1, "fig8": 1, "hopf2": 3, "sixthree": 3, "t22t24": 3}.get(
            name, 4
        )
        k = sum(1 for t in group.torsion if t % 2 == 0)
        assert 1 <= group.free_rank <= mu
        assert group.free_rank + k == mu


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_weight_kernel_base_arc_independent(name, diagrams, modules):
    # the kernel and determinant split off the module match the literal
    # presentation at every base arc and the minor oracle, on the drawn
    # diagram and on its evenized form
    even = make_even(diagrams[name])
    mods = [modules[name]]
    if even is not diagrams[name]:
        mods.append(build_link_module(even))
    for mod in mods:
        assert mod.determinant == determinant_by_minors(mod.diagram)
        for arc in range(mod.diagram.n_arcs):
            assert weight_kernel(mod, base_arc=arc) == mod.kernel


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_any_single_relation_row_is_redundant(name, diagrams):
    d = diagrams[name]
    rows = relation_matrix(d)
    full = cokernel(rows, d.n_arcs).group
    for i in range(len(rows)):
        reduced = rows[:i] + rows[i + 1 :]
        assert cokernel(reduced, d.n_arcs).group == full
        assert solve_in_row_space(reduced, d.n_arcs, rows[i]) is not None


def test_cokernel_invariant_under_row_moves():
    d = parse_diagram(fixture_text("t22t24"))
    rows = relation_matrix(d)
    base = cokernel(rows, d.n_arcs).group
    assert cokernel(rows[::-1], d.n_arcs).group == base
    negated = [[-v for v in rows[0]]] + rows[1:]
    assert cokernel(negated, d.n_arcs).group == base
    appended = rows + [[a + b for a, b in zip(rows[0], rows[1])]]
    assert cokernel(appended, d.n_arcs).group == base


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_make_even_preserves_module_invariants(name, diagrams, modules):
    even = make_even(diagrams[name])
    if even is diagrams[name]:
        return
    mod = modules[name]
    even_mod = build_link_module(even)
    assert even_mod.group == mod.group
    assert weight_kernel(even_mod) == weight_kernel(mod)
    assert link_determinant(even_mod) == link_determinant(mod)
    assert torsion_parity_profile(even_mod) == torsion_parity_profile(mod)


def _even_module(diagrams, modules, name):
    even = make_even(diagrams[name])
    return modules[name] if even is diagrams[name] else build_link_module(even)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_longitude_suite(name, diagrams, modules):
    mod = _even_module(diagrams, modules, name)
    longs = longitudes(mod)
    assert len(longs) == mod.mu
    for lam in longs:
        assert mod.weight(lam) == 0
        assert (lam + lam).is_zero()
    if mod.mu == 1:
        assert longs[0].is_zero()
        with pytest.raises(ValueError):
            longitude_zero_subset(mod, longs)
        return
    if mod.mu == 2:
        assert longs[0] == longs[1]
    # some mu-1 of the longitudes already generate the longitude subgroup
    found = False
    for drop in range(mod.mu):
        rest = [l for i, l in enumerate(longs) if i != drop]
        if subgroups_equal(mod.group, longs, rest):
            found = True
            break
    assert found
    subset = longitude_zero_subset(mod, longs)
    det = link_determinant(mod)
    assert (subset is not None) == (det == 0)
    if subset is not None:
        total = mod.group.zero()
        for i in subset:
            total = total + longs[i]
        assert total.is_zero()
        assert 0 < len(subset) < mod.mu


GATES = Path(__file__).with_name("diagrams")
GATE_NAMES = ("t2_13", "chain_2_2_2", "chain_2_6", "chain_2_3_pad30")
# (regions, padded length) of twist-chain closures: odd components, a
# free unknot (the third strand of (2, 0) never crosses), R2 padding
CHAIN_SPECS = {
    "chain_3": ((3,), 0),
    "chain_2": ((2,), 0),
    "chain_2_0": ((2, 0), 0),
    "chain_5_2": ((5, 2), 0),
    "chain_3_3_2": ((3, 3, 2), 0),
    "chain_2_2_9": ((2, 2, 9), 0),
    "chain_3_4_pad24": ((3, 4), 24),
    "chain_2_2_2_pad30": ((2, 2, 2), 30),
    "chain_1_1_pad20": ((1, 1), 20),
}
RANDOM_CHAINS = tuple(f"random_{seed}" for seed in range(12))


def _oracle_diagram(name, diagrams, gen):
    if name in diagrams:
        return diagrams[name]
    if name in GATE_NAMES:
        return parse_diagram((GATES / f"{name}.json").read_text())
    if name in CHAIN_SPECS:
        regions, pad = CHAIN_SPECS[name]
        rng = random.Random(1)
    else:
        rng = random.Random(int(name.split("_")[1]))
        regions = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 3)))
        pad = rng.choice((0, 16))
    strands = len(regions) + 1
    word = gen.pad_r2(gen.chain_word(list(regions), rng), strands, pad, rng)
    obj = gen.closure(word, strands)
    if rng.random() < 0.5:
        obj = gen.redraw(obj, rng)
    return parse_diagram(gen.to_text(obj))


@pytest.mark.parametrize(
    "name", FIXTURE_NAMES + GATE_NAMES + tuple(CHAIN_SPECS) + RANDOM_CHAINS
)
def test_longitudes_match_the_evenized_module(name, diagrams, perfbench_module):
    # the drawn diagram's longitudes are the kinked diagram's, carried
    # back by the isomorphism that sends each arc class to its own
    d = _oracle_diagram(name, diagrams, perfbench_module("gen"))
    mod = build_link_module(d)
    longs = longitudes(mod)
    even_mod, even_longs = evenized_longitudes(d)
    pad = [0] * (even_mod.diagram.n_arcs - d.n_arcs)
    carried = [even_mod.pres.to_canonical(mod.pres.lift(l) + pad) for l in longs]
    assert carried == even_longs
    assert [l.order() for l in longs] == [l.order() for l in even_longs]
    if d.mu >= 2:
        assert longitude_zero_subset(mod, longs) == longitude_zero_subset(
            even_mod, even_longs
        )


def test_longitude_zero_subsets_frozen(diagrams, modules):
    expected = {
        "hopf2": None,
        "sixthree": None,
        "t22t24": None,
        "fig5l": (0, 3),
        "figt": (3,),
        "lprime": (0, 1),
        "ldprime": (3,),
    }
    for name, want in expected.items():
        mod = _even_module(diagrams, modules, name)
        assert longitude_zero_subset(mod, longitudes(mod)) == want


def test_hopf2_longitude_worked_example(diagrams):
    e = make_even(diagrams["hopf2"])
    mod = build_link_module(e)
    longs = longitudes(mod)
    names = e.arc_names
    s = {names[a]: x for a, x in enumerate(mod.arc_class)}
    assert longs[0] == s["b"] - s["a"]
    assert longs[1] == s["a"] - s["c"]
    # the three longitudes are the distinct nonzero kernel elements
    assert len({longs[0], longs[1], longs[2]}) == 3
    assert (longs[0] + longs[1] + longs[2]).is_zero()


def test_parity_profiles_frozen(modules):
    def counts(name):
        profile = torsion_parity_profile(modules[name])
        return Counter("".join(str(b) for b in v) for v in profile)

    assert counts("hopf2") == Counter({"011": 1, "101": 1, "110": 1})
    assert counts("sixthree") == counts("hopf2")
    assert counts("trefoil") == Counter({"0": 2})
    assert counts("fig8") == Counter({"0": 4})
    assert counts("t22t24") == Counter(
        {"000": 1, "011": 2, "101": 2, "110": 2}
    )
    assert counts("lprime") == Counter({"0011": 1, "1100": 1, "1111": 1})
    assert counts("ldprime") == Counter({"0011": 1, "0101": 1, "0110": 1})
    assert counts("fig5l") == Counter(
        {"0000": 15, "0011": 16, "1100": 16, "1111": 16}
    )
    assert counts("figt") == Counter(
        {"0000": 15, "0011": 16, "0101": 16, "0110": 16}
    )


def test_profile_equals_the_permutation_loop(modules, perfbench_module):
    # the free-rank-1 shortcut skips the loop over component permutations;
    # fixtures, gate diagrams, seeded closures and chains up to mu = 6
    gen = perfbench_module("gen")
    texts = [
        (DIAGRAMS / f"{name}.json").read_text()
        for name in GATE_DIAGRAMS + ("chain_2_2_2_2",)
    ]
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        word = [
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(n, 2 * n + 2))
        ]
        texts.append(gen.to_text(gen.closure(word, n)))
    for regions in ((2, 2, 2, 2, 2), (2, 3, 2, 4, 2), (4, 2, 6, 2), (2, 4, 2, 2)):
        word = gen.chain_word(list(regions), random.Random(1))
        texts.append(gen.to_text(gen.closure(word, len(regions) + 1)))
    mods = list(modules.values()) + [build_link_module(parse_diagram(t)) for t in texts]
    assert max(mod.mu for mod in mods) == 6
    for mod in mods:
        assert torsion_parity_profile(mod) == literal_torsion_parity_profile(mod)
    assert sum(mod.group.free_rank == 1 and mod.mu >= 3 for mod in mods) >= 10


def test_all_ones_parity_vector_distinguishes_lprime_pair(modules):
    # the profile is permutation-minimized, so membership of the all-ones
    # vector is independent of component numbering
    ones = (1, 1, 1, 1)
    assert ones in torsion_parity_profile(modules["lprime"])
    assert ones not in torsion_parity_profile(modules["ldprime"])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_double_kernel_subgroup(name, modules):
    mod = modules[name]
    if link_determinant(mod) == 0:
        return
    assert double_kernel_subgroup_check(mod)
