"""Acceptance sweep: one test per headline claim of the engine.

Each test pins the exact values for one deliverable, so `pytest -v` on
this file reads as a ten-line report card.  Everything here is also
covered in finer grain by the per-module suites; failures there explain
failures here.
"""

from __future__ import annotations

import random
import time

from conftest import FINITE
from oracles import (
    dense_relation_matrix,
    determinant_by_minors,
    elements_of_order_dividing_2,
    literal_characteristic_compatibility,
    literal_cokernel_group,
    literal_displacement_group,
    literal_is_semiregular,
    quotient_by_subgroup,
)
from imqlink.abelian import FgAbGroup, cokernel, solve_in_row_space
from imqlink.arcquandle import (
    characteristic_compatibility,
    marking_equivalent,
    reindexing_sensitivity,
)
from imqlink.diagram import make_even
from imqlink.fixtures import FIXTURE_NAMES
from imqlink.imq import check_size_bounds
from imqlink.linkmodule import (
    build_link_module,
    link_determinant,
    longitude_zero_subset,
    longitudes,
    relation_matrix,
    torsion_parity_profile,
    weight_kernel,
)
from imqlink.quandle import (
    characteristic_subquandle,
    check_axioms,
    core_quandle,
    displacement_group,
    group_from_quandle,
    is_isomorphic,
    is_semiregular,
    orbits,
)

SEED = 20260823


def _identity_translations(q):
    ident = tuple(range(q.n))
    return [a for a in range(q.n) if q.translation(a) == ident]


def test_criterion_01_hopf2_module_and_quandles(diagrams, modules, arc_quandles, imq_results):
    mod = modules["hopf2"]
    assert mod.group == FgAbGroup(1, (2, 2))
    assert link_determinant(mod) == 4

    qa = arc_quandles["hopf2"].quandle
    assert qa.n == 3
    assert all(qa.op[x][y] == x for x in range(3) for y in range(3))

    res = imq_results["hopf2"]
    q = res.quandle
    assert q.n == 6
    assert sorted(len(o) for o in orbits(q)) == [2, 2, 2]
    arc_b = diagrams["hopf2"].arc_names.index("b")
    assert q.translation(res.arc_element[arc_b]) == tuple(range(6))
    assert not is_semiregular(q)


def test_criterion_02_sixthree_same_module_different_imq(modules, imq_results):
    assert modules["sixthree"].group == modules["hopf2"].group
    q = imq_results["sixthree"].quandle
    assert q.n == 6
    assert _identity_translations(q) == []
    assert is_isomorphic(imq_results["hopf2"].quandle, q) is None
    assert marking_equivalent(modules["hopf2"], modules["sixthree"]).status == "equivalent"


def test_criterion_03_knot_imq_is_core_of_kernel(diagrams, modules, imq_results):
    for name, det in (("trefoil", 3), ("fig8", 5)):
        mod = modules[name]
        assert link_determinant(mod) == det
        q = imq_results[name].quandle
        assert q.n == det
        assert is_isomorphic(q, core_quandle(weight_kernel(mod))) is not None
    assert determinant_by_minors(diagrams["fig8"]) == 5


def test_criterion_04_fig5l_incompatible_after_full_search(modules):
    mod = modules["fig5l"]
    assert mod.group == FgAbGroup(2, (8, 8))
    start = time.monotonic()
    report = characteristic_compatibility(mod)
    elapsed = time.monotonic() - start
    assert report.status == "no"
    assert report.witness is None
    assert elapsed < 10.0
    # the search oracle exhausts all 24 component orderings to agree
    literal = literal_characteristic_compatibility(mod)
    assert (literal.status, literal.indexings_tried) == ("no", 24)


def test_criterion_05_figt_compatible_with_unit_vector_witness(modules):
    mod = modules["figt"]
    assert mod.group == FgAbGroup(2, (8, 8))
    report = characteristic_compatibility(mod)
    assert report.status == "yes"
    witness = report.witness
    assert witness is not None
    assert len(witness["free_generators"]) == 2
    assert len(witness["torsion_generators"]) == 2
    units = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert sorted(witness["unit_images"]) == sorted(units)


def test_criterion_06_fig5l_figt_same_kernel_different_marking(modules):
    k1 = weight_kernel(modules["fig5l"])
    k2 = weight_kernel(modules["figt"])
    assert k1 == k2 == FgAbGroup(1, (8, 8))
    assert marking_equivalent(modules["fig5l"], modules["figt"]).status == "not_equivalent"


def test_criterion_07_lprime_pair_split_by_parity_profile(modules):
    m1, m2 = modules["lprime"], modules["ldprime"]
    assert m1.group == m2.group == FgAbGroup(2, (2, 2))
    assert (1, 1, 1, 1) in torsion_parity_profile(m1)
    assert (1, 1, 1, 1) not in torsion_parity_profile(m2)
    assert marking_equivalent(m1, m2).status == "not_equivalent"


def test_criterion_08_t22t24_fixed_points_and_reindexing(modules):
    mod = modules["t22t24"]
    kw = weight_kernel(mod)
    assert kw == FgAbGroup(0, (2, 4))
    cq = characteristic_subquandle(kw)
    profile = sorted(
        sum(1 for y in range(cq.n) if cq.op[y][x] == y) for x in range(cq.n)
    )
    assert profile == [2, 2, 4, 4, 4, 4]
    report = reindexing_sensitivity(mod)
    assert report.status == "ok"
    assert report.classes == [(0, 1), (2,)]
    assert sum(1 for c in report.classes if len(c) == 1) == 1


def _random_chain(rng: random.Random) -> tuple[int, ...]:
    while True:
        d = rng.choice([2, 2, 2, 3, 4, 5, 6, 7, 8, 9])
        chain = [d]
        for _ in range(rng.randint(0, 2)):
            d *= rng.choice([1, 1, 2, 2, 3, 4])
            chain.append(d)
        total = 1
        for c in chain:
            total *= c
        if total <= 64:
            return tuple(chain)


def _axiom_sample(q, rng: random.Random, samples: int = 400) -> None:
    n = q.n
    for _ in range(samples):
        x, y, z, w = (rng.randrange(n) for _ in range(4))
        assert q.op[x][x] == x
        assert q.op[q.op[x][y]][y] == x
        assert q.op[q.op[x][y]][z] == q.op[q.op[x][z]][q.op[y][z]]
        assert q.op[q.op[x][y]][q.op[z][w]] == q.op[q.op[x][z]][q.op[y][w]]


def test_criterion_09_property_suites(diagrams, modules, arc_quandles, imq_results):
    start = time.monotonic()
    rng = random.Random(SEED)

    # axioms and displacement abelianness on every computed quandle
    # (displacement_group raises if the closure is not abelian)
    for qa in arc_quandles.values():
        assert check_axioms(qa.quandle) == []
        displacement_group(qa.quandle)
    for res in imq_results.values():
        assert check_axioms(res.quandle) == []
        displacement_group(res.quandle)

    # random finite abelian groups: core displacement structure and
    # characteristic-subquandle orbit counts
    sample = [FgAbGroup(0, _random_chain(rng)) for _ in range(200)]
    for a in sample:
        core = core_quandle(a)
        if core.n <= 20:
            assert check_axioms(core) == []
        else:
            _axiom_sample(core, rng)
        perms, group = literal_displacement_group(core)
        assert displacement_group(core) == set(perms)
        two_torsion = list(elements_of_order_dividing_2(a))
        assert group == quotient_by_subgroup(a, two_torsion)
        assert is_semiregular(core) == literal_is_semiregular(core) is True
        cq = characteristic_subquandle(a)
        cq_perms, _ = literal_displacement_group(cq)
        assert displacement_group(cq) == set(cq_perms)
        assert is_semiregular(cq) == literal_is_semiregular(cq)
        k = sum(1 for t in a.torsion if t % 2 == 0)
        assert len(orbits(cq)) == k + 1

    # classification sample: characteristic subquandles are isomorphic
    # exactly when the groups are
    small = [a for a in sample if a.order() <= 32][:40]
    for a, b in zip(small, small[1:]):
        same = is_isomorphic(characteristic_subquandle(a), characteristic_subquandle(b))
        assert (same is not None) == (a == b)

    # cardinality formula and group reconstruction on the finite fixtures
    for name in FINITE:
        mod = modules[name]
        det, mu = link_determinant(mod), mod.mu
        assert arc_quandles[name].quandle.n * 2 ** (mu - 1) == mu * det
        assert group_from_quandle(arc_quandles[name].quandle) == mod.group
        assert group_from_quandle(imq_results[name].quandle) == mod.group

    # longitude suite over evenized fixtures, including the
    # zero-subset/determinant-zero equivalence
    for name in FIXTURE_NAMES:
        even = make_even(diagrams[name])
        mod = modules[name] if even is diagrams[name] else build_link_module(even)
        longs = longitudes(mod)
        for lam in longs:
            assert mod.weight(lam) == 0
            assert (lam + lam).is_zero()
        if mod.mu > 1:
            subset = longitude_zero_subset(mod, longs)
            assert (subset is not None) == (link_determinant(mod) == 0)

    # every single relation row is redundant
    for name in FIXTURE_NAMES:
        d = diagrams[name]
        rows, dense = relation_matrix(d), dense_relation_matrix(d)
        full = literal_cokernel_group(rows, d.n_arcs)
        for i in range(len(rows)):
            reduced = rows[:i] + rows[i + 1 :]
            assert cokernel(reduced, d.n_arcs).group == full
            others = dense[:i] + dense[i + 1 :]
            assert solve_in_row_space(others, d.n_arcs, dense[i]) is not None

    # make_even preserves every module-level invariant
    for name in FIXTURE_NAMES:
        even = make_even(diagrams[name])
        if even is diagrams[name]:
            continue
        mod, even_mod = modules[name], build_link_module(even)
        assert even_mod.group == mod.group
        assert weight_kernel(even_mod) == weight_kernel(mod)
        assert torsion_parity_profile(even_mod) == torsion_parity_profile(mod)

    assert time.monotonic() - start < 120.0


def test_criterion_10_size_bounds_on_every_finite_fixture(modules, imq_results):
    for name in FINITE:
        mod = modules[name]
        det, mu = link_determinant(mod), mod.mu
        q = imq_results[name].quandle
        assert check_size_bounds(q, det, mu)
        if mu == 1:
            assert q.n == det
        else:
            assert 2 * q.n <= mu * det
            assert q.n * 2 ** (mu - 1) >= mu * det
            for orbit in orbits(q):
                assert 2 * len(orbit) <= det
