"""The isomorphism search against the literal backtracking search it
replaced, its candidates against the colour refinement they replaced, the
orbits against union-find, and the displacement group against the literal
closure with its presentation.

`oracles.literal_iso_search` assigns elements in candidate order and checks
each pair once both sides are set; `quandle._iso_search` sets forced images
and narrows domains through left-translation fibres.  They must return the
same isomorphisms on the Q_A and IMQ tables of the finite fixtures, the gate
diagrams and seeded twist chains.  Copies of the package with one step
taken out show that the candidate check, the node bounds and the closure
check below each catch a search that lost a step."""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys
import types
from pathlib import Path

import pytest
from conftest import FINITE
from oracles import (
    automorphism_classes,
    fingerprint_candidates,
    is_isomorphism,
    literal_displacement_group,
    literal_is_semiregular,
    literal_iso_search,
    literal_orbits,
    literal_signatures,
)

from imqlink import quandle
from imqlink.abelian import FgAbGroup
from imqlink.arcquandle import build_arc_quandle
from imqlink.cli import main
from imqlink.diagram import parse_diagram
from imqlink.imq import compute_imq
from imqlink.linkmodule import build_link_module
from imqlink.quandle import (
    FiniteQuandle,
    _iso_candidates,
    core_quandle,
    displacement_group,
    is_isomorphic,
    is_semiregular,
    orbits,
    subquandle,
)

DIAGRAMS = Path(__file__).with_name("diagrams")
GATES = ("t2_13", "chain_2_2_2", "chain_2_6", "chain_2_3_pad30", "chain_2_2_2_2")
# tables up to this size list their whole automorphism group; every table
# lists the automorphisms that fix one element of each orbit
FULL_LISTING_MAX = 14


def _seeded_chains(count: int) -> list[tuple[int, ...]]:
    """Distinct twist-chain region lists with 2 <= mu <= 4 and |Q_A| <= 40,
    drawn from one seed."""
    rng = random.Random(14)
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        regions = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3)))
        det, mu = 1, 1
        for a in regions:
            det *= a
            mu += a % 2 == 0
        if 2 <= mu <= 4 and mu * det // 2 ** (mu - 1) <= 40 and regions not in out:
            out.append(regions)
    return out


@pytest.fixture(scope="module")
def tables(modules, perfbench_module):
    """Name -> (table, one element per component coset or orbit)."""
    gen = perfbench_module("gen")
    mods = {name: modules[name] for name in FINITE}
    for name in GATES:
        mods[name] = build_link_module(
            parse_diagram((DIAGRAMS / f"{name}.json").read_text())
        )
    for regions in _seeded_chains(32):
        word = gen.chain_word(list(regions), random.Random(1))
        text = gen.to_text(gen.closure(word, len(regions) + 1))
        mods["chain" + "_".join(map(str, regions))] = build_link_module(
            parse_diagram(text)
        )
    out = {}
    for name, mod in mods.items():
        qa = build_arc_quandle(mod)
        reps = [qa.component_of.index(c) for c in range(mod.mu)]
        out[f"{name}:qa"] = (qa.quandle, reps)
        imq = compute_imq(mod).quandle
        out[f"{name}:imq"] = (imq, [orb[0] for orb in orbits(imq)])
    return out


def _relabelled(q: FiniteQuandle, rng: random.Random) -> FiniteQuandle:
    perm = list(range(q.n))
    rng.shuffle(perm)
    inv = [0] * q.n
    for i, p in enumerate(perm):
        inv[p] = i
    return FiniteQuandle(
        [[perm[q.op[inv[x]][inv[y]]] for y in range(q.n)] for x in range(q.n)]
    )


def _assert_same_listing(q, candidates):
    got = quandle._iso_search(q, q, candidates, True)
    want = literal_iso_search(q, q, candidates, True)
    assert len({tuple(f) for f in got}) == len(got), "an automorphism twice"
    assert sorted(got) == sorted(want)
    assert all(is_isomorphism(q, q, f) for f in got)


def test_search_agrees_with_the_literal_search(tables):
    """Every listing equals the oracle's, and every search that
    `automorphism_classes` runs gets the oracle's verdict.  The last
    listing also halves the candidates of the last element, which the
    search mostly reaches by closure, not by a choice."""
    assert len(tables) == 2 * (len(FINITE) + len(GATES) + 32)
    rng = random.Random(6)
    for name, (q, reps) in tables.items():
        candidates = _iso_candidates(q, q)
        if q.n <= FULL_LISTING_MAX:
            _assert_same_listing(q, candidates)
        pinned = candidates[:]
        for orb in orbits(q):
            pinned[orb[0]] = [orb[0]]
        _assert_same_listing(q, pinned)
        last = pinned[-1]
        pinned[-1] = sorted(rng.sample(last, (len(last) + 1) // 2))
        _assert_same_listing(q, pinned)

        verdicts = []

        def both(q1, q2, cand, want_all, real=quandle._iso_search):
            got = real(q1, q2, cand, want_all)
            want = literal_iso_search(q1, q2, cand, want_all)
            verdicts.append(bool(got) == bool(want))
            for f in got:
                assert is_isomorphism(q1, q2, f)
                assert all(f[x] in ys for x, ys in enumerate(cand))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quandle, "_iso_search", both)
            automorphism_classes(q, reps)
        # one coset or orbit leaves no pair to search
        assert all(verdicts) and len(verdicts) >= min(len(reps) - 1, 1), name


def test_is_isomorphic_agrees_with_the_literal_search(tables):
    """Every pair of tables of equal size, the second relabelled: the
    verdict is the oracle's, and a witness is an isomorphism.  A table and
    its own relabelling are isomorphic by construction."""
    rng = random.Random(8)
    items = list(tables.items())
    yes = no = 0
    for i, (name1, (q1, _)) in enumerate(items):
        for name2, (q2, _) in items[i:]:
            if q2.n != q1.n:
                continue
            other = _relabelled(q2, rng)
            witness = is_isomorphic(q1, other)
            if witness is not None:
                assert is_isomorphism(q1, other, witness)
            if name2 == name1:
                assert witness is not None
                continue
            candidates = _iso_candidates(q1, other)
            want = candidates is not None and literal_iso_search(
                q1, other, candidates, False
            )
            assert (witness is not None) == bool(want), (name1, name2)
            yes += witness is not None
            no += witness is None
    assert yes and no


def test_signatures_match_the_literal_count(tables, monkeypatch):
    """`_signatures` counts the fixed points of each R_x on its column;
    the oracle counts them element by element.  They agree on every table,
    and with the oracle in its place every `is_isomorphic` answer on the
    pairs of tables of equal size, the witness included, is the same."""
    for name, (q, _) in tables.items():
        assert quandle._signatures(q) == literal_signatures(q), name
    pairs = [
        (q1, q2)
        for (q1, _), (q2, _) in itertools.combinations_with_replacement(
            tables.values(), 2
        )
        if q1.n == q2.n
    ]
    got = [is_isomorphic(q1, q2) for q1, q2 in pairs]
    monkeypatch.setattr(quandle, "_signatures", literal_signatures)
    assert [is_isomorphic(q1, q2) for q1, q2 in pairs] == got
    assert any(f is None for f in got) and any(f is not None for f in got)


def _candidate_mismatches(module, tables) -> set[str]:
    """The tables, and the relabelled pairs of tables of equal size, on
    which `module._iso_candidates` differs from the colour refinement it
    replaced, `None` verdicts included."""
    rng = random.Random(10)
    items = list(tables.items())
    bad = set()
    for i, (name1, (q1, _)) in enumerate(items):
        for name2, (q2, _) in items[i:]:
            if q2.n != q1.n:
                continue
            other = q1 if name2 == name1 else _relabelled(q2, rng)
            if module._iso_candidates(q1, other) != fingerprint_candidates(q1, other):
                bad.add(name1 if other is q1 else f"{name1}/{name2}")
    return bad


def test_candidates_equal_the_colour_refinement(tables):
    assert _candidate_mismatches(quandle, tables) == set()


def test_signature_without_fixed_points_loses_candidates(tables, monkeypatch):
    # on these IMQs orbits of one size differ in the fixed points of R_x
    mutant = _mutant(
        monkeypatch, "return list(zip(size, fixed))", "return list(zip(size, size))"
    )
    assert {"chain_2_2_2:imq", "chain_2_6:imq", "hopf2:imq"} <= _candidate_mismatches(
        mutant, tables
    )


def _core(*torsion: int) -> FiniteQuandle:
    return core_quandle(FgAbGroup(0, torsion))


@pytest.mark.parametrize(
    "first, second",
    [
        ((9,), (3, 3)),
        ((8,), (2, 4)),
        ((2, 4), (2, 2, 2)),
        ((16,), (4, 4)),
        ((2, 8), (4, 4)),
        ((25,), (5, 5)),
    ],
)
def test_no_isomorphism_between_cores_of_groups_of_equal_order(first, second):
    # every image allowed, so the search itself, not an invariant, says no
    q1, q2 = _core(*first), _core(*second)
    full = [list(range(q1.n)) for _ in range(q1.n)]
    assert quandle._iso_search(q1, q2, full, False) == []
    assert literal_iso_search(q1, q2, full, False) == []
    assert is_isomorphic(q1, q2) is None


def test_no_isomorphism_between_the_hopf2_and_sixthree_imqs(imq_results):
    q1, q2 = imq_results["hopf2"].quandle, imq_results["sixthree"].quandle
    full = [list(range(q1.n)) for _ in range(q1.n)]
    assert quandle._iso_search(q1, q2, full, True) == []
    assert literal_iso_search(q1, q2, full, True) == []


def _closed_random_subset(q: FiniteQuandle, rng: random.Random) -> list[int]:
    members = set(rng.sample(range(q.n), rng.randint(1, 3)))
    grown = True
    while grown:
        new = {q.op[x][y] for x in members for y in members} - members
        grown = bool(new)
        members |= new
    return sorted(members)


def test_displacement_group_equals_the_literal_closure(tables):
    """The package's displacement set is the oracle's closure on every
    table, and the semiregularity verdict is the oracle's fixed-point scan;
    the hopf2 IMQ has a nontrivial displacement with a fixed point."""
    verdicts = {}
    for name, (q, _) in tables.items():
        perms, _ = literal_displacement_group(q)
        assert displacement_group(q) == set(perms), name
        verdicts[name] = is_semiregular(q)
        assert verdicts[name] == literal_is_semiregular(q), name
    assert verdicts["hopf2:imq"] is False
    assert verdicts["hopf2:qa"] is True


def test_orbits_equal_union_find(tables):
    for q, _ in tables.values():
        assert orbits(q) == literal_orbits(q)
    rng = random.Random(9)
    for _ in range(60):
        torsion = rng.choice([(4,), (2, 4), (2, 2, 2), (3, 6), (2, 8), (9,), (2, 2, 4)])
        core = _core(*torsion)
        sub = subquandle(core, _closed_random_subset(core, rng))
        assert orbits(sub) == literal_orbits(sub)


# --------------------------------------------------------------------------
# hard cases: on these Q_A tables a search that sets no forced image takes
# seconds, chain (4,4,4), or minutes, chain (3,3,3,2).  Reports no longer
# search them; the oracle `automorphism_classes` still does

HARD = {
    # name: (component classes as the report prints them, branch-node bound)
    "chain_3_3_3_2": ([[0, 1]], 20),
    "chain_4_4_4": ([[0, 1, 2, 3]], 500),
}


class _NodeBoundExceeded(AssertionError):
    pass


def _watch_nodes(monkeypatch, module, bound: int, q=None) -> list[int]:
    """Wrap `module._most_constrained`, called once per branch node, to
    count the nodes and stop past `bound`.  Given the searched table q, also
    check that the elements set at each node form a subquandle: every
    assignment was closed."""
    count = [0]
    real = module._most_constrained

    def watched(dom, done, used, n):
        count[0] += 1
        if count[0] > bound:
            raise _NodeBoundExceeded(f"more than {bound} branch nodes")
        if q is not None:
            members = [x for x in range(n) if done >> x & 1]
            for x in members:
                row = q.op[x]
                assert all(done >> row[y] & 1 for y in members), (
                    "assignment not closed"
                )
        return real(dom, done, used, n)

    monkeypatch.setattr(module, "_most_constrained", watched)
    return count


@pytest.mark.parametrize("name", sorted(HARD))
def test_hard_reports_are_bounded(name, capsys, monkeypatch):
    # the report reads its classes off the parity flag: no branch node
    count = _watch_nodes(monkeypatch, quandle, 0)
    path = DIAGRAMS / f"{name}.json"
    assert main(["--format", "machine", "--no-imq", "report", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["component_classes"] == HARD[name][0]
    assert count[0] == 0


def _hard_classes(monkeypatch, module, name: str) -> list[list[int]]:
    """The oracle `automorphism_classes`, running `module._iso_search`, on
    the component cosets of a hard diagram, under the node bound and the
    closure check."""
    mod = build_link_module(parse_diagram((DIAGRAMS / f"{name}.json").read_text()))
    qa = build_arc_quandle(mod)
    _watch_nodes(monkeypatch, module, HARD[name][1], qa.quandle)
    monkeypatch.setattr(quandle, "_iso_search", module._iso_search)
    reps = [qa.component_of.index(c) for c in range(mod.mu)]
    return [
        sorted({qa.component_of[x] for x in cls})
        for cls in automorphism_classes(qa.quandle, reps)
    ]


@pytest.mark.parametrize("name", sorted(HARD))
def test_hard_searches_close_every_assignment(name, monkeypatch):
    assert _hard_classes(monkeypatch, quandle, name) == HARD[name][0]


def _mutant(monkeypatch, old: str, new: str) -> types.ModuleType:
    """A copy of `imqlink.quandle` with one piece of source replaced."""
    source = inspect.getsource(quandle)
    assert source.count(old) == 1
    module = types.ModuleType("imqlink._quandle_mutant")
    module.__package__ = "imqlink"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), quandle.__file__, "exec"), module.__dict__)
    return module


def test_search_without_the_reverse_closure_leaves_assignments_open(
    monkeypatch,
):
    mutant = _mutant(
        monkeypatch,
        "for z, w in ((row1[c], row2[fc]), (op1[c][x], op2[fc][y])):",
        "for z, w in ((row1[c], row2[fc]),):",
    )
    with pytest.raises(AssertionError, match="assignment not closed"):
        _hard_classes(monkeypatch, mutant, "chain_3_3_3_2")


def test_search_without_the_fibre_check_exceeds_the_node_bound(monkeypatch):
    mutant = _mutant(
        monkeypatch,
        "(fib1[c][x] & ~done, fib2[fc][y]),\n"
        "                    (frow1[c] & ~done, frow2[fc]),",
        "",
    )
    with pytest.raises(_NodeBoundExceeded):
        _hard_classes(monkeypatch, mutant, "chain_4_4_4")


# chains whose presented quandles are not isomorphic, though the orbit
# sizes and fixed points leave every element many candidates: a search that
# tries every orbit of q2 for its first branching element takes 28,033 and
# 22,849 branch nodes; one that tries the least element of each, under 900
NON_ISOMORPHIC_IMQS = [((2, 4, 8), (2, 8, 4)), ((4, 4, 6), (4, 6, 4))]
FIRST_BRANCH_NODE_BOUND = 2000


def _chain_imq(gen, regions: tuple[int, ...]) -> FiniteQuandle:
    word = gen.chain_word(list(regions), random.Random(1))
    text = gen.to_text(gen.closure(word, len(regions) + 1))
    return compute_imq(build_link_module(parse_diagram(text))).quandle


@pytest.fixture(scope="module")
def non_isomorphic_imqs(perfbench_module):
    gen = perfbench_module("gen")
    return [(_chain_imq(gen, a), _chain_imq(gen, b)) for a, b in NON_ISOMORPHIC_IMQS]


def test_one_point_per_orbit_bounds_the_first_branch(non_isomorphic_imqs, monkeypatch):
    _watch_nodes(monkeypatch, quandle, FIRST_BRANCH_NODE_BOUND)
    for q1, q2 in non_isomorphic_imqs:
        assert is_isomorphic(q1, q2) is None


def test_search_of_every_first_image_exceeds_the_node_bound(
    non_isomorphic_imqs, monkeypatch
):
    mutant = _mutant(
        monkeypatch,
        "\n        candidates[x0] = [y for y in candidates[x0] if y in least]",
        "",
    )
    _watch_nodes(monkeypatch, mutant, FIRST_BRANCH_NODE_BOUND)
    with pytest.raises(_NodeBoundExceeded):
        for q1, q2 in non_isomorphic_imqs:
            mutant.is_isomorphic(q1, q2)
