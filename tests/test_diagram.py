"""Diagram parsing, validation, evenization, and walks."""

from __future__ import annotations

import copy
import json
import random

import pytest

from imqlink.diagram import (
    Crossing,
    DiagramSyntaxError,
    DiagramValidationError,
    component_walk,
    make_even,
    parse_diagram,
    serialize_diagram,
)
from imqlink.fixtures import FIXTURE_NAMES, fixture_text

UNKNOT = json.dumps(
    {"arcs": ["z"], "components": [{"arcs": ["z"], "crossings": []}], "crossings": []}
)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_is_identity(name):
    d = parse_diagram(fixture_text(name))
    text = serialize_diagram(d)
    again = parse_diagram(text)
    assert again == d
    assert serialize_diagram(again) == text


def test_arc_names_may_be_implicit():
    explicit = parse_diagram(fixture_text("trefoil"))
    obj = json.loads(fixture_text("trefoil"))
    del obj["arcs"]
    implicit = parse_diagram(json.dumps(obj))
    assert implicit.arc_names == explicit.arc_names
    assert implicit == explicit


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{bad", "syntax error at line"),
        ("[1,2]", "top level"),
        ('{"components": [], "extra": 1}', "unknown keys"),
        ('{"arcs": ["a", "a"], "components": []}', "duplicate arc name"),
        ('{"arcs": [""], "components": []}', "bad arc name"),
        (
            '{"components": [{"arcs": ["a"]}], "crossings": [["a", "a"]]}',
            "must be [over, under, under]",
        ),
        (
            '{"arcs": ["a"], "components": [{"arcs": ["a", "b"]}]}',
            "unknown arc name",
        ),
        ('{"components": [{"arcs": "a"}]}', "component 0"),
        (
            '{"components": [{"arcs": ["a"], "crossings": [true]}]}',
            "component 0 'crossings' must be ints",
        ),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(DiagramSyntaxError) as err:
        parse_diagram(text)
    assert fragment in str(err.value)


def test_validation_unused_crossing():
    text = json.dumps(
        {
            "arcs": ["a", "b"],
            "crossings": [["a", "b", "b"], ["b", "a", "a"], ["a", "b", "b"]],
            "components": [
                {"arcs": ["a"], "crossings": [1]},
                {"arcs": ["b"], "crossings": [0]},
            ],
        }
    )
    with pytest.raises(DiagramValidationError) as err:
        parse_diagram(text)
    assert any("crossing-used-once" in v for v in err.value.violations)


def test_validation_misaligned_walk():
    obj = json.loads(fixture_text("trefoil"))
    obj["crossings"][0][2] = "a"  # arc b no longer emerges anywhere
    with pytest.raises(DiagramValidationError) as err:
        parse_diagram(json.dumps(obj))
    assert any("alignment" in v for v in err.value.violations)


def test_validation_unassigned_arc():
    text = json.dumps(
        {
            "arcs": ["a", "b"],
            "crossings": [],
            "components": [{"arcs": ["a"], "crossings": []}],
        }
    )
    with pytest.raises(DiagramValidationError) as err:
        parse_diagram(text)
    assert any("arc-unassigned" in v for v in err.value.violations)


def test_evenness_flags():
    expected = {
        "hopf2": False,
        "sixthree": True,
        "trefoil": False,
        "fig8": True,
        "t22t24": False,
        "fig5l": True,
        "figt": False,
        "lprime": False,
        "ldprime": False,
    }
    for name, want in expected.items():
        assert parse_diagram(fixture_text(name)).is_even() is want


def test_make_even_returns_even_diagram_unchanged():
    d = parse_diagram(fixture_text("sixthree"))
    assert make_even(d) is d


def test_make_even_kinks_zero_crossing_unknot():
    d = parse_diagram(UNKNOT)
    e = make_even(d)
    assert e.arc_names == ("z", "z'")
    assert len(e.crossings) == 2
    walk = component_walk(e, 0)
    named = [(e.arc_names[u], e.arc_names[o]) for u, o in walk]
    assert named == [("z", "z"), ("z'", "z'")]


def test_make_even_hopf2():
    d = parse_diagram(fixture_text("hopf2"))
    e = make_even(d)
    assert e.is_even()
    assert [len(c.arcs) for c in e.components] == [2, 2, 2]
    assert e.arc_names == ("a", "b", "b'", "c", "a'", "c'")
    # middle component's walk passes under each outer component once
    names = e.arc_names
    walk = [(names[u], names[o]) for u, o in component_walk(e, 1)]
    assert walk == [("b", "a"), ("b'", "c")]


def test_walk_requires_crossings():
    d = parse_diagram(UNKNOT)
    with pytest.raises(ValueError, match="no walk"):
        component_walk(d, 0)


def test_walk_covers_each_component_once():
    d = parse_diagram(fixture_text("fig5l"))
    for i, comp in enumerate(d.components):
        walk = component_walk(d, i)
        assert [u for u, _ in walk] == list(comp.arcs)


def test_kappa_maps_arcs_to_components():
    d = parse_diagram(fixture_text("t22t24"))
    kappa = d.kappa
    for ci, comp in enumerate(d.components):
        for a in comp.arcs:
            assert kappa[a] == ci


def _trefoil(explicit: bool, where: str | None = None, value=None) -> str:
    """The trefoil with `value` as the first arc reference of `where`
    ("components", "crossings" or "arcs"), with or without the "arcs" list."""
    obj = json.loads(fixture_text("trefoil"))
    if where == "components":
        obj["components"][0]["arcs"][0] = value
    elif where == "crossings":
        obj["crossings"][0][0] = value
    elif where == "arcs":
        obj["arcs"][0] = value
    if not explicit:
        del obj["arcs"]
    return json.dumps(obj)


_BAD_NAMES = [
    ("int", 1, "bad arc name: 1"),
    ("null", None, "bad arc name: None"),
    ("bool", True, "bad arc name: True"),
    ("bigint", 2**70, f"bad arc name: {2**70}"),
    ("float", 1.5, "bad arc name: 1.5"),
    ("list", ["a"], "bad arc name: ['a']"),
    ("map", {}, "bad arc name: {}"),
    ("empty", "", "bad arc name: ''"),
    ("space", "a b", "bad arc name: 'a b'"),
    ("newline", "a\n", "bad arc name: 'a\\n'"),
]

# input text, exception type and exact message: a name is checked wherever
# it appears, with or without the "arcs" list, before it is looked up
PARSE_CONTRACT = [
    pytest.param(
        _trefoil(explicit, where, value),
        DiagramSyntaxError,
        message,
        id=f"{where}-{'named' if explicit else 'implicit'}-{label}",
    )
    for explicit in (True, False)
    for where in ("components", "crossings")
    for label, value, message in _BAD_NAMES
] + [
    pytest.param(_trefoil(True, "arcs", value), DiagramSyntaxError, message, id=f"arcs-{label}")
    for label, value, message in _BAD_NAMES
] + [
    pytest.param(
        _trefoil(True, "components", "zz"),
        DiagramSyntaxError,
        "unknown arc name: 'zz'",
        id="components-unknown",
    ),
    pytest.param(
        _trefoil(True, "crossings", "zz"),
        DiagramSyntaxError,
        "unknown arc name: 'zz'",
        id="crossings-unknown",
    ),
    pytest.param(
        _trefoil(True, "arcs", "b"),
        DiagramSyntaxError,
        "duplicate arc name: 'b'",
        id="arcs-duplicate",
    ),
    pytest.param(
        # the "arcs" list is read before any component
        '{"arcs": ["a", "b", "a"], "components": [{"arcs": ["x y"]}]}',
        DiagramSyntaxError,
        "duplicate arc name: 'a'",
        id="arcs-duplicate-first",
    ),
    pytest.param(
        '{"arcs": "a", "components": []}',
        DiagramSyntaxError,
        "non-list 'arcs'",
        id="arcs-not-a-list",
    ),
    pytest.param(
        # the component's "arcs" is checked before its crossings are
        '{"components": [{"arcs": ["a", 7], "crossings": "x"}]}',
        DiagramSyntaxError,
        "bad arc name: 7",
        id="component-arcs-first",
    ),
    pytest.param(
        # a name only a crossing uses gets the next id, 3, and no component
        _trefoil(False, "crossings", "d"),
        DiagramValidationError,
        "arc-unassigned: arc 3 is in no component",
        id="crossing-only-name",
    ),
    pytest.param(
        _trefoil(True, "components", "b"),
        DiagramValidationError,
        "arc-in-multiple-components: arc 1 in components 0 and 0; "
        "arc-unassigned: arc 0 is in no component; "
        "alignment: component 0 walk step 0 expects under pair (1, 1), "
        "crossing 0 has (0, 1); "
        "alignment: component 0 walk step 2 expects under pair (1, 2), "
        "crossing 2 has (0, 2)",
        id="arc-twice",
    ),
    pytest.param(
        '{"arcs": ["a", "b"], "crossings": [["a", "a", "b"], ["b", "b", "a"]], '
        '"components": [{"arcs": ["a", "b"], "crossings": [0, 5]}, '
        '{"arcs": [], "crossings": [1]}]}',
        DiagramValidationError,
        "crossing-range: component 0 references crossing 5; "
        "alignment: component 1 has 0 arcs but 1 crossings; "
        "crossing-used-once: crossing 1 used 0 times",
        id="crossing-out-of-range",
    ),
]


@pytest.mark.parametrize("text,error,message", PARSE_CONTRACT)
def test_parse_errors_are_exact(text, error, message):
    with pytest.raises((DiagramSyntaxError, DiagramValidationError)) as err:
        parse_diagram(text)
    assert type(err.value) is error
    assert str(err.value) == message


def test_implicit_names_are_numbered_by_first_sighting():
    # components first, each in walk order, then the crossings
    obj = json.loads(fixture_text("trefoil"))
    del obj["arcs"]
    obj["crossings"].append(["e", "e", "e"])
    obj["components"] = [
        {"arcs": ["e"], "crossings": [3]},
        {"arcs": ["b", "c", "a"], "crossings": [1, 2, 0]},
    ]
    d = parse_diagram(json.dumps(obj))
    assert d.arc_names == ("e", "b", "c", "a")
    assert d.crossings[0] == Crossing(over=2, under=(3, 1))  # ["c", "a", "b"]
    obj["crossings"][3] = ["d", "e", "e"]
    with pytest.raises(DiagramValidationError) as err:
        parse_diagram(json.dumps(obj))
    assert err.value.violations == ["arc-unassigned: arc 4 is in no component"]


# values a broken file may hold where a name, a list or an index belongs
_FUZZ_VALUES = [None, True, False, 0, -1, 7, 2**70, 1.5, "", "a b", "a", "zz", [], {}, ["a"], {"a": 1}]


def _replace_at_random(obj, rng: random.Random):
    """Replace one node of obj below the root by a fuzz value, in place."""
    paths = []
    stack = [((), obj)]
    while stack:
        path, node = stack.pop()
        if path:
            paths.append(path)
        if isinstance(node, dict):
            stack.extend((path + (k,), v) for k, v in node.items())
        elif isinstance(node, list):
            stack.extend((path + (i,), v) for i, v in enumerate(node))
    path = rng.choice(paths)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(rng.choice(_FUZZ_VALUES))


def test_broken_fixtures_raise_only_diagram_errors():
    # any other exception fails the test; most of the broken files are
    # refused, by both kinds of error
    rng = random.Random(22)
    raised = {DiagramSyntaxError: 0, DiagramValidationError: 0}
    for _ in range(2000):
        obj = json.loads(fixture_text(rng.choice(FIXTURE_NAMES)))
        for _ in range(rng.randint(1, 2)):
            _replace_at_random(obj, rng)
        try:
            parse_diagram(json.dumps(obj))
        except (DiagramSyntaxError, DiagramValidationError) as e:
            raised[type(e)] += 1
    assert raised[DiagramSyntaxError] > 1500
    assert raised[DiagramValidationError] > 10
