"""Diagram parsing, validation, evenization, and walks."""

from __future__ import annotations

import json

import pytest

from imqlink.diagram import (
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
