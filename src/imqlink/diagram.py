"""Combinatorial model of an unoriented link diagram.

A diagram is a set of arcs (dense ids 0..n-1), a list of crossings (one
over-arc, two under-arc ends), and a list of components.  Each component
stores its arcs in cyclic walk order together with the crossing passed
between consecutive arcs, so the walk is unambiguous even when the same two
arcs meet at two different crossings.  No geometry is kept: any diagram
satisfying the combinatorial invariants is accepted, planar or not.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property

ARC_NAME_RE = re.compile(r"[A-Za-z0-9_']+\Z")


class DiagramSyntaxError(ValueError):
    """Malformed serialized diagram (bad JSON or bad structure)."""


class DiagramValidationError(ValueError):
    """Structurally well-formed input violating diagram invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Crossing:
    over: int
    under: tuple[int, int]  # order preserved for round-tripping only

    def under_multiset(self) -> tuple[int, int]:
        a, b = self.under
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Component:
    arcs: tuple[int, ...]
    crossings: tuple[int, ...]  # crossings[j] joins arcs[j] to arcs[(j+1) % k]


@dataclass(frozen=True)
class LinkDiagram:
    n_arcs: int
    crossings: tuple[Crossing, ...]
    components: tuple[Component, ...]
    arc_names: tuple[str, ...]

    @property
    def mu(self) -> int:
        return len(self.components)

    @cached_property
    def kappa(self) -> tuple[int, ...]:
        """Component index of each arc."""
        out = [-1] * self.n_arcs
        for ci, comp in enumerate(self.components):
            for a in comp.arcs:
                out[a] = ci
        return tuple(out)

    def is_even(self) -> bool:
        return all(len(c.arcs) % 2 == 0 for c in self.components)


def validate_diagram(d: LinkDiagram) -> list[str]:
    """All invariant violations, each prefixed with a rule id.  Empty = valid."""
    bad: list[str] = []
    n = d.n_arcs

    if not d.components:
        bad.append("no-components: the diagram has no components")
    if len(d.arc_names) != n:
        bad.append(f"arc-names: {len(d.arc_names)} names for {n} arcs")
    for i, c in enumerate(d.crossings):
        for a in (c.over, *c.under):
            if not 0 <= a < n:
                bad.append(f"arc-range: crossing {i} references arc {a}")

    seen: dict[int, int] = {}
    for ci, comp in enumerate(d.components):
        for a in comp.arcs:
            if not 0 <= a < n:
                bad.append(f"arc-range: component {ci} references arc {a}")
            elif a in seen:
                bad.append(
                    f"arc-repeated: component {ci} lists arc {a} twice"
                    if seen[a] == ci
                    else f"arc-in-multiple-components: arc {a} in components "
                    f"{seen[a]} and {ci}"
                )
            else:
                seen[a] = ci
    # seen holds distinct arcs in range, so it misses one iff it is short
    if len(seen) != n:
        for a in range(n):
            if a not in seen:
                bad.append(f"arc-unassigned: arc {a} is in no component")

    n_crossings = len(d.crossings)
    used = [0] * n_crossings
    for ci, comp in enumerate(d.components):
        arcs = comp.arcs
        k = len(arcs)
        if len(comp.crossings) != k and not (k == 1 and not comp.crossings):
            bad.append(
                f"alignment: component {ci} has {k} arcs but "
                f"{len(comp.crossings)} crossings"
            )
            continue
        if not k:
            bad.append(f"empty-component: component {ci} has no arcs")
        for j, x in enumerate(comp.crossings):
            if not 0 <= x < n_crossings:
                bad.append(f"crossing-range: component {ci} references crossing {x}")
                continue
            used[x] += 1
            a, b = arcs[j], arcs[(j + 1) % k]
            pair = (a, b) if a <= b else (b, a)
            have = d.crossings[x].under_multiset()
            if have != pair:
                bad.append(
                    f"alignment: component {ci} walk step {j} expects under pair "
                    f"{pair}, crossing {x} has {have}"
                )
    for x, times in enumerate(used):
        if times != 1:
            bad.append(f"crossing-used-once: crossing {x} used {times} times")
    return bad


def parse_diagram(text: str) -> LinkDiagram:
    """Parse the JSON serialization and validate the result.

    Raises DiagramSyntaxError for malformed input (with position when JSON
    itself is broken) and DiagramValidationError for invariant violations.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramSyntaxError(
            f"syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    except (ValueError, RecursionError) as e:
        # JSON the decoder refuses: an integer past the digit limit, or
        # nesting deeper than the recursion limit
        raise DiagramSyntaxError(f"undecodable JSON: {e}") from e
    if not isinstance(obj, dict):
        raise DiagramSyntaxError("top level must be a map")
    unknown = set(obj) - {"arcs", "crossings", "components"}
    if unknown:
        raise DiagramSyntaxError(f"unknown keys: {sorted(unknown)}")

    raw_components = obj.get("components")
    raw_crossings = obj.get("crossings", [])
    if not isinstance(raw_components, list):
        raise DiagramSyntaxError("missing or non-list 'components'")
    if not isinstance(raw_crossings, list):
        raise DiagramSyntaxError("non-list 'crossings'")

    def check_name(name) -> str:
        if not isinstance(name, str) or not ARC_NAME_RE.match(name):
            raise DiagramSyntaxError(f"bad arc name: {name!r}")
        return name

    # a name is checked once, when it first goes into index; a later
    # reference is one lookup, and only a miss (or an unhashable name)
    # falls back to the check
    names: list[str] = []
    index: dict[str, int] = {}
    declared = "arcs" in obj
    if declared:
        if not isinstance(obj["arcs"], list):
            raise DiagramSyntaxError("non-list 'arcs'")
        for name in obj["arcs"]:
            check_name(name)
            if name in index:
                raise DiagramSyntaxError(f"duplicate arc name: {name!r}")
            index[name] = len(names)
            names.append(name)

    def arc_id(name: str) -> int:
        try:
            return index[name]
        except (KeyError, TypeError):
            pass
        check_name(name)
        if declared:
            raise DiagramSyntaxError(f"unknown arc name: {name!r}")
        index[name] = len(names)
        names.append(name)
        return len(names) - 1

    components = []
    for ci, comp in enumerate(raw_components):
        if not isinstance(comp, dict) or not isinstance(comp.get("arcs"), list):
            raise DiagramSyntaxError(f"component {ci} must be a map with 'arcs'")
        arcs = tuple([arc_id(a) for a in comp["arcs"]])
        xs = comp.get("crossings", [])
        # bool is an int, but true/false would give the diagram a second key
        if not isinstance(xs, list) or not all(type(x) is int for x in xs):
            raise DiagramSyntaxError(f"component {ci} 'crossings' must be ints")
        components.append(Component(arcs=arcs, crossings=tuple(xs)))

    crossings = []
    for i, c in enumerate(raw_crossings):
        if not isinstance(c, list) or len(c) != 3:
            raise DiagramSyntaxError(f"crossing {i} must be [over, under, under]")
        crossings.append(Crossing(arc_id(c[0]), (arc_id(c[1]), arc_id(c[2]))))

    d = LinkDiagram(
        n_arcs=len(names),
        crossings=tuple(crossings),
        components=tuple(components),
        arc_names=tuple(names),
    )
    bad = validate_diagram(d)
    if bad:
        raise DiagramValidationError(bad)
    return d


def serialize_diagram(d: LinkDiagram) -> str:
    """Canonical JSON text; parse_diagram round-trips it."""
    obj = {
        "arcs": list(d.arc_names),
        "crossings": [
            [d.arc_names[c.over], d.arc_names[c.under[0]], d.arc_names[c.under[1]]]
            for c in d.crossings
        ],
        "components": [
            {
                "arcs": [d.arc_names[a] for a in comp.arcs],
                "crossings": list(comp.crossings),
            }
            for comp in d.components
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    return name


def make_even(d: LinkDiagram) -> LinkDiagram:
    """Insert kinks until every component has an even number of arcs.

    A kink splits an arc x into x, x_new and adds the self-crossing
    (over=x, under=(x, x_new)); the new arc follows x in the walk.  A
    zero-crossing component gets two kinks so it ends with 2 arcs.  The
    presented module is unchanged: each kink forces the two halves equal.
    """
    if d.is_even():
        return d
    names = list(d.arc_names)
    taken = set(names)
    crossings = list(d.crossings)
    components = list(d.components)
    for ci, comp in enumerate(components):
        if len(comp.arcs) % 2 == 0:
            continue
        if not comp.crossings:
            (z,) = comp.arcs
            z_new = len(names)
            name = _fresh_name(names[z], taken)
            names.append(name)
            taken.add(name)
            k1 = len(crossings)
            crossings.append(Crossing(over=z, under=(z, z_new)))
            k2 = len(crossings)
            crossings.append(Crossing(over=z_new, under=(z_new, z)))
            components[ci] = Component(arcs=(z, z_new), crossings=(k1, k2))
            continue
        x = comp.arcs[0]
        x_new = len(names)
        name = _fresh_name(names[x], taken)
        names.append(name)
        taken.add(name)
        kink = len(crossings)
        crossings.append(Crossing(over=x, under=(x, x_new)))
        # the old crossing at x's tail end now ends on x_new instead
        tail = comp.crossings[0]
        u = list(crossings[tail].under)
        u[1 if u[1] == x else 0] = x_new
        crossings[tail] = Crossing(over=crossings[tail].over, under=(u[0], u[1]))
        components[ci] = Component(
            arcs=(x, x_new) + comp.arcs[1:],
            crossings=(kink,) + comp.crossings,
        )
    out = LinkDiagram(
        n_arcs=len(names),
        crossings=tuple(crossings),
        components=tuple(components),
        arc_names=tuple(names),
    )
    bad = validate_diagram(out)
    if bad:
        raise AssertionError(f"make_even produced an invalid diagram: {bad}")
    return out


def component_walk(d: LinkDiagram, i: int) -> list[tuple[int, int]]:
    """(under-arc, over-arc) pairs along component i in walk order."""
    comp = d.components[i]
    if not comp.crossings:
        raise ValueError(f"no walk: component {i} has no crossings")
    return [
        (comp.arcs[j], d.crossings[comp.crossings[j]].over)
        for j in range(len(comp.arcs))
    ]
