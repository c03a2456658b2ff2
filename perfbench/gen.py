"""Seeded diagram families for the benchmark.

A braid word is a list of nonzero ints: +i is sigma_i, -i its inverse, on
strands 1..n.  Its closure is turned into the package's arc/crossing/walk
JSON format.  A twist-region chain sigma_1^a1 sigma_2^a2 ... closes to the
connected sum T(2,a1) # T(2,a2) # ..., so its invariants have closed forms:

    det   = prod |a_i|
    mu    = 1 + #{i : a_i even}
    |Q_A| = mu * det / 2^(mu - 1)
    |IMQ| = det for knots, and mu*det/2 >= |IMQ| >= mu*det/2^(mu-1) for links.

Every diagram written here goes through `imqlink.diagram.parse_diagram`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class Expect:
    """Closed-form answers for the closure of a twist-region chain."""

    det: int
    mu: int
    qa_size: int
    imq_low: int
    imq_high: int


def expect_chain(regions: list[int]) -> Expect:
    det = prod(abs(a) for a in regions)
    mu = 1 + sum(1 for a in regions if a % 2 == 0)
    qa = mu * det // (1 << (mu - 1))
    if mu == 1:
        return Expect(det, mu, qa, det, det)
    return Expect(det, mu, qa, qa, mu * det // 2)


def chain_word(regions: list[int], rng: random.Random) -> list[int]:
    """sigma_1^a1 sigma_2^a2 ..., each region mirrored at random.  Mirroring
    swaps over and under in a region and changes none of the invariants
    above, which are blind to crossing signs."""
    word: list[int] = []
    for i, a in enumerate(regions, start=1):
        sign = rng.choice((1, -1))
        word += [sign * i] * abs(a)
    return word


def pad_r2(word: list[int], n_strands: int, target: int, rng: random.Random) -> list[int]:
    """Insert sigma_i sigma_i^-1 pairs (Reidemeister II) at random places
    until the word has at least `target` letters."""
    word = list(word)
    while len(word) < target:
        i = rng.randrange(1, n_strands) * rng.choice((1, -1))
        at = rng.randrange(len(word) + 1)
        word[at:at] = [i, -i]
    return word


def rotate(word: list[int], rng: random.Random) -> list[int]:
    """A cyclic rotation of the word: a conjugate braid, so the same link."""
    k = rng.randrange(len(word))
    return word[k:] + word[:k]


def closure(word: list[int], n_strands: int) -> dict:
    """Arc/crossing/walk JSON object for the closure of a braid word.

    A positive letter sends the strand at the lower position over.  Each
    under-pass ends one arc and starts the next; at the bottom each
    position's last arc is glued to that position's first arc.
    """
    parent = list(range(n_strands))  # union-find over arc ids

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    pos_arc = list(range(n_strands))
    pos_strand = list(range(n_strands))
    unders: list[list[int]] = [[] for _ in range(n_strands)]  # per strand
    raw: list[tuple[int, int, int]] = []
    for g in word:
        i = abs(g) - 1
        if not 0 <= i < n_strands - 1:
            raise ValueError(f"letter {g} outside B_{n_strands}")
        over, under = (i, i + 1) if g > 0 else (i + 1, i)
        new = len(parent)
        parent.append(new)
        raw.append((pos_arc[over], pos_arc[under], new))
        unders[pos_strand[under]].append(len(raw) - 1)
        pos_arc[under] = new
        pos_arc[i], pos_arc[i + 1] = pos_arc[i + 1], pos_arc[i]
        pos_strand[i], pos_strand[i + 1] = pos_strand[i + 1], pos_strand[i]
    for p in range(n_strands):
        a, b = find(pos_arc[p]), find(p)
        if a != b:
            parent[a] = b
    # strand s starts at top position s and ends at bottom position end_at[s]
    end_at = [0] * n_strands
    for p, s in enumerate(pos_strand):
        end_at[s] = p

    names: dict[int, str] = {}

    def name(a: int) -> str:
        r = find(a)
        if r not in names:
            names[r] = f"a{len(names)}"
        return names[r]

    crossings = [[name(o), name(u), name(v)] for o, u, v in raw]
    components = []
    seen = [False] * n_strands
    for s0 in range(n_strands):
        if seen[s0]:
            continue
        xs: list[int] = []
        s = s0
        while not seen[s]:
            seen[s] = True
            xs += unders[s]
            s = end_at[s]
        if not xs:
            components.append({"arcs": [name(s0)], "crossings": []})
            continue
        arcs = [name(raw[xs[-1]][2])] + [name(raw[x][2]) for x in xs[:-1]]
        components.append({"arcs": arcs, "crossings": xs})
    return {"arcs": list(names.values()), "crossings": crossings, "components": components}


def redraw(obj: dict, rng: random.Random) -> dict:
    """The same diagram written differently: arcs renamed, component order
    shuffled, each walk started at another arc.  The arc and crossing lists
    keep their order: shuffled, they make smith_normal_form hang on some
    diagrams (see "Known defects" in README.md)."""
    fresh = [f"r{i}" for i in range(len(obj["arcs"]))]
    rng.shuffle(fresh)
    rename = dict(zip(obj["arcs"], fresh))
    components = []
    for comp in obj["components"]:
        arcs = [rename[a] for a in comp["arcs"]]
        xs = comp["crossings"]
        k = rng.randrange(len(arcs))
        components.append({"arcs": arcs[k:] + arcs[:k], "crossings": xs[k:] + xs[:k]})
    rng.shuffle(components)
    return {
        "arcs": [rename[a] for a in obj["arcs"]],
        "crossings": [[rename[a] for a in c] for c in obj["crossings"]],
        "components": components,
    }


def to_text(obj: dict) -> str:
    """Serialize and round-trip through the package parser, which validates
    the diagram; a generator bug fails here rather than inside a timed op."""
    from imqlink.diagram import parse_diagram

    text = json.dumps(obj, sort_keys=True)
    parse_diagram(text)
    return text
