"""Shared session-scoped builders so expensive objects are computed once."""

from __future__ import annotations

import pytest

from imqlink.arcquandle import build_arc_quandle
from imqlink.diagram import parse_diagram
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.imq import compute_imq
from imqlink.linkmodule import build_link_module, link_determinant

FINITE = ("hopf2", "sixthree", "trefoil", "fig8", "t22t24")
INFINITE = ("fig5l", "figt", "lprime", "ldprime")


@pytest.fixture(scope="session")
def diagrams():
    return {name: parse_diagram(fixture_text(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def modules(diagrams):
    return {name: build_link_module(d) for name, d in diagrams.items()}


@pytest.fixture(scope="session")
def arc_quandles(modules):
    return {
        name: build_arc_quandle(mod)
        for name, mod in modules.items()
        if link_determinant(mod) != 0
    }


@pytest.fixture(scope="session")
def imq_results(diagrams, modules):
    return {
        name: compute_imq(modules[name])
        for name in FIXTURE_NAMES
        if link_determinant(modules[name]) != 0
    }
