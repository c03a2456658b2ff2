"""Shared session-scoped builders so expensive objects are computed once."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from imqlink.arcquandle import build_arc_quandle
from imqlink.diagram import parse_diagram
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.imq import compute_imq
from imqlink.linkmodule import build_link_module, link_determinant

FINITE = ("hopf2", "sixthree", "trefoil", "fig8", "t22t24")
INFINITE = ("fig5l", "figt", "lprime", "ldprime")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_module():
    """Loader of a benchmark script by name (`gen`, `trace`, ...): the
    benchmark directory is not a package, so each is imported by path."""
    loaded = {}

    def load(name: str):
        if name not in loaded:
            spec = importlib.util.spec_from_file_location(
                f"perfbench_{name}", PERFBENCH / f"{name}.py"
            )
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their module up in sys.modules
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
        return loaded[name]

    return load


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
