"""Shared session-scoped builders so expensive objects are computed once."""

from __future__ import annotations

import importlib.util
import signal
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from imqlink.arcquandle import build_arc_quandle
from imqlink.diagram import parse_diagram
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.imq import compute_imq
from imqlink.linkmodule import build_link_module, link_determinant

FINITE = ("hopf2", "sixthree", "trefoil", "fig8", "t22t24")
INFINITE = ("fig5l", "figt", "lprime", "ldprime")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every Hypothesis test draws the same examples on every run and keeps no
# example database, so a run of the suite is reproducible; what Hypothesis
# still stores (the literals it collects from the sources) goes to a
# directory outside the checkout, removed when the run ends
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="imqlink-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run `seconds` of wall
    time."""

    def out_of_time(signum, frame):
        raise TimeoutError(f"ran past its limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
