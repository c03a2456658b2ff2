"""Guards for the benchmark scripts in perfbench/ that reach into the
package by name, so that a refactor which moves or renames a function
fails here instead of at benchmark time."""

from __future__ import annotations

import importlib


def test_every_traced_name_resolves(perfbench_module):
    trace = perfbench_module("trace")
    for layer, names in trace.LAYERS.items():
        home = importlib.import_module(f"imqlink.{layer}")
        missing = [n for n in names if not callable(getattr(home, n, None))]
        assert missing == [], f"imqlink.{layer} lacks {missing}"
    traced = {n for names in trace.LAYERS.values() for n in names}
    assert set(trace.COUNT_HOOKS) <= traced

