"""Guards for the benchmark scripts in perfbench/ that reach into the
package by name, so that a refactor which moves or renames a function
fails here instead of at benchmark time; and against package functions
that nothing calls."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import imqlink

# public functions the README documents for library use that no package
# code calls
DOCUMENTED_API = {"fixture_text", "parse_quandle"}


def test_every_traced_name_resolves(perfbench_module):
    trace = perfbench_module("trace")
    for layer, names in trace.LAYERS.items():
        home = importlib.import_module(f"imqlink.{layer}")
        missing = [n for n in names if not callable(getattr(home, n, None))]
        assert missing == [], f"imqlink.{layer} lacks {missing}"
    traced = {n for names in trace.LAYERS.values() for n in names}
    assert set(trace.COUNT_HOOKS) <= traced


def test_every_public_function_has_a_caller(perfbench_module):
    # a top-level function in the package, public or private, is called
    # from package code, wrapped by the tracer, or documented API; one only
    # the tests call belongs in tests/oracles.py
    traced = {n for names in perfbench_module("trace").LAYERS.values() for n in names}
    package = Path(imqlink.__file__).parent
    trees = {p: ast.parse(p.read_text()) for p in package.rglob("*.py")}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    uncalled = []
    for path, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in traced or fn.name in DOCUMENTED_API:
                continue
            callers = [
                (p, line)
                for p, line in uses.get(fn.name, [])
                if not (p == path and fn.lineno <= line <= fn.end_lineno)
            ]
            if not callers:
                uncalled.append(f"{path.stem}.{fn.name}")
    assert uncalled == []
