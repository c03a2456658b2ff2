"""Guards for the benchmark scripts in perfbench/ that reach into the
package by name, so that a refactor which moves or renames a function
fails here instead of at benchmark time; and against package functions
that nothing calls; and for the README's command synopsis against the
parser."""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import imqlink
from imqlink import cli, imq

# public functions the README documents for library use that no package
# code calls
DOCUMENTED_API = {"fixture_text", "parse_quandle"}

# package functions that no package code calls and that only the
# benchmark tracer's LAYERS names
TRACE_ONLY = {
    "abelian.int_det",
    "abelian.subgroup_contains",
    "abelian.subgroup_type",
    "diagram.make_even",
    "linkmodule.link_determinant",
    "quandle.automorphisms",
    "quandle.characteristic_subquandle",
    "quandle.is_semiregular",
}


def test_every_traced_name_resolves(perfbench_module):
    trace = perfbench_module("trace")
    for layer, names in trace.LAYERS.items():
        home = importlib.import_module(f"imqlink.{layer}")
        missing = [n for n in names if not callable(getattr(home, n, None))]
        assert missing == [], f"imqlink.{layer} lacks {missing}"
    traced = {n for names in trace.LAYERS.values() for n in names}
    assert set(trace.COUNT_HOOKS) <= traced


def test_the_imq_hooks_resolve(perfbench_module, imq_results):
    # the tracer wraps these by name in imqlink.imq, and its imq count
    # hook reads ImqResult.elements_created
    trace = perfbench_module("trace")
    assert set(trace.LAYERS["imq"]) == {
        "compute_imq", "surjection_to_arc_quandle", "check_size_bounds"
    }
    for name in trace.LAYERS["imq"]:
        assert callable(getattr(imq, name, None)), name
    res = imq_results["t22t24"]
    assert res.elements_created == res.quandle.n
    counts = Counter()
    trace._count_imq(counts, (), {}, res)
    assert counts["imq.elements_created"] == res.quandle.n


def _overrides(module: str, cls: str, name: str) -> bool:
    # a special method the language calls, or a method some base class of
    # the package class has too
    if name.startswith("__") and name.endswith("__"):
        return True
    klass = getattr(importlib.import_module(module), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def _uncalled() -> set[str]:
    # the top-level functions and the methods of top-level classes of the
    # package that no package code names outside their own body, as
    # module.name and module.Class.name; a method that overrides a base
    # class's is called through the base and is left out
    package = Path(imqlink.__file__).parent
    trees = {p: ast.parse(p.read_text()) for p in package.rglob("*.py")}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    uncalled = set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        defs = [
            (f"{path.stem}.{fn.name}", fn)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
        ]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [
                    (f"{path.stem}.{cls.name}.{fn.name}", fn)
                    for fn in cls.body
                    if isinstance(fn, ast.FunctionDef)
                    and not _overrides(module, cls.name, fn.name)
                ]
        for qualname, fn in defs:
            callers = [
                (p, line)
                for p, line in uses.get(fn.name, [])
                if not (p == path and fn.lineno <= line <= fn.end_lineno)
            ]
            if not callers:
                uncalled.add(qualname)
    return uncalled


def test_every_public_function_has_a_caller(perfbench_module):
    # a top-level function or a method in the package, public or private,
    # is called from package code, wrapped by the tracer, or documented
    # API; one only the tests call belongs in tests/oracles.py
    traced = {n for names in perfbench_module("trace").LAYERS.values() for n in names}
    kept = traced | DOCUMENTED_API
    assert sorted(f for f in _uncalled() if f.split(".")[1] not in kept) == []


def test_trace_only_functions_are_pinned(perfbench_module):
    # the functions only the tracer's LAYERS keeps: once LAYERS drops them
    # they move to tests/oracles.py
    layers = perfbench_module("trace").LAYERS
    traced = {f"{layer}.{n}" for layer, names in layers.items() for n in names}
    assert _uncalled() & traced == TRACE_ONLY


# the file calls that open text in the locale's encoding unless given one:
# per name, the position at which an encoding may come positionally, if any
_ENCODED_CALLS = {"read_text": 0, "write_text": 1, "open": None, "fdopen": None}


def test_every_file_call_names_an_encoding():
    # a diagram, cache or table file reads and writes the same bytes in
    # every locale: each text call names its encoding, each binary one
    # its mode
    package = Path(imqlink.__file__).parent
    seen, bare = 0, []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name not in _ENCODED_CALLS:
                continue
            seen += 1
            at = _ENCODED_CALLS[name]
            if at is None:  # open, fdopen: a binary mode, if not an encoding
                modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args
                given = any(
                    isinstance(m, ast.Constant)
                    and isinstance(m.value, str)
                    and set(m.value) <= set("rwxabt+")
                    and "b" in m.value
                    for m in modes
                )
            else:
                given = len(node.args) > at
            if not (given or any(k.arg == "encoding" for k in node.keywords)):
                bare.append(f"{path.name}:{node.lineno} {name}")
    assert bare == []
    # the diagram read, the table and cache writes, the fixtures' read
    assert seen >= 4


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    return {
        s
        for action in parser._actions
        for s in action.option_strings
        if s.startswith("--") and s != "--help"
    }


def test_readme_synopsis_names_exactly_the_parser_options():
    # the README's command synopsis: the usage line, then one line per
    # command, each naming the options that command takes
    readme = (Path(imqlink.__file__).parents[2] / "README.md").read_text()
    section = readme[readme.index("## Command line") :]
    block = section[section.index("```text\n") + 8 :]
    usage, *lines = block[: block.index("```")].splitlines()
    option = re.compile(r"--[a-z][\w-]*")
    documented = {None: set(option.findall(usage))}
    for line in lines:
        if line.startswith("  "):
            documented[line.split()[0]] = set(option.findall(line))

    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {None: _long_options(parser)}
    defined.update((name, _long_options(p)) for name, p in sub.choices.items())
    assert documented == defined
