"""Spans around the public functions of each imqlink layer.

`Tracer.install` replaces each listed function, in every loaded `imqlink.*`
module that binds it, with a wrapper that records a span
(layer, name, op id, parent span, start, end).  Module-level calls inside a
layer go through the module's globals, so they are caught too.  Spans stay
in memory; `write` saves them when the run ends.  `uninstall` puts the
original functions back, so untraced passes run the unmodified package.

Work done in methods (GroupElt arithmetic, Presentation.lift) is not
wrapped; it is charged to the layer of the nearest wrapped caller, except
that `vec_mat`/`mat_mul`, which those methods call, are wrapped.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

LAYERS: dict[str, tuple[str, ...]] = {
    "diagram": (
        "parse_diagram", "validate_diagram", "serialize_diagram", "make_even",
        "component_walk",
    ),
    "abelian": (
        "smith_normal_form", "cokernel", "mat_mul", "vec_mat", "int_det",
        "solve_in_row_space", "left_kernel_basis", "subgroup_contains",
        "subgroup_type",
    ),
    "linkmodule": (
        "relation_matrix", "build_link_module", "weight_kernel",
        "link_determinant", "longitudes", "longitude_zero_subset",
        "torsion_parity_profile",
    ),
    "quandle": (
        "check_axioms", "orbits", "displacement_group", "is_semiregular",
        "core_quandle", "characteristic_subquandle", "subquandle",
        "is_isomorphic", "automorphisms", "group_from_quandle",
    ),
    "arcquandle": (
        "marking_kernel", "build_arc_quandle", "characteristic_compatibility",
        "marking_equivalent", "reindexing_sensitivity",
    ),
    "imq": ("compute_imq", "surjection_to_arc_quandle", "check_size_bounds"),
    "cli": ("main", "cmd_report", "cmd_compare", "cmd_corpus", "build_report"),
}

LAYER, NAME, OP, PARENT, START, END = range(6)


def _count_snf(counts: Counter, args, kwargs, out) -> None:
    rows = args[0] if args else kwargs["rows"]
    n_cols = args[1] if len(args) > 1 else kwargs.get("n_cols")
    if n_cols is None:
        n_cols = len(rows[0]) if rows else 0
    counts["abelian.snf_cells"] += len(rows) * n_cols


def _count_imq(counts: Counter, args, kwargs, out) -> None:
    counts["imq.elements_created"] += out.elements_created
    counts["imq.final_elements"] += out.quandle.n


def _count_automorphisms(counts: Counter, args, kwargs, out) -> None:
    counts["quandle.automorphisms_enumerated"] += len(out)


# counts read from arguments and return values, keyed by function name
COUNT_HOOKS = {
    "smith_normal_form": _count_snf,
    "compute_imq": _count_imq,
    "automorphisms": _count_automorphisms,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = COUNT_HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [layer, name, self.op, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "imqlink" or n.startswith("imqlink."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"imqlink.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for m in modules:
                    if m.__dict__.get(name) is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_summary(spans: list[list], keep=lambda op: True) -> dict:
    """Self seconds per layer, inclusive seconds and calls per function, and
    the total duration of the top-level spans, over the spans whose op id
    passes `keep`."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl: Counter = Counter()
    calls: Counter = Counter()
    top = 0.0
    for s, st in zip(spans, self_times(spans)):
        if not keep(s[OP]):
            continue
        self_s[s[LAYER]] += st
        incl[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        if s[PARENT] < 0:
            top += s[END] - s[START]
    return {"self_s": self_s, "incl_s": incl, "calls": calls, "top_s": top}
