"""Command line front end: single-diagram reports, pairwise comparisons,
and cached corpus runs.

Exit codes: 0 success, 1 usage or parse failure, 2 diagram validation
failure, 3 resource cap tripped, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .abelian import FgAbGroup
from .arcquandle import (
    build_arc_quandle,
    characteristic_compatibility,
    marking_equivalent,
    reindexing_sensitivity,
)
from .diagram import (
    DiagramSyntaxError,
    DiagramValidationError,
    LinkDiagram,
    parse_diagram,
    serialize_diagram,
)
from .imq import (
    ImqResult,
    check_size_bounds,
    compute_imq,
    surjection_to_arc_quandle,
)
from .linkmodule import (
    build_link_module,
    longitude_zero_subset,
    longitudes,
    torsion_parity_profile,
)
from .quandle import (
    CapExceeded,
    group_from_quandle,
    is_isomorphic,
    is_isomorphism,
    orbits,
    serialize_quandle,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's 2
        raise UsageError(message)


def _group_dict(g: FgAbGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion), "text": g.describe()}


def _load(path: str) -> LinkDiagram:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise DiagramSyntaxError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DiagramSyntaxError(f"cannot decode {path}: {e}") from e
    return parse_diagram(text)


# exit code and stderr label per exception kind, first match wins; the
# Diagram* errors subclass ValueError, and any other ValueError comes from
# the engine, not from the input.  InternalCheckError is an AssertionError.
_EXIT_CODES = (
    (UsageError, EXIT_USAGE, "usage error"),
    (DiagramSyntaxError, EXIT_USAGE, "parse error"),
    (DiagramValidationError, EXIT_VALIDATION, "validation error"),
    (CapExceeded, EXIT_CAP, "resource cap"),
    (AssertionError, EXIT_INTERNAL, "internal consistency failure"),
    (ValueError, EXIT_INTERNAL, "internal error"),
)
_MAPPED = tuple(kind for kind, _, _ in _EXIT_CODES)


def _exit_code(e: Exception) -> tuple[int, str]:
    """The exit code and label of an exception of a _MAPPED kind."""
    return next(
        (code, label) for kind, code, label in _EXIT_CODES if isinstance(e, kind)
    )


def build_report(
    d: LinkDiagram,
    name: str,
    run_imq: bool = True,
    imq_cap: int | None = None,
) -> tuple[dict, ImqResult | None]:
    """All report fields for one diagram, as a JSON-ready dict, and the
    presented quandle when it was computed."""
    mod = build_link_module(d)
    det = mod.determinant
    longs = longitudes(mod)
    zero_subset = (
        list(longitude_zero_subset(mod, longs) or ()) if d.mu >= 2 else None
    )
    report: dict = {
        "name": name,
        "engine_version": __version__,
        "components": d.mu,
        "arcs": d.n_arcs,
        "crossings": len(d.crossings),
        # an odd component's longitude is read as if make_even had kinked it
        "evenized": not d.is_even(),
        "determinant": det,
        "module": _group_dict(mod.group),
        "weight_kernel": _group_dict(mod.kernel),
        "longitude_orders": [l.order() for l in longs],
        "longitude_zero_subset": zero_subset,
        "parity_profile": [list(v) for v in torsion_parity_profile(mod)],
        "characteristic_compatibility": characteristic_compatibility(mod).status,
    }
    checks: dict = {}
    res = None
    if det == 0:
        report["arc_quandle"] = "infinite"
        report["imq"] = "infinite"
    else:
        qa = build_arc_quandle(mod)
        report["arc_quandle"] = {
            "size": qa.quandle.n,
            "orbit_sizes": sorted(len(o) for o in orbits(qa.quandle)),
        }
        checks["arc_quandle_size_formula"] = (
            qa.quandle.n * (1 << (d.mu - 1)) == d.mu * det
        )
        sens = reindexing_sensitivity(mod)
        report["component_classes"] = [list(c) for c in sens.classes]
        if not run_imq:
            report["imq"] = "skipped"
        else:
            res = compute_imq(mod, max_elements=imq_cap)
            q = res.quandle
            report["imq"] = {
                "size": q.n,
                "orbit_sizes": sorted(len(o) for o in orbits(q)),
            }
            checks["size_bounds"] = check_size_bounds(q, det, d.mu)
            checks["imq_group_reconstruction"] = group_from_quandle(q) == mod.group
            surjection_to_arc_quandle(res, qa)  # raises on failure
            checks["surjection_onto_arc_quandle"] = True
            lower = (d.mu * det) // (1 << (d.mu - 1))
            upper = (d.mu * det) // 2
            report["imq_strictly_between_bounds"] = (
                d.mu > 1 and lower < q.n < upper
            )
    report["checks"] = checks
    report["checks_passed"] = all(checks.values())
    return report, res


def render_report_text(rep: dict) -> str:
    lines = [f"diagram: {rep['name']}"]
    lines.append(
        f"  components {rep['components']}, arcs {rep['arcs']}, "
        f"crossings {rep['crossings']}"
        + (", evenized for longitudes" if rep["evenized"] else "")
    )
    lines.append(f"  determinant: {rep['determinant']}")
    lines.append(f"  module: {rep['module']['text']}")
    lines.append(f"  weight kernel (double cover homology): {rep['weight_kernel']['text']}")
    lines.append(f"  longitude orders: {rep['longitude_orders']}")
    if rep["longitude_zero_subset"] is not None:
        lines.append(f"  longitude zero subset: {rep['longitude_zero_subset'] or 'none'}")
    qa = rep["arc_quandle"]
    if isinstance(qa, dict):
        lines.append(f"  coset quandle: {qa['size']} elements, orbits {qa['orbit_sizes']}")
    else:
        lines.append(f"  coset quandle: {qa}")
    imq = rep["imq"]
    if isinstance(imq, dict):
        lines.append(f"  presented quandle: {imq['size']} elements, orbits {imq['orbit_sizes']}")
    else:
        lines.append(f"  presented quandle: {imq}")
    lines.append(
        f"  characteristic compatibility: {rep['characteristic_compatibility']}"
    )
    profile = ["".join(str(b) for b in v) for v in rep["parity_profile"]]
    lines.append(f"  parity profile: {' '.join(profile) if profile else '(empty)'}")
    if "component_classes" in rep:
        lines.append(f"  interchangeable components: {rep['component_classes']}")
    lines.append(f"  checks passed: {rep['checks_passed']}")
    return "\n".join(lines)


def _emit(rep: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "machine":
        print(json.dumps(rep, sort_keys=True, separators=(",", ":")), file=out)
    else:
        print(render_report_text(rep), file=out)


def cmd_report(args) -> int:
    d = _load(args.path)
    code = EXIT_OK
    rep, res = build_report(
        d, Path(args.path).stem, run_imq=not args.no_imq, imq_cap=args.imq_cap
    )
    _emit(rep, args.format)
    if args.dump_quandle:
        if res is not None:
            Path(args.dump_quandle).write_text(serialize_quandle(res.quandle))
        else:
            print("no finite presented quandle to dump", file=sys.stderr)
            code = EXIT_VALIDATION
    return code


def cmd_compare(args) -> int:
    d1, d2 = _load(args.path1), _load(args.path2)
    m1, m2 = build_link_module(d1), build_link_module(d2)
    det1, det2 = m1.determinant, m2.determinant
    marking = marking_equivalent(m1, m2)
    record: dict = {
        "first": Path(args.path1).stem,
        "second": Path(args.path2).stem,
        "module_isomorphic": m1.group == m2.group,
        "marking_equivalent": marking.status,
        "marking_reason": marking.reason,
        "h1_isomorphic": m1.kernel == m2.kernel,
    }
    if det1 != 0 and det2 != 0:
        q1, q2 = build_arc_quandle(m1).quandle, build_arc_quandle(m2).quandle
        # an equivalent marking carries the coset-quandle isomorphism it
        # found; check that bijection rather than search again
        witness = (marking.witness or {}).get("bijection")
        if marking.status == "equivalent" and witness is not None:
            record["arc_quandle_isomorphic"] = is_isomorphism(q1, q2, witness)
        else:
            record["arc_quandle_isomorphic"] = is_isomorphic(q1, q2) is not None
        if args.no_imq:
            record["imq_isomorphic"] = None
        else:
            r1 = compute_imq(m1, max_elements=args.imq_cap)
            r2 = compute_imq(m2, max_elements=args.imq_cap)
            record["imq_isomorphic"] = (
                is_isomorphic(r1.quandle, r2.quandle) is not None
            )
    else:
        record["arc_quandle_isomorphic"] = None
        record["imq_isomorphic"] = None

    # implication chain: imq iso => markings equivalent => coset quandles
    # iso (when defined) => double-cover homology iso
    chain_ok = True
    if record["imq_isomorphic"] is True and marking.status != "equivalent":
        chain_ok = False
    if marking.status == "equivalent":
        if record["arc_quandle_isomorphic"] is False:
            chain_ok = False
        if not record["h1_isomorphic"]:
            chain_ok = False
    if record["arc_quandle_isomorphic"] is True and not record["h1_isomorphic"]:
        chain_ok = False
    record["implication_chain_ok"] = chain_ok

    if args.format == "machine":
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        print(f"compare {record['first']} vs {record['second']}")
        for key in (
            "module_isomorphic",
            "marking_equivalent",
            "arc_quandle_isomorphic",
            "imq_isomorphic",
            "h1_isomorphic",
        ):
            print(f"  {key}: {record[key]}")
        print(f"  ({record['marking_reason']})")
    if not chain_ok:
        print("internal error: implication chain violated", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# corpus runs with a content-addressed cache


# Part of every cache key.  Bump it with any engine change that alters a
# report, so that a cache written before the change is not served after it;
# tests/test_machine_output.py pins it to the recorded gate files.
CACHE_SCHEMA = 2


def _cache_key(d: LinkDiagram, no_imq: bool, imq_cap: int | None) -> str:
    material = f"{serialize_diagram(d)}\n{__version__}\nschema:{CACHE_SCHEMA}"
    if no_imq or imq_cap is not None:
        material += f"\nflags:no_imq={no_imq},imq_cap={imq_cap}"
    return hashlib.sha256(material.encode()).hexdigest()


def _load_cache(path: Path) -> tuple[dict[str, dict], bool]:
    """The cached reports by key, and whether the file exists with every
    non-blank line a record, so that rewriting it would give it back the
    same dict.  A record is an object with a string "key" and an object
    "report"; any other line is corrupt."""
    cache: dict[str, dict] = {}
    clean = path.exists()
    if clean:
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("key"), str)
                and isinstance(entry.get("report"), dict)
            ):
                cache[entry["key"]] = entry["report"]
            else:
                clean = False  # skip the corrupt record; the rewrite drops it
    return cache, clean


def _write_cache(path: Path, cache: dict[str, dict]) -> None:
    """Rewrite the cache atomically, through a temp file of its own in the
    cache's directory, so concurrent runs never write into one file."""
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as fh:
            for key in sorted(cache):
                fh.write(json.dumps({"key": key, "report": cache[key]}, sort_keys=True))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _error_row(name: str, e: Exception) -> dict:
    return {"name": name, "error": str(e), "exit": _exit_code(e)[0]}


def _corpus_worker(
    d: LinkDiagram, name: str, no_imq: bool, imq_cap: int | None
) -> dict:
    """The report row of one parsed diagram, or its error row."""
    try:
        return build_report(d, name, run_imq=not no_imq, imq_cap=imq_cap)[0]
    except _MAPPED as e:
        return _error_row(name, e)


def cmd_corpus(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, not {args.jobs}")
    base = Path(args.dir)
    if not base.is_dir():
        raise UsageError(f"not a directory: {args.dir}")
    files = sorted(p for p in base.iterdir() if p.suffix == ".json")
    cache_path = Path(
        args.cache or os.environ.get("QUANDLE_CACHE") or ".quandle-cache"
    )
    cache, clean = _load_cache(cache_path)

    rows: list[dict] = []
    hits = 0
    worst = EXIT_OK
    to_compute: list[tuple[int, LinkDiagram, str]] = []
    added = False
    for p in files:
        try:
            d = _load(str(p))
        except (DiagramSyntaxError, DiagramValidationError) as e:
            rows.append(_error_row(p.stem, e))
            worst = max(worst, rows[-1]["exit"])
            continue
        key = _cache_key(d, args.no_imq, args.imq_cap)
        if key in cache:
            hits += 1
            rows.append({**cache[key], "cached": True})
        else:
            rows.append({"pending": key})
            to_compute.append((len(rows) - 1, d, p.stem))

    if to_compute:
        if args.jobs > 1:
            # imported here: a sequential run need not load it
            from concurrent import futures

            # the pool forks all its workers at once: no more than there
            # are diagrams to compute
            workers = min(args.jobs, len(to_compute))
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                computed = list(
                    pool.map(
                        _corpus_worker,
                        [d for _, d, _ in to_compute],
                        [name for _, _, name in to_compute],
                        [args.no_imq] * len(to_compute),
                        [args.imq_cap] * len(to_compute),
                    )
                )
        else:
            computed = [
                _corpus_worker(d, name, args.no_imq, args.imq_cap)
                for _, d, name in to_compute
            ]
        for (idx, _, _), rep in zip(to_compute, computed):
            if "error" in rep:
                worst = max(worst, rep["exit"])
                rows[idx] = rep
            else:
                key = rows[idx]["pending"]
                cache[key] = rep
                added = True
                rows[idx] = {**rep, "cached": False}

    if added or not clean:
        _write_cache(cache_path, cache)

    ok_rows = [r for r in rows if "error" not in r]
    all_checks = all(r.get("checks_passed", False) for r in ok_rows)
    flagged = [r["name"] for r in ok_rows if r.get("imq_strictly_between_bounds")]
    summary = {
        "diagrams": len(files),
        "reported": len(ok_rows),
        "errors": len(rows) - len(ok_rows),
        "cache_hits": hits,
        "all_property_checks_passed": all_checks,
        "imq_strictly_between_bounds": flagged,
    }
    if args.format == "machine":
        print(
            json.dumps(
                {"rows": rows, "summary": summary},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    else:
        for r in rows:
            if "error" in r:
                print(f"{r['name']}: ERROR ({r['error']})")
            else:
                qa = r["arc_quandle"]
                imq = r["imq"]
                qa_s = qa["size"] if isinstance(qa, dict) else qa
                imq_s = imq["size"] if isinstance(imq, dict) else imq
                print(
                    f"{r['name']:10s} mu={r['components']} det={r['determinant']:<3d} "
                    f"QA={qa_s:<8} IMQ={imq_s:<8} "
                    f"char={r['characteristic_compatibility']:7s} "
                    f"checks={'ok' if r['checks_passed'] else 'FAIL'}"
                    f"{' (cached)' if r.get('cached') else ''}"
                )
        print(
            f"summary: {summary['reported']}/{summary['diagrams']} reported, "
            f"{summary['errors']} errors, {summary['cache_hits']} cache hits, "
            f"property checks {'pass' if all_checks else 'FAIL'}"
        )
        if flagged:
            print(f"note: size strictly between bounds for: {', '.join(flagged)}")
    if not all_checks:
        worst = max(worst, EXIT_INTERNAL)
    return worst


def _build_parser() -> _Parser:
    parser = _Parser(prog="imqlink", description=__doc__)
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--no-imq", action="store_true", help="skip the presented quandle")
    parser.add_argument("--imq-cap", type=int, default=None, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full invariant report for one diagram")
    p_report.add_argument("path")
    p_report.add_argument("--dump-quandle", metavar="PATH", default=None)
    p_report.set_defaults(func=cmd_report)

    p_compare = sub.add_parser("compare", help="pairwise comparison record")
    p_compare.add_argument("path1")
    p_compare.add_argument("path2")
    p_compare.set_defaults(func=cmd_compare)

    p_corpus = sub.add_parser("corpus", help="report every diagram in a directory")
    p_corpus.add_argument("dir")
    p_corpus.add_argument("--cache", metavar="PATH", default=None)
    p_corpus.add_argument("--jobs", type=int, default=1, metavar="N")
    p_corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _MAPPED as e:
        code, label = _exit_code(e)
        if isinstance(e, DiagramValidationError):
            print(f"{label}:", file=sys.stderr)
            for v in e.violations:
                print(f"  {v}", file=sys.stderr)
        else:
            # some messages already start with their label
            msg = str(e)
            if not msg.startswith(f"{label}:"):
                msg = f"{label}: {msg}"
            print(msg, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
