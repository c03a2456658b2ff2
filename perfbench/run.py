"""imqlink benchmark: seeded diagram workloads driven through the CLI.

    python3 perfbench/run.py --workload imq_ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from `src/` of
that checkout and driven in this one process through `imqlink.cli.main`,
with stdout captured; every answer is checked against closed forms.  The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the same passes run once untraced and then with spans around
each layer's public functions, and the metrics are the per-layer ones.
Times are scaled to a nominal machine speed by a probe kernel (see
PROBE_NOMINAL_S).  The line before it is a `detail` object (percentiles
used, sample counts, raw times, pass hashes, failures, platform).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import snf_hang
import trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

SETUP_REPEATS_PER_PASS = 3
WARM_REPEATS = 30
TAIL_PERCENTILE = 75
# samples of each latency kind a run collects at least, so that the tail
# percentile has at least ten samples beyond it: 40 * (1 - 0.75) = 10
MIN_SAMPLES = 40
TRACE_MIN_PASSES = 3

# Speed probe.  The speed of the machines this runs on drifts by a third
# within minutes, and a pure-Python kernel slows partly in step: over 15-s
# windows a report's time moved 37-60% and its ratio to the probe's 4-22%.
# So every timing of a run is scaled by PROBE_NOMINAL_S / (median time of
# the probes run before its ops): seconds on a machine where the probe takes
# PROBE_NOMINAL_S.  One factor per run, as single probes are noisy.  The
# probe runs none of imqlink; raw figures are in `detail`.
PROBE_NOMINAL_S = 0.006
_PROBE_ROWS = [[(i * j) % 7 - 3 for j in range(40)] for i in range(40)]


def probe() -> float:
    """Seconds one run of the fixed probe kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(6):
        for r in _PROBE_ROWS:
            for s in _PROBE_ROWS[:10]:
                acc += sum(a * b for a, b in zip(r, s))
    return time.perf_counter() - t0


# T(2,25) per-layer seconds from the ROADMAP baseline table (2 vCPUs,
# Python 3.11.7, one run, a scratch generator)
ROADMAP_T225 = {
    "compute_imq": 2.18,
    "group_from_quandle": 0.53,
    "reindexing_sensitivity": 0.22,
    "check_axioms": 0.06,
    "report": 2.45,
}


Spec = tuple[tuple[int, ...], int]  # twist regions, R2-padded length (0: none)


def chain(*regions: int, pad: int = 0) -> Spec:
    return regions, pad


@dataclass(frozen=True)
class Workload:
    """Twist-region chains (see gen.py) for each kind of op in a pass.

    Every pass runs `report` on each of `report`, `compare D D'` on each of
    `compare` (D' a redraw of D), `corpus` cold on each shard of `shards`
    against a fresh cache, then `corpus` warm over all shards WARM_REPEATS
    times.  `flags` go before every subcommand.  `report` and `compare` each
    hold six ops, spaced about 1.5x or more apart in time except the third
    and fourth, which are two drawings of one link: so the median falls in
    the middle of those two ops' samples and the 75th percentile in the
    middle of the fifth op's, not on a boundary between ops.
    """

    flags: tuple[str, ...]
    report: tuple[Spec, ...]
    compare: tuple[Spec, ...]
    shards: tuple[tuple[Spec, ...], ...]


# Why each workload exists, and its outliers, is in README.md.
WORKLOADS = {
    "imq_ladder": Workload(
        flags=(),
        report=(chain(9), chain(13), chain(17), chain(17), chain(2, 2, 2), chain(2, 6)),
        compare=(chain(2, 2), chain(7), chain(9), chain(9), chain(11), chain(13)),
        shards=((chain(5), chain(9), chain(2, 2)), (chain(7), chain(2, 3), chain(11))),
    ),
    "padded_corpus": Workload(
        flags=(),
        report=tuple(chain(2, 3, pad=p) for p in (12, 20, 30, 30, 42, 56)),
        compare=tuple(chain(2, 3, pad=p) for p in (8, 14, 22, 22, 32, 44)),
        shards=((chain(2, 2, pad=40), chain(2, 3, pad=40)),
                (chain(3, 3, pad=40), chain(3, 2, pad=40))),
    ),
    "reindex_compare": Workload(
        flags=("--no-imq",),
        report=(chain(21), chain(4, 10), chain(3, 10), chain(3, 10), chain(3, 3, 2),
                chain(2, 21)),
        compare=(chain(3, 6), chain(3, 3, 2), chain(3, 10), chain(3, 10), chain(2, 21),
                 chain(41)),
        shards=((chain(2, 20), chain(4, 10)), (chain(2, 2, 9), chain(3, 10))),
    ),
}
BASELINE_REGIONS = (25,)  # T(2,25), reported by traced imq_ladder runs


@dataclass
class Op:
    kind: str  # report | compare | cold | warm
    argv: list[str]
    names: tuple[str, ...]  # diagram stems the op covers
    analysed: int  # diagrams the op computes invariants for


@dataclass
class Inputs:
    tmp: Path
    cache: Path
    ops: list[Op]
    expect: dict[str, gen.Expect]


@dataclass
class PassResult:
    wall: float = 0.0
    digest: str = ""
    latencies: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes: int = 0
    analysed: int = 0
    attempted: int = 0
    failed: int = 0
    probes: list[float] = field(default_factory=list)


def speed_factor(probes: list[float]) -> float:
    """Factor that scales times measured beside `probes` to the nominal machine."""
    return PROBE_NOMINAL_S / statistics.median(probes)


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import imqlink from this checkout's src/ afresh, so set-up time
    includes the package import; refuse any other copy."""
    for name in [n for n in sys.modules if n == "imqlink" or n.startswith("imqlink.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("imqlink.cli")
    if Path(cli.__file__).resolve().parent != SRC / "imqlink":
        raise SystemExit(f"error: imported imqlink from {cli.__file__}, not {SRC}")
    return cli


def make_inputs(w: Workload, seed: int, tmp: Path) -> Inputs:
    rng = random.Random(seed)
    expect: dict[str, gen.Expect] = {}
    flags = ["--format", "machine", *w.flags]

    def word(spec: Spec) -> tuple[list[int], int]:
        regions, pad = spec
        n = len(regions) + 1
        wd = gen.chain_word(list(regions), rng)
        return (gen.pad_r2(wd, n, pad, rng) if pad else wd), n

    def write(path: Path, obj: dict, spec: Spec) -> None:
        path.write_text(gen.to_text(obj))
        expect[path.stem] = gen.expect_chain(list(spec[0]))

    ops: list[Op] = []
    for i, spec in enumerate(w.report):
        wd, n = word(spec)
        p = tmp / f"report{i}.json"
        write(p, gen.closure(wd, n), spec)
        ops.append(Op("report", [*flags, "report", str(p)], (p.stem,), 1))
    for i, spec in enumerate(w.compare):
        wd, n = word(spec)
        a, b = tmp / f"pair{i}a.json", tmp / f"pair{i}b.json"
        write(a, gen.closure(wd, n), spec)
        write(b, gen.redraw(gen.closure(gen.rotate(wd, rng), n), rng), spec)
        ops.append(Op("compare", [*flags, "compare", str(a), str(b)], (a.stem, b.stem), 2))

    cache = tmp / "cache.jsonl"
    everything = tmp / "corpus_all"
    everything.mkdir()
    all_names: list[str] = []
    for j, shard in enumerate(w.shards):
        d = tmp / f"shard{j}"
        d.mkdir()
        names = []
        for i, spec in enumerate(shard):
            wd, n = word(spec)
            p = d / f"s{j}d{i}.json"
            write(p, gen.closure(wd, n), spec)
            shutil.copyfile(p, everything / p.name)
            names.append(p.stem)
        all_names += names
        ops.append(Op("cold", [*flags, "corpus", str(d), "--cache", str(cache),
                               "--jobs", "1"], tuple(names), len(names)))
    for _ in range(WARM_REPEATS):
        ops.append(Op("warm", [*flags, "corpus", str(everything), "--cache",
                               str(cache), "--jobs", "1"], tuple(all_names), 0))
    return Inputs(tmp=tmp, cache=cache, ops=ops, expect=expect)


def baseline_op(inputs: Inputs, seed: int) -> Op:
    """Write T(2,25) into the inputs' dir; its full report is the op."""
    regions = list(BASELINE_REGIONS)
    p = inputs.tmp / "baseline_t2_25.json"
    p.write_text(gen.to_text(gen.closure(gen.chain_word(regions, random.Random(seed)), 2)))
    inputs.expect[p.stem] = gen.expect_chain(regions)
    return Op("report", ["--format", "machine", "report", str(p)], (p.stem,), 1)


@dataclass
class Setups:
    """Timed set-ups of one run, each with the speed probe taken before it."""

    workload: str
    seed: int
    times: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def run(self):
        """Import, generate and write the inputs, make the temp cache dir."""
        self.probes.append(probe())
        t0 = time.perf_counter()
        cli = import_package()
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-{self.seed}-", dir=RUN_DIR))
        inputs = make_inputs(WORKLOADS[self.workload], self.seed, tmp)
        self.times.append(time.perf_counter() - t0)
        return cli, inputs

    def scaled_median(self) -> float:
        """Median set-up time, each scaled by the probe taken just before it.
        A set-up lasts a few probes, so its own probe tracks the speed it ran
        at better than the run's factor: over ten runs the spread of this
        median was half that of the run-scaled one."""
        return statistics.median(
            t * PROBE_NOMINAL_S / p for t, p in zip(self.times, self.probes))

    def repeat(self) -> None:
        """SETUP_REPEATS_PER_PASS more set-ups, whose results are dropped."""
        for _ in range(SETUP_REPEATS_PER_PASS):
            shutil.rmtree(self.run()[1].tmp)


# ---------------------------------------------------------------------------
# answer checks: each returns a list of problems, empty when the answer holds


def check_report(rep: dict, e: gen.Expect, imq_on: bool) -> list[str]:
    bad = []
    if rep.get("determinant") != e.det:
        bad.append(f"determinant {rep.get('determinant')} != {e.det}")
    if rep.get("components") != e.mu:
        bad.append(f"components {rep.get('components')} != {e.mu}")
    qa = rep.get("arc_quandle")
    if not isinstance(qa, dict) or qa.get("size") != e.qa_size:
        bad.append(f"arc quandle {qa} != size {e.qa_size}")
    imq = rep.get("imq")
    if imq_on:
        size = imq.get("size") if isinstance(imq, dict) else None
        if size is None or not e.imq_low <= size <= e.imq_high:
            bad.append(f"imq {imq} outside [{e.imq_low}, {e.imq_high}]")
    elif imq != "skipped":
        bad.append(f"imq {imq} with --no-imq")
    if rep.get("checks_passed") is not True:
        bad.append(f"checks {rep.get('checks')}")
    return bad


def check_compare(rec: dict, imq_on: bool) -> list[str]:
    want = {
        "module_isomorphic": True,
        "marking_equivalent": "equivalent",
        "h1_isomorphic": True,
        "arc_quandle_isomorphic": True,
        "imq_isomorphic": True if imq_on else None,
        "implication_chain_ok": True,
    }
    return [f"{k} {rec.get(k)!r} != {v!r}" for k, v in want.items() if rec.get(k) != v]


def check_corpus(doc: dict, op: Op, inputs: Inputs, imq_on: bool) -> list[str]:
    s = doc.get("summary", {})
    n = len(op.names)
    hits = n if op.kind == "warm" else 0
    bad = [
        f"summary {k} {s.get(k)!r} != {v!r}"
        for k, v in (("diagrams", n), ("reported", n), ("errors", 0),
                     ("cache_hits", hits), ("all_property_checks_passed", True))
        if s.get(k) != v
    ]
    rows = {r.get("name"): r for r in doc.get("rows", [])}
    if sorted(rows) != sorted(op.names):
        return bad + [f"rows {sorted(rows)} != {sorted(op.names)}"]
    for name, row in rows.items():
        if row.get("cached") is not (op.kind == "warm"):
            bad.append(f"{name}: cached={row.get('cached')}")
        bad += [f"{name}: {b}" for b in check_report(row, inputs.expect[name], imq_on)]
    return bad


# ---------------------------------------------------------------------------
# running ops and passes


def run_op(cli, op: Op, inputs: Inputs, imq_on: bool, hasher, res: PassResult,
           tracer: trace.Tracer | None = None, op_id: str = "") -> None:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as e:  # an engine exception is a failed op, not a crash
        code = f"exception {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    res.attempted += 1
    res.analysed += op.analysed
    res.latencies.setdefault(op.kind, []).append(dt)
    text = out.getvalue()
    hasher.update(text.encode())
    try:
        doc = json.loads(text) if code == 0 else None
    except ValueError:
        doc = None
    if code != 0:
        bad = [f"exit {code}: {err.getvalue()[-300:]}"]
    elif not isinstance(doc, dict):
        bad = ["output is not one JSON object"]
    elif op.kind == "report":
        bad = check_report(doc, inputs.expect[op.names[0]], imq_on)
    elif op.kind == "compare":
        bad = check_compare(doc, imq_on)
    else:
        bad = check_corpus(doc, op, inputs, imq_on)
        if not bad:
            res.cache_hits += doc["summary"]["cache_hits"]
            res.cache_misses += doc["summary"]["diagrams"] - doc["summary"]["cache_hits"]
    if bad:
        res.failed += 1
        res.failures += [f"{op.kind} {','.join(op.names)}: {b}" for b in bad]


def run_pass(cli, inputs: Inputs, imq_on: bool, tracer=None, tag: str = "") -> PassResult:
    inputs.cache.unlink(missing_ok=True)  # each pass starts cold
    hasher = hashlib.sha256()
    res = PassResult()
    t0 = time.perf_counter()
    for i, op in enumerate(inputs.ops):
        if op.kind != "warm":
            res.probes.append(probe())
        run_op(cli, op, inputs, imq_on, hasher, res, tracer, f"{tag}{i}")
    res.wall = time.perf_counter() - t0 - sum(res.probes)
    res.digest = hasher.hexdigest()
    res.cache_bytes = inputs.cache.stat().st_size if inputs.cache.exists() else 0
    return res


def run_passes(cli, inputs, imq_on, seconds, min_passes, tracer=None, tag="p",
               setups: Setups | None = None):
    """Whole passes, back to back, until `seconds` are used up (a pass is
    not started when half of it would fall past the end) and at least
    `min_passes` ran.  With `setups`, set-up is repeated before each pass,
    so that its times sample the whole run as the passes do."""
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while True:
        if setups is not None:
            setups.repeat()
        passes.append(run_pass(cli, inputs, imq_on, tracer, f"{tag}{len(passes)}."))
        used = time.perf_counter() - t0
        if len(passes) >= min_passes and used + passes[-1].wall / 2 >= seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> float:
    """Nearest-rank TAIL_PERCENTILE."""
    s = sorted(values)
    return s[math.ceil(TAIL_PERCENTILE / 100 * len(s)) - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(cli, inputs: Inputs, imq_on: bool, seconds: float, setups: Setups):
    per_kind = {k: sum(op.kind == k for op in inputs.ops) for k in ("report", "compare")}
    min_passes = math.ceil(MIN_SAMPLES / min(per_kind.values()))
    passes = run_passes(cli, inputs, imq_on, seconds, min_passes, setups=setups)
    speed = speed_factor(setups.probes + [x for p in passes for x in p.probes])
    lat: dict[str, list[float]] = {}  # scaled by the speed factor
    for p in passes:
        for k, v in p.latencies.items():
            lat.setdefault(k, []).extend(x * speed for x in v)

    cold_n = sum(len(op.names) for op in inputs.ops if op.kind == "cold")
    warm_n = len(inputs.ops[-1].names)

    metrics = {
        "setup_s": metric(setups.scaled_median(), "s"),
        "wall_s": metric(statistics.median(p.wall for p in passes) * speed, "s"),
        "report_p50_s": metric(statistics.median(lat["report"]), "s"),
        "report_tail_s": metric(tail(lat["report"]), "s"),
        "compare_p50_s": metric(statistics.median(lat["compare"]), "s"),
        "compare_tail_s": metric(tail(lat["compare"]), "s"),
        # cold: all shards of a pass, median pass; warm: median warm call
        "corpus_diagrams_per_s": metric(cold_n / statistics.median(
            sum(p.latencies["cold"]) for p in passes) / speed, "1/s"),
        "rerun_diagrams_per_s": metric(warm_n / statistics.median(lat["warm"]), "1/s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {
        "passes": len(passes),
        "speed_factor": speed,
        "raw_pass_wall_s": [p.wall for p in passes],
        "raw_setup_s": setups.times,
        "setup_probe_s": setups.probes,
        "tail_percentile": TAIL_PERCENTILE,
        "samples": {k: len(v) for k, v in lat.items()},
        "op_median_s": {
            k: [statistics.median(x) * speed for x in zip(*(p.latencies[k] for p in passes))]
            for k in ("report", "compare", "cold")
        },
    }
    return detail, metrics, passes, []


def baseline_row(spans: list[list]) -> dict:
    """T(2,25) seconds per function, in the columns of the ROADMAP table."""
    s = trace.layer_summary(spans, lambda op: op == "baseline")
    row = {name: s["incl_s"][name] for name in ROADMAP_T225 if name != "report"}
    row["report"] = s["top_s"]
    return row


def snf_hang_state() -> dict:
    """Whether snf_hang.py's matrix still hangs; not an answer check."""
    times = snf_hang.check(sys.modules["imqlink.abelian"].smith_normal_form)
    return {"state": "present" if None in times.values() else "absent", "seconds": times}


def traced_run(cli, inputs: Inputs, imq_on: bool, seconds: float, workload: str,
               seed: int, spans_path: Path):
    """Passes untraced for half the time, then traced for the other half;
    per-layer figures are per traced pass."""
    base = run_passes(cli, inputs, imq_on, seconds / 2, TRACE_MIN_PASSES, tag="u")
    tracer = trace.Tracer()
    tracer.install()
    extra: list[PassResult] = []
    try:
        traced = run_passes(cli, inputs, imq_on, seconds / 2, TRACE_MIN_PASSES, tracer, "t")
        counts = dict(tracer.counts)
        if workload == "imq_ladder":
            extra.append(PassResult())
            run_op(cli, baseline_op(inputs, seed), inputs, True, hashlib.sha256(),
                   extra[0], tracer, "baseline")
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    s = trace.layer_summary(tracer.spans, lambda op: op != "baseline")
    k = len(traced)
    calls, incl, self_s = s["calls"], s["incl_s"], s["self_s"]
    analysed = sum(p.analysed for p in traced)
    traced_wall = sum(p.wall for p in traced)
    created = counts.get("imq.elements_created", 0)
    speed = speed_factor([x for p in traced for x in p.probes])

    def per_pass(value, unit):
        """Per traced pass; seconds scaled by the traced passes' speed."""
        return metric(value / k * (speed if unit == "s" else 1), unit)

    metrics = {
        "abelian.snf_calls": per_pass(calls["smith_normal_form"], "count"),
        "abelian.snf_cells": per_pass(counts.get("abelian.snf_cells", 0), "count"),
        "abelian.snf_calls_per_diagram": metric(calls["smith_normal_form"] / analysed, "count"),
        "abelian.self_s": per_pass(self_s["abelian"], "s"),
        "linkmodule.module_builds": per_pass(calls["build_link_module"], "count"),
        "linkmodule.kernel_builds": per_pass(calls["weight_kernel"], "count"),
        "linkmodule.self_s": per_pass(self_s["linkmodule"], "s"),
        "diagram.self_s": per_pass(self_s["diagram"], "s"),
        "cli.self_s": per_pass(self_s["cli"], "s"),
        "cli.cache_hits": per_pass(sum(p.cache_hits for p in traced), "count"),
        "cli.cache_misses": per_pass(sum(p.cache_misses for p in traced), "count"),
        "cli.cache_file_bytes": metric(traced[-1].cache_bytes, "B"),
        "imq.compute_s": per_pass(incl["compute_imq"], "s"),
        "imq.postcheck_s": per_pass(
            incl["surjection_to_arc_quandle"] + incl["check_size_bounds"], "s"),
        "imq.elements_created": per_pass(created, "count"),
        "imq.useful_element_ratio": metric(
            counts.get("imq.final_elements", 0) / created if created else 0.0, "1"),
        "quandle.check_axioms_s": per_pass(incl["check_axioms"], "s"),
        "quandle.group_from_quandle_s": per_pass(incl["group_from_quandle"], "s"),
        "quandle.automorphisms_enumerated": per_pass(
            counts.get("quandle.automorphisms_enumerated", 0), "count"),
        "quandle.automorphisms_s": per_pass(incl["automorphisms"], "s"),
        "quandle.iso_calls": per_pass(calls["is_isomorphic"], "count"),
        "quandle.is_isomorphic_s": per_pass(incl["is_isomorphic"], "s"),
        "arcquandle.self_s": per_pass(self_s["arcquandle"], "s"),
        "arcquandle.arc_quandle_builds": per_pass(calls["build_arc_quandle"], "count"),
        "trace.overhead_ratio": metric(
            statistics.median(p.wall for p in traced) * speed
            / statistics.median(p.wall for p in base)
            / speed_factor([x for p in base for x in p.probes]), "1"),
        "trace.top_span_share": metric(s["top_s"] / traced_wall, "1"),
    }
    detail = {
        "untraced_passes": len(base),
        "traced_passes": k,
        "speed_factor": speed,
        "self_share": {layer: v / traced_wall for layer, v in self_s.items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
        # the Smith-form hang of README.md "Known defects", timed untraced
        "known_defect_snf_hang": snf_hang_state(),
    }
    if extra:
        row = baseline_row(tracer.spans)
        detail["baseline_t2_25"] = {"traced": row, "roadmap": ROADMAP_T225}
        cols = list(ROADMAP_T225)
        print("T(2,25) report, seconds  " + "  ".join(f"{c:>22}" for c in cols))
        print("  this run, traced       " + "  ".join(f"{row[c]:22.3f}" for c in cols))
        print("  ROADMAP baseline row   " + "  ".join(f"{ROADMAP_T225[c]:22.3f}" for c in cols))
    return detail, metrics, base + traced, extra


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("QUANDLE_CACHE", None)
    if not (SRC / "imqlink" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'imqlink'}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    setups = Setups(args.workload, args.seed)
    cli, inputs = setups.run()
    imq_on = "--no-imq" not in WORKLOADS[args.workload].flags

    cwd = os.getcwd()
    os.chdir(inputs.tmp)  # a write to a default path lands in the temp dir
    try:
        if args.trace:
            spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            detail, metrics, passes, extra = traced_run(
                cli, inputs, imq_on, args.seconds, args.workload, args.seed, spans_path)
        else:
            detail, metrics, passes, extra = untraced_run(
                cli, inputs, imq_on, args.seconds, setups)
    finally:
        os.chdir(cwd)
        stray_cache = (inputs.tmp / ".quandle-cache").exists()
        shutil.rmtree(inputs.tmp, ignore_errors=True)

    results = passes + extra
    failures = [f for p in results for f in p.failures]
    failed = sum(p.failed for p in results)
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:  # the machine format is byte-stable by contract
        failures.append(f"passes printed different output: {digests}")
        failed += 1
    if stray_cache:  # the CLI ignored --cache and fell back to its default path
        failures.append("a .quandle-cache was written in the working directory")
        failed += 1
    attempted = sum(p.attempted for p in results)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        cpu_model=cpu_model(),
        pass_sha256=digests,
        failed_ratio=failed / attempted,
        failures=failures[:20],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
