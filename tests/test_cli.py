"""End-to-end command line behavior: reports, comparisons, corpus runs
with caching, and the exit code contract."""

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import UNKNOT, time_limit

from imqlink import abelian, arcquandle, cli, diagram, imq, linkmodule, quandle
from imqlink.abelian import FgAbGroup, GroupElt
from imqlink.cli import main
from imqlink.fixtures import FIXTURE_NAMES, fixture_text
from imqlink.quandle import parse_quandle
from oracles import with_unknots


def write_fixture(tmp_path, name):
    p = tmp_path / f"{name}.json"
    p.write_text(fixture_text(name))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """A fresh interpreter that imports this package, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_report_unknot(tmp_path, capsys):
    p = tmp_path / "unknot.json"
    p.write_text(UNKNOT)
    code, out, err = run(capsys, "report", str(p))
    assert code == 0
    assert "determinant: 1" in out
    assert "module: Z" in out
    assert "coset quandle: 1 elements" in out
    assert "checks passed: True" in out


def test_report_machine_fields(tmp_path, capsys):
    path = write_fixture(tmp_path, "trefoil")
    code, out, _ = run(capsys, "--format", "machine", "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["determinant"] == 3
    assert rep["module"] == {"free_rank": 1, "torsion": [3], "text": "Z x Z/3"}
    assert rep["imq"] == {"size": 3, "orbit_sizes": [3]}
    assert rep["checks_passed"] is True


def test_report_machine_output_is_stable(tmp_path, capsys):
    path = write_fixture(tmp_path, "t22t24")
    _, first, _ = run(capsys, "--format", "machine", "report", path)
    _, second, _ = run(capsys, "--format", "machine", "report", path)
    assert first == second


def test_report_infinite_case(tmp_path, capsys):
    path = write_fixture(tmp_path, "lprime")
    code, out, _ = run(capsys, "--format", "machine", "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["determinant"] == 0
    assert rep["arc_quandle"] == "infinite"
    assert rep["imq"] == "infinite"
    assert rep["module"]["free_rank"] == 2
    assert rep["module"]["torsion"] == [2, 2]


def test_report_no_imq_flag(tmp_path, capsys):
    path = write_fixture(tmp_path, "trefoil")
    code, out, _ = run(capsys, "--format", "machine", "--no-imq", "report", path)
    assert code == 0
    assert json.loads(out)["imq"] == "skipped"


DIAGRAMS = Path(__file__).with_name("diagrams")
# gen.closure(gen.chain_word(regions, random.Random(1)), len(regions) + 1)
# for regions (2,) * 10 (mu 11, det 1024) and (4, 4, 89) (mu 3, det 1424):
# T is under the listing cap, and the bound mu det / 2 on the presented
# quandle past it
IMQ_CAPPED = {"chain_2x10": 5632, "chain_4_4_89": 2136}


def imq_bound_message(bound: int) -> str:
    return (
        f"resource cap: up to {bound} presented quandle elements to list, "
        f"past {linkmodule.LISTING_CAP}\n"
    )


def test_report_cap_exit(tmp_path, capsys):
    trefoil = write_fixture(tmp_path, "trefoil")
    for name, bound in IMQ_CAPPED.items():
        path = str(DIAGRAMS / f"{name}.json")
        for argv in (("report", path), ("compare", path, path), ("compare", trefoil, path)):
            with time_limit(1):
                code, out, err = run(capsys, *argv)
            assert code == 3 and out == ""
            assert err == imq_bound_message(bound)


@pytest.mark.parametrize("name", IMQ_CAPPED)
def test_no_imq_report_runs_past_the_imq_bound(name, capsys):
    path = str(DIAGRAMS / f"{name}.json")
    code, out, _ = run(capsys, "--format", "machine", "--no-imq", "report", path)
    assert code == 0 and json.loads(out)["imq"] == "skipped"


def test_cap_error_is_labelled_once_by_every_command(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in IMQ_CAPPED:
        (corpus / f"{name}.json").write_text((DIAGRAMS / f"{name}.json").read_text())
    (corpus / "trefoil.json").write_text(fixture_text("trefoil"))
    with time_limit(2):
        code, out, err = run(
            capsys, "--format", "machine", "corpus", str(corpus),
            "--cache", str(tmp_path / "cache"),
        )
    assert code == 3 and err == ""
    *capped, ok = json.loads(out)["rows"]
    assert [(r["name"], r["exit"], r["error"] + "\n") for r in capped] == [
        (name, 3, imq_bound_message(bound)) for name, bound in IMQ_CAPPED.items()
    ]
    assert ok["name"] == "trefoil" and ok["checks_passed"]


def test_imq_cap_flag_is_a_usage_error(tmp_path, capsys):
    path = write_fixture(tmp_path, "trefoil")
    for argv in (("--imq-cap", "9", "report", path), ("report", path, "--imq-cap", "9")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("usage error: ")


@pytest.mark.parametrize("cap,code", ((5, 3), (6, 0)))
def test_cap_counts_the_arc_quandle_for_two_components(
    cap, code, capsys, monkeypatch
):
    # |T| = |Q_A| = |IMQ| = 6 for this mu = 2 diagram; the presented quandle
    # is listed in Q_A, under the torsion's cap
    monkeypatch.setattr(linkmodule, "LISTING_CAP", cap)
    got, _, err = run(capsys, "report", str(DIAGRAMS / "chain_2_3_pad30.json"))
    assert got == code
    want = f"resource cap: 6 torsion elements to list, past {cap}\n"
    assert err == (want if code else "")


@pytest.mark.parametrize("cap,code", ((17, 3), (18, 0)))
def test_cap_counts_the_listed_elements_for_three_components(
    cap, code, capsys, monkeypatch
):
    # |T| = 12 for this mu = 3 diagram, and |IMQ| = 18 = mu det / 2, the
    # bound the cap is read against
    monkeypatch.setattr(linkmodule, "LISTING_CAP", cap)
    got, _, err = run(capsys, "report", str(DIAGRAMS / "chain_2_6.json"))
    assert got == code
    assert err == (imq_bound_message(18) if code else "")


def test_listing_past_the_bound_exits_4(capsys, monkeypatch):
    fresh = itertools.count()
    monkeypatch.setattr(imq._Mesh, "product", lambda self, x, y: (0, next(fresh)))
    code, out, err = run(capsys, "report", str(DIAGRAMS / "chain_2_6.json"))
    assert code == 4 and out == ""
    assert err == "internal consistency failure: listing passed the size bound 18\n"


LONG_CLOSURE = DIAGRAMS / "closure_5x104.json"


def test_listing_cap_fires_before_any_listing(tmp_path, capsys):
    # mu = 3 and det 679908: T has 679908 elements and Q_A 509931, whose
    # table would hold 2.6e11 entries
    path = str(LONG_CLOSURE)
    for argv in (
        ("report", path),
        ("--no-imq", "report", path),
        ("compare", path, path),
        ("compare", path, write_fixture(tmp_path, "trefoil")),
    ):
        with time_limit(2):
            code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == (
            "resource cap: 679908 torsion elements to list, past "
            f"{linkmodule.LISTING_CAP}\n"
        )
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / LONG_CLOSURE.name).write_text(LONG_CLOSURE.read_text())
    (corpus / "trefoil.json").write_text(fixture_text("trefoil"))
    with time_limit(2):
        code, out, _ = run(
            capsys, "--format", "machine", "corpus", str(corpus),
            "--cache", str(tmp_path / "cache"),
        )
    assert code == 3
    error, ok = json.loads(out)["rows"]
    assert error["exit"] == 3 and error["error"].startswith("resource cap")
    assert ok["name"] == "trefoil" and ok["checks_passed"]


def test_no_recorded_diagram_reaches_the_listing_cap():
    recorded = [fixture_text(name) for name in FIXTURE_NAMES] + [
        p.read_text() for p in LONG_CLOSURE.parent.glob("*.json") if p != LONG_CLOSURE
    ]
    assert len(recorded) >= 18
    for text in recorded:
        linkmodule.check_listing_cap(
            linkmodule.build_link_module(diagram.parse_diagram(text))
        )


@pytest.mark.parametrize("cap,code", ((12, 3), (13, 0)))
def test_listing_cap_counts_the_torsion(cap, code, capsys, monkeypatch):
    # T(2,13): |T| = |Q_A| = 13
    monkeypatch.setattr(linkmodule, "LISTING_CAP", cap)
    path = Path(__file__).with_name("diagrams") / "t2_13.json"
    got, _, err = run(capsys, "--no-imq", "report", str(path))
    assert got == code
    assert err.startswith("resource cap: 13 torsion elements") == bool(code)


def test_report_of_t2_201_passes_every_check(tmp_path, capsys, perfbench_module):
    # |IMQ| = 201; its axioms and group are checked on a two-element
    # generating set
    gen = perfbench_module("gen")
    word = gen.chain_word([201], random.Random(1))
    path = tmp_path / "t2_201.json"
    path.write_text(gen.to_text(gen.closure(word, 2)))
    code, out, _ = run(capsys, "--format", "machine", "report", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["determinant"] == 201
    assert rep["imq"] == {"size": 201, "orbit_sizes": [201]}
    assert rep["checks"] == {
        "arc_quandle_size_formula": True,
        "imq_group_reconstruction": True,
        "size_bounds": True,
        "surjection_onto_arc_quandle": True,
    }
    assert rep["checks_passed"] is True


def test_dump_quandle(tmp_path, capsys):
    path = write_fixture(tmp_path, "trefoil")
    out_path = tmp_path / "trefoil.quandle"
    code, _, _ = run(capsys, "report", path, "--dump-quandle", str(out_path))
    assert code == 0
    q = parse_quandle(out_path.read_text())
    assert q.n == 3


def test_dump_quandle_infinite(tmp_path, capsys):
    path = write_fixture(tmp_path, "fig5l")
    out_path = tmp_path / "never.quandle"
    code, _, err = run(capsys, "report", path, "--dump-quandle", str(out_path))
    assert code == 2
    assert not out_path.exists()
    assert "no finite presented quandle" in err


def test_parse_error_exit(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "report", str(p))
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize(
    "content",
    (
        b"\xff{",
        b'{"arcs": [' + b"1" * 5000 + b"]}",
        b"[" * 100000 + b"]" * 100000,
    ),
    ids=("not-utf8", "long-integer", "deep-nesting"),
)
def test_undecodable_diagram_exits_1_under_every_command(content, tmp_path, capsys):
    p = tmp_path / "b.json"
    p.write_bytes(content)
    for argv in (("report", str(p)), ("compare", str(p), str(p))):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "parse error" in err, argv
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(tmp_path),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 1
    assert [(r["name"], r["exit"]) for r in json.loads(out)["rows"]] == [("b", 1)]


def test_missing_file_exit(tmp_path, capsys):
    code, _, err = run(capsys, "report", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read" in err


def test_validation_error_exit(tmp_path, capsys):
    bad = json.loads(fixture_text("trefoil"))
    bad["crossings"][0][2] = "a"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, _, err = run(capsys, "report", str(p))
    assert code == 2
    assert "validation error" in err


@pytest.mark.parametrize(
    "text", ('{"components": []}', '{"components": [{"arcs": []}]}'),
    ids=("no-components", "empty-component"),
)
def test_empty_diagram_exits_2_under_every_command(text, tmp_path, capsys):
    p = tmp_path / "e.json"
    p.write_text(text)
    for argv in (("report", str(p)), ("compare", str(p), str(p))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "validation error" in err, argv
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(tmp_path),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 2
    assert [(r["name"], r["exit"]) for r in json.loads(out)["rows"]] == [("e", 2)]


def test_usage_error_exit(capsys):
    code, _, err = run(capsys, "report")
    assert code == 1
    assert "usage error" in err
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_compare_hopf2_sixthree(tmp_path, capsys):
    a = write_fixture(tmp_path, "hopf2")
    b = write_fixture(tmp_path, "sixthree")
    code, out, _ = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 0
    rec = json.loads(out)
    assert rec["module_isomorphic"] is True
    assert rec["marking_equivalent"] == "equivalent"
    assert rec["arc_quandle_isomorphic"] is True
    # the presented quandles still tell the two links apart
    assert rec["imq_isomorphic"] is False
    assert rec["h1_isomorphic"] is True
    assert rec["implication_chain_ok"] is True


def test_compare_det_zero_pair(tmp_path, capsys):
    a = write_fixture(tmp_path, "lprime")
    b = write_fixture(tmp_path, "ldprime")
    code, out, _ = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 0
    rec = json.loads(out)
    assert rec["marking_equivalent"] == "not_equivalent"
    assert rec["marking_reason"] == "parity flags on M/2M match under no re-indexing"
    assert rec["arc_quandle_isomorphic"] is None
    assert rec["imq_isomorphic"] is None
    assert rec["h1_isomorphic"] is True


def test_compare_text_output(tmp_path, capsys):
    a = write_fixture(tmp_path, "trefoil")
    b = write_fixture(tmp_path, "fig8")
    code, out, _ = run(capsys, "compare", a, b)
    assert code == 0
    assert "module_isomorphic: False" in out
    assert "module groups differ" in out


def _corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in FIXTURE_NAMES:
        (d / f"{name}.json").write_text(fixture_text(name))
    return d


def test_corpus_cold_then_cached(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["diagrams"] == len(FIXTURE_NAMES)
    assert data["summary"]["reported"] == len(FIXTURE_NAMES)
    assert data["summary"]["errors"] == 0
    assert data["summary"]["cache_hits"] == 0
    assert data["summary"]["all_property_checks_passed"] is True
    assert data["summary"]["imq_strictly_between_bounds"] == []
    assert (tmp_path / ".quandle-cache").exists()

    code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["cache_hits"] == len(FIXTURE_NAMES)
    assert all(r["cached"] for r in data["rows"])


def test_corpus_cache_env_and_flag(tmp_path, capsys, monkeypatch):
    corpus = _corpus_dir(tmp_path)
    env_cache = tmp_path / "env.cache"
    monkeypatch.setenv("QUANDLE_CACHE", str(env_cache))
    run(capsys, "corpus", str(corpus))
    assert env_cache.exists()

    flag_cache = tmp_path / "flag.cache"
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(corpus), "--cache", str(flag_cache)
    )
    assert code == 0
    assert flag_cache.exists()
    # the explicit flag wins over the environment, starting cold
    assert json.loads(out)["summary"]["cache_hits"] == 0


def test_corpus_flags_change_cache_key(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    run(capsys, "corpus", str(corpus))
    code, out, _ = run(capsys, "--format", "machine", "--no-imq", "corpus", str(corpus))
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["cache_hits"] == 0
    for r in data["rows"]:
        assert r["imq"] == ("infinite" if r["determinant"] == 0 else "skipped")


def test_cache_schema_is_part_of_the_cache_key(diagrams, monkeypatch):
    d = diagrams["trefoil"]
    keys = {cli._cache_key(d, False)}
    monkeypatch.setattr(cli, "CACHE_SCHEMA", cli.CACHE_SCHEMA + 1)
    keys.add(cli._cache_key(d, False))
    assert len(keys) == 2


def test_cache_keys_of_earlier_releases_still_hit(diagrams):
    # the keys of an unflagged and a --no-imq run of trefoil, as written
    # when an --imq-cap flag was still part of the key material
    d = diagrams["trefoil"]
    assert cli._cache_key(d, False) == (
        "1e471d6dd733a97796767a92042f3381785e05332882a3f23740b2de0177c590"
    )
    assert cli._cache_key(d, True) == (
        "aa1c39cc3c26aa8ca64d48e798f978e8bbe234779f25adc70ae3330fdd530f79"
    )


def test_corpus_survives_one_bad_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    (corpus / "zzz-broken.json").write_text("[1, 2]")
    code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus))
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["reported"] == len(FIXTURE_NAMES)
    assert data["summary"]["errors"] == 1
    errors = [r for r in data["rows"] if "error" in r]
    assert len(errors) == 1 and errors[0]["name"] == "zzz-broken"


def test_cold_corpus_parses_each_file_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    calls = Counter()
    count_calls(monkeypatch, calls, diagram, "parse_diagram")
    code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus))
    assert code == 0 and json.loads(out)["summary"]["cache_hits"] == 0
    assert calls == {"parse_diagram": len(FIXTURE_NAMES)}


def test_corpus_parallel_jobs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus), "--jobs", "3")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["reported"] == len(FIXTURE_NAMES)
    assert data["summary"]["all_property_checks_passed"] is True


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_corpus_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    corpus = _corpus_dir(tmp_path)
    code, out, err = run(capsys, "corpus", str(corpus), "--jobs", jobs)
    assert code == 1 and out == ""
    assert err.startswith("usage error: --jobs must be at least 1")
    assert not (tmp_path / ".quandle-cache").exists()


def test_corpus_pool_has_no_more_workers_than_uncached_diagrams(
    tmp_path, capsys, monkeypatch
):
    # the pool forks every worker at once, so --jobs 5000 must not ask for
    # 5000; a stub records max_workers and maps in this process
    from concurrent import futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("trefoil", "hopf2", "fig8"):
        (corpus / f"{name}.json").write_text(fixture_text(name))

    def corpus_run(*flags):
        code, out, _ = run(capsys, "--format", "machine", "corpus", str(corpus), *flags)
        assert code == 0
        return json.loads(out)["summary"]

    assert corpus_run("--jobs", "5000")["cache_hits"] == 0 and asked == [3]
    (corpus / "t22t24.json").write_text(fixture_text("t22t24"))
    assert corpus_run("--jobs", "5000")["cache_hits"] == 3 and asked == [3, 1]
    assert corpus_run("--jobs", "5000")["cache_hits"] == 4 and asked == [3, 1]
    assert corpus_run("--jobs", "2", "--cache", "other")["reported"] == 4
    assert asked == [3, 1, 2]


def test_cli_import_leaves_process_pool_unloaded():
    # only `corpus --jobs N` with N > 1 needs a process pool
    proc = run_python(
        "-c", "import sys, imqlink.cli; print('concurrent.futures' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cache_write_does_not_use_a_fixed_temp_name(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hopf2.json").write_text(fixture_text("hopf2"))
    cache = tmp_path / "run.cache"
    # a directory where a fixed `<cache>.tmp` name would be written
    (tmp_path / "run.cache.tmp").mkdir()
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(corpus), "--cache", str(cache)
    )
    assert code == 0
    assert json.loads(out)["summary"]["reported"] == 1
    assert len(cache.read_text().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus",
        "run.cache",
        "run.cache.tmp",
    ]


def _cold_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("hopf2", "trefoil"):
        (corpus / f"{name}.json").write_text(fixture_text(name))
    cache = tmp_path / "run.cache"
    code, _, _ = run(capsys, "corpus", str(corpus), "--cache", str(cache))
    assert code == 0
    assert len(cache.read_text().splitlines()) == 2
    return corpus, cache


def _warm_run(capsys, corpus, cache):
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(corpus), "--cache", str(cache)
    )
    assert code == 0
    assert json.loads(out)["summary"]["cache_hits"] == 2


def test_warm_corpus_leaves_the_cache_file_alone(tmp_path, capsys):
    corpus, cache = _cold_run(tmp_path, capsys)
    before = cache.stat()
    _warm_run(capsys, corpus, cache)
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_warm_corpus_rewrites_a_cache_with_a_corrupt_line(tmp_path, capsys):
    corpus, cache = _cold_run(tmp_path, capsys)
    records = cache.read_text().splitlines()
    cache.write_text("\n".join([records[0], "{not json", records[1]]) + "\n")
    before = cache.stat()
    _warm_run(capsys, corpus, cache)
    assert cache.read_text().splitlines() == records
    assert cache.stat().st_ino != before.st_ino


def test_warm_corpus_rewrites_a_cache_with_an_undecodable_line(tmp_path, capsys):
    corpus, cache = _cold_run(tmp_path, capsys)
    records = cache.read_bytes().splitlines()
    cache.write_bytes(b"\n".join([records[0], b"\xff" + records[1][1:], records[1]]) + b"\n")
    _warm_run(capsys, corpus, cache)
    assert cache.read_bytes().splitlines() == records


def test_cache_path_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hopf2.json").write_text(fixture_text("hopf2"))
    cache = tmp_path / "cache"
    cache.mkdir()
    code, out, err = run(capsys, "corpus", str(corpus), "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: cannot read cache {cache}: ")
    assert len(err.splitlines()) == 1


def test_cache_path_in_a_missing_directory_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hopf2.json").write_text(fixture_text("hopf2"))
    cache = tmp_path / "missing" / "run.cache"
    reports = []

    def no_report(*args, **kwargs):
        reports.append(args)
        raise RuntimeError("a report was computed before the cache check")

    # the check comes before any work
    monkeypatch.setattr(cli, "build_report", no_report)
    code, out, err = run(capsys, "corpus", str(corpus), "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: cannot write cache {cache}: ")
    assert len(err.splitlines()) == 1
    assert not cache.parent.exists()
    assert reports == []


def test_dump_quandle_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = write_fixture(tmp_path, "trefoil")
    out_path = tmp_path / "missing" / "trefoil.quandle"
    code, _, err = run(capsys, "report", path, "--dump-quandle", str(out_path))
    assert code == 1
    assert err.startswith(f"usage error: cannot write {out_path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "bad",
    [
        '[1]',
        '"x"',
        '{"key": [1], "report": {}}',
        '{"key": 1, "report": {}}',
        '{"key": "k", "report": 5}',
    ],
)
def test_warm_corpus_drops_a_record_that_is_json_but_not_a_record(tmp_path, capsys, bad):
    corpus, cache = _cold_run(tmp_path, capsys)
    records = cache.read_text().splitlines()
    cache.write_text("\n".join(records + [bad]) + "\n")
    _warm_run(capsys, corpus, cache)
    assert cache.read_text().splitlines() == records


def test_corpus_rejects_missing_dir(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", str(tmp_path / "nope"))
    assert code == 1
    assert "not a directory" in err


def test_console_script(tmp_path):
    path = write_fixture(tmp_path, "hopf2")
    proc = run_python("-m", "imqlink.cli", "--format", "machine", "report", path)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["determinant"] == 4
    assert rep["imq"] == {"size": 6, "orbit_sizes": [2, 2, 2]}


def wrap_everywhere(monkeypatch, home, name, wrap):
    """Replace home.name by wrap(home.name) in every imqlink module
    binding it."""
    original = getattr(home, name)
    wrapped = wrap(original)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("imqlink"):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapped)


def count_calls(monkeypatch, counts, home, name):
    """Count calls of home.name, through every imqlink module binding it."""

    def wrap(original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    wrap_everywhere(monkeypatch, home, name, wrap)


@pytest.fixture
def engine_calls(monkeypatch):
    """Calls of the engine steps each report should run once, and of
    `cokernel`; and the GroupElts constructed inside build_arc_quandle and
    inside torsion_parity_profile, which work on coordinate tuples and
    parity masks, as "GroupElt in <name>" when there are any."""
    counts = Counter()
    for home, name in (
        (linkmodule, "build_link_module"),
        (linkmodule, "weight_kernel"),
        (arcquandle, "_coset_table"),
        (imq, "_Mesh"),
        (abelian, "cokernel"),
    ):
        count_calls(monkeypatch, counts, home, name)
    init = GroupElt.__init__
    made = [0]

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GroupElt, "__init__", counted_init)

    def counting_elements(original):
        def counted(mod):
            before = made[0]
            out = original(mod)
            if made[0] > before:
                counts[f"GroupElt in {original.__name__}"] += made[0] - before
            return out

        return counted

    for home, name in (
        (arcquandle, "build_arc_quandle"),
        (linkmodule, "torsion_parity_profile"),
    ):
        wrap_everywhere(monkeypatch, home, name, counting_elements)
    return counts


@pytest.mark.parametrize("name", ("hopf2", "t22t24"))
@pytest.mark.parametrize("dump", (False, True), ids=("plain", "dump"))
def test_report_computes_each_invariant_once(
    name, dump, tmp_path, capsys, monkeypatch, engine_calls
):
    args = ["report", write_fixture(tmp_path, name)]
    if dump:
        args += ["--dump-quandle", str(tmp_path / "q")]
    count_calls(monkeypatch, engine_calls, diagram, "make_even")
    code, out, _ = run(capsys, "--format", "machine", *args)
    assert code == 0 and json.loads(out)["evenized"] is True
    # one module, read for the longitudes of the odd components too, and
    # presenting its weight kernel once; no make_even; no listing of T;
    # one coset-quandle table and one displacement mesh; a cokernel each
    # for the module, its weight kernel, the table's group reconstruction
    # and the mesh's keys
    assert engine_calls == {
        "build_link_module": 1,
        "weight_kernel": 1,
        "_coset_table": 1,
        "_Mesh": 1,
        "cokernel": 4,
    }


def test_compare_computes_each_invariant_once(tmp_path, capsys, engine_calls):
    a = write_fixture(tmp_path, "hopf2")
    b = write_fixture(tmp_path, "sixthree")
    code, _, _ = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 0
    assert engine_calls == {
        "build_link_module": 2,
        "weight_kernel": 2,
        "_coset_table": 2,
        "_Mesh": 2,
        # per diagram: the module, its weight kernel and the mesh's keys
        "cokernel": 6,
    }


def test_compare_builds_no_displacement_group(tmp_path, capsys, monkeypatch):
    calls = Counter()
    count_calls(monkeypatch, calls, quandle, "displacement_group")
    a = write_fixture(tmp_path, "hopf2")
    b = write_fixture(tmp_path, "sixthree")
    code, out, _ = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 0 and json.loads(out)["arc_quandle_isomorphic"] is True
    # the coset quandle's semiregularity is checked on its generators, and
    # no isomorphism search reads a displacement group
    assert calls == {}


def test_compare_builds_each_coset_table_by_index_arithmetic(
    tmp_path, capsys, monkeypatch, perfbench_module
):
    # chain (3, 10) and a redraw of it: mu = 2, |Q_A| = 30.  The table is
    # index arithmetic in K: coordinate tuples are combined for the mu^2
    # shifts 2(r_j - r_i) and the (n + 1) |G| of the generator check, and
    # the element tuples are read |G| (n + 2) times, never once per entry
    gen = perfbench_module("gen")
    obj = gen.closure(gen.chain_word([3, 10], random.Random(1)), 3)
    paths = []
    for name, drawn in (("a", obj), ("b", gen.redraw(obj, random.Random(2)))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(gen.to_text(drawn))
    calls = Counter()
    count_calls(monkeypatch, calls, arcquandle, "_combine")

    class Read(tuple):
        def __iter__(self):
            calls["element read"] += 1
            return super().__iter__()

    tables = []
    real = arcquandle._coset_table

    def counted(qa):
        qa.elements = [Read(e) for e in qa.elements]
        before = calls.copy()
        q = real(qa)
        done = calls - before
        tables.append((qa.diagram.mu, q.n, len(q.generators), done))
        return q

    monkeypatch.setattr(arcquandle, "_coset_table", counted)
    code, out, _ = run(capsys, "--format", "machine", "compare", *map(str, paths))
    assert code == 0 and json.loads(out)["arc_quandle_isomorphic"] is True
    assert len(tables) == 2
    for mu, n, gens, done in tables:
        assert mu == 2 and n == 30 and gens < n // 4
        assert done["_combine"] == mu * mu + (n + 1) * gens
        assert done["element read"] == (n + 2) * gens


@pytest.mark.parametrize("name", ("hopf2", "t22t24", "trefoil"))
def test_no_imq_report_and_corpus_row_build_no_coset_table(
    name, tmp_path, capsys, engine_calls
):
    # the size and orbit sizes of Q_A are read off its checked cosets
    path = write_fixture(tmp_path, name)
    code, out, _ = run(capsys, "--format", "machine", "--no-imq", "report", path)
    assert code == 0
    size = json.loads(out)["arc_quandle"]["size"]
    assert engine_calls == {"build_link_module": 1, "weight_kernel": 1, "cokernel": 2}
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / f"{name}.json").write_text(fixture_text(name))
    code, out, _ = run(
        capsys, "--format", "machine", "--no-imq", "corpus", str(corpus),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["arc_quandle"]["size"] == size
    assert engine_calls == {"build_link_module": 2, "weight_kernel": 2, "cokernel": 4}


@pytest.mark.parametrize("name", ("hopf2", "t22t24", "trefoil"))
def test_no_imq_report_lists_no_coset_quandle_element(name, monkeypatch):
    # |Q_A| is read as mu |K|: the elements are built only when read
    built = []

    def keep(original):
        def kept(mod):
            built.append(original(mod))
            return built[-1]

        return kept

    wrap_everywhere(monkeypatch, arcquandle, "build_arc_quandle", keep)
    d = diagram.parse_diagram(fixture_text(name))
    report, _ = cli.build_report(d, name, run_imq=False)
    assert built and all("elements" not in vars(qa) for qa in built)
    assert report["arc_quandle"]["size"] == len(built[0].elements)


# closures of braid words [5, 5, 5, 5, -3, 1, 1, 1, 1, 2, 2] on 6 strands
# and [-1, -1, -3, -3, -3, -3, -4, -4, -4, -4] on 5 strands: determinant 0,
# both with module Z^2 + Z/2 + Z/4 + Z/4
DET0_PAIR = ("det0_pair_a", "det0_pair_b")


def test_compare_tells_apart_a_det_zero_pair_with_one_group(capsys):
    a, b = (str(Path(__file__).with_name("diagrams") / f"{n}.json") for n in DET0_PAIR)
    code, out, _ = run(capsys, "--format", "machine", "compare", a, b)
    rec = json.loads(out)
    assert code == 0
    assert rec["module_isomorphic"] is True
    assert rec["marking_equivalent"] == "not_equivalent"
    assert rec["implication_chain_ok"] is True
    for path in (a, b):
        code, out, _ = run(capsys, "--format", "machine", "compare", path, path)
        assert code == 0 and json.loads(out)["marking_equivalent"] == "equivalent"


def test_compare_runs_one_coset_quandle_search_and_one_imq_search(
    tmp_path, capsys, monkeypatch
):
    calls = Counter()
    count_calls(monkeypatch, calls, quandle, "is_isomorphic")
    a = write_fixture(tmp_path, "hopf2")
    b = write_fixture(tmp_path, "sixthree")
    code, out, _ = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 0 and json.loads(out)["arc_quandle_isomorphic"] is True
    # the marking is decided on M/2M, with no search; one coset-quandle
    # search checks it, and one IMQ search
    assert calls == {"is_isomorphic": 2}


@pytest.mark.parametrize(
    "corrupt, pair, contradicted_by",
    (
        # says "equivalent" whatever it is given: Q_A of trefoil and fig8 differ
        (
            lambda status: "equivalent",
            ("trefoil", "fig8"),
            ("arc_quandle_isomorphic", False),
        ),
        # swaps the two verdicts: the IMQ of fig8 is isomorphic to itself
        (
            lambda status: "not_equivalent" if status == "equivalent" else "equivalent",
            ("fig8", "fig8"),
            ("imq_isomorphic", True),
        ),
    ),
    ids=("constant", "transposed"),
)
def test_compare_exits_4_on_a_corrupted_marking_witness(
    corrupt, pair, contradicted_by, tmp_path, capsys, monkeypatch
):
    real = cli.marking_equivalent

    def corrupted(m1, m2):
        out = real(m1, m2)
        return arcquandle.MarkingComparison(corrupt(out.status), "corrupted")

    monkeypatch.setattr(cli, "marking_equivalent", corrupted)
    a, b = (write_fixture(tmp_path, name) for name in pair)
    code, out, err = run(capsys, "--format", "machine", "compare", a, b)
    assert code == 4
    rec = json.loads(out)
    key, value = contradicted_by
    assert rec[key] is value
    assert rec["marking_reason"] == "corrupted"
    assert rec["implication_chain_ok"] is False
    assert "implication chain violated" in err


def test_main_carries_no_flag_over_to_a_later_call(tmp_path, capsys):
    trefoil = write_fixture(tmp_path, "trefoil")
    fig8 = write_fixture(tmp_path, "fig8")
    code, out, _ = run(capsys, "--no-imq", "--format", "machine", "compare", fig8, fig8)
    assert code == 0 and json.loads(out)["imq_isomorphic"] is None
    code, second, _ = run(capsys, "report", trefoil)
    fresh = run_python("-m", "imqlink.cli", "report", trefoil)
    assert (code, second) == (fresh.returncode, fresh.stdout)
    assert "presented quandle: 3 elements" in second


def _engine_value_error(*args, **kwargs):
    raise ValueError("engine fault")


def test_report_exits_4_on_an_engine_value_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_report", _engine_value_error)
    code, out, err = run(capsys, "report", write_fixture(tmp_path, "trefoil"))
    assert code == 4
    assert out == "" and "engine fault" in err


def test_report_exits_4_when_a_check_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "group_from_quandle", lambda q: FgAbGroup(5, ()))
    path = write_fixture(tmp_path, "trefoil")
    code, out, err = run(capsys, "--format", "machine", "report", path)
    assert code == 4
    rep = json.loads(out)
    assert rep["checks"]["imq_group_reconstruction"] is False
    assert rep["checks_passed"] is False
    assert err == "internal consistency failure: a report check failed\n"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "trefoil.json").write_text(fixture_text("trefoil"))
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(corpus),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 4
    assert json.loads(out)["summary"]["all_property_checks_passed"] is False


def test_torsion_cap_is_read_before_the_longitudes(tmp_path, capsys, perfbench_module):
    # chain (2^17): 35 arcs, det != 0 and |T| = 2^17; the least longitude
    # subset summing to zero would be searched over 2^18 - 2 subsets
    gen = perfbench_module("gen")
    path = tmp_path / "chain_2x17.json"
    word = gen.chain_word([2] * 17, random.Random(1))
    path.write_text(gen.to_text(gen.closure(word, 18)))
    for flags in ((), ("--no-imq",)):
        with time_limit(1):
            code, out, err = run(capsys, *flags, "report", str(path))
        assert code == 3 and out == ""
        assert err == "resource cap: 131072 torsion elements to list, past 2048\n"


def test_report_of_a_13_component_unlink_is_bounded(tmp_path, capsys):
    arcs = [f"z{i}" for i in range(13)]
    path = tmp_path / "unlink13.json"
    path.write_text(json.dumps({
        "arcs": arcs,
        "components": [{"arcs": [a], "crossings": []} for a in arcs],
        "crossings": [],
    }))
    with time_limit(1):
        code, out, _ = run(capsys, "--format", "machine", "report", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["free_rank"] == 13 and rep["parity_profile"] == []


def test_report_of_a_trefoil_and_nine_unknots_is_bounded(tmp_path, capsys):
    # Z^10 + Z/3: the profile is |T| - 1 = 2 zero vectors, read off V = 0
    # without a loop over the 10! component permutations
    path = tmp_path / "trefoil_unlink9.json"
    path.write_text(with_unknots(fixture_text("trefoil"), 9))
    with time_limit(1):
        code, out, _ = run(capsys, "--format", "machine", "report", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["module"]["free_rank"] == 10
    assert rep["parity_profile"] == [[0] * 10] * 2


def test_corpus_exits_4_on_an_engine_value_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_report", _engine_value_error)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "trefoil.json").write_text(fixture_text("trefoil"))
    (corpus / "zzz-broken.json").write_text("[1, 2]")
    code, out, _ = run(
        capsys, "--format", "machine", "corpus", str(corpus),
        "--cache", str(tmp_path / "cache"),
    )
    assert code == 4
    rows = {r["name"]: r for r in json.loads(out)["rows"]}
    assert rows["trefoil"]["exit"] == 4
    assert rows["trefoil"]["error"] == "engine fault"
    # a file that does not parse is still a usage error
    assert rows["zzz-broken"]["exit"] == 1
