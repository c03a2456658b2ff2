"""Byte-identity gate: `--format machine` output of report, compare and a
cold corpus run on the bundled fixtures, plus the `--dump-quandle` tables,
must match the recorded `machine_output.json` exactly.  Reports and tables
of five larger benchmark-family diagrams (`diagrams/`: T(2,13), 13 elements;
the 4-component chain T(2,2) # T(2,2) # T(2,2), 16 elements; the chain
T(2,2) # T(2,6), 18 elements; T(2,2) # T(2,3) padded with Reidemeister II
pairs to 31 crossings, 6 elements after 26 merges; and the 5-component chain
T(2,2) # T(2,2) # T(2,2) # T(2,2), 40 elements) must match
`machine_output_large.json`.

The recorded file holds the exit code and stdout of every run, as written
by `machine_outputs` before an engine change.  A change that alters any
byte of this output changes behaviour: it re-records the file from
`machine_outputs` in the same commit and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from imqlink import cli
from imqlink.cli import main
from imqlink.fixtures import FIXTURE_NAMES, fixture_text

RECORDED = Path(__file__).with_name("machine_output.json")
RECORDED_LARGE = Path(__file__).with_name("machine_output_large.json")
DIAGRAMS = Path(__file__).with_name("diagrams")
# closures from perfbench/gen.py, seed 1: chain_word regions [13], [2, 2, 2],
# [2, 6] and [2, 2, 2, 2]; chain_2_3_pad30 is chain_word [2, 3] then pad_r2
# to 30 letters on one Random(1)
LARGE = ("t2_13", "chain_2_2_2", "chain_2_6", "chain_2_3_pad30", "chain_2_2_2_2")
# SHA-256 of the two recorded files under each cache schema, oldest first.
# Re-recording them means reports changed, so a corpus cache written before
# is stale: bump `cli.CACHE_SCHEMA` and add its entry here; never edit an
# old one.
RECORDED_BY_SCHEMA = {
    1: (
        "d73fbf80bb657e08abd9e8f38660eca1c71b7405b3542b2ae19bf9787cfa0b98",
        "aff1e5f5b1c2d55a510351633ccf40b2d10bdf1f8cb720be960d702f3fcc29ca",
    ),
    # chain_2_2_2_2 recorded: its characteristic compatibility was
    # "unknown" under the capped search, and the criterion says "yes"
    2: (
        "d73fbf80bb657e08abd9e8f38660eca1c71b7405b3542b2ae19bf9787cfa0b98",
        "54064d04b45a35cb5aa12a8cd403586b4c63695fb2f46480288524d4eafd2d1a",
    ),
}


def _run(capsys, *argv) -> dict:
    code = main(["--format", "machine", *argv])
    return {"exit": code, "stdout": capsys.readouterr().out}


def machine_outputs(tmp_path, capsys) -> dict:
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    path = {}
    for name in FIXTURE_NAMES:
        path[name] = fixtures / f"{name}.json"
        path[name].write_text(fixture_text(name))

    out = {}
    for name in FIXTURE_NAMES:
        out[f"report {name}"] = _run(capsys, "report", str(path[name]))
        dump = tmp_path / f"{name}.quandle"
        _run(capsys, "report", str(path[name]), "--dump-quandle", str(dump))
        if dump.exists():
            out[f"dump {name}"] = dump.read_text()
    for a, b in itertools.combinations(FIXTURE_NAMES, 2):
        out[f"compare {a} {b}"] = _run(capsys, "compare", str(path[a]), str(path[b]))
    cache = tmp_path / "cold.cache"
    out["corpus"] = _run(capsys, "corpus", str(fixtures), "--cache", str(cache))
    return out


def large_outputs(tmp_path, capsys) -> dict:
    out = {}
    for name in LARGE:
        dump = tmp_path / f"{name}.quandle"
        path = DIAGRAMS / f"{name}.json"
        run = _run(capsys, "report", str(path), "--dump-quandle", str(dump))
        out[name] = {**run, "table": dump.read_text()}
    return out


def _assert_recorded(got: dict, recorded: Path) -> None:
    want = json.loads(recorded.read_text())
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_machine_output_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QUANDLE_CACHE", raising=False)
    _assert_recorded(machine_outputs(tmp_path, capsys), RECORDED)


def test_larger_tables_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QUANDLE_CACHE", raising=False)
    _assert_recorded(large_outputs(tmp_path, capsys), RECORDED_LARGE)


def test_cache_schema_is_bumped_with_the_recorded_outputs():
    digests = tuple(
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (RECORDED, RECORDED_LARGE)
    )
    assert cli.CACHE_SCHEMA == max(RECORDED_BY_SCHEMA)
    assert RECORDED_BY_SCHEMA[cli.CACHE_SCHEMA] == digests
    assert len(set(RECORDED_BY_SCHEMA.values())) == len(RECORDED_BY_SCHEMA)
