"""The bench core: one front, one row emitter per report shape, and
committed artifacts that the current code can read and gate."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro.bench.core import SUITES, Suite, bench_main, gate, suite_of
from repro.bench.history import rows_from_bench
from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parents[2]
PIN = json.loads((Path(__file__).parent / "data" / "bench_pin.json").read_text())
ARTIFACTS = sorted(
    p.name for p in REPO.glob("BENCH_*.json") if "baseline" not in p.name
)


def key_paths(obj, prefix=""):
    """Leaf key paths of a report; list items share one ``[]`` segment."""
    if isinstance(obj, dict) and obj:
        return set().union(
            *(key_paths(v, f"{prefix}.{k}" if prefix else k) for k, v in obj.items())
        )
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        return set().union(*(key_paths(v, prefix + "[]") for v in obj))
    return {prefix}


# -- the pin recorded on the parent of the port ------------------------------


@pytest.mark.parametrize("artifact", sorted(PIN["rows"]))
def test_rows_reproduce_the_pin(artifact):
    """Each artifact pinned on the parent of the port, fed to its suite's
    row emitter, gives exactly the rows the parent's ``rows_from_bench``
    if-chain gave."""
    pinned = PIN["rows"][artifact]
    assert rows_from_bench(pinned["report"]) == pinned["rows"]


# -- the front ---------------------------------------------------------------


def _stub(failures=()):
    seen = {}

    def run(args):
        seen["args"] = args
        return {"suite": "stub", "cases": [{"name": "c", "wall_s": args.knob}]}

    return seen, Suite(
        name="stub",
        out="unused.json",
        flags={"--knob": dict(type=float, default=1.0)},
        run=run,
        rows=lambda report: [{"suite": "stub", "case": "c", "metrics": {"x": 1}}],
        check=lambda report, notes: notes.append("a note") or list(failures),
    )


def test_front_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # --out - prints the report and creates no file; suite flags reach run.
    seen, suite = _stub()
    assert bench_main(suite, ["--out", "-", "--knob", "2.5", "--smoke"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"][0]["wall_s"] == 2.5
    assert seen["args"].smoke and seen["args"].knob == 2.5
    assert list(tmp_path.iterdir()) == []

    # --out FILE + --history DB writes both.
    assert bench_main(suite, ["--out", "r.json", "--history", "h.jsonl"]) == 0
    assert json.loads(Path("r.json").read_text())["suite"] == "stub"
    (line,) = Path("h.jsonl").read_text().splitlines()
    assert json.loads(line)["metrics"] == {"x": 1}

    # --check: 0 with the notes, 1 with each failure printed once.
    capsys.readouterr()
    assert bench_main(suite, ["--out", "r.json", "--check"]) == 0
    err = capsys.readouterr().err
    assert "NOTE: a note" in err and "REGRESSION" not in err
    _, bad = _stub(failures=["too slow", "wrong count"])
    assert bench_main(bad, ["--out", "r.json", "--check"]) == 1
    err = capsys.readouterr().err
    assert err.count("REGRESSION: too slow") == 1
    assert err.count("REGRESSION: wrong count") == 1


# -- every suite's gate and rows on malformed input --------------------------


@pytest.mark.parametrize("name", sorted(SUITES))
def test_malformed_reports_fail_the_gate_without_raising(name):
    suite = importlib.import_module(SUITES[name]).SUITE
    assert suite.name == name
    for bad in (None, [], {}, {"suite": name, "cases": []},
                {"suite": name, "cases": [{}, "x", {"name": None}]}):
        (failure,) = gate(suite, bad, [])
        assert name in failure
        assert rows_from_bench(bad) == []


def test_unregistered_suite_gets_the_generic_row():
    report = {"suite": "homemade", "cases": [
        {"name": "a", "wall_s": 1.5, "triangles": 7, "other": "x"}, {"no": 1}]}
    assert suite_of(report) is None
    assert rows_from_bench(report) == [
        {"suite": "homemade", "case": "a",
         "metrics": {"wall_s": 1.5, "count": 7}}
    ]


# -- the committed artifacts (JSON only, no bench run) -----------------------


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_committed_artifact_is_current(artifact, tmp_path):
    """Every committed artifact reads and passes its suite's gate under
    the current code; one with a committed baseline also passes
    ``repro history append --bench`` + ``repro history check`` on a fresh
    history db."""
    report = json.loads((REPO / artifact).read_text())
    suite = suite_of(report)
    assert suite is not None, report.get("suite")
    schema = getattr(importlib.import_module(SUITES[suite.name]), "SCHEMA", None)
    assert report.get("schema") == schema
    assert key_paths(report) == set(PIN["smoke_key_paths"][suite.name])

    notes: list[str] = []
    assert gate(suite, report, notes) == []
    assert all("SKIPPED" in n for n in notes)

    rows = suite.rows(report)
    assert rows
    baseline = REPO / artifact.replace(".json", "_baseline.json")
    if baseline.exists():
        db = str(tmp_path / "history.jsonl")
        bench = str(REPO / artifact)
        assert cli_main(["history", "append", "--db", db, "--bench", bench]) == 0
        assert cli_main(
            ["history", "check", "--db", db, "--baseline", str(baseline)]
        ) == 0

