"""The bench front (``python -m repro.bench.autotunebench``), the history
rows each report shape gives, and committed artifacts that the current
code can read and gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import autotunebench
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


def _stub_run(monkeypatch, cases):
    seen = {}

    def run(args):
        seen["args"] = args
        return {"suite": "autotune", "cases": cases}

    monkeypatch.setattr(autotunebench, "run_bench", run)
    return seen


def test_front_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    good = {"name": "g", "ratio_vs_best": 1.0, "counts_agree": True,
            "candidates": {"tc2d-p4": {"virtual_makespan_s": 0.5}}}
    # --out - prints the report and creates no file; every flag reaches run.
    seen = _stub_run(monkeypatch, [good])
    argv = ["--out", "-", "--smoke", "--dataset", "a", "--dataset", "b",
            "--max-p", "4", "--seed", "3"]
    assert autotunebench.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == [good]
    args = seen["args"]
    assert args.smoke and args.dataset == ["a", "b"]
    assert (args.max_p, args.seed) == (4, 3)
    assert list(tmp_path.iterdir()) == []

    # --out FILE + --history DB writes both.
    assert autotunebench.main(["--out", "r.json", "--history", "h.jsonl"]) == 0
    assert json.loads(Path("r.json").read_text())["suite"] == "autotune"
    assert [json.loads(line)["case"]
            for line in Path("h.jsonl").read_text().splitlines()] == [
        "g-tc2d-p4", "g-auto"]

    # --check: 0 on a pass, 1 with each failure printed once.
    capsys.readouterr()
    assert autotunebench.main(["--out", "r.json", "--check"]) == 0
    assert "REGRESSION" not in capsys.readouterr().err
    _stub_run(monkeypatch, [{**good, "ratio_vs_best": 2.0,
                             "counts_agree": False}])
    assert autotunebench.main(["--out", "r.json", "--check"]) == 1
    err = capsys.readouterr().err
    assert err.count("REGRESSION: g: auto plan") == 1
    assert err.count("REGRESSION: g: candidates disagree") == 1


# -- the gate and rows on malformed input ------------------------------------


@pytest.mark.parametrize("name", ["autotune"])
def test_malformed_reports_fail_the_gate_without_raising(name):
    for bad in (None, [], {}, {"suite": name, "cases": []},
                {"suite": name, "cases": [{}, "x", {"name": None}]}):
        (failure,) = autotunebench.check(bad)
        assert name in failure
        assert rows_from_bench(bad) == []


def test_unregistered_suite_gets_the_generic_row():
    report = {"suite": "homemade", "cases": [
        {"name": "a", "wall_s": 1.5, "triangles": 7, "other": "x"}, {"no": 1}]}
    assert rows_from_bench(report) == [
        {"suite": "homemade", "case": "a",
         "metrics": {"wall_s": 1.5, "count": 7}}
    ]


# -- the committed artifacts (JSON only, no bench run) -----------------------


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_committed_artifact_is_current(artifact, tmp_path):
    """Every committed artifact reads and passes the autotunebench gate
    under the current code; one with a committed baseline also passes
    ``repro history append --bench`` + ``repro history check`` on a fresh
    history db."""
    report = json.loads((REPO / artifact).read_text())
    assert report.get("suite") == "autotune"
    assert key_paths(report) == set(PIN["smoke_key_paths"]["autotune"])
    assert autotunebench.check(report) == []
    assert autotunebench.history_rows(report)
    baseline = REPO / artifact.replace(".json", "_baseline.json")
    if baseline.exists():
        db = str(tmp_path / "history.jsonl")
        bench = str(REPO / artifact)
        assert cli_main(["history", "append", "--db", db, "--bench", bench]) == 0
        assert cli_main(
            ["history", "check", "--db", db, "--baseline", str(baseline)]
        ) == 0

