"""Run-history database and the baseline regression gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.history import (
    HISTORY_SCHEMA,
    RunHistory,
    check_history,
    load_baseline,
    row_from_telemetry,
    rows_from_bench,
)

REPO = Path(__file__).resolve().parents[2]


def _db(tmp_path):
    return RunHistory(tmp_path / "hist.jsonl")


def test_append_stamps_schema_and_host(tmp_path):
    db = _db(tmp_path)
    assert db.append([{"suite": "s", "case": "c", "metrics": {"x": 1}}]) == 1
    (row,) = db.rows()
    assert row["schema"] == HISTORY_SCHEMA
    assert row["host"]["usable_cpus"] >= 1
    assert row["metrics"] == {"x": 1}


def test_append_is_append_only_and_latest_wins(tmp_path):
    db = _db(tmp_path)
    db.append([{"suite": "s", "case": "c", "metrics": {"x": 1}}])
    db.append([{"suite": "s", "case": "c", "metrics": {"x": 2}}])
    assert len(db.rows()) == 2
    assert db.latest()[("s", "c")]["metrics"]["x"] == 2


def test_rows_skips_corrupt_lines(tmp_path):
    db = _db(tmp_path)
    db.append([{"suite": "s", "case": "c", "metrics": {}}])
    with db.path.open("a") as fh:
        fh.write("{truncated\n\n[1,2,3]\n")
    db.append([{"suite": "s", "case": "d", "metrics": {}}])
    assert [r["case"] for r in db.rows()] == ["c", "d"]


def test_missing_file_reads_empty(tmp_path):
    assert _db(tmp_path).rows() == []
    assert _db(tmp_path).latest() == {}


def test_row_from_telemetry():
    record = {
        "kind": "repro-telemetry",
        "dataset": "g500-s14",
        "p": 16,
        "count": 42,
        "executor": "parallel",
        "digest": "abc",
        "wall_s": 1.5,
        "virtual_makespan_s": 0.01,
        "memory": {"peak_rss_bytes": 1000},
    }
    row = row_from_telemetry(record)
    assert row["suite"] == "count"
    assert row["case"] == "g500-s14-p16"
    assert row["metrics"] == {
        "count": 42,
        "wall_s": 1.5,
        "virtual_makespan_s": 0.01,
        "peak_rss_bytes": 1000,
    }


def test_rows_from_oocbench_report_carry_what_the_gates_read():
    """Against the committed artifact: the ratio case becomes one row per
    measured child, each with its RSS delta next to its ceiling."""
    report = json.loads((REPO / "BENCH_outofcore.json").read_text())
    rows = {r["case"]: r for r in rows_from_bench(report)}
    ratio = "ratio-n1048576-m4194304-p9"
    assert {c for c in rows if c.startswith(ratio)} == {
        f"{ratio}-stream", f"{ratio}-preprocess", f"{ratio}-count"
    }
    assert sum(c.startswith("parity-") for c in rows) == 4
    for stage in ("stream", "preprocess", "count"):
        m = rows[f"{ratio}-{stage}"]["metrics"]
        child = report["cases"][-1][stage]
        assert m["rss_delta_bytes"] == child["rss_delta_bytes"]
        assert m["ceiling_bytes"] == child["ceiling_bytes"]
        assert m["peak_rss_bytes"] == child["peak_rss_bytes"]  # the real peak
        assert ("graph_to_rss_ratio" in m) == (stage == "stream")
        assert ("store_hit" in m) == (stage == "count")
    assert rows[f"{ratio}-stream"]["metrics"]["graph_to_rss_ratio"] == 64.0
    assert rows[f"{ratio}-count"]["metrics"]["store_hit"] is True
    assert rows[f"{ratio}-count"]["metrics"]["count"] == 5473


def _baseline(entries):
    return {"schema": 1, "kind": "repro-bench-baseline", "entries": entries}


def _rows(**metrics):
    return {("s", "c"): {"suite": "s", "case": "c", "metrics": metrics}}


def test_check_equal_rule():
    base = _baseline(
        [{"suite": "s", "case": "c",
          "metrics": {"count": {"rule": "equal", "value": 42}}}]
    )
    assert check_history(_rows(count=42), base) == []
    failures = check_history(_rows(count=41), base)
    assert len(failures) == 1 and "41" in failures[0]


def test_check_min_max_and_ratio_rules():
    base = _baseline(
        [{"suite": "s", "case": "c", "metrics": {
            "speedup": {"rule": "min", "value": 1.5},
            "wall_s": {"rule": "max", "value": 2.0},
            "best_s": {"rule": "max_ratio", "max_ratio": 1.2, "ref": 1.0},
        }}]
    )
    ok = _rows(speedup=1.8, wall_s=1.0, best_s=1.1)
    assert check_history(ok, base) == []
    bad = _rows(speedup=1.0, wall_s=3.0, best_s=1.5)
    failures = check_history(bad, base)
    assert len(failures) == 3


def test_check_flags_missing_case_and_metric():
    base = _baseline(
        [
            {"suite": "s", "case": "c",
             "metrics": {"gone": {"rule": "equal", "value": 1}}},
            {"suite": "s", "case": "absent",
             "metrics": {"x": {"rule": "equal", "value": 1}}},
        ]
    )
    failures = check_history(_rows(count=1), base)
    assert any("no history row" in f for f in failures)
    assert any("missing from row" in f for f in failures)


def test_check_rejects_unknown_rule_and_bad_kind():
    bad_kind = {"kind": "nope", "entries": []}
    assert check_history({}, bad_kind)
    base = _baseline(
        [{"suite": "s", "case": "c",
          "metrics": {"x": {"rule": "fancy", "value": 1}}}]
    )
    failures = check_history(_rows(x=1), base)
    assert any("unknown rule" in f for f in failures)
    # A numeric rule against a non-numeric value (the autotune -auto
    # row's ``chosen``) is a failure line, not a ValueError.
    for rule in ({"rule": "max", "value": 1.0}, {"rule": "min", "value": 1.0},
                 {"rule": "max_ratio", "ref": 1.0, "max_ratio": 2.0}):
        base = _baseline(
            [{"suite": "s", "case": "c", "metrics": {"chosen": rule}}]
        )
        (failure,) = check_history(_rows(chosen="tc2d-p9"), base)
        assert "s/c" in failure and "chosen='tc2d-p9'" in failure
        assert rule["rule"] in failure


def test_load_baseline_roundtrip(tmp_path):
    path = tmp_path / "b.json"
    doc = _baseline([])
    path.write_text(json.dumps(doc))
    assert load_baseline(path) == doc
