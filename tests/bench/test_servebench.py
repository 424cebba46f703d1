"""servebench: end-to-end micro run, report schema, gates, history rows."""

from __future__ import annotations

import json

import pytest

from repro.bench.history import rows_from_bench
from repro.bench.core import bench_main
from repro.bench.servebench import SUITE, check
from repro.graph import erdos_renyi_gnm
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One tiny real servebench run (real HTTP, both service instances)."""
    root = tmp_path_factory.mktemp("servebench")
    graph = root / "g.txt"
    write_edge_list(erdos_renyi_gnm(300, 2400, seed=7), graph)
    out = root / "BENCH_serve.json"
    rc = bench_main(
        SUITE,
        [
            "--dataset", str(graph), "--ranks", "4", "--requests", "12",
            "--clients", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    # micro graphs have ~20ms cold runs; the 10x WARM_SPEEDUP_GATE is for
    # the real smoke/full datasets
    assert check(report, [], warm_speedup_gate=2.0) == []
    return report


def test_report_schema_and_phases(report):
    assert report["kind"] == "repro-serve-bench"
    assert report["suite"] == "serve"
    case = report["cases"][0]
    assert case["triangles"] > 0 and len(case["digest"]) == 64
    assert case["cold"]["n"] >= 2 and case["warm"]["n"] == 12
    assert case["warm_speedup_p50"] > 1
    assert case["mixed"]["served"]["warm"] > 0
    assert 0 < case["mixed"]["hit_ratio"] <= 1
    assert sum(case["mixed"]["tenants"].values()) == case["mixed"]["n"]
    assert report["host"]["python"]


def test_overload_is_typed_and_bounded(report):
    over = report["overload"]
    assert over["burst"] == 4 * over["capacity"]
    assert over["rejected_total"] > 0
    assert set(over["rejected"]) <= {"queue_full", "tenant_quota"}
    assert over["accepted"] <= over["capacity"]
    assert over["queue_depth_max"] <= over["capacity"]


def test_check_gates_fire(report):
    assert check(report, [], warm_speedup_gate=1.0) == []
    # An absurd gate must fail (proves the gate actually compares).
    failures = check(report, [], warm_speedup_gate=1e9)
    assert failures and "speedup" in failures[0]
    broken = json.loads(json.dumps(report))
    broken["overload"]["rejected_total"] = 0
    assert any("no typed rejections" in f for f in check(broken, [], 1.0))
    broken = json.loads(json.dumps(report))
    broken["overload"]["accepted"] = broken["overload"]["capacity"] + 5
    assert any("capacity" in f for f in check(broken, [], 1.0))


def test_history_rows_for_serve_suite(report):
    rows = rows_from_bench(report)
    cases = {r["case"]: r["metrics"] for r in rows}
    name = report["cases"][0]["name"]
    assert f"{name}-cold" in cases and f"{name}-warm" in cases
    assert cases[f"{name}-cold"]["count"] == report["cases"][0]["triangles"]
    assert cases[f"{name}-warm"]["warm_speedup_p50"] > 1
    assert cases[f"{name}-mixed"]["throughput_rps"] > 0
    assert cases["overload"]["rejected_total"] > 0
    assert cases["overload"]["accepted"] <= cases["overload"]["capacity"]
