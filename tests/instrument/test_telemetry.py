"""Runtime telemetry: flight recorder, session records, invariance.

The load-bearing guarantees under test:

* the flight-recorder ring is bounded and counts what it evicts;
* a recorded run yields a schema-1 record with exec-wall phase rows and
  memory/GC stats;
* attaching telemetry never changes counts, counters or trace exports
  (executor-invariance extends to observability);
* a cold->warm store pair diffs to a ~zero ppt wall.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.calibration import paper_model
from repro.core import count_triangles_2d
from repro.graph import rmat_graph
from repro.instrument import (
    FlightRecorder,
    Telemetry,
    diff_records,
    dumps_chrome_trace,
    host_metadata,
    peak_rss_bytes,
    render_diff,
    rss_bytes,
    telemetry_report,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, edge_factor=8, seed=3)


def _recorded_run(graph, **kw):
    tele = Telemetry(sample_interval=0.0)
    with tele:
        res = count_triangles_2d(
            graph, 9, model=paper_model(), dataset="rmat9", **kw,
            telemetry=tele,
        )
    return tele, res, res.extras["telemetry"]


# -- flight recorder ----------------------------------------------------------


def test_ring_is_bounded_and_counts_drops():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.record("tick", i=i)
    assert len(rec.events()) == 4
    assert [e.detail["i"] for e in rec.events()] == [6, 7, 8, 9]
    st = rec.stats()
    assert st == {"capacity": 4, "recorded": 10, "dropped": 6, "buffered": 4}


def test_snapshot_and_dump_schema(tmp_path):
    rec = FlightRecorder(capacity=8)
    rec.record("x", a=1)
    snap = rec.snapshot(reason="unit-test")
    assert snap["kind"] == "repro-flight-recorder"
    assert snap["schema"] == 1
    assert snap["reason"] == "unit-test"
    assert snap["events"][0]["kind"] == "x"
    path = tmp_path / "deep" / "dump.json"
    rec.dump(path, reason="unit-test")
    assert json.loads(path.read_text())["events"][0]["detail"] == {"a": 1}


def test_host_and_rss_helpers():
    host = host_metadata()
    assert host["usable_cpus"] >= 1
    assert {"cpu_count", "python", "machine", "system"} <= set(host)
    assert rss_bytes() > 0
    assert peak_rss_bytes() >= rss_bytes() // 2  # same order of magnitude


#: Run by a parent interpreter that holds 200 MiB: it prints its own peak,
#: then the peak a ``python -c`` child of it reports for itself.
_SPAWNER = """
import subprocess, sys
import numpy as np
from repro.instrument.telemetry import peak_rss_bytes

held = np.ones(200 * 2**20 // 8)  # every page touched
child = "from repro.instrument.telemetry import peak_rss_bytes as f; print(f())"
out = subprocess.run([sys.executable, "-c", child], capture_output=True,
                     text=True, check=True).stdout
print(peak_rss_bytes(), int(out), int(held[-1]))
"""


def test_a_spawned_child_reports_its_own_peak_not_its_parents():
    """Linux starts a spawned process's ``ru_maxrss`` at its parent's
    peak; the reading is this process's own ``VmHWM``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SPAWNER], capture_output=True, text=True,
        check=True, env=env,
    ).stdout
    parent, child, _ = map(int, out.split())
    assert parent >= 200 * 2**20
    assert 0 < child < 100 * 2**20


# -- session records ----------------------------------------------------------


def test_sequential_run_record(graph):
    tele, res, rec = _recorded_run(graph)
    assert rec["kind"] == "repro-telemetry"
    assert rec["schema"] == 1
    assert rec["count"] == res.count
    assert rec["p"] == 9
    assert rec["dataset"] == "rmat9"
    assert rec["executor"] == "sequential"
    assert "pool" not in rec
    assert set(rec["phases"]) == {"ppt", "tct"}
    for ph in rec["phases"].values():
        assert ph["wall_s"] >= 0.0
        assert ph["ranks"] == 9
        assert ph["rss_max_bytes"] > 0
        assert 0.0 <= ph["comm_fraction"] <= 1.0
        assert ph["virtual_s"] > 0.0
    assert rec["wall_s"] > 0.0
    assert rec["virtual_makespan_s"] > 0.0
    mem = rec["memory"]
    assert mem["rss_end_bytes"] > 0 and mem["peak_rss_bytes"] > 0
    assert rec["gc"]["collections"] >= 0
    assert rec["flight_recorder"]["dropped"] == 0

    report = telemetry_report(rec)
    assert "rmat9" in report
    assert "ppt" in report and "tct" in report
    assert "memory:" in report


def test_gc_watch_counts_collections(graph):
    import gc

    tele = Telemetry(sample_interval=0.0)
    with tele:
        gc.collect()
        gc.collect()
        tele.begin_run(label="gc-test")
        gc.collect()
    kinds = [e.kind for e in tele.recorder.events()]
    assert "gc" in kinds


def test_gc_callback_reentry_does_not_deadlock():
    # A GC collection triggered by an allocation *inside* record() (the
    # deque growing a block, snapshot copying the buffer) fires the
    # _GCWatch callback, which calls record() again on the same thread.
    # With a non-reentrant recorder lock this self-deadlocks — observed
    # as chaos runs wedging until the engine's 600s real-time watchdog.
    import gc
    import threading

    tele = Telemetry(sample_interval=0.0, recorder_capacity=256)

    def hammer():
        # Collect on (nearly) every allocation so a collection lands
        # while the recorder lock is held.
        old = gc.get_threshold()
        gc.set_threshold(1, 1, 1)
        try:
            for i in range(2000):
                tele.note("spin", i=i, payload=[0] * 8)
                tele.recorder.events()
        finally:
            gc.set_threshold(*old)

    tele.start()
    t = threading.Thread(target=hammer, daemon=True)
    t.start()
    t.join(timeout=30)
    # Assert before stop(): a deadlocked recorder would hang stop() too.
    assert not t.is_alive(), "recorder deadlocked under gc.callbacks reentry"
    tele.stop()
    assert tele.recorder.recorded >= 2000


def test_telemetry_does_not_change_results_or_traces(graph):
    base = count_triangles_2d(graph, 9, model=paper_model(), trace=True)
    tele = Telemetry(sample_interval=0.0)
    with tele:
        reco = count_triangles_2d(
            graph, 9, model=paper_model(), trace=True, telemetry=tele
        )
    assert reco.count == base.count
    assert reco.counters_tct == base.counters_tct
    assert reco.extras["run"].counters == base.extras["run"].counters
    assert dumps_chrome_trace(reco.extras["run"]) == dumps_chrome_trace(
        base.extras["run"]
    )


def test_crash_dump_writes_artifact(tmp_path, graph):
    tele = Telemetry(sample_interval=0.0, crash_dir=tmp_path)
    with tele:
        tele.begin_run(label="doomed")
        tele.note("custom", detail="pre-crash breadcrumb")
        path = tele.crash_dump(reason="UnitTestCrash")
    assert path is not None and path.exists()
    doc = json.loads(path.read_text())
    assert doc["reason"] == "UnitTestCrash"
    assert any(e["kind"] == "custom" for e in doc["events"])


def test_crash_dump_without_dir_is_a_noop():
    tele = Telemetry(sample_interval=0.0)
    with tele:
        assert tele.crash_dump(reason="nowhere-to-go") is None


def test_engine_failure_triggers_crash_dump(tmp_path, graph, monkeypatch):
    import repro.core.tc2d as tc2d_mod

    def boom(ctx, *args, **kwargs):
        raise RuntimeError("injected rank failure")

    monkeypatch.setattr(tc2d_mod, "tc2d_rank_program", boom)
    tele = Telemetry(sample_interval=0.0, crash_dir=tmp_path)
    with tele:
        with pytest.raises(Exception, match="injected rank failure"):
            count_triangles_2d(
                graph, 9, model=paper_model(), telemetry=tele
            )
    dumps = list(tmp_path.glob("flightrec-*.json"))
    assert len(dumps) == 1
    doc = json.loads(dumps[0].read_text())
    assert doc["kind"] == "repro-flight-recorder"
    assert doc["reason"]


# -- cold/warm diff -----------------------------------------------------------


def test_cold_warm_diff_zeroes_ppt(tmp_path, graph):
    from repro.graph.store import GraphStore

    store = GraphStore(tmp_path / "store")
    _, cold_res, cold = _recorded_run(graph, cache=store)
    _, warm_res, warm = _recorded_run(graph, cache=store)
    assert warm_res.extras["cache"]["hit"]
    assert warm_res.count == cold_res.count

    d = diff_records(cold, warm)
    assert d["warnings"] == []  # same digest, fingerprint, host
    ppt = d["phases"]["ppt"]
    # Warm ppt is an empty phase: its exec-wall collapses to (near) zero.
    assert ppt["wall_b_s"] < max(1e-3, 0.1 * ppt["wall_a_s"])
    assert "cache" in d["phases"]

    text = render_diff(d)
    assert "ppt" in text and "wall" in text


def test_diff_flags_mismatched_runs(graph):
    _, _, a = _recorded_run(graph)
    a = dict(a)
    a["digest"] = "aaaa1111"  # uncached runs record no digest; pin both
    b = dict(a)
    b["digest"] = "deadbeef"
    b["count"] = a["count"] + 1
    d = diff_records(a, b)
    joined = " ".join(d["warnings"])
    assert "digest" in joined and "count" in joined
