"""Runtime telemetry: flight recorder, session records, invariance.

The load-bearing guarantees under test:

* the flight-recorder ring is bounded and counts what it evicts;
* a recorded run yields a schema-1 record with exec-wall phase rows,
  memory/GC stats and (under the pool) dispatch-latency buckets that
  partition the pool wall exactly;
* attaching telemetry never changes counts, counters or trace exports
  (executor-invariance extends to observability);
* a cold->warm store pair diffs to a ~zero ppt wall.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.calibration import paper_model
from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import rmat_graph
from repro.instrument import (
    FlightRecorder,
    Telemetry,
    counter_samples,
    diff_records,
    dumps_chrome_trace,
    host_metadata,
    peak_rss_bytes,
    render_diff,
    rss_bytes,
    telemetry_report,
)
from repro.simmpi.parallel import SuperstepPool


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def pool():
    p = SuperstepPool(workers=2)
    yield p
    p.shutdown()


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


# -- session records ----------------------------------------------------------


def test_sequential_run_record(graph):
    tele, res, rec = _recorded_run(graph)
    assert rec["kind"] == "repro-telemetry"
    assert rec["schema"] == 1
    assert rec["count"] == res.count
    assert rec["p"] == 9
    assert rec["dataset"] == "rmat9"
    assert rec["executor"] == "sequential"
    assert rec["pool"] is None
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


# -- pool instrumentation -----------------------------------------------------


def test_pool_buckets_partition_wall(graph, pool):
    cfg = TC2DConfig(executor="parallel", workers=2)
    tele = Telemetry(sample_interval=0.0)
    with tele:
        res = count_triangles_2d(
            graph, 9, cfg=cfg, model=paper_model(), superstep=pool,
            telemetry=tele, dataset="rmat9",
        )
    rec = res.extras["telemetry"]
    st = rec["pool"]
    assert st["jobs"] > 0 and st["dispatches"] > 0
    buckets = (
        st["serialize_s"] + st["dispatch_s"] + st["execute_s"]
        + st["collect_s"]
    )
    # The buckets are defined as a partition of each dispatch()'s wall,
    # so the acceptance bound (5%) holds with float-rounding slack only.
    assert buckets == pytest.approx(st["wall_s"], rel=0.05, abs=1e-6)
    # Kernels are the pool's only job and a clean run publishes their
    # operands once as residents: no transient byte is ever shipped.
    assert st["payload_bytes"] == 0 and st["resident_bytes"] > 0
    assert st["queue_peak"] >= 1
    assert sum(st["worker_busy_s"].values()) >= 0.0

    kinds = {e.kind for e in tele.recorder.events()}
    assert {"pool.job", "pool.dispatch", "pool.queue"} <= kinds
    report = telemetry_report(rec)
    assert "serialize" in report and "execute" in report

    samples = counter_samples(tele.recorder.events())
    assert any(s["name"] == "pool_queue_depth" for s in samples)
    assert any(s["name"] == "rss_bytes" for s in samples)


def test_pool_stats_delta_is_per_run(graph, pool):
    cfg = TC2DConfig(executor="parallel", workers=2)
    _, _, rec1 = _recorded_run(graph, cfg=cfg, superstep=pool)
    _, _, rec2 = _recorded_run(graph, cfg=cfg, superstep=pool)
    # The pool is reused, but each record's view is the delta since its
    # begin_run — identical runs therefore report ~identical job counts.
    assert rec1["pool"]["jobs"] == rec2["pool"]["jobs"]
    assert rec1["pool"]["dispatches"] == rec2["pool"]["dispatches"]


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
