"""Chrome/Perfetto trace export: structure, determinism, flow pairing."""

from __future__ import annotations

import json

import pytest

from repro.core import count_triangles_2d
from repro.graph import rmat_graph
from repro.instrument import chrome_trace, dumps_chrome_trace, write_chrome_trace
from repro.simmpi import Engine


def _traced_run():
    def program(ctx):
        with ctx.phase("work"):
            ctx.charge("op", 1000 * (ctx.rank + 1))
            nxt = (ctx.rank + 1) % ctx.num_ranks
            prv = (ctx.rank - 1) % ctx.num_ranks
            ctx.comm.sendrecv(b"p" * 128, dest=nxt, source=prv)
        ctx.comm.barrier()

    return Engine(3, trace=True).run(program)


def test_trace_document_structure():
    doc = chrome_trace(_traced_run())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["ranks"] == 3
    evs = doc["traceEvents"]
    # Metadata names every rank track.
    thread_names = [
        e["args"]["name"] for e in evs if e.get("name") == "thread_name"
    ]
    assert thread_names == ["rank 0", "rank 1", "rank 2"]
    # Complete events carry the required trace-event fields.
    complete = [e for e in evs if e["ph"] == "X"]
    assert complete, "no span events exported"
    for e in complete:
        assert {"pid", "tid", "ts", "dur", "name", "cat"} <= set(e)
        assert e["dur"] >= 0
    assert any(e["cat"] == "phase" and e["name"] == "work" for e in complete)


def test_flow_events_pair_send_with_recv():
    doc = chrome_trace(_traced_run())
    starts = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "s"}
    ends = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "f"}
    assert starts and set(starts) == set(ends)
    for fid, s in starts.items():
        f = ends[fid]
        assert f["ts"] >= s["ts"]  # arrows point forward in time
        assert s["cat"] == f["cat"] == "msg"


def test_export_is_deterministic_across_identical_runs():
    g = rmat_graph(8, edge_factor=8, seed=3)
    res1 = count_triangles_2d(g, p=4, trace=True)
    res2 = count_triangles_2d(g, p=4, trace=True)
    s1 = dumps_chrome_trace(res1.extras["run"])
    s2 = dumps_chrome_trace(res2.extras["run"])
    assert s1 == s2  # byte-identical


def test_write_chrome_trace_roundtrips(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _traced_run())
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["clock"] == "virtual"
    assert len(doc["traceEvents"]) > 10


def test_untraced_run_refuses_export():
    def program(ctx):
        return ctx.rank

    run = Engine(2).run(program)
    with pytest.raises(ValueError, match="trace"):
        chrome_trace(run)


# -- telemetry counter tracks -------------------------------------------------


def _counters():
    return [
        {"t": 0.0, "name": "rss_bytes", "value": 1000},
        {"t": 0.5, "name": "rss_bytes", "value": 1500},
        {"t": 1.0, "name": "rss_bytes", "value": 2000},
    ]


def test_counter_samples_become_counter_events():
    doc = chrome_trace(_traced_run(), counters=_counters())
    cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(cs) == 3
    for e in cs:
        assert e["pid"] == 1 and e["tid"] == 0
        assert e["cat"] == "telemetry"
        assert "value" in e["args"]
    # The wall-clock process is named.
    assert any(
        e.get("name") == "process_name" and e["pid"] == 1
        for e in doc["traceEvents"]
        if e["ph"] == "M"
    )


def test_counters_do_not_renumber_flow_ids():
    run = _traced_run()
    plain = chrome_trace(run)
    with_counters = chrome_trace(run, counters=_counters())

    def flows(doc):
        return [
            (e["ph"], e["id"], e["tid"], e["ts"])
            for e in doc["traceEvents"]
            if e["ph"] in ("s", "f")
        ]

    assert flows(plain) == flows(with_counters)


def test_no_counters_keeps_export_byte_identical():
    run = _traced_run()
    assert dumps_chrome_trace(run) == dumps_chrome_trace(run, counters=None)


def test_warm_run_export_contains_cache_load_spans(tmp_path):
    from repro.graph.store import GraphStore

    g = rmat_graph(8, edge_factor=8, seed=3)
    store = GraphStore(tmp_path / "store")
    count_triangles_2d(g, p=4, cache=store)  # cold: warms the store
    warm = count_triangles_2d(g, p=4, trace=True, cache=store)
    assert warm.extras["cache"]["hit"]
    doc = chrome_trace(warm.extras["run"])
    loads = [
        e
        for e in doc["traceEvents"]
        if e["ph"] == "X" and str(e["name"]).startswith("cache:load:")
    ]
    # One load span per rank, all in the cache phase's span category.
    assert len(loads) == 4
    digest = warm.extras["cache"]["digest"][:12]
    assert all(e["name"] == f"cache:load:{digest}" for e in loads)
