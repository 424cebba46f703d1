"""HTTP front end: routing, status codes, long-poll, drain shutdown."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import ServeClient, ServeConfig, ServeRejected
from repro.serve.client import ServeError
from repro.serve.server import run_server


@pytest.fixture(scope="module")
def endpoint(graph_file):
    """One live server shared by the module; drained at teardown."""
    captured: dict = {}
    ready = threading.Event()

    def announce(server) -> None:
        captured["port"] = server.port
        ready.set()

    thread = threading.Thread(
        target=run_server,
        args=(ServeConfig(max_inflight=1, max_queue=4, tenant_quota=8),),
        kwargs={"port": 0, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30), "server did not start"
    client = ServeClient("127.0.0.1", captured["port"], timeout=120)
    yield client
    client.shutdown()
    thread.join(timeout=60)


def _req(graph_file, **over):
    doc = {"kind": "count", "dataset": str(graph_file), "ranks": 4}
    doc.update(over)
    return doc


def test_healthz(endpoint):
    assert endpoint.health()


def test_submit_wait_cold_then_warm(endpoint, graph_file):
    cold = endpoint.submit(_req(graph_file), wait=True, progress=True)
    assert cold["state"] == "done"
    assert cold["result"]["served"] == "cold"
    assert any(e["kind"] == "phase" for e in cold["events"])
    warm = endpoint.submit(_req(graph_file), wait=True)
    assert warm["warm"] and warm["result"]["served"] == "warm"
    assert warm["result"]["count"] == cold["result"]["count"]
    assert warm["result"]["digest"] == cold["result"]["digest"]


def test_async_submit_poll_events(endpoint, graph_file):
    ack = endpoint.submit(_req(graph_file, seed=3), wait=False)
    assert ack["state"] in ("queued", "running")
    # Long-poll while the job moves: what is there comes back at once, the
    # next poll waits (in a server thread) for the event after it.
    first = endpoint.events(ack["id"], since=0, timeout=30)["events"]
    assert first and first[0]["kind"] == "queued"
    if first[-1]["kind"] != "finished":
        nxt = endpoint.events(ack["id"], since=len(first), timeout=60)["events"]
        assert nxt and nxt[0]["seq"] == len(first)
    deadline = time.time() + 120
    doc = endpoint.job(ack["id"])
    while doc["state"] in ("queued", "running") and time.time() < deadline:
        time.sleep(0.05)
        doc = endpoint.job(ack["id"])
    assert doc["state"] == "done", doc.get("error")
    ev = endpoint.events(ack["id"], since=0, timeout=1)
    kinds = [e["kind"] for e in ev["events"]]
    assert kinds[0] == "queued" and "finished" in kinds
    # since= pagination returns only the tail
    tail = endpoint.events(ack["id"], since=len(kinds) - 1)
    assert [e["kind"] for e in tail["events"]] == kinds[-1:]
    # "seq >= since" holds past the end too, and a terminal job is answered
    # at once (on the event loop) however long the poll asks to wait.
    t0 = time.perf_counter()
    assert endpoint.events(ack["id"], since=len(kinds), timeout=20)["events"] == []
    assert time.perf_counter() - t0 < 5


def test_metrics_scrape(endpoint, graph_file):
    endpoint.submit(_req(graph_file), wait=True)
    text = endpoint.metrics()
    assert "repro_serve_jobs_submitted_total" in text
    assert 'repro_serve_jobs_completed_total{class="cold"}' in text
    assert "repro_serve_hit_ratio" in text


def test_stats_document(endpoint, graph_file):
    stats = endpoint.stats()
    assert stats["schema"] == 1
    assert stats["machine_fingerprint"]
    assert stats["max_inflight"] == 1


def test_bad_requests_are_400(endpoint, graph_file):
    with pytest.raises(ServeError) as exc:
        endpoint.submit({"kind": "bogus", "dataset": "g500-s12"})
    assert exc.value.status == 400
    with pytest.raises(ServeError) as exc:
        endpoint.submit({"kind": "count", "dataset": "missing-dataset"})
    assert exc.value.status == 400
    status, _doc = endpoint.request(
        "POST", "/v1/jobs", body=None, headers={"Content-Type": "text/plain"}
    )
    assert status in (200, 400)  # empty body -> missing dataset -> 400
    # Malformed JSON shapes and field types are the client's fault too.
    for body in (
        [1, 2],
        "x",
        {"dataset": "g500-s12", "ranks": None},
        {"dataset": "g500-s12", "seed": [1]},
        {"kind": "ktruss", "dataset": "g500-s12", "k": None},
    ):
        status, doc = endpoint.request("POST", "/v1/jobs", body=body)
        assert (status, doc["error"]) == (400, "bad_request"), (body, doc)
    job = endpoint.submit(_req(graph_file), wait=True)
    # since=-3 used to answer with the *last three* events.
    for query in ("since=abc", "since=-3", "timeout=-1", "timeout=nan",
                  "timeout=inf", "since=0&timeout=x"):
        status, doc = endpoint.request(
            "GET", f"/v1/jobs/{job['id']}/events?{query}"
        )
        assert (status, doc["error"]) == (400, "bad_request"), (query, doc)
    status, doc = endpoint.request("GET", "/v1/jobs/job-999999")
    assert status == 404 and doc["error"] == "not_found"
    status, _ = endpoint.request("GET", "/nope")
    assert status == 404


def test_rejection_is_429(graph_file):
    captured: dict = {}
    ready = threading.Event()

    def announce(server) -> None:
        captured["port"] = server.port
        ready.set()

    thread = threading.Thread(
        target=run_server,
        args=(ServeConfig(max_inflight=1, max_queue=0, tenant_quota=8),),
        kwargs={"port": 0, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30)
    client = ServeClient("127.0.0.1", captured["port"], timeout=120)
    try:
        acks, rejects = [], []
        for seed in range(40, 46):
            try:
                acks.append(
                    client.submit(_req(graph_file, seed=seed), wait=False)
                )
            except ServeRejected as exc:
                rejects.append(exc)
        assert rejects, "burst never hit admission control"
        assert all(r.status == 429 for r in rejects)
        assert all(r.reason == "queue_full" for r in rejects)
    finally:
        client.shutdown()
        thread.join(timeout=60)


def test_shutdown_drains(graph_file):
    captured: dict = {}
    ready = threading.Event()

    def announce(server) -> None:
        captured["port"] = server.port
        ready.set()

    thread = threading.Thread(
        target=run_server,
        args=(ServeConfig(max_inflight=1, max_queue=4, tenant_quota=8),),
        kwargs={"port": 0, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30)
    client = ServeClient("127.0.0.1", captured["port"], timeout=120)
    ack = client.submit(_req(graph_file, seed=77), wait=False)
    client.shutdown()
    thread.join(timeout=120)
    assert not thread.is_alive(), "server did not exit after shutdown"
    # The queued job was drained, not dropped: the server only exits
    # after service.close(drain=True) completes.
    assert ack["id"]
