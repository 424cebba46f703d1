"""HTTP front end: routing, status codes, long-poll, drain shutdown, and
two gates of the serve contract: the warm path's speedup over a cold run
and bounded admission under a burst."""

from __future__ import annotations

import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import ServeClient, ServeConfig, ServeRejected, TriangleService
from repro.serve.client import ServeError
from repro.serve.server import run_server

#: A warm (result-cache) answer's p50 must beat a cold run's p50 by this
#: factor over real HTTP on g500-s12 at p = 16 with no store.
WARM_SPEEDUP_GATE = 10.0


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


def _timed_submit(client, request, served):
    """Seconds one blocking submit takes; it must be served ``served``."""
    t0 = time.perf_counter()
    doc = client.submit(request, wait=True)
    elapsed = time.perf_counter() - t0
    assert doc["result"]["served"] == served
    return elapsed


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

    # Warm speedup: cold p50 over 3 distinct seeds against warm p50 over
    # 20 repeats of the last of them.
    assert endpoint.stats()["store"] is None
    g500 = {"kind": "count", "dataset": "g500-s12", "ranks": 16}
    cold_s = [
        _timed_submit(endpoint, {**g500, "seed": seed}, "cold")
        for seed in (1000, 1001, 1002)
    ]
    warm_s = [
        _timed_submit(endpoint, {**g500, "seed": 1002}, "warm")
        for _ in range(20)
    ]
    cold_p50, warm_p50 = statistics.median(cold_s), statistics.median(warm_s)
    assert cold_p50 >= WARM_SPEEDUP_GATE * warm_p50, (cold_p50, warm_p50)


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


def test_rejection_is_429(graph_file, monkeypatch):
    """Bounded admission: a burst of 4 x capacity against a stalled
    dispatcher admits exactly capacity jobs, answers every other submit
    with a typed 429 and never queues more than ``max_queue``."""
    config = ServeConfig(max_inflight=1, max_queue=2, tenant_quota=64)
    capacity = config.max_inflight + config.max_queue
    entered, release = threading.Event(), threading.Event()
    orig = TriangleService._execute

    def stalled(self, job):
        entered.set()
        release.wait(30)
        return orig(self, job)

    monkeypatch.setattr(TriangleService, "_execute", stalled)
    captured: dict = {}
    ready = threading.Event()

    def announce(server) -> None:
        captured["port"] = server.port
        ready.set()

    thread = threading.Thread(
        target=run_server,
        args=(config,),
        kwargs={"port": 0, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(30)
    client = ServeClient("127.0.0.1", captured["port"], timeout=120)

    def submit(seed):
        try:
            return client.submit(
                _req(graph_file, seed=seed), tenant=f"flood-{seed % 4}",
                wait=False,
            )
        except ServeRejected as exc:
            return exc

    try:
        # The burst's first job holds the one dispatcher before the rest
        # arrive, so the queue depth does not race the dispatcher's pickup.
        outcomes = [submit(40)]
        assert entered.wait(30)
        with ThreadPoolExecutor(4 * capacity - 1) as pool:
            outcomes += pool.map(submit, range(41, 40 + 4 * capacity))
        rejects = [o for o in outcomes if isinstance(o, ServeRejected)]
        assert len(outcomes) - len(rejects) == capacity
        assert all(r.status == 429 for r in rejects)
        assert {r.reason for r in rejects} == {"queue_full"}
        assert client.stats()["queue_depth_max"] <= config.max_queue
    finally:
        release.set()
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
