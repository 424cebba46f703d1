"""TriangleService core: canonicalization, warm cache, admission."""

from __future__ import annotations

import threading

import pytest

from repro.serve import (
    AdmissionError,
    ServeConfig,
    TriangleService,
    normalize_request,
    request_key,
)


def _req(graph_file, **over):
    doc = {"kind": "count", "dataset": str(graph_file), "ranks": 4}
    doc.update(over)
    return doc


class TestNormalize:
    def test_defaults_and_canonical_key(self, graph_file):
        a = normalize_request(_req(graph_file))
        b = normalize_request(
            {"ranks": 4, "dataset": str(graph_file), "kind": "count",
             "seed": 0, "enumeration": "jik"}
        )
        # Field order and omitted defaults must not split the cache.
        assert request_key(a) == request_key(b)

    def test_registry_dataset_accepted(self):
        spec = normalize_request({"kind": "count", "dataset": "g500-s12"})
        assert spec["ranks"] == 16 and "file" not in spec

    def test_file_identity_in_key(self, graph_file):
        before = request_key(normalize_request(_req(graph_file)))
        graph_file.touch()  # new mtime = new content identity
        after = request_key(normalize_request(_req(graph_file)))
        assert before != after

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "nope", "dataset": "g500-s12"},
            {"kind": "count"},  # no dataset
            {"kind": "count", "dataset": "no-such-dataset"},
            {"kind": "count", "dataset": "g500-s12", "ranks": 7},  # not square
            {"kind": "count", "dataset": "g500-s12", "k": 4},  # k w/o ktruss
            {"kind": "ktruss", "dataset": "g500-s12", "k": 1},
            {"kind": "count", "dataset": "g500-s12", "bogus": 1},
            {"kind": "count", "dataset": "g500-s12", "enumeration": "kji"},
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            normalize_request(bad)


class TestWarmCache:
    def test_cold_then_warm_identical(self, service, graph_file):
        j1 = service.submit(_req(graph_file))
        assert j1.wait(120) and j1.state == "done", j1.error
        r1 = j1.result
        assert r1["served"] == "cold" and r1["count"] > 0
        assert r1["digest"] and r1["machine_fingerprint"]

        j2 = service.submit(_req(graph_file), tenant="other")
        assert j2.state == "done" and j2.warm
        r2 = j2.result
        assert r2["served"] == "warm"
        # Bit-identical payload: count, digest, virtual clocks, counters.
        assert r2["count"] == r1["count"]
        assert r2["digest"] == r1["digest"]
        assert r2["virtual"] == r1["virtual"]
        assert r2["counters"] == r1["counters"]

    def test_different_seed_is_cold(self, service, graph_file):
        j1 = service.submit(_req(graph_file))
        assert j1.wait(120)
        j2 = service.submit(_req(graph_file, seed=1))
        assert not j2.warm
        assert j2.wait(120) and j2.state == "done", j2.error

    def test_warm_hits_bypass_admission(self, graph_file):
        svc = TriangleService(
            ServeConfig(max_inflight=1, max_queue=0, tenant_quota=1)
        )
        try:
            j1 = svc.submit(_req(graph_file))
            assert j1.wait(120), j1.error
            # max_queue=0: any cold submit would reject, warm ones sail.
            for _ in range(5):
                assert svc.submit(_req(graph_file)).warm
        finally:
            svc.close()

    def test_events_stream_phases(self, service, graph_file):
        job = service.submit(_req(graph_file))
        assert job.wait(120), job.error
        kinds = [e["kind"] for e in job.events]
        assert kinds[0] == "queued" and kinds[-1] == "finished"
        phases = {e["name"] for e in job.events if e["kind"] == "phase"}
        assert {"ppt", "tct"} <= phases
        seqs = [e["seq"] for e in job.events]
        assert seqs == list(range(len(seqs)))

    def test_events_are_a_traced_runs_phase_closures(
        self, graph_file, tmp_path, monkeypatch
    ):
        """A served cold job runs untraced — its all-to-alls take the
        rendezvous — yet its per-rank ``phase`` and ``cache_load`` events
        are the top-level phase spans and cache records of a traced run
        of the same request: store-cold, then store-warm."""
        from repro.bench.calibration import paper_model
        from repro.core import TC2DConfig, count_triangles_2d
        from repro.graph.io import read_edge_list
        from repro.simmpi import Engine

        alltoalls = []
        rendezvous = Engine.alltoall

        def counting(self, *args):
            alltoalls.append(args[1])
            return rendezvous(self, *args)

        monkeypatch.setattr(Engine, "alltoall", counting)

        def served(store):
            svc = TriangleService(ServeConfig(max_inflight=1, store=store))
            try:
                job = svc.submit(_req(graph_file))
                assert job.wait(120) and job.state == "done", job.error
            finally:
                svc.close()
            phases, loads = {}, {}
            for e in job.events:
                if e["kind"] == "phase":
                    phases.setdefault(e["rank"], []).append(
                        (e["name"], e["virtual_s"])
                    )
                elif e["kind"] == "cache_load":
                    loads.setdefault(e["rank"], []).append(e["nbytes"])
            return job.result, phases, loads

        def traced(store):
            res = count_triangles_2d(
                read_edge_list(graph_file), 4,
                TC2DConfig(enumeration="jik", seed=0, real_timeout=600.0),
                model=paper_model(), trace=True, cache=store,
            )
            phases, loads = {}, {}
            for s in res.extras["run"].tracer.spans:
                if s.cat == "phase" and s.depth == 0:
                    phases.setdefault(s.rank, []).append(
                        (s.name, round(s.duration, 9))
                    )
                elif s.cat == "cache":
                    loads.setdefault(s.rank, []).append(s.detail["nbytes"])
            return res, phases, loads

        cold, cold_phases, cold_loads = served(tmp_path / "served")
        assert alltoalls, "a served cold job must take the rendezvous"
        warm, warm_phases, warm_loads = served(tmp_path / "served")
        assert not cold["store"]["hit"] and warm["store"]["hit"]

        ref_cold, *want_cold = traced(tmp_path / "traced")
        ref_warm, *want_warm = traced(tmp_path / "traced")
        assert ref_warm.extras["cache"]["hit"]
        assert [cold_phases, cold_loads] == want_cold
        assert [warm_phases, warm_loads] == want_warm
        assert {name for name, _ in cold_phases[0]} == {"ppt", "tct"}
        assert len(warm_loads) == 4
        assert cold["count"] == warm["count"] == ref_cold.count

    def test_failed_job_not_cached(self, service, graph_file, monkeypatch):
        calls = {"n": 0}
        real = TriangleService._execute

        def boom(self, job):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return real(self, job)

        monkeypatch.setattr(TriangleService, "_execute", boom)
        j1 = service.submit(_req(graph_file))
        assert j1.wait(120) and j1.state == "failed"
        assert "injected" in j1.error
        j2 = service.submit(_req(graph_file))
        assert not j2.warm  # the failure must not have been cached
        assert j2.wait(120) and j2.state == "done"


    def test_job_table_is_bounded(self, service, graph_file, monkeypatch):
        """Finished jobs are forgotten oldest-first past the retention
        bound; queued and running ones never are."""
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "MAX_TERMINAL_JOBS", 3)
        first = service.submit(_req(graph_file))
        assert first.wait(120) and first.state == "done", first.error
        gate = threading.Event()
        real = TriangleService._execute

        def stalled(self, job):
            gate.wait(30)
            return real(self, job)

        monkeypatch.setattr(TriangleService, "_execute", stalled)
        running = service.submit(_req(graph_file, seed=1))  # cold: not terminal
        warm = [service.submit(_req(graph_file)) for _ in range(6)]
        assert all(j.warm for j in warm)
        assert service.job(first.id) is None  # oldest-finished went first
        assert [service.job(j.id) for j in warm] == [None] * 3 + warm[3:]
        assert service.job(running.id) is running  # never while admitted
        assert service.stats()["jobs"] == 4
        gate.set()
        assert running.wait(120) and running.state == "done", running.error
        assert service.job(running.id) is running
        assert service.job(warm[3].id) is None and service.stats()["jobs"] == 3


class TestAdmission:
    def test_queue_full_typed(self, graph_file):
        svc = TriangleService(
            ServeConfig(max_inflight=1, max_queue=0, tenant_quota=8)
        )
        try:
            # Stall the single dispatcher with a barrier job so the next
            # cold submit definitely sees a full queue.
            gate = threading.Event()
            orig = TriangleService._execute

            def slow(self, job):
                gate.wait(30)
                return orig(self, job)

            TriangleService._execute = slow
            try:
                running = svc.submit(_req(graph_file))
                with pytest.raises(AdmissionError) as exc:
                    svc.submit(_req(graph_file, seed=2))
                assert exc.value.reason == "queue_full"
            finally:
                TriangleService._execute = orig
                gate.set()
            assert running.wait(120)
            assert svc.metrics.rejected == {"queue_full": 1}
        finally:
            svc.close()

    def test_tenant_quota_typed_and_isolated(self, graph_file):
        svc = TriangleService(
            ServeConfig(max_inflight=1, max_queue=8, tenant_quota=1)
        )
        try:
            gate = threading.Event()
            orig = TriangleService._execute

            def slow(self, job):
                gate.wait(30)
                return orig(self, job)

            TriangleService._execute = slow
            try:
                first = svc.submit(_req(graph_file), tenant="a")
                with pytest.raises(AdmissionError) as exc:
                    svc.submit(_req(graph_file, seed=2), tenant="a")
                assert exc.value.reason == "tenant_quota"
                # Another tenant still gets in: quotas are per-tenant.
                second = svc.submit(_req(graph_file, seed=3), tenant="b")
            finally:
                TriangleService._execute = orig
                gate.set()
            assert first.wait(120) and second.wait(120)
            assert svc.metrics.rejected == {"tenant_quota": 1}
        finally:
            svc.close()

    def test_shutdown_rejects_new_work(self, service, graph_file):
        j = service.submit(_req(graph_file))
        assert j.wait(120)
        service.close()
        with pytest.raises(AdmissionError) as exc:
            service.submit(_req(graph_file, seed=9))
        assert exc.value.reason == "shutting_down"

    def test_drain_finishes_queued_jobs(self, graph_file):
        svc = TriangleService(
            ServeConfig(max_inflight=1, max_queue=4, tenant_quota=4)
        )
        jobs = [svc.submit(_req(graph_file, seed=s)) for s in (11, 12, 13)]
        svc.close(drain=True)
        assert all(j.state == "done" for j in jobs), [j.error for j in jobs]


class TestMetrics:
    def test_counters_and_scrape(self, service, graph_file):
        j = service.submit(_req(graph_file))
        assert j.wait(120), j.error
        service.submit(_req(graph_file))
        snap = service.metrics.snapshot()
        assert snap["completed"] == {"warm": 1, "cold": 1}
        assert snap["hit_ratio"] == 0.5
        assert snap["warm_p50_s"] < snap["cold_p50_s"]
        text = service.metrics.render()
        assert 'repro_serve_jobs_completed_total{class="warm"} 1' in text
        assert "repro_serve_hit_ratio" in text
        assert 'phase_virtual_seconds_total{phase="tct"}' in text

    def test_stats_provenance(self, service, graph_file):
        stats = service.stats()
        assert stats["machine_fingerprint"]
        assert stats["max_inflight"] == 1
        assert "executor" not in stats and "pool" not in stats


class TestKinds:
    def test_census_and_ktruss(self, service, graph_file):
        jc = service.submit(
            {"kind": "census", "dataset": str(graph_file), "ranks": 4}
        )
        assert jc.wait(120) and jc.state == "done", jc.error
        assert jc.result["count"] > 0 and len(jc.result["top_vertices"]) == 5
        jk = service.submit(
            {"kind": "ktruss", "dataset": str(graph_file), "ranks": 4, "k": 3}
        )
        assert jk.wait(120) and jk.state == "done", jk.error
        assert jk.result["truss_edges"] >= 0
        warm = service.submit(
            {"kind": "census", "dataset": str(graph_file), "ranks": 4}
        )
        assert warm.warm
        # Different kinds on the same dataset must not share cache lines.
        cold = service.submit(
            {"kind": "count", "dataset": str(graph_file), "ranks": 4}
        )
        assert not cold.warm
        assert cold.wait(120) and cold.state == "done", cold.error


def test_malformed_file_fails_the_job_not_the_service(service, graph_file, tmp_path):
    from repro.core import count_triangles_2d
    from repro.graph.io import read_edge_list

    bad = tmp_path / "phantom.txt"
    bad.write_text("# n=5\n0 1\n0 2\n0 7\n")
    j1 = service.submit(_req(bad))
    assert j1.wait(120) and j1.state == "failed"
    assert j1.error.startswith("EdgeListError: ") and str(bad) in j1.error
    j2 = service.submit(_req(graph_file))
    assert j2.wait(120) and j2.state == "done", j2.error
    want = count_triangles_2d(read_edge_list(graph_file), 4).count
    assert j2.result["count"] == want
