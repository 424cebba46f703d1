"""Cache correctness for the content-addressed graph store.

Covers the ISSUE-5 acceptance surface: hit/miss/invalidation round
trips, digest stability, corrupted-blob and schema-bump failure paths,
and the parity guarantee — cached and freshly-preprocessed runs produce
bit-identical counts, kernel statistics and tct-phase behaviour.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.calibration import paper_model
from repro.core import TC2DConfig, count_triangles_2d
from repro.core.blocks import read_rank_file
from repro.graph import rmat_graph
from repro.graph.datasets import REGISTRY, DatasetRegistry
from repro.graph.store import (
    BLOB_FORMAT_VERSION,
    STORE_SCHEMA_VERSION,
    GraphStore,
    StoreVersionError,
    artifact_digest,
    graph_digest,
    resolve_store,
)
from repro.simmpi.errors import BlobChecksumError


@pytest.fixture()
def graph():
    return rmat_graph(9, seed=3)


@pytest.fixture()
def store(tmp_path):
    return GraphStore(tmp_path / "store")


CFG = TC2DConfig()
MODEL = paper_model()


def _run(graph, p=9, cache=None, **kw):
    return count_triangles_2d(
        graph, p, CFG, model=MODEL, cache=cache, **kw
    )


# -- digests ------------------------------------------------------------------


def test_graph_digest_stable_and_content_addressed(graph):
    assert graph_digest(graph) == graph_digest(graph)
    assert graph_digest(graph) == graph_digest(rmat_graph(9, seed=3))
    assert graph_digest(graph) != graph_digest(rmat_graph(9, seed=4))


def test_artifact_digest_covers_grid_and_toggles(graph):
    sha = graph_digest(graph)
    base = artifact_digest(sha, 9, 3, CFG)
    assert base == artifact_digest(sha, 9, 3, TC2DConfig())
    # Kernel/executor toggles share the artifact; preprocessing toggles
    # and the grid shape do not.
    assert base == artifact_digest(sha, 9, 3, CFG.replace(kernel_backend="row"))
    assert base != artifact_digest(sha, 16, 4, CFG)
    assert base != artifact_digest(sha, 9, 3, CFG.replace(degree_reorder=False))
    assert base != artifact_digest(sha, 9, 3, CFG.replace(enumeration="ijk"))
    assert base != artifact_digest(sha, 9, 3, CFG.replace(initial_cyclic=False))


# -- miss -> hit round trip ---------------------------------------------------


def test_cold_run_is_bit_identical_to_uncached_and_stores(graph, store):
    plain = _run(graph)
    cold = _run(graph, cache=store)
    assert cold.extras["cache"] == {
        "hit": False,
        "digest": cold.extras["cache"]["digest"],
        "stored": True,
    }
    assert cold.count == plain.count
    assert cold.ppt_time == plain.ppt_time
    assert cold.tct_time == plain.tct_time
    assert cold.counters_ppt == plain.counters_ppt
    assert cold.counters_tct == plain.counters_tct
    assert cold.hash_builds == plain.hash_builds
    assert cold.hash_fast_builds == plain.hash_fast_builds
    assert [
        (s.shift, s.rank, s.compute_seconds, s.tasks)
        for s in cold.shift_records
    ] == [
        (s.shift, s.rank, s.compute_seconds, s.tasks)
        for s in plain.shift_records
    ]
    digest = cold.extras["cache"]["digest"]
    assert store.manifest_path(digest).exists()
    assert sorted(store.read_manifest(digest)["ranks"]) == [
        str(r) for r in range(9)
    ]


def test_warm_run_skips_ppt_with_exact_parity(graph, store):
    cold = _run(graph, cache=store)
    warm = _run(graph, cache=store, keep_run=True)
    info = warm.extras["cache"]
    assert info["hit"] and info["replayed_ppt"]
    assert info["digest"] == cold.extras["cache"]["digest"]

    # Exact integer parity: counts, kernel stats, per-shift task counts.
    assert warm.count == cold.count
    assert warm.counters_tct == cold.counters_tct
    assert warm.hash_builds == cold.hash_builds
    assert warm.hash_fast_builds == cold.hash_fast_builds
    assert [(s.shift, s.rank, s.tasks) for s in warm.shift_records] == [
        (s.shift, s.rank, s.tasks) for s in cold.shift_records
    ]
    # tct-phase traces: same spans, durations equal up to clock-offset ulp.
    assert warm.tct_time == pytest.approx(cold.tct_time, rel=1e-9)
    for w, c in zip(warm.shift_records, cold.shift_records):
        assert w.compute_seconds == pytest.approx(c.compute_seconds, rel=1e-9)

    # Replayed ppt statistics are the cold run's, bit for bit.
    assert warm.ppt_time == cold.ppt_time
    assert warm.counters_ppt == cold.counters_ppt
    assert warm.comm_fraction_ppt == cold.comm_fraction_ppt

    # The live run skipped preprocessing entirely: a cache phase appears,
    # the ppt phase is empty, and no ppt-kind operation was charged.
    run = warm.extras["run"]
    assert "cache" in run.phase_names()
    for s in run.phase_stats("ppt"):  # per-rank: zero work, zero comm
        assert s.compute == 0.0 and s.comm == 0.0 and s.end == s.start
    for kind in ("relabel", "scan", "sort", "csr_build"):
        assert run.counter_total(kind) == 0.0
    assert run.counter_total("cache_io") > 0


def test_hit_without_recorded_model_still_counts(graph, store):
    _run(graph, cache=store)
    other = MODEL.replace(alpha=MODEL.alpha * 2)
    warm = count_triangles_2d(graph, 9, CFG, model=other, cache=store)
    info = warm.extras["cache"]
    assert info["hit"] and not info["replayed_ppt"]
    assert warm.count == _run(graph).count
    assert warm.ppt_time == 0.0  # nothing recorded for this model


# -- invalidation -------------------------------------------------------------


def test_digest_change_is_a_miss(graph, store):
    _run(graph, cache=store)
    res = count_triangles_2d(
        graph, 9, CFG.replace(degree_reorder=False), model=MODEL, cache=store
    )
    assert res.extras["cache"]["hit"] is False
    assert len(store.digests()) == 2


def test_corrupted_blob_fails_loudly(graph, store):
    cold = _run(graph, cache=store)
    digest = cold.extras["cache"]["digest"]
    path = store.rank_path(digest, 0)
    _, u_offset, _, u_words = read_rank_file(path, 0).blocks[0].slot
    u_end = u_offset + 8 * u_words
    raw = bytearray(path.read_bytes())
    raw[u_end - 8] ^= 0x5A  # flip payload bits; header crc now disagrees
    path.write_bytes(bytes(raw))

    problems = store.verify()
    assert any("rank 0" in p for p in problems)

    run_cache = store.open_run(graph, 9, CFG, model=MODEL)
    assert run_cache.hit
    with pytest.raises(BlobChecksumError):
        run_cache.load_rank(0)


def test_schema_bump_raises_and_open_run_invalidates(graph, store):
    cold = _run(graph, cache=store)
    digest = cold.extras["cache"]["digest"]
    # Schema 1 is what the npz-era store left behind: the same digest (the
    # address does not move with the file layout) over ``rankNNN.npz`` files.
    for schema in (1, STORE_SCHEMA_VERSION + 1):
        doc = json.loads(store.manifest_path(digest).read_text())
        doc["store_schema"] = schema
        store.manifest_path(digest).write_text(json.dumps(doc))
        stale = store.entry_dir(digest) / "rank000.npz"
        np.savez(stale, u=np.arange(3))

        with pytest.raises(StoreVersionError):
            store.read_manifest(digest)
        assert any("error" in e for e in store.entries())

        # open_run auto-invalidates: the entry is gone, the run is a miss
        # and rewrites it under the current schema.
        res = _run(graph, cache=store)
        assert res.extras["cache"]["hit"] is False
        assert res.extras["cache"]["stored"] is True
        assert store.read_manifest(digest)["store_schema"] == STORE_SCHEMA_VERSION
        assert not stale.exists()  # invalidation clears the whole entry
        assert store.verify() == []


def test_missing_rank_file_invalidates(graph, store):
    cold = _run(graph, cache=store)
    digest = cold.extras["cache"]["digest"]
    store.rank_path(digest, 3).unlink()
    with pytest.raises(StoreVersionError):
        store.read_manifest(digest)
    res = _run(graph, cache=store)
    assert res.extras["cache"]["hit"] is False


def test_prune_and_verify(graph, store):
    _run(graph, cache=store)
    assert store.verify() == []
    assert store.prune() == 1
    assert store.digests() == []
    assert store.prune() == 0


# -- driver-level cache argument ---------------------------------------------


def test_resolve_store_accepts_paths_and_instances(tmp_path, store):
    assert resolve_store(None) is None
    assert resolve_store(store) is store
    assert resolve_store(str(tmp_path)).root == tmp_path
    with pytest.raises(TypeError):
        resolve_store(123)


def test_cache_as_path_argument(graph, tmp_path):
    root = tmp_path / "s"
    cold = _run(graph, cache=str(root))
    warm = _run(graph, cache=str(root))
    assert cold.extras["cache"]["hit"] is False
    assert warm.extras["cache"]["hit"] is True
    assert warm.count == cold.count


# -- resilient driver ---------------------------------------------------------


def test_resilient_run_uses_and_warms_cache(graph, store):
    from repro.resilience.recovery import count_triangles_2d_resilient

    plain = _run(graph)
    cold = count_triangles_2d_resilient(
        graph, 9, CFG, model=MODEL, cache=store
    )
    assert cold.count == plain.count
    assert cold.extras["cache"]["stored"] is True
    warm = count_triangles_2d_resilient(
        graph, 9, CFG, model=MODEL, cache=store
    )
    assert warm.count == plain.count
    assert warm.extras["cache"]["hit"] is True


def test_faulty_runs_never_write_the_store(graph, store):
    from repro.resilience.faults import FaultPlan
    from repro.resilience.recovery import count_triangles_2d_resilient

    plan = FaultPlan.random(7, 9, 3, n_faults=2)
    res = count_triangles_2d_resilient(
        graph, 9, CFG, model=MODEL, fault_plan=plan, cache=store
    )
    assert res.count == _run(graph).count
    assert store.digests() == []  # read-only under fault injection


# -- dataset registry ---------------------------------------------------------


def test_registry_graph_blob_cache_round_trip(tmp_path):
    store = GraphStore(tmp_path / "store")
    reg = DatasetRegistry(REGISTRY, store=store)
    g1 = reg.load("g500-s12", seed=1)
    assert store.graphs_dir.is_dir()
    reg.clear_cache()
    g2 = reg.load("g500-s12", seed=1)  # served from the on-disk blob
    assert g1.n == g2.n
    assert np.array_equal(g1.edge_array(), g2.edge_array())
    assert graph_digest(g1) == graph_digest(g2)


def test_registry_warm_then_count_hits(tmp_path):
    store = GraphStore(tmp_path / "store")
    reg = DatasetRegistry(REGISTRY, store=store)
    warm = reg.warm("g500-s12", 4, model=MODEL, seed=1)
    assert warm.extras["cache"]["stored"] is True
    g = reg.load("g500-s12", seed=1)
    res = count_triangles_2d(g, 4, model=MODEL, cache=store)
    assert res.extras["cache"]["hit"] is True
    assert res.count == warm.count


def test_registry_provenance():
    reg = DatasetRegistry(REGISTRY)
    prov = reg.provenance("twitter-like", seed=5)
    assert prov["paper_name"] == "twitter"
    assert prov["seed"] == 5
    assert prov["registry_version"] >= 1
    with pytest.raises(KeyError):
        reg.provenance("nope")


def test_manifest_records_versions_and_provenance(graph, store):
    cold = _run(graph, cache=store, dataset="my-graph")
    doc = store.read_manifest(cold.extras["cache"]["digest"])
    assert doc["store_schema"] == STORE_SCHEMA_VERSION
    assert doc["blob_format"] == BLOB_FORMAT_VERSION
    assert doc["source"] == "my-graph"
    assert doc["graph"]["n"] == graph.n
    assert doc["graph"]["m"] == graph.num_edges
    assert doc["cfg"] == CFG.store_key()
    fp = MODEL.fingerprint()
    assert doc["recorded"][fp]["ppt_time"] == cold.ppt_time


# -- mmap serving keeps no file handle ----------------------------------------


def test_mapped_rank_file_closes_its_handle_after_parsing(graph, store):
    import gc
    import warnings

    cold = _run(graph, cache=store)
    path = store.rank_path(cold.extras["cache"]["digest"], 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        served = read_rank_file(path, 0)
        # The map owns a duplicate descriptor; the header-time handle is
        # gone, and the views alone keep the map alive.
        assert served.meta[0] == 0 and len(served.extra) > 0
        u_block = served.blocks[0]
        del served
        gc.collect()
        assert u_block.nnz == int(u_block.dcsr.csr.indptr[-1])
        del u_block
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
