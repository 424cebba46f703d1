"""Cache correctness for the content-addressed graph store.

Hit/miss/invalidation round trips, digest stability, corrupted-blob and
schema-bump failure paths.  The parity guarantee — cold, warm, resilient
and faulty runs against a store produce the counts, counters and clocks
of a run without one — is the cold and warm routes of the differential
sweep (``tests/resilience/test_chaos.py``).
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
from tests.core.test_blocks import blob_extent


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
    assert base != artifact_digest(sha, 9, 3, CFG.replace(enumeration="ijk"))


# -- miss -> hit round trip ---------------------------------------------------


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
        graph, 9, CFG.replace(enumeration="ijk"), model=MODEL, cache=store
    )
    assert res.extras["cache"]["hit"] is False
    assert len(store.digests()) == 2


def test_corrupted_blob_fails_loudly(graph, store):
    cold = _run(graph, cache=store)
    digest = cold.extras["cache"]["digest"]
    path = store.rank_path(digest, 0)
    u_offset, u_words = blob_extent(path, 0)
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
