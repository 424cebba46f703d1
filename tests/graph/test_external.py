"""Out-of-core pipeline correctness (ISSUE-9 acceptance surface).

The external pipeline's whole contract is *bit-parity*: same graph
digest, same artifact digest, byte-identical per-rank store files, and
identical triangle counts vs. the in-memory pipeline — across grid
sizes and both degree-reorder settings.  Plus the serving half: mmap'd
blobs must still be crc-checked, file-backed resident publication must
not change counts or virtual clocks, and the bounded-memory primitives
(spill sort, merge, dense count) must behave on edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TC2DConfig, count_triangles_2d
from repro.core.blocks import Block
from repro.graph import rmat_graph
from repro.graph.external import (
    SpillSorter,
    _DenseCountWriter,
    _iter_i8_blocks,
    count_triangles_oocore,
    external_preprocess,
)
from repro.graph.io import (
    BinaryEdgeWriter,
    input_vertex_count,
    read_binary_header,
    write_binary_edges,
    write_edge_list,
)
from repro.graph.store import GraphStore, graph_digest
from repro.simmpi.errors import BlobChecksumError
from tests.core.test_blocks import blob_extent

CHUNK = 1 << 16  # deliberately tiny so every stage actually spills


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, edge_factor=8, seed=3)


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("ooc") / "graph.txt"
    write_edge_list(graph, path)
    return path


def _inmem_entry(graph, p, cfg, root):
    """Materialize a store entry via the in-memory pipeline."""
    store = GraphStore(root)
    res = count_triangles_2d(graph, p, cfg, cache=store)
    assert res.extras["cache"]["stored"]
    return store, res


# -- parity: the tentpole guarantee ------------------------------------------


@pytest.mark.parametrize("p", [4, 9])
def test_bit_identical_store_entries(graph, edge_file, tmp_path, p):
    cfg = TC2DConfig()
    mem_store, mem_res = _inmem_entry(graph, p, cfg, tmp_path / "mem")
    ext_store = GraphStore(tmp_path / "ext")
    info = external_preprocess(
        edge_file, ext_store, p, cfg=cfg, chunk_bytes=CHUNK,
        workdir=tmp_path,
    )
    assert info["graph_sha"] == graph_digest(graph)
    assert info["digest"] == mem_res.extras["cache"]["digest"]
    assert not info["reused"]
    for rank in range(p):
        a = mem_store.rank_path(info["digest"], rank).read_bytes()
        b = ext_store.rank_path(info["digest"], rank).read_bytes()
        assert a == b, f"rank {rank} store file diverged"
    res = count_triangles_oocore(
        edge_file, p, cfg=cfg, store=ext_store, chunk_bytes=CHUNK,
        workdir=tmp_path,
    )
    assert res.count == mem_res.count
    assert res.extras["cache"]["hit"]
    assert res.extras["out_of_core"]["reused"]


def test_binary_and_text_inputs_share_digests(graph, edge_file, tmp_path):
    redge = tmp_path / "graph.redge"
    write_binary_edges(redge, graph.n, graph.edge_array())
    assert read_binary_header(redge) == (graph.n, graph.num_edges)
    assert input_vertex_count(redge, CHUNK) == graph.n
    cfg = TC2DConfig()
    a = external_preprocess(
        edge_file, GraphStore(tmp_path / "a"), 4, cfg=cfg,
        chunk_bytes=CHUNK, workdir=tmp_path,
    )
    b = external_preprocess(
        redge, GraphStore(tmp_path / "b"), 4, cfg=cfg,
        chunk_bytes=CHUNK, workdir=tmp_path,
    )
    assert a["digest"] == b["digest"]
    assert a["graph_sha"] == b["graph_sha"] == graph_digest(graph)


def test_messy_input_normalizes(tmp_path):
    """Self loops drop, duplicates collapse, orientation is free."""
    edges = np.array([[0, 1], [1, 0], [2, 2], [1, 2], [0, 2], [0, 1]])
    clean = np.array([[0, 1], [0, 2], [1, 2]])
    messy_path = tmp_path / "messy.redge"
    clean_path = tmp_path / "clean.redge"
    write_binary_edges(messy_path, 3, edges)
    write_binary_edges(clean_path, 3, clean)
    cfg = TC2DConfig()
    a = external_preprocess(
        messy_path, GraphStore(tmp_path / "a"), 4, cfg=cfg,
        chunk_bytes=CHUNK, workdir=tmp_path,
    )
    b = external_preprocess(
        clean_path, GraphStore(tmp_path / "b"), 4, cfg=cfg,
        chunk_bytes=CHUNK, workdir=tmp_path,
    )
    assert a["digest"] == b["digest"]
    assert a["m"] == 3
    res = count_triangles_oocore(
        messy_path, 4, store=tmp_path / "a", chunk_bytes=CHUNK,
        workdir=tmp_path,
    )
    assert res.count == 1


def test_stop_after_translate_probe_leaves_no_entry(edge_file, tmp_path):
    store = GraphStore(tmp_path / "probe")
    info = external_preprocess(
        edge_file, store, 4, chunk_bytes=CHUNK, workdir=tmp_path,
        stop_after="translate",
    )
    assert info["partial"] == "translate"
    assert "translate" in info["stages"]
    assert "assemble" not in info["stages"]
    with pytest.raises(FileNotFoundError):
        store.read_manifest(info["digest"])
    # A later full run must rebuild from scratch and finalize.
    full = external_preprocess(
        edge_file, store, 4, chunk_bytes=CHUNK, workdir=tmp_path
    )
    assert not full["reused"]
    assert store.read_manifest(full["digest"])


def test_requires_a_store(edge_file, tmp_path):
    with pytest.raises(ValueError, match="requires a store"):
        external_preprocess(edge_file, None, 4, workdir=tmp_path)


# -- mmap serving: crc still guards every blob --------------------------------


def test_mmap_served_blob_detects_corruption(graph, tmp_path):
    store, res = _inmem_entry(graph, 4, TC2DConfig(), tmp_path / "s")
    digest = res.extras["cache"]["digest"]
    path = store.rank_path(digest, 0)
    # Locate the "u" blob inside the rank file, then flip one byte near
    # its end — deep in the indices array, where only the blob crc can
    # notice (the file's own header still adds up).
    offset, count = blob_extent(path, 0)
    raw = bytearray(path.read_bytes())
    raw[offset + count * 8 - 16] ^= 0xFF
    path.write_bytes(bytes(raw))
    cache = store.open_run(graph, 4, TC2DConfig())
    assert cache.hit
    # The crc verification pass is what pages a mapped blob in, so the
    # flipped byte surfaces at load time — never as silent bad data.
    with pytest.raises(BlobChecksumError):
        cache.load_rank(0)
    cache.close()


def test_block_from_mmap_round_trip(graph, tmp_path, preprocessed_blocks):
    """What the store serves is what the cold run's rank 1 held."""
    cold = preprocessed_blocks(graph, 4)[1]
    store, _res = _inmem_entry(graph, 4, TC2DConfig(), tmp_path / "s")
    cache = store.open_run(graph, 4, TC2DConfig())
    mapped = cache.load_rank(1)
    for a, b in zip(mapped[:3], cold):
        assert isinstance(a, Block)
        assert a.as_blob().tobytes() == b.to_blob().tobytes()
        assert not a.as_blob().flags.writeable  # mmap views are read-only
    # Byte accounting is blob bytes only (not the file's header/labels).
    assert mapped[3] == sum(b.to_blob().nbytes for b in cold)
    assert cache.mapped_ranks == 1 and cache.loaded_nbytes == mapped[3]
    cache.close()


# -- bounded-memory primitives -------------------------------------------------


def test_spill_sorter_sorts_and_dedups_across_runs(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 500, size=5000)
    sorter = SpillSorter(tmp_path, 1 << 16, dedup=True, tag="t")
    for chunk in np.array_split(vals, 13):
        sorter.add(chunk)
    out = tmp_path / "sorted.i8"
    count = sorter.finish(out)
    got = np.fromfile(out, dtype=np.int64)
    want = np.unique(vals)
    assert count == len(want)
    assert np.array_equal(got, want)
    assert sorter.spilled_bytes > 0  # the tiny budget really spilled


def test_dense_count_writer_zero_fills(tmp_path):
    path = tmp_path / "deg.i8"
    with open(path, "wb") as fh:
        w = _DenseCountWriter(fh, n=10, cap=4)
        w.feed(np.array([1, 1, 4, 4, 4, 7], dtype=np.int64))
        w.close()
    got = np.fromfile(path, dtype=np.int64)
    assert np.array_equal(got, [0, 2, 0, 0, 3, 0, 0, 1, 0, 0])


def test_binary_writer_streams_and_patches_count(tmp_path):
    path = tmp_path / "stream.redge"
    with BinaryEdgeWriter(path, n=100) as w:
        w.write(np.array([[0, 1], [2, 3]]))
        w.write(np.array([[4, 5]]))
    assert read_binary_header(path) == (100, 3)
    pairs = np.fromfile(path, dtype="<i8", offset=24).reshape(3, 2)
    assert pairs[2, 1] == 5


def test_iter_i8_blocks_covers_whole_file(tmp_path):
    path = tmp_path / "flat.i8"
    keys = np.arange(5, dtype=np.int64)
    keys.tofile(path)
    chunks = list(_iter_i8_blocks(path, chunk_rows=2))
    assert [len(c) for c in chunks] == [2, 2, 1]  # short tail block kept
    assert np.array_equal(np.concatenate(chunks), keys)


def test_oocbench_report_gates():
    """The bench's gate logic trips on each kind of regression."""
    from repro.bench.oocbench import check

    def report(**over):
        case = {
            "name": "ratio-x",
            "p": 4,
            "m": 1 << 20,
            "graph_bytes": 16 << 20,
            "chunk_bytes": 1 << 19,
            "store_bytes": 8 << 20,
            "count_match": True,
            "stream": {"rss_delta_bytes": 1 << 20,
                       "ceiling_bytes": 28 << 20},
            "preprocess": {"rss_delta_bytes": 4 << 20,
                           "ceiling_bytes": 132 << 20},
            "count": {"rss_delta_bytes": 100 << 20,
                      "ceiling_bytes": 170 << 20, "store_hit": True},
        }
        case.update(over)
        return {"schema": 2, "suite": "outofcore", "cases": [case]}

    assert check(report(), []) == []
    assert check(report(count_match=False), [])
    assert check(
        report(stream={"rss_delta_bytes": 60 << 20,
                       "ceiling_bytes": 28 << 20}), []
    )
    assert check(report(graph_bytes=1 << 20), [])  # ratio collapses
    assert check(
        report(count={"rss_delta_bytes": 200 << 20,
                      "ceiling_bytes": 170 << 20, "store_hit": True}), []
    )
    assert check({"schema": 2, "cases": []}, [])  # no ratio case
