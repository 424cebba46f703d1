"""The store's input records: a file's bytes -> the graph they read as.

A warm ``repro count FILE --store DIR`` hashes the file and, when the
store holds a well-formed record of those bytes and the recorded graph's
entry, counts off the entry without reading the graph; every other case
reads the file as before.  The record must never serve the wrong graph
and never fail a count.  (The differential sweep's tc2d warm and ooc
routes hold record-served counts to the oracle.)
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import TC2DConfig, count_triangles_2d
from repro.core.tc2d import count_input_2d
from repro.graph import Graph, rmat_graph
from repro.graph import datasets, external, io, store as store_module
from repro.graph.csr import degree_summary
from repro.graph.external import count_triangles_oocore, external_preprocess
from repro.graph.io import input_key, read_edge_list, write_edge_list
from repro.graph.store import GraphStore

P = 4
CHUNK = 1 << 16


@pytest.fixture()
def edge_file(tmp_path):
    # Six isolated vertices past the RMAT ids: d_min is 0.
    g = rmat_graph(8, edge_factor=6, seed=11)
    g = Graph.from_edges(g.n + 6, g.edge_array())
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return path


@pytest.fixture()
def store(tmp_path):
    return GraphStore(tmp_path / "store")


def _count(path, store):
    return count_input_2d(path, P, TC2DConfig(), store=store)


def _cli(capsys, *argv) -> str:
    assert main(["count", *map(str, argv)]) == 0
    return capsys.readouterr().out


# -- the warm path ---------------------------------------------------------------


def _counting(calls: list, name: str, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_a_warm_recorded_count_reads_no_graph(edge_file, tmp_path, capsys, monkeypatch):
    argv = (edge_file, "-p", "16", "--store", tmp_path / "st")
    cold = _cli(capsys, *argv)
    calls: list[str] = []
    with monkeypatch.context() as m:
        for name in ("read_edge_list", "read_keyed_edge_list"):
            m.setattr(io, name, _counting(calls, name, getattr(io, name)))
        digest = _counting(calls, "graph_digest", store_module.graph_digest)
        m.setattr(store_module, "graph_digest", digest)
        build = _counting(calls, "from_edges", Graph.from_edges.__func__)
        m.setattr(Graph, "from_edges", classmethod(build))
        recorded = _cli(capsys, *argv)
    assert calls == []
    # The parse path of the same warm count, with the record gone.
    for path in (tmp_path / "st" / "inputs").iterdir():
        path.unlink()
    parsed = _cli(capsys, *argv)
    assert recorded == parsed
    assert "cache: hit" in recorded
    assert recorded.splitlines()[0] == cold.splitlines()[0]  # the summary line
    assert recorded.splitlines()[-1] == cold.splitlines()[-1]  # count, clocks


@pytest.mark.parametrize(
    "flags", [["--verify"], ["-a", "coveredge"], ["--auto", "--auto-max-p", "4"]],
    ids=lambda flags: flags[-1] if flags[0] == "-a" else flags[0],
)
def test_runs_that_need_the_graph_read_the_file(edge_file, tmp_path, capsys, monkeypatch, flags):
    argv = (edge_file, "-p", "4", "--store", tmp_path / "st")
    _cli(capsys, *argv)  # writes the record
    calls: list[str] = []
    monkeypatch.setattr(io, "read_edge_list", _counting(calls, "read", io.read_edge_list))
    _cli(capsys, *argv, *flags)
    assert calls == ["read"]


def test_read_then_recorded(edge_file, store):
    first, s1 = _count(edge_file, store)
    second, s2 = _count(edge_file, store)
    assert (first.extras["input"], second.extras["input"]) == ("read", "recorded")
    assert not first.extras["cache"]["hit"] and second.extras["cache"]["hit"]
    assert s1 == s2 == degree_summary(read_edge_list(edge_file))
    assert second.count == first.count
    record = store.read_input(input_key(edge_file))
    assert record.identity[1:] == (s1.n, s1.m)


# -- registry names --------------------------------------------------------------


def test_a_warm_registry_count_neither_generates_nor_digests(tmp_path, capsys, monkeypatch):
    argv = ("g500-s12", "-p", "4", "--store", tmp_path / "st")
    cold = _cli(capsys, *argv)
    datasets.clear_cache()

    def no_build(seed, scale):
        raise AssertionError("a recorded registry name was generated")

    calls: list[str] = []
    with monkeypatch.context() as m:
        spec = dataclasses.replace(datasets.REGISTRY["g500-s12"], builder=no_build)
        m.setitem(datasets.REGISTRY, "g500-s12", spec)
        digest = _counting(calls, "graph_digest", store_module.graph_digest)
        m.setattr(store_module, "graph_digest", digest)
        warm = _cli(capsys, *argv)
    assert calls == []
    assert "cache: hit" in warm
    assert warm.splitlines()[0] == cold.splitlines()[0]  # the summary line
    assert warm.splitlines()[-1] == cold.splitlines()[-1]  # count, clocks


@pytest.fixture()
def quarter_scale(monkeypatch):
    monkeypatch.setenv("REPRO_DATASET_SCALE", "0.25")


@pytest.mark.parametrize("change", ["seed", "scale", "registry-version", "numpy-version"])
def test_what_generates_a_registry_graph_keys_its_record(
    store, monkeypatch, quarter_scale, change
):
    cfg = TC2DConfig()
    firsts = [count_input_2d("g500-s12", P, cfg, store=store)[0] for _ in range(2)]
    assert [r.extras["input"] for r in firsts] == ["read", "recorded"]
    if change == "seed":
        cfg = cfg.replace(seed=1)
    elif change == "scale":
        monkeypatch.setenv("REPRO_DATASET_SCALE", "0.5")
    elif change == "registry-version":
        monkeypatch.setattr(datasets, "REGISTRY_VERSION", datasets.REGISTRY_VERSION + 1)
    else:
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
    again, _ = count_input_2d("g500-s12", P, cfg, store=store)
    assert again.extras["input"] == "read"


def test_store_warm_records_the_dataset(tmp_path, quarter_scale):
    root = tmp_path / "st"
    warm = ["store", "warm", "--dataset", "g500-s12", "-p", "4", "--dir", str(root)]
    assert main(warm) == 0
    res, summary = count_input_2d("g500-s12", 4, store=root)
    assert res.extras["input"] == "recorded" and res.extras["cache"]["hit"]
    assert summary == degree_summary(datasets.load_dataset("g500-s12"))


# -- misses --------------------------------------------------------------------


def _rewrite(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


CORRUPTIONS = {
    "not-json": lambda p: p.write_text("{"),
    "a-list": lambda p: p.write_text("[]"),
    "key-differs": lambda p: _rewrite(p, lambda d: d.update(key="0" * 64)),
    "no-summary": lambda p: _rewrite(p, lambda d: d.pop("summary")),
    "integer-d_avg": lambda p: _rewrite(p, lambda d: d["summary"].update(d_avg=3)),
    "negative-m": lambda p: _rewrite(p, lambda d: d["summary"].update(m=-1)),
    "short-digest": lambda p: _rewrite(p, lambda d: d.update(graph_sha256="ab")),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_malformed_record_is_a_miss_and_the_count_rewrites_it(
    edge_file, store, corruption
):
    _count(edge_file, store)
    key = input_key(edge_file)
    good = store.input_path(key).read_text()
    CORRUPTIONS[corruption](store.input_path(key))
    assert store.read_input(key) is None
    assert store.verify() != []
    res, _ = _count(edge_file, store)
    assert res.extras["input"] == "read" and res.extras["cache"]["hit"]
    assert store.input_path(key).read_text() == good
    assert store.verify() == []


def test_a_record_whose_entry_was_pruned_counts_cold_and_stores_again(edge_file, store):
    first, _ = _count(edge_file, store)
    store.prune(first.extras["cache"]["digest"])
    assert store.read_input(input_key(edge_file)) is not None
    again, _ = _count(edge_file, store)
    assert again.extras["input"] == "read"
    assert again.extras["cache"] == first.extras["cache"]  # a miss, stored
    third, _ = _count(edge_file, store)
    assert third.extras["input"] == "recorded" and third.extras["cache"]["hit"]


def test_an_unwritable_inputs_dir_never_fails_a_count(edge_file, tmp_path, capsys):
    """A regular file where ``inputs/`` belongs: every count still
    succeeds and prints what it prints with a writable store."""
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "inputs").write_text("not a directory")
    for _ in range(2):
        want = _cli(capsys, edge_file, "-p", "9", "--store", tmp_path / "open")
        assert _cli(capsys, edge_file, "-p", "9", "--store", blocked) == want
    assert (blocked / "inputs").is_file()


def test_a_file_edited_after_the_lookup_is_recorded_as_what_was_read(tmp_path, store):
    """The key comes from the bytes the count parsed, not from the
    lookup's hash of an earlier version."""
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    edited = "0 1\n1 2\n0 2\n2 3\n"
    store.inputs_dir.mkdir(parents=True)
    looked_up = {}
    real = io.input_key

    def hash_then_edit(p):
        looked_up["key"] = real(p)
        path.write_text(edited)
        return looked_up["key"]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(io, "input_key", hash_then_edit)
        res, summary = _count(path, store)
    assert (summary.n, summary.m) == (4, 4)
    assert store.read_input(looked_up["key"]) is None
    record = store.read_input(real(path))
    assert record.summary == summary and record.identity[1:] == (4, 4)


# -- the store surface ------------------------------------------------------------


def test_store_verify_reports_a_malformed_record_and_prune_removes_records(
    edge_file, tmp_path, capsys
):
    root = tmp_path / "st"
    _cli(capsys, edge_file, "-p", "4", "--store", root)
    store = GraphStore(root)
    assert main(["store", "verify", "--dir", str(root)]) == 0
    store.input_path(input_key(edge_file)).write_text("{}")
    assert main(["store", "verify", "--dir", str(root)]) == 1
    assert "PROBLEM: input " in capsys.readouterr().out
    assert main(["store", "prune", "--dir", str(root)]) == 0
    assert not store.inputs_dir.exists() and store.digests() == []


# -- out of core -------------------------------------------------------------------


def _ooc(path, store, **kw):
    return count_triangles_oocore(path, P, store=store, chunk_bytes=CHUNK, **kw)


@pytest.mark.parametrize("writer", ["out-of-core", "ingest", "in-memory"])
def test_a_second_out_of_core_count_goes_by_the_record(
    edge_file, store, tmp_path, monkeypatch, writer
):
    {
        "out-of-core": lambda: _ooc(edge_file, store),
        "ingest": lambda: external_preprocess(edge_file, store, P, chunk_bytes=CHUNK),
        "in-memory": lambda: _count(edge_file, store),
    }[writer]()
    record = store.read_input(input_key(edge_file))
    assert record.summary == degree_summary(read_edge_list(edge_file))

    def no_spill(*args, **kwargs):
        raise AssertionError("a recorded file made a spill directory")

    monkeypatch.setattr(external.tempfile, "mkdtemp", no_spill)
    res = _ooc(edge_file, store, workdir=tmp_path / "work")
    info = res.extras["out_of_core"]
    assert info["reused"] and info["spilled_bytes"] == 0
    assert list(info["stages"]) == ["input_key"]
    assert res.count == count_triangles_2d(read_edge_list(edge_file), P).count
    assert (info["graph_sha"], info["n"], info["m"]) == record.identity
    assert not (tmp_path / "work").exists()


def test_a_file_edited_between_the_two_out_of_core_passes_leaves_no_record(tmp_path, store):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    real = external.input_vertex_count

    def count_then_edit(p, chunk_bytes):
        n = real(p, chunk_bytes)
        path.write_text("0 1\n1 2\n0 2\n# n=100\n")
        return n

    with pytest.MonkeyPatch.context() as m:
        m.setattr(external, "input_vertex_count", count_then_edit)
        info = external_preprocess(path, store, P, chunk_bytes=CHUNK)
    assert not info["reused"] and info["n"] == 3
    assert not any(store.inputs_dir.glob("*.json"))


def test_an_entry_written_without_a_record_gains_one_on_its_first_out_of_core_count(
    edge_file, store
):
    """An entry a library run wrote (no record): the first out-of-core
    count reuses it and records the file, the second goes by the record."""
    graph = read_edge_list(edge_file)
    count_triangles_2d(graph, P, cache=store)
    first = _ooc(edge_file, store).extras["out_of_core"]
    assert first["reused"] and "directed" in first["stages"]
    assert store.read_input(input_key(edge_file)).summary == degree_summary(graph)
    second = _ooc(edge_file, store).extras["out_of_core"]
    assert second["reused"] and second["spilled_bytes"] == 0
    assert list(second["stages"]) == ["input_key"]
