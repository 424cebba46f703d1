"""Concurrent writers on one digest: locks, rename-wins, no clobbering.

Regression suite for the warm race: two cold runs racing to populate
the same store entry used to be able to interleave — one invalidating
(``rmtree``) the other's half-written rank files, or both renaming
manifests over each other.  The per-digest advisory writer lock plus
the rename-wins re-check in :meth:`RunCache.finalize` make the race
benign: exactly one writer lands, losers either warm-hit the winner's
entry or run cold without touching the store, and the entry always
verifies clean.
"""

from __future__ import annotations

import threading

import pytest

from repro.bench.calibration import paper_model
from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import rmat_graph
from repro.graph.store import DigestLock, GraphStore

CFG = TC2DConfig()
MODEL = paper_model()


@pytest.fixture()
def graph():
    return rmat_graph(9, seed=3)


@pytest.fixture()
def store(tmp_path):
    return GraphStore(tmp_path / "store")


def _run(graph, store, p=9):
    return count_triangles_2d(graph, p, CFG, model=MODEL, cache=store)


# -- DigestLock ---------------------------------------------------------------


def test_digest_lock_excludes_and_releases(store):
    lock = store.writer_lock("d" * 64)
    other = store.writer_lock("d" * 64)
    assert lock.acquire()
    assert lock.held
    # flock is per open file description, so a second handle in the same
    # process is excluded too — which is exactly the threaded-serve case.
    assert not other.acquire(blocking=False)
    lock.release()
    assert not lock.held
    assert other.acquire()
    other.release()


def test_digest_lock_context_manager(store):
    with store.writer_lock("e" * 64) as lock:
        assert lock.held
        assert not store.writer_lock("e" * 64).acquire(blocking=False)
    assert store.writer_lock("e" * 64).acquire()


def test_lock_dir_never_listed_as_entry(graph, store):
    _run(graph, store)
    store.writer_lock("f" * 64).acquire()
    digests = store.digests()
    assert len(digests) == 1
    assert all(len(d) == 64 for d in digests)
    assert store.verify() == []


# -- racing cold runs ---------------------------------------------------------


def test_concurrent_cold_runs_one_writer_wins(graph, store):
    """N threads race the same digest; results agree, the store stays
    healthy, and at least one run actually persisted the artifact."""
    results = []
    errors = []
    barrier = threading.Barrier(4)

    def runner() -> None:
        try:
            barrier.wait(10)
            results.append(_run(graph, store))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors
    counts = {r.count for r in results}
    assert len(counts) == 1
    infos = [r.extras["cache"] for r in results]
    assert len({i["digest"] for i in infos}) == 1
    assert any(i["hit"] or i.get("stored") for i in infos)
    # The store holds exactly one clean entry for the digest.
    assert store.digests() == [infos[0]["digest"]]
    assert store.verify() == []
    # And it is warm for the next run.
    follow = _run(graph, store)
    assert follow.extras["cache"]["hit"] is True
    assert follow.count == results[0].count


def test_lock_loser_runs_cold_without_touching_store(graph, store):
    """While another writer holds the digest lock, a concurrent run must
    not invalidate or write the entry — it just computes cold."""
    warm = _run(graph, store)
    digest = warm.extras["cache"]["digest"]
    # Break the entry so open_run *wants* to invalidate it...
    entry = store.objects_dir / digest
    (entry / "manifest.json").unlink()
    # ...but hold the writer lock, simulating an in-progress writer.
    held = store.writer_lock(digest)
    assert held.acquire()
    try:
        res = _run(graph, store)
        # Cold result, correct count, no store mutation.
        assert res.count == warm.count
        assert res.extras["cache"]["hit"] is False
        assert not res.extras["cache"].get("stored")
        assert not (entry / "manifest.json").exists()
        rank_files = list(entry.glob("rank*.blocks"))
        assert rank_files, "loser deleted the in-progress writer's files"
    finally:
        held.release()
    # Once the lock is free, the next run repairs the broken entry.
    repaired = _run(graph, store)
    assert repaired.extras["cache"].get("stored")
    assert store.verify() == []


def test_finalize_rename_wins_keeps_first_manifest(graph, store):
    """If a winner lands between our miss and our finalize, finalize
    backs off and adopts the winner's manifest instead of clobbering."""
    import shutil

    res = _run(graph, store)
    digest = res.extras["cache"]["digest"]
    shutil.rmtree(store.objects_dir / digest)  # back to a clean miss

    loser = store.open_run(graph, 9, CFG, model=MODEL, source="race")
    assert not loser.hit
    # Emulate crossing writers on a lock-less platform: drop our lock so
    # a full concurrent run can land the entry first.
    loser.close()
    winner = _run(graph, store)
    assert winner.extras["cache"].get("stored")
    manifest = store.read_manifest(digest)

    # The loser finished computing too; pretend its rank saves happened
    # (deterministic artifacts — same bytes as the winner's files).
    loser._saved = {int(r): e for r, e in manifest["ranks"].items()}
    assert loser.finalize() is False  # rename-wins: winner's entry stands
    assert loser.manifest["digest"] == digest
    assert store.read_manifest(digest) == manifest
    assert store.verify() == []


def test_atomic_writes_use_pid_scoped_tmp_names(graph, store, monkeypatch):
    """Two processes writing the same entry must not share tmp paths."""
    import os
    from pathlib import Path

    renames, real_replace = [], os.replace

    def recording_replace(src, dst):
        renames.append((Path(src).name, Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    _run(graph, store)
    digest = store.digests()[0]
    leftovers = list((store.objects_dir / digest).glob("*.tmp"))
    assert leftovers == []
    # The tmp naming contract the no-collision argument rests on: every
    # rank file and the manifest arrive by rename from a pid-tagged name.
    assert sorted(dst for _, dst in renames) == sorted(
        ["manifest.json"] + [f"rank{r:03d}.blocks" for r in range(9)]
    )
    assert all(src == f"{dst}.{os.getpid()}.tmp" for src, dst in renames)
