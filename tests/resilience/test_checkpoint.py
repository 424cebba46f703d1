"""Checkpoint store: snapshots, epoch bookkeeping, manifest."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.resilience import CheckpointStore, RankSnapshot
from repro.resilience.checkpoint import SCHEMA_VERSION
from repro.simmpi.errors import BlobChecksumError


@pytest.fixture(scope="module")
def blocks4(er_graph, preprocessed_blocks):
    """Real per-rank blocks, straight out of the preprocessing pipeline."""
    return preprocessed_blocks(er_graph, 4)


def test_snapshot_roundtrip(blocks4):
    u, l, t = blocks4[2]
    snap = RankSnapshot.capture(2, 1, 1234, u, l, t)
    u2, l2, t2 = snap.blocks()
    for a, b in ((u, u2), (l, l2), (t, t2)):
        assert a.kind == b.kind
        assert a.inner_residue == b.inner_residue
        assert np.array_equal(a.dcsr.csr.indptr, b.dcsr.csr.indptr)
        assert np.array_equal(a.dcsr.csr.indices, b.dcsr.csr.indices)
    assert snap.local_count == 1234
    assert snap.nbytes > 0
    assert set(snap.crc32s()) == {"u", "l", "task"}


def test_store_save_load(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[0]
    snap = RankSnapshot.capture(0, 2, 77, u, l, t)
    nbytes = store.save(snap)
    assert nbytes == snap.nbytes
    back = store.load(2, 0)
    assert back.local_count == 77
    assert back.epoch == 2
    back.blocks()  # deserializes and checksum-verifies


def test_load_rejects_mislabeled_file(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[0]
    store.save(RankSnapshot.capture(0, 1, 0, u, l, t))
    # Pretend rank 1's file is rank 0's: identity check must fire.
    src = store.rank_path(1, 0)
    dst = store.rank_path(1, 1)
    dst.write_bytes(src.read_bytes())
    with pytest.raises(ValueError, match="claims"):
        store.load(1, 1)
    # ...and for the right rank at the wrong epoch.
    other = store.rank_path(2, 0)
    other.parent.mkdir()
    other.write_bytes(src.read_bytes())
    with pytest.raises(ValueError, match="claims"):
        store.load(2, 0)


def test_corrupted_checkpoint_detected(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[1]
    snap = RankSnapshot.capture(1, 0, 0, u, l, t)
    store.save(snap)
    path = store.rank_path(0, 1)
    raw = bytearray(path.read_bytes())
    # The file ends with the task blob after the L blob after the U blob:
    # flip a byte in the middle of U's payload, keep every header.
    u_start = len(raw) - snap.nbytes
    raw[u_start + 8 * (7 + (len(snap.u_blob) - 7) // 2)] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(BlobChecksumError):
        store.load(0, 1)


def test_epoch_bookkeeping(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    p = 4
    # epoch 0 complete, epoch 1 partial
    for r in range(p):
        u, l, t = blocks4[r]
        store.save(RankSnapshot.capture(r, 0, r, u, l, t))
    for r in range(p - 1):
        u, l, t = blocks4[r]
        store.save(RankSnapshot.capture(r, 1, r, u, l, t))
    assert store.epochs() == [0, 1]
    assert store.ranks_saved(0) == [0, 1, 2, 3]
    assert store.ranks_saved(1) == [0, 1, 2]
    assert store.complete_epochs(p) == [0]
    assert store.latest_complete_epoch(p) == 0
    # complete epoch 1: it becomes the restart point
    u, l, t = blocks4[p - 1]
    store.save(RankSnapshot.capture(p - 1, 1, 9, u, l, t))
    assert store.latest_complete_epoch(p) == 1


def test_empty_store(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.epochs() == []
    assert store.latest_complete_epoch(4) is None


def test_manifest(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    p = 4
    for r in range(p):
        u, l, t = blocks4[r]
        store.save(RankSnapshot.capture(r, 0, r * 10, u, l, t))
    u, l, t = blocks4[0]
    store.save(RankSnapshot.capture(0, 1, 40, u, l, t))
    path = store.write_manifest(p, 2, extra={"note": "test"})
    doc = json.loads(path.read_text())
    assert doc["version"] == SCHEMA_VERSION == 3
    assert doc["p"] == p and doc["q"] == 2
    assert doc["note"] == "test"
    assert doc["epochs"]["0"]["complete"] is True
    assert doc["epochs"]["1"]["complete"] is False
    entry = doc["epochs"]["0"]["ranks"]["2"]
    assert entry["local_count"] == 20
    assert entry["nbytes"] > 0
    assert set(entry["crc32"]) == {"u", "l", "task"}
    assert store.read_manifest() == doc


def test_manifest_lists_files_from_prior_process(tmp_path, blocks4):
    """Files written by another store instance appear by name."""
    p = 4
    first = CheckpointStore(tmp_path)
    for r in range(p):
        u, l, t = blocks4[r]
        first.save(RankSnapshot.capture(r, 0, 0, u, l, t))
    fresh = CheckpointStore(tmp_path)  # no in-memory log
    doc = json.loads(fresh.write_manifest(p, 2).read_text())
    assert doc["epochs"]["0"]["complete"] is True
    assert doc["epochs"]["0"]["ranks"]["0"] == {"file": "ep0000/rank000.blocks"}


def test_no_tmp_litter(tmp_path, blocks4):
    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[0]
    store.save(RankSnapshot.capture(0, 0, 0, u, l, t))
    store.write_manifest(4, 2)
    assert not list(tmp_path.rglob("*.tmp*"))


def test_restore_checks_each_crc_once(tmp_path, blocks4, monkeypatch):
    """Loading a snapshot verifies each blob as it maps the file; the
    restored blocks are those, not a second deserialization."""
    from repro.core import blocks

    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[3]
    store.save(RankSnapshot.capture(3, 1, 5, u, l, t))
    calls = []
    real = blocks.zlib.crc32
    monkeypatch.setattr(
        blocks, "zlib",
        SimpleNamespace(crc32=lambda *a: calls.append(1) or real(*a)),
    )
    back = store.load(1, 3)
    restored = back.blocks()
    assert len(calls) == 3  # one pass per blob: u, l, task
    for got, want in zip(restored, (u, l, t)):
        assert got.as_blob().tobytes() == want.to_blob().tobytes()

    path = store.rank_path(1, 3)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # last index word of the task blob
    path.write_bytes(bytes(raw))
    with pytest.raises(BlobChecksumError):
        store.load(1, 3)


def test_counters_and_tally_come_back_bit_for_bit(tmp_path, blocks4):
    from repro.core.cannon import KernelTally

    store = CheckpointStore(tmp_path)
    counters = {"task": 936.0, "hash_probe": 0.1 + 0.2, "checkpoint_io": 3e-300}
    tally = KernelTally(
        shifts=[(0, 1.41517524142524e-06, 76), (1, 0.1 + 0.7, 12)],
        hash_builds=5, hash_fast_builds=3, backend_uses={"batch": 2, "c": 1},
    )
    store.save(RankSnapshot.capture(3, 2, 40, *blocks4[3], counters, tally))
    back = store.load(2, 3)
    assert back.counters == counters and back.tally == tally
    assert [type(s) for s in back.tally.shifts] == [tuple, tuple]


def test_a_schema_2_checkpoint_is_refused_by_version(tmp_path, blocks4):
    from repro.core.blocks import write_rank_file
    from repro.resilience.checkpoint import CheckpointVersionError

    store = CheckpointStore(tmp_path)
    u, l, t = blocks4[0]
    # What schema 2 wrote: [rank, epoch, local_count] and the blobs.
    write_rank_file(
        store.rank_path(1, 0), [0, 1, 7], [b.as_blob() for b in (u, l, t)]
    )
    assert SCHEMA_VERSION == 3
    with pytest.raises(CheckpointVersionError, match="schema 2"):
        store.load(1, 0)
