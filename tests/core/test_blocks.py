"""Block containers: blob round-trips, the shift exchange, and the rank
file both the store and the checkpoints keep blocks in."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.core.blocks import (
    Block,
    RankFileError,
    build_block,
    exchange_block,
    read_rank_file,
)
from repro.simmpi import Engine
from repro.simmpi.errors import BlobChecksumError


def make_block(kind="U-row") -> Block:
    return build_block(
        kind,
        fixed_residue=1,
        inner_residue=2,
        n_outer=5,
        n_inner=7,
        outer_local=np.array([0, 0, 3]),
        inner_local=np.array([6, 2, 4]),
    )


def test_build_block_sorts_entries():
    b = make_block()
    assert np.array_equal(b.dcsr.row(0), [2, 6])
    assert np.array_equal(b.dcsr.row(3), [4])
    assert b.nnz == 3


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        make_block(kind="bogus")


def test_blob_roundtrip():
    for kind in ("U-row", "L-col", "task"):
        b = make_block(kind)
        b2 = Block.from_blob(b.to_blob())
        assert b2.kind == kind
        assert b2.fixed_residue == 1
        assert b2.inner_residue == 2
        assert b2.dcsr.csr == b.dcsr.csr
        assert np.array_equal(b2.dcsr.nonempty_rows, b.dcsr.nonempty_rows)


def test_blob_roundtrip_empty_block():
    b = build_block(
        "task", 0, 0, 4, 4, np.empty(0, np.int64), np.empty(0, np.int64)
    )
    b2 = Block.from_blob(b.to_blob())
    assert b2.nnz == 0
    assert b2.dcsr.n_rows == 4


def test_blob_is_single_contiguous_array():
    blob = make_block().to_blob()
    assert isinstance(blob, np.ndarray)
    assert blob.dtype == np.int64
    assert blob.ndim == 1


def test_from_blob_validates():
    with pytest.raises(ValueError):
        Block.from_blob(np.array([1, 2], dtype=np.int64))
    blob = make_block().to_blob()
    blob_bad = blob.copy()
    blob_bad[0] = 99  # bad kind code
    with pytest.raises(ValueError):
        Block.from_blob(blob_bad)
    with pytest.raises(ValueError):
        Block.from_blob(blob[:-1])  # truncated indices


def test_from_blob_is_zero_copy():
    """Deserialization views the blob instead of copying it — the arrays
    of the reconstructed block share memory with the wire buffer."""
    b = make_block()
    blob = b.to_blob()
    b2 = Block.from_blob(blob)
    assert np.shares_memory(b2.dcsr.csr.indptr, blob)
    assert np.shares_memory(b2.dcsr.csr.indices, blob)
    # and to_blob never aliases its source block
    assert not np.shares_memory(blob, b.dcsr.csr.indices)


def test_exchange_block_sender_mutation_safe():
    """Zero-copy deserialization must not let a sender's later writes
    reach the receiver: to_blob packs into a fresh buffer, so mutating
    the original block after the exchange leaves the received one alone."""

    def program(ctx):
        comm = ctx.comm
        b = build_block(
            "U-row",
            fixed_residue=ctx.rank,
            inner_residue=ctx.rank,
            n_outer=3,
            n_inner=9,
            outer_local=np.array([0, 1]),
            inner_local=np.array([ctx.rank, ctx.rank + 2]),
        )
        dest = src = (ctx.rank + 1) % 2
        got = exchange_block(comm, b, dest, src, blob=True, tag=7)
        before = got.dcsr.csr.indices.copy()
        b.dcsr.csr.indices[:] = -99  # sender clobbers its own block
        comm.barrier()
        return np.array_equal(got.dcsr.csr.indices, before)

    res = Engine(2).run(program)
    assert all(res.returns)


@pytest.mark.parametrize("blob", [True, False])
def test_exchange_block_ring(blob):
    """Blocks passed around a 4-rank ring return their metadata intact and
    end up where the partner formulas say."""

    def program(ctx):
        comm = ctx.comm
        b = build_block(
            "U-row",
            fixed_residue=ctx.rank,
            inner_residue=ctx.rank,
            n_outer=3,
            n_inner=3,
            outer_local=np.array([ctx.rank % 3]),
            inner_local=np.array([(ctx.rank + 1) % 3]),
        )
        dest = (ctx.rank + 1) % comm.size
        src = (ctx.rank - 1) % comm.size
        got = exchange_block(comm, b, dest, src, blob, tag=40)
        return (got.fixed_residue, got.inner_residue, got.dcsr.row(src % 3).tolist())

    res = Engine(4).run(program)
    for r in range(4):
        src = (r - 1) % 4
        assert res.returns[r] == (src, src, [(src + 1) % 3])


def test_exchange_block_nonblob_uses_more_messages():
    def program(ctx, blob):
        b = make_block()
        dest = src = (ctx.rank + 1) % 2
        exchange_block(ctx.comm, b, dest, src, blob, tag=5)
        return None

    blob_run = Engine(2, trace=True)
    blob_run.run(program, True)
    blob_sends = len(blob_run.tracer.sends())
    raw_run = Engine(2, trace=True)
    raw_run.run(program, False)
    raw_sends = len(raw_run.tracer.sends())
    assert raw_sends == 3 * blob_sends


def test_blob_header_carries_payload_crc32():
    from repro.core.blocks import blob_payload_crc32

    b = make_block()
    blob = b.to_blob()
    csr = b.dcsr.csr
    assert int(blob[6]) == blob_payload_crc32(csr.indptr, csr.indices)


def test_corrupted_payload_raises_typed_checksum_error():
    from repro.simmpi.errors import BlobChecksumError, SimMPIError

    blob = make_block().to_blob()
    blob[-1] ^= 0x5A  # flip an index, header untouched
    with pytest.raises(BlobChecksumError) as ei:
        Block.from_blob(blob)
    # typed: catchable as a simmpi error *and* as the legacy ValueError
    assert isinstance(ei.value, SimMPIError)
    assert isinstance(ei.value, ValueError)
    assert ei.value.expected != ei.value.actual


def test_corrupted_indptr_detected_too():
    from repro.simmpi.errors import BlobChecksumError

    b = make_block()
    blob = b.to_blob()
    blob[7] += 0  # no-op keeps it valid
    Block.from_blob(blob.copy())
    blob[8] ^= 1  # perturb indptr without breaking monotonic slicing
    with pytest.raises(BlobChecksumError):
        Block.from_blob(blob)


# -- the rank file: one contract, two users ------------------------------------

_P = 4


@dataclass
class _RankFileUser:
    """One user of the rank file: where rank ``r``'s file is, how the user
    reads its ``(u, l, task)`` back, and — for the store — the directory
    ``repro store verify`` checks."""

    path: Callable[[int], Path]
    load: Callable[[int], tuple]
    verify_dir: Path | None = None


@pytest.fixture(scope="module")
def cold_blocks(er_graph, preprocessed_blocks):
    """What a cold run's preprocessing hands each rank."""
    return preprocessed_blocks(er_graph, _P)


@pytest.fixture(params=["store", "checkpoint"])
def user(request, er_graph, cold_blocks, tmp_path):
    if request.param == "store":
        from repro.core import TC2DConfig, count_triangles_2d
        from repro.graph.store import GraphStore

        store = GraphStore(tmp_path)
        cold = count_triangles_2d(er_graph, _P, cache=store)
        digest = cold.extras["cache"]["digest"]
        return _RankFileUser(
            path=lambda r: store.rank_path(digest, r),
            load=lambda r: store.open_run(er_graph, _P, TC2DConfig()).load_rank(r)[:3],
            verify_dir=tmp_path,
        )
    from repro.resilience import CheckpointStore, RankSnapshot

    ckpt = CheckpointStore(tmp_path)
    for r, blocks in enumerate(cold_blocks):
        ckpt.save(RankSnapshot.capture(r, 1, 7 * r, *blocks))
    return _RankFileUser(
        path=lambda r: ckpt.rank_path(1, r), load=lambda r: ckpt.load(1, r).blocks()
    )


def test_rank_file_round_trip_is_the_cold_runs_blocks(user, cold_blocks):
    for r, cold in enumerate(cold_blocks):
        for got, want in zip(user.load(r), cold):
            assert got.as_blob().tobytes() == want.to_blob().tobytes()
            assert got.as_blob().flags.aligned  # 8-byte offsets by construction
            assert not got.as_blob().flags.writeable  # mapped, never copied


def test_rank_file_flipped_payload_byte_fails_the_crc(user, capsys):
    path = user.path(2)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # last index word of the task blob
    path.write_bytes(bytes(raw))
    with pytest.raises(BlobChecksumError):
        user.load(2)
    if user.verify_dir is not None:
        from repro.cli import main

        assert main(["store", "verify", "--dir", str(user.verify_dir)]) == 1
        out = capsys.readouterr().out
        assert "PROBLEM" in out and "rank 2" in out and "BlobChecksumError" in out


def _set_word(index: int, value: int) -> Callable[[bytearray], bytearray]:
    def damage(raw: bytearray) -> bytearray:
        raw[8 * index : 8 * index + 8] = int(value).to_bytes(8, "little", signed=True)
        return raw

    return damage


@pytest.mark.parametrize(
    "damage, says",
    [
        (lambda raw: raw[: len(raw) - 8], "truncated"),
        (lambda raw: raw[:40], "truncated"),
        (lambda raw: raw + bytes(8), "padded"),
        (lambda raw: bytearray(b"PK\x03\x04") + raw[4:], "not a version-1 rank file"),
        (_set_word(1, 9), "not a version-1 rank file"),
        (_set_word(7, 3), "claims rank 3"),  # word 7 = meta[0], the rank
        (_set_word(4, 11), "truncated or padded"),  # len_u no longer adds up
    ],
    ids=["short", "headerless", "padded", "magic", "version", "rank", "lengths"],
)
def test_rank_file_that_is_not_this_ranks_file_is_a_typed_error(user, damage, says):
    path = user.path(1)
    path.write_bytes(bytes(damage(bytearray(path.read_bytes()))))
    with pytest.raises(RankFileError, match=says) as exc:
        user.load(1)
    assert str(path) in str(exc.value)
    assert not isinstance(exc.value, BlobChecksumError)


def test_rank_file_blob_that_disagrees_with_the_file_header(user):
    """A blob whose own header no longer spans what the file header gives
    it is caught before ``from_mmap`` could read past it."""
    path = user.path(0)
    _, offset, dtype, _ = read_rank_file(path, 0).blocks[0].slot
    assert dtype == "int64"
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(_set_word(offset // 8 + 5, 1 << 40)(raw)))  # nnz
    with pytest.raises(RankFileError, match="does not span"):
        user.load(0)


# -- the atomic writer: one protocol, four users ------------------------------


def _write_rank_file(root: Path) -> Path:
    from repro.core.blocks import write_rank_file

    b = make_block()
    write_rank_file(root / "entry" / "rank000.blocks", [0, 0], [b.to_blob()] * 3)
    return root / "entry" / "rank000.blocks"


def _write_store_manifest(root: Path) -> Path:
    from repro.graph.store import GraphStore

    return GraphStore(root).write_manifest("ab" * 32, {"digest": "ab" * 32})


def _write_checkpoint_manifest(root: Path) -> Path:
    from repro.resilience import CheckpointStore

    return CheckpointStore(root / "ckpt").write_manifest(4, 2)


def _write_store_graph(root: Path) -> Path:
    from repro.graph import Graph
    from repro.graph.store import GraphStore

    store = GraphStore(root)
    store.save_graph("g", Graph.from_edges(3, np.array([[0, 1], [1, 2]])))
    return store.graph_path("g")


class _DiesMidWrite:
    """A file whose first ``write`` gets half the bytes out, then SIGINT."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise KeyboardInterrupt


@pytest.mark.parametrize(
    "write",
    [
        _write_rank_file,
        _write_store_manifest,
        _write_checkpoint_manifest,
        _write_store_graph,
    ],
    ids=["rank_file", "store_manifest", "checkpoint_manifest", "store_graph"],
)
def test_atomic_writers_share_no_temp_and_leave_none_behind(
    write, tmp_path, monkeypatch
):
    import os

    from repro.core import blocks

    def files() -> list[Path]:
        return [p for p in tmp_path.rglob("*") if p.is_file()]

    # Two writers (two pids) of one target never share a temp name.
    temps: list[str] = []
    real_replace = os.replace

    def recording_replace(src, dst):
        temps.append(str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    for pid in (111, 222):
        monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
        target = write(tmp_path)
    assert len(set(temps)) == 2 and all(Path(t).parent == target.parent for t in temps)
    assert files() == [target]
    good = target.read_bytes()

    # A writer that dies mid-write leaves no temp and the target as it was...
    monkeypatch.setattr(
        blocks, "open", lambda *a: _DiesMidWrite(open(*a)), raising=False
    )
    with pytest.raises(KeyboardInterrupt):
        write(tmp_path)
    assert files() == [target] and target.read_bytes() == good
    # ...and with no earlier version there is no target at all.
    target.unlink()
    with pytest.raises(KeyboardInterrupt):
        write(tmp_path)
    assert files() == []
