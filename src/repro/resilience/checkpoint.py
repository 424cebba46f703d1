"""Phase-level checkpointing of 2D triangle-counting rank state.

The Cannon pipeline makes snapshots cheap: a rank's entire counting state
is one resident task block, one travelling U block, one travelling L
block, a partial count and the shift index — plus what the rank has
counted so far: its tct logical counters and its kernel tally, so a
resumed run reports the whole run's work.  Blocks are serialized with
the same crc-protected single-buffer blob format they travel the wire in
(:meth:`~repro.core.blocks.Block.as_blob`: the buffer a block was built
or arrived in is saved as is, not packed again), so a snapshot is three int64
arrays, two integers and a small JSON record of the counters — on disk,
the same flat rank file the preprocessing store keeps
(:func:`~repro.core.blocks.write_rank_file`).

Epoch semantics: *epoch e* is the state at the start of shift step ``e``
(operand blocks in position for step ``e``, ``local_count`` covering steps
``< e``).  Epoch 0 is the post-skew state; epoch ``q`` means counting is
done and only the final reduction remains.  An epoch is **complete** once
all ``p`` ranks have written their snapshot; restart always resumes every
rank from the latest complete epoch, which is a consistent cut because a
rank's epoch-``e`` state is a pure function of its own deterministic
history and every Cannon message is consumed in the step it is sent.

On-disk layout (all writes are atomic via temp-file + rename)::

    <root>/
      manifest.json              # schema, p, q, per-epoch file map + crc32s
      ep0000/rank000.blocks      # [rank, epoch, local_count, schema, n]
                                 # + counters JSON (n bytes) + u/l/task blobs
      ep0000/rank001.blocks
      ...

``manifest.json`` is regenerated by :meth:`CheckpointStore.write_manifest`
from the snapshot log plus a directory scan, so a crash between epoch
writes never leaves the manifest pointing at half-written state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.blocks import (
    RANK_FILE_BLOBS,
    Block,
    RankFileError,
    atomic_write,
    read_rank_file,
    write_rank_file,
)
from repro.core.cannon import KernelTally

#: Checkpoint schema version, in the manifest and in every rank file (bump
#: on layout changes; 2 = flat rank files, 3 = counters and kernel tally).
SCHEMA_VERSION = 3


class CheckpointVersionError(RankFileError):
    """A checkpoint written under another :data:`SCHEMA_VERSION`.  A
    restore never resumes from it: the state it lacks (the counters of
    schema 2) would make the run's report wrong."""


@dataclass
class RankSnapshot:
    """One rank's counting state at one epoch.

    ``u_blob``/``l_blob``/``task_blob`` are the crc-protected blob forms
    of the three blocks; :meth:`blocks` deserializes (and thereby
    checksum-verifies) them.  ``counters`` are the rank's logical
    counters charged in the tct phase before this epoch and ``tally`` its
    :class:`~repro.core.cannon.KernelTally`; a restore seeds both, so the
    resumed rank reports the whole run's work.  A snapshot read back by
    :meth:`CheckpointStore.load` carries the blocks its reader already
    verified in ``verified``, so a restore checks each crc once.
    """

    rank: int
    epoch: int
    local_count: int
    u_blob: np.ndarray
    l_blob: np.ndarray
    task_blob: np.ndarray
    counters: dict[str, float] = field(default_factory=dict)
    tally: KernelTally = field(default_factory=KernelTally)
    verified: tuple[Block, Block, Block] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def capture(
        cls, rank: int, epoch: int, local_count: int,
        u_block: Block, l_block: Block, task_block: Block,
        counters: dict[str, float] | None = None,
        tally: KernelTally | None = None,
    ) -> "RankSnapshot":
        """Snapshot the given state; ``counters`` and ``tally`` are copied."""
        tally = tally if tally is not None else KernelTally()
        return cls(
            rank=rank,
            epoch=epoch,
            local_count=int(local_count),
            u_blob=u_block.as_blob(),
            l_blob=l_block.as_blob(),
            task_blob=task_block.as_blob(),
            counters=dict(counters or {}),
            tally=KernelTally(
                shifts=list(tally.shifts),
                hash_builds=tally.hash_builds,
                hash_fast_builds=tally.hash_fast_builds,
                backend_uses=dict(tally.backend_uses),
            ),
        )

    def record(self) -> bytes:
        """``counters`` and ``tally`` as the JSON a rank file carries (a
        float's ``repr`` round-trips, so they come back bit for bit)."""
        doc = {"counters": self.counters, "tally": asdict(self.tally)}
        return json.dumps(doc, separators=(",", ":")).encode()

    def blocks(self) -> tuple[Block, Block, Block]:
        """The three blocks: deserialized (and crc-verified) here, unless
        the snapshot was loaded with blocks already verified."""
        if self.verified is not None:
            return self.verified
        return (
            Block.from_blob(self.u_blob),
            Block.from_blob(self.l_blob),
            Block.from_blob(self.task_blob),
        )

    @property
    def nbytes(self) -> int:
        """Serialized size (feeds the ``checkpoint_io`` cost charge)."""
        return int(
            self.u_blob.nbytes + self.l_blob.nbytes + self.task_blob.nbytes
        )

    def crc32s(self) -> dict[str, int]:
        """Payload crc32 of each blob, read from the blob headers."""
        blobs = (self.u_blob, self.l_blob, self.task_blob)
        return {k: int(b[6]) for k, b in zip(RANK_FILE_BLOBS, blobs)}


class CheckpointStore:
    """Filesystem-backed checkpoint directory for one counting run."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Log of (epoch, rank) -> manifest entry for saves made through
        #: this store instance (write_manifest merges it with a scan).
        self._log: dict[tuple[int, int], dict] = {}

    # -- paths --------------------------------------------------------------

    def epoch_dir(self, epoch: int) -> Path:
        return self.root / f"ep{epoch:04d}"

    def rank_path(self, epoch: int, rank: int) -> Path:
        return self.epoch_dir(epoch) / f"rank{rank:03d}.blocks"

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    # -- save / load --------------------------------------------------------

    def save(self, snap: RankSnapshot) -> int:
        """Persist one rank snapshot atomically; returns the bytes of its
        blocks (what a restore reads back and pays ``checkpoint_io`` for)."""
        path = self.rank_path(snap.epoch, snap.rank)
        record = snap.record()
        words = np.zeros(-(-len(record) // 8), dtype="<i8")
        words.view(np.uint8)[: len(record)] = np.frombuffer(record, np.uint8)
        write_rank_file(
            path,
            [snap.rank, snap.epoch, snap.local_count, SCHEMA_VERSION, len(record)],
            [snap.u_blob, snap.l_blob, snap.task_blob],
            extra=words,
        )
        self._log[(snap.epoch, snap.rank)] = {
            "file": str(path.relative_to(self.root)),
            "nbytes": snap.nbytes,
            "local_count": snap.local_count,
            "crc32": snap.crc32s(),
        }
        return snap.nbytes

    def load(self, epoch: int, rank: int) -> RankSnapshot:
        """Map one snapshot back in.  The blobs are read-only views into
        the file, crc-verified here once (the snapshot keeps the verified
        blocks); a file that is not this rank's snapshot of this epoch
        raises :class:`~repro.core.blocks.RankFileError`, one written under
        another schema :class:`CheckpointVersionError`."""
        path = self.rank_path(epoch, rank)
        served = read_rank_file(path, rank)
        meta = served.meta.tolist()
        claims = RankFileError(f"{path}: claims meta {meta}, expected epoch {epoch}")
        if len(meta) == 3:  # schema 2: [rank, epoch, local_count], no counters
            version = 2
        elif len(meta) == 5:
            version = meta[3]
        else:
            raise claims
        if version != SCHEMA_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint schema {version}, this build reads "
                f"schema {SCHEMA_VERSION}; start the run in a fresh directory"
            )
        n_record = meta[4]
        if meta[1] != epoch or not 0 <= n_record <= 8 * len(served.extra):
            raise claims
        try:
            doc = json.loads(served.extra.view(np.uint8)[:n_record].tobytes())
            tally = doc["tally"]
            tally = KernelTally(
                shifts=[tuple(s) for s in tally["shifts"]],
                hash_builds=tally["hash_builds"],
                hash_fast_builds=tally["hash_fast_builds"],
                backend_uses=tally["backend_uses"],
            )
            counters = doc["counters"]
        except (ValueError, KeyError, TypeError) as exc:
            raise RankFileError(f"{path}: unreadable counter record ({exc})") from exc
        return RankSnapshot(
            rank, epoch, meta[2], *(b.as_blob() for b in served.blocks),
            counters=counters, tally=tally, verified=served.blocks,
        )

    # -- epoch bookkeeping --------------------------------------------------

    def epochs(self) -> list[int]:
        """All epoch numbers with at least one snapshot on disk."""
        out = []
        for d in sorted(self.root.glob("ep[0-9][0-9][0-9][0-9]")):
            if d.is_dir():
                out.append(int(d.name[2:]))
        return out

    def ranks_saved(self, epoch: int) -> list[int]:
        """Ranks with a (fully written) snapshot file for ``epoch``."""
        return sorted(
            int(f.name[4:7])
            for f in self.epoch_dir(epoch).glob("rank[0-9][0-9][0-9].blocks")
        )

    def complete_epochs(self, p: int) -> list[int]:
        """Epochs for which all ``p`` ranks have a snapshot."""
        return [e for e in self.epochs() if len(self.ranks_saved(e)) == p]

    def latest_complete_epoch(self, p: int) -> int | None:
        """The epoch restarts should resume from (``None`` = from scratch)."""
        complete = self.complete_epochs(p)
        return complete[-1] if complete else None

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, p: int, q: int, extra: dict | None = None) -> Path:
        """Write ``manifest.json`` describing everything on disk.

        Entries logged by this store instance carry byte sizes, partial
        counts and blob crc32s; files found only by the directory scan
        (e.g. from a previous process) are listed by name so the manifest
        is always an exact inventory.
        """
        epochs: dict[str, dict] = {}
        for e in self.epochs():
            ranks: dict[str, dict] = {}
            for r in self.ranks_saved(e):
                entry = self._log.get((e, r))
                if entry is None:
                    entry = {
                        "file": str(
                            self.rank_path(e, r).relative_to(self.root)
                        )
                    }
                ranks[str(r)] = entry
            epochs[str(e)] = {
                "complete": len(ranks) == p,
                "ranks": ranks,
            }
        doc = {
            "version": SCHEMA_VERSION,
            "p": p,
            "q": q,
            "epochs": epochs,
        }
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        atomic_write(self.manifest_path, [text.encode()])
        return self.manifest_path

    def read_manifest(self) -> dict:
        """Parse ``manifest.json`` (raises ``FileNotFoundError`` if absent)."""
        return json.loads(self.manifest_path.read_text())
