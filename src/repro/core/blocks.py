"""2D block containers and their single-buffer ("blob") wire format.

A rank on the grid holds three structures (Section 5.1):

* its resident **task block** — the non-zeros of C[L] (or C[U] under ijk)
  assigned to it by the cell-by-cell cyclic distribution, stored row-major;
* a travelling **U block** — rows of U for its grid row's residue, columns
  for the current inner residue z', stored row-major (the hashed side);
* a travelling **L block** — columns of L for its grid column's residue,
  rows for z', stored column-major (the probe side).

The travelling blocks move with Cannon's pattern each step.  To avoid one
message per constituent array (and per-array pickling), the paper converts
each block to a single contiguous blob before the shifts begin
(Section 5.2); :meth:`Block.to_blob` / :meth:`Block.from_blob` implement
that, and :func:`exchange_block` falls back to one-message-per-array when
the optimization is disabled.

The same blobs are what a rank's state looks like **on disk**: the
preprocessing store and the checkpoints both persist "a rank's (U, L,
task) triple" as one flat int64 file — :func:`write_rank_file` /
:func:`read_rank_file`, the only writer and the only reader of that form.
"""

from __future__ import annotations

import mmap
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.graph.csr import CSR, INDEX_DTYPE
from repro.graph.dcsr import DCSR
from repro.simmpi.errors import BlobChecksumError

_KIND_CODES = {"U-row": 0, "L-col": 1, "task": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_HEADER_LEN = 7


def _blob_len(header: np.ndarray) -> int:
    """Total int64 words of the blob whose header this is (the format is
    self-delimiting: the header carries ``n_rows`` and ``nnz``)."""
    return _HEADER_LEN + int(header[3]) + 1 + int(header[5])


def blob_payload_crc32(indptr: np.ndarray, indices: np.ndarray) -> int:
    """crc32 over a block's payload arrays (indptr then indices).

    Computed over the raw int64 buffer bytes, so the value is stable
    across processes and restarts — checkpoint manifests record it and
    :meth:`Block.from_blob` verifies it on every deserialization.
    """
    crc = zlib.crc32(np.ascontiguousarray(indptr, dtype=INDEX_DTYPE).data)
    return zlib.crc32(np.ascontiguousarray(indices, dtype=INDEX_DTYPE).data, crc)


@dataclass
class Block:
    """One 2D block with enough metadata to keep shifting honest.

    Attributes
    ----------
    kind:
        ``"U-row"`` (row-major, hashed side), ``"L-col"`` (column-major,
        probe side) or ``"task"`` (row-major resident tasks).
    fixed_residue:
        Residue class of the dimension pinned to this rank (grid row for U,
        grid column for L).
    inner_residue:
        Residue class of the contracted dimension currently held; changes
        as the block travels through the grid.
    dcsr:
        The actual entries; outer dimension = rows for ``U-row``/``task``,
        columns for ``L-col``.
    """

    kind: str
    fixed_residue: int
    inner_residue: int
    dcsr: DCSR
    #: The source blob this block was deserialized from (set by
    #: :meth:`from_blob` / :meth:`from_mmap`, ``None`` for blocks built
    #: locally).  :meth:`as_blob` returns it instead of re-packing, so a
    #: received or cache-served block ships again without a concatenate
    #: pass.
    blob: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown block kind {self.kind!r}")

    @property
    def nnz(self) -> int:
        """Number of stored entries in the block."""
        return self.dcsr.nnz

    def nbytes_estimate(self) -> int:
        """Approximate resident bytes (payload plus header)."""
        return self.dcsr.nbytes_estimate() + 64

    # -- blob wire format -----------------------------------------------------

    def to_blob(self) -> np.ndarray:
        """Pack the block into one contiguous int64 buffer.

        Layout: [kind, fixed_residue, inner_residue, n_rows, n_cols, nnz,
        crc32] ++ indptr ++ indices.  The crc32 covers the payload arrays,
        so a blob corrupted on the (simulated) wire or on disk fails loudly
        in :meth:`from_blob` instead of silently skewing counts.  The
        non-empty-row list is recomputed on arrival (cheaper than shipping
        it).
        """
        csr = self.dcsr.csr
        header = np.array(
            [
                _KIND_CODES[self.kind],
                self.fixed_residue,
                self.inner_residue,
                csr.n_rows,
                csr.n_cols,
                csr.nnz,
                blob_payload_crc32(csr.indptr, csr.indices),
            ],
            dtype=INDEX_DTYPE,
        )
        return np.concatenate([header, csr.indptr, csr.indices])

    @classmethod
    def from_blob(cls, blob: np.ndarray) -> "Block":
        """Inverse of :meth:`to_blob` — **zero-copy**.

        The reconstructed block's ``indptr``/``indices`` are views into
        ``blob``, not copies: :meth:`to_blob` always packs into a fresh
        buffer that the sender drops after the exchange, so the arriving
        block is the buffer's sole owner and a deserialization copy would
        only burn memory bandwidth on the hot shift path.  Callers that
        deserialize a buffer they intend to keep mutating must pass
        ``blob.copy()`` themselves.

        The header crc32 is verified against the payload (one C-speed pass,
        no copy); a mismatch raises
        :class:`~repro.simmpi.errors.BlobChecksumError`.
        """
        blob = np.asarray(blob, dtype=INDEX_DTYPE)
        if len(blob) < _HEADER_LEN:
            raise ValueError("blob too short for a block header")
        kind_code, fixed, inner, n_rows, n_cols, nnz, crc = (
            int(x) for x in blob[:_HEADER_LEN]
        )
        if kind_code not in _KIND_NAMES:
            raise ValueError(f"bad block kind code {kind_code}")
        indptr_end = _HEADER_LEN + n_rows + 1
        indptr = blob[_HEADER_LEN:indptr_end]
        indices = blob[indptr_end : indptr_end + nnz]
        if len(indices) != nnz:
            raise ValueError("blob truncated: indices shorter than header claims")
        actual = blob_payload_crc32(indptr, indices)
        if actual != crc:
            raise BlobChecksumError(expected=crc, actual=actual)
        return cls(
            kind=_KIND_NAMES[kind_code],
            fixed_residue=fixed,
            inner_residue=inner,
            dcsr=DCSR(CSR(n_rows, indptr, indices, n_cols=n_cols)),
            blob=blob,
        )

    @classmethod
    def from_mmap(cls, buf, offset: int = 0) -> "Block":
        """Deserialize a block straight out of a memory-mapped buffer.

        ``buf`` is any object exposing the buffer protocol (typically an
        ``mmap.mmap`` opened read-only) and ``offset`` the byte position
        of the blob header within it.  The header is parsed first to size
        the blob, then the whole blob becomes a read-only
        ``np.frombuffer`` view — no bytes are copied, and the crc32
        verification pass is what faults the payload pages in.  A
        corrupted file raises
        :class:`~repro.simmpi.errors.BlobChecksumError` exactly like
        :meth:`from_blob` on a corrupted wire buffer.
        """
        header = np.frombuffer(
            buf, dtype=INDEX_DTYPE, count=_HEADER_LEN, offset=offset
        )
        blob = np.frombuffer(
            buf, dtype=INDEX_DTYPE, count=_blob_len(header), offset=offset
        )
        return cls.from_blob(blob)

    def as_blob(self) -> np.ndarray:
        """The block's wire-format buffer, reusing the source blob.

        Blocks that came out of :meth:`from_blob` / :meth:`from_mmap`
        return the retained source buffer (zero copies — for an mmap'd
        block this is still the page-cache-backed view); locally built
        blocks fall back to :meth:`to_blob`.
        """
        if self.blob is not None:
            return self.blob
        return self.to_blob()


def build_block(
    kind: str,
    fixed_residue: int,
    inner_residue: int,
    n_outer: int,
    n_inner: int,
    outer_local: np.ndarray,
    inner_local: np.ndarray,
) -> Block:
    """Assemble a block from local-index coordinate pairs.

    ``outer_local`` indexes the dimension this structure is compressed on
    (rows for U/task, columns for L); entries end up sorted within each
    outer index, which the early-stop optimization requires.  ``n_inner``
    bounds the entry ids (the inner dimension's local extent).
    """
    return Block(
        kind=kind,
        fixed_residue=fixed_residue,
        inner_residue=inner_residue,
        dcsr=DCSR.from_coo(n_outer, outer_local, inner_local, n_cols=n_inner),
    )


def exchange_block(comm, block: Block, dest: int, src: int, blob: bool, tag: int):
    """Send ``block`` to ``dest`` and receive the incoming block from
    ``src`` (one Cannon skew or shift step for one operand).

    With ``blob`` the block travels as a single message; without it, the
    metadata, indptr and indices arrays travel as three separate messages,
    each paying its own latency and envelope — the cost the Section 5.2
    blob optimization removes.
    """
    if blob:
        out = block.to_blob()
        incoming = comm.sendrecv(out, dest=dest, source=src, sendtag=tag, recvtag=tag)
        return Block.from_blob(incoming)
    csr = block.dcsr.csr
    comm.send(
        (
            _KIND_CODES[block.kind],
            block.fixed_residue,
            block.inner_residue,
            csr.n_rows,
            csr.n_cols,
        ),
        dest,
        tag=tag,
    )
    comm.send(csr.indptr, dest, tag=tag + 1)
    comm.send(csr.indices, dest, tag=tag + 2)
    kind_code, fixed, inner, n_rows, n_cols = comm.recv(source=src, tag=tag)
    indptr = comm.recv(source=src, tag=tag + 1)
    indices = comm.recv(source=src, tag=tag + 2)
    return Block(
        kind=_KIND_NAMES[kind_code],
        fixed_residue=fixed,
        inner_residue=inner,
        dcsr=DCSR(CSR(n_rows, indptr, indices, n_cols=n_cols)),
    )


# ---------------------------------------------------------------------------
# a rank's block triple on disk
# ---------------------------------------------------------------------------
#
# A rank file is flat little-endian int64:
#
#     [magic, version, n_meta, n_extra, len_u, len_l, len_task]
#     ++ meta ++ extra ++ u_blob ++ l_blob ++ task_blob
#
# ``meta[0]`` is the rank; the rest of ``meta`` and all of ``extra`` belong
# to the caller (store: ``[rank, lo]`` + degree labels; checkpoint:
# ``[rank, epoch, local_count]``).  Every blob starts on an 8-byte boundary,
# so the file is memory-mapped and used in place — mappable because of what
# it is, with no container to parse and no second way to read it.

#: Blob order inside a rank file, and the names manifests key them by.
RANK_FILE_BLOBS = ("u", "l", "task")

_RANK_MAGIC = int.from_bytes(b"TC2DRANK", "little")
_RANK_VERSION = 1
_RANK_DTYPE = np.dtype("<i8")
_RANK_HEADER_LEN = 7


class RankFileError(ValueError):
    """A rank file is not the file its reader was promised: truncated,
    foreign (wrong magic or version), inconsistent, or another rank's.
    The message names the file.  Like a payload that fails its crc
    (:class:`~repro.simmpi.errors.BlobChecksumError`) this is never a
    fallback case: no other way of reading the same bytes makes them right.
    """


@dataclass(frozen=True)
class RankFile:
    """A mapped rank file: ``meta`` and ``extra`` as written and the
    crc-verified ``(u, l, task)`` blocks.  All arrays are read-only views
    into one shared map, which lives as long as any of them."""

    meta: np.ndarray
    extra: np.ndarray
    blocks: tuple[Block, Block, Block]


def atomic_write(path: "str | Path", chunks: Iterable[bytes | memoryview]) -> None:
    """Write ``chunks`` to ``path`` through a temp file and ``os.replace``
    (the parent directory is made if missing).

    The temp name carries the writer's pid so two unlocked writers (e.g.
    a no-``fcntl`` platform, or a restarted attempt racing the tail of a
    dying one) can never interleave bytes in one temp file; the final
    ``os.replace`` makes the last complete writer win.  A writer that
    raises (a full disk, an interrupt) takes its temp with it and leaves
    ``path`` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rank_file(
    path: "str | Path",
    meta: Sequence[int],
    blobs: Sequence[np.ndarray],
    extra: "Sequence[int] | np.ndarray" = (),
) -> None:
    """Atomically (:func:`atomic_write`) write one rank's ``(u, l, task)``
    blobs as a rank file."""
    parts = [np.ascontiguousarray(a, dtype=_RANK_DTYPE) for a in (meta, extra, *blobs)]
    header = np.array(
        [_RANK_MAGIC, _RANK_VERSION, *(len(a) for a in parts)], dtype=_RANK_DTYPE
    )
    atomic_write(path, (part.data for part in (header, *parts)))


def read_rank_file(path: "str | Path", rank: int) -> RankFile:
    """Map ``rank``'s rank file read-only and deserialize its blocks.

    Nothing is copied: the header is checked against the file size, then
    each blob goes to :meth:`Block.from_mmap`, whose crc pass is what
    pages the payload in.  Raises :class:`RankFileError` or
    :class:`~repro.simmpi.errors.BlobChecksumError`.
    """
    word, head = _RANK_DTYPE.itemsize, _RANK_HEADER_LEN * _RANK_DTYPE.itemsize
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < head:
            raise RankFileError(f"{path}: truncated, {size} bytes is no header")
        # The map holds its own duplicate of the descriptor.
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, n_meta, n_extra, *lens = np.frombuffer(
        buf, _RANK_DTYPE, _RANK_HEADER_LEN
    ).tolist()
    if (magic, version) != (_RANK_MAGIC, _RANK_VERSION):
        raise RankFileError(
            f"{path}: not a version-{_RANK_VERSION} rank file "
            f"(magic {magic:#x}, version {version})"
        )
    words = _RANK_HEADER_LEN + n_meta + n_extra + sum(lens)
    if min(n_meta, n_extra, *lens) < 0 or words * word != size:
        raise RankFileError(
            f"{path}: truncated or padded, header describes {words * word} "
            f"bytes, file has {size}"
        )
    meta = np.frombuffer(buf, _RANK_DTYPE, n_meta, head)
    named = int(meta[0]) if n_meta else None
    if named != rank:
        raise RankFileError(f"{path}: claims rank {named}, expected rank {rank}")
    extra = np.frombuffer(buf, _RANK_DTYPE, n_extra, head + n_meta * word)
    offset = head + (n_meta + n_extra) * word
    blocks = []
    for length in lens:
        # A blob's own header must span exactly what the file header gives
        # it, or from_mmap would read into its neighbour (or past the end).
        if length < _HEADER_LEN or length != _blob_len(
            np.frombuffer(buf, INDEX_DTYPE, _HEADER_LEN, offset)
        ):
            raise RankFileError(
                f"{path}: blob at byte {offset} does not span its {length} words"
            )
        blocks.append(Block.from_mmap(buf, offset))
        offset += length * word
    return RankFile(meta, extra, tuple(blocks))
