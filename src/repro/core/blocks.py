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
that.  A block is packed once, when :func:`build_block` builds it, into a
read-only blob that every later user reads in place — each hop forwards
it (:meth:`Block.as_blob`), the store and the checkpoints write it, and
the compiled kernel counts from it.  The block's :class:`DCSR` is views
into that blob, built on first access (only the ``row``/``batch``
kernels and the listing path make them).  Every arrival reads the header
once and checks the crc with one pass over the payload.
:func:`exchange_blocks` falls back to one-message-per-array when the
optimization is disabled.

The same blobs are what a rank's state looks like **on disk**: the
preprocessing store and the checkpoints both persist "a rank's (U, L,
task) triple" as one flat int64 file — :func:`write_rank_file` /
:func:`read_rank_file`, the only writer and the only reader of that form.
"""

from __future__ import annotations

import mmap
import os
import zlib
from dataclasses import dataclass
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
    :meth:`Block.from_blob` verifies it on every deserialization, as one
    crc32 over the blob's contiguous payload, which is the same value.
    """
    crc = zlib.crc32(np.ascontiguousarray(indptr, dtype=INDEX_DTYPE).data)
    return zlib.crc32(np.ascontiguousarray(indices, dtype=INDEX_DTYPE).data, crc)


def _seal(
    blob: np.ndarray,
    kind: str,
    fixed_residue: int,
    inner_residue: int,
    n_rows: int,
    n_cols: int,
) -> None:
    """Finish a pack: write the header of ``blob``, whose ``indptr ++
    indices`` payload already follows :data:`_HEADER_LEN` free words; the
    crc32 covers that payload."""
    if kind not in _KIND_CODES:
        raise ValueError(f"unknown block kind {kind!r}")
    blob[:_HEADER_LEN] = (
        _KIND_CODES[kind],
        fixed_residue,
        inner_residue,
        n_rows,
        n_cols,
        len(blob) - _HEADER_LEN - n_rows - 1,
        zlib.crc32(blob[_HEADER_LEN:]),
    )


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
        columns for ``L-col``.  For a block that has a blob these are
        views into it, built on first access.
    """

    __slots__ = (
        "kind", "fixed_residue", "inner_residue", "_shape", "_blob", "_dcsr",
        "_nbytes",
    )

    def __init__(
        self, kind: str, fixed_residue: int, inner_residue: int, dcsr: DCSR
    ):
        if kind not in _KIND_CODES:
            raise ValueError(f"unknown block kind {kind!r}")
        self.kind = kind
        self.fixed_residue = fixed_residue
        self.inner_residue = inner_residue
        csr = dcsr.csr
        #: ``(n_rows, n_cols, nnz)``, as the blob header carries them.
        self._shape = (csr.n_rows, csr.n_cols, csr.nnz)
        #: The wire-format buffer: set by :func:`build_block`,
        #: :meth:`from_blob` and the first :meth:`as_blob`, then never
        #: replaced and never written.
        self._blob: np.ndarray | None = None
        self._dcsr: DCSR | None = dcsr
        self._nbytes: int | None = None

    @property
    def nnz(self) -> int:
        """Number of stored entries in the block."""
        return self._shape[2]

    @property
    def dcsr(self) -> DCSR:
        """The entries as a :class:`DCSR` (views into the blob, built on
        first access: only the ``row``/``batch`` kernels and the listing
        path read them)."""
        if self._dcsr is None:
            n_rows, n_cols, _ = self._shape
            split = _HEADER_LEN + n_rows + 1
            self._dcsr = DCSR(
                CSR(
                    n_rows, self._blob[_HEADER_LEN:split], self._blob[split:],
                    n_cols=n_cols,
                )
            )
        return self._dcsr

    def nbytes_estimate(self) -> int:
        """Approximate resident bytes: the :meth:`DCSR.nbytes_estimate` of
        the entries plus a 64-byte header.  Computed once, from the header
        and one count of the nonempty rows, so no view is built for it."""
        if self._nbytes is None:
            n_rows, _, nnz = self._shape
            if self._dcsr is not None:
                indptr = self._dcsr.indptr
            else:
                indptr = self._blob[_HEADER_LEN : _HEADER_LEN + n_rows + 1]
            live = int(np.count_nonzero(indptr[1:] != indptr[:-1]))
            self._nbytes = DCSR.estimate(n_rows, nnz, live) + 64
        return self._nbytes

    # -- blob wire format -----------------------------------------------------

    def to_blob(self) -> np.ndarray:
        """Pack the block into a fresh contiguous int64 buffer.

        Layout: [kind, fixed_residue, inner_residue, n_rows, n_cols, nnz,
        crc32] ++ indptr ++ indices.  The crc32 covers the payload arrays,
        so a blob corrupted on the (simulated) wire or on disk fails loudly
        in :meth:`from_blob` instead of silently skewing counts.  The
        non-empty rows are not shipped: whoever needs them counts them.
        """
        csr = self.dcsr.csr
        split = _HEADER_LEN + csr.n_rows + 1
        blob = np.empty(split + csr.nnz, dtype=INDEX_DTYPE)
        blob[_HEADER_LEN:split] = csr.indptr
        blob[split:] = csr.indices
        _seal(
            blob, self.kind, self.fixed_residue, self.inner_residue,
            csr.n_rows, csr.n_cols,
        )
        return blob

    @classmethod
    def from_blob(cls, blob: np.ndarray) -> "Block":
        """Inverse of :meth:`to_blob` — **zero-copy**.

        Reads the header and checks the crc32 over the payload (one
        C-speed pass, no copy; a mismatch raises
        :class:`~repro.simmpi.errors.BlobChecksumError`), and nothing
        else: the block's ``indptr``/``indices`` become views into
        ``blob`` on first access (:attr:`dcsr`), and the block keeps
        ``blob`` to forward it unchanged on its next hop (:meth:`as_blob`).
        Nothing writes to a block or its buffer after this point, so every
        rank the buffer passes through may share it; a deserialization
        copy would only burn memory bandwidth on the hot shift path.
        Callers that deserialize a buffer they intend to keep mutating
        must pass ``blob.copy()`` themselves.
        """
        blob = np.ascontiguousarray(blob, dtype=INDEX_DTYPE)
        if blob.ndim != 1 or len(blob) < _HEADER_LEN:
            raise ValueError("blob too short for a block header")
        kind_code, fixed, inner, n_rows, n_cols, nnz, crc = blob[
            :_HEADER_LEN
        ].tolist()
        if kind_code not in _KIND_NAMES:
            raise ValueError(f"bad block kind code {kind_code}")
        if min(n_rows, n_cols, nnz) < 0 or len(blob) != (
            _HEADER_LEN + n_rows + 1 + nnz
        ):
            raise ValueError(
                f"blob of {len(blob)} words disagrees with its header "
                f"({n_rows} rows, {nnz} entries)"
            )
        actual = zlib.crc32(blob[_HEADER_LEN:])
        if actual != crc:
            raise BlobChecksumError(expected=crc, actual=actual)
        return cls._of_blob(blob, _KIND_NAMES[kind_code], fixed, inner, n_rows, n_cols)

    @classmethod
    def _of_blob(
        cls,
        blob: np.ndarray,
        kind: str,
        fixed_residue: int,
        inner_residue: int,
        n_rows: int,
        n_cols: int,
    ) -> "Block":
        """A block over a checked blob whose header says these fields."""
        block = cls.__new__(cls)
        block.kind = kind
        block.fixed_residue = fixed_residue
        block.inner_residue = inner_residue
        block._shape = (n_rows, n_cols, len(blob) - _HEADER_LEN - n_rows - 1)
        block._blob = blob
        block._dcsr = None
        block._nbytes = None
        return block

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
        """The block's wire-format buffer: packed once, then returned as is.

        A block from :func:`build_block`, :meth:`from_blob` or
        :meth:`from_mmap` already has its blob (for an mmap'd block, the
        page-cache-backed view); one that arrived as three arrays (the
        ``blob_serialization=False`` ablation) is packed by
        :meth:`to_blob` on the first call and keeps that buffer, read-only.
        """
        if self._blob is None:
            blob = self.to_blob()
            blob.flags.writeable = False
            self._blob = blob
        return self._blob


def build_block(
    kind: str,
    fixed_residue: int,
    inner_residue: int,
    n_outer: int,
    n_inner: int,
    outer_local: np.ndarray,
    inner_local: np.ndarray,
) -> Block:
    """Assemble a block from local-index coordinate pairs and pack it.

    ``outer_local`` indexes the dimension this structure is compressed on
    (rows for U/task, columns for L); entries end up sorted within each
    outer index, which the early-stop optimization requires.  ``n_inner``
    bounds the entry ids (the inner dimension's local extent).

    The block is packed here, once: the CSR build writes ``indptr`` and
    ``indices`` straight into the blob, and the blob is what every later
    user reads — the shifts, the store, the checkpoints and the compiled
    kernel.  The block's :attr:`~Block.dcsr` is views into it, so no
    second copy of the arrays exists.
    """
    n_outer, n_inner = int(n_outer), int(n_inner)
    blob = np.empty(_HEADER_LEN + n_outer + 1 + len(outer_local), dtype=INDEX_DTYPE)
    CSR.from_coo(
        n_outer, outer_local, inner_local, n_cols=n_inner, out=blob[_HEADER_LEN:]
    )
    _seal(blob, kind, fixed_residue, inner_residue, n_outer, n_inner)
    blob.flags.writeable = False
    return Block._of_blob(blob, kind, fixed_residue, inner_residue, n_outer, n_inner)


def exchange_blocks(
    comm, moves: Sequence[tuple[Block, int, int, int]], blob: bool
) -> list[Block]:
    """One Cannon skew or shift step: for each ``(block, dest, src, tag)``
    of ``moves``, in order, send ``block`` to ``dest`` and receive the
    incoming block from ``src``.  Returns the received blocks.

    Every member of ``comm`` steps at once, so the whole step is one
    collective (:meth:`~repro.simmpi.comm.Comm.exchange`), and its messages
    are those of a ``sendrecv`` per move.  With ``blob`` a block travels
    as a single message; without it, the metadata, indptr and indices
    arrays travel as three separate messages (tags ``tag`` to ``tag +
    2``), each paying its own latency and envelope — the cost the Section
    5.2 blob optimization removes.

    Pack once, check on every arrival: the message is the buffer the
    block was built or arrived in (:meth:`Block.as_blob`), whose header
    still carries its residues, so no hop packs or computes a crc on the
    sending side.  The receiver's
    :meth:`Block.from_blob` verifies the crc on every hop, and a
    corrupted copy is a new array, so the next receiver checks that one.
    """
    if blob:
        rounds = [
            ([(block.as_blob(), dest, tag)], [(src, tag)])
            for block, dest, src, tag in moves
        ]
        return comm.exchange(rounds, _block_of_blob)
    rounds = []
    for block, dest, src, tag in moves:
        csr = block.dcsr.csr
        head = (
            _KIND_CODES[block.kind],
            block.fixed_residue,
            block.inner_residue,
            csr.n_rows,
            csr.n_cols,
        )
        parts = (head, csr.indptr, csr.indices)
        rounds.append((
            [(part, dest, tag + i) for i, part in enumerate(parts)],
            [(src, tag + i) for i in range(3)],
        ))
    return comm.exchange(rounds, _block_of_parts)


def _block_of_blob(got: tuple) -> Block:
    (incoming,) = got
    return Block.from_blob(incoming)


def _block_of_parts(got: tuple) -> Block:
    (kind_code, fixed, inner, n_rows, n_cols), indptr, indices = got
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
