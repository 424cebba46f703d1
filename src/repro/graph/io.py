"""Graph serialization: whitespace edge lists, text or the binary REDGE
format.

The paper's pipeline converts every input to an undirected simple graph
before counting; the readers here do the same via
:meth:`repro.graph.csr.Graph.from_edges`.

Edge lists have exactly one reader, :func:`_iter_edges`: the in-memory
:func:`read_edge_list` concatenates its chunks and the out-of-core
pipeline (:mod:`repro.graph.external`) streams them, so both accept the
same files and fail on the same ones with :class:`EdgeListError`.

An input file's *key* (:func:`input_key`) is the sha256 of
:data:`READER_VERSION` and its bytes; :func:`read_keyed_edge_list`
returns it for the bytes it parsed, which is what lets the graph store
record which entry a file maps to (:meth:`repro.graph.store.GraphStore.
recorded_entry`).
"""

from __future__ import annotations

import hashlib
import io
import re
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as np

from repro.graph.csr import INDEX_DTYPE, Graph

#: Magic prefix of the binary edge-list format (fixed 8 bytes), followed
#: by two int64 fields ``n`` and ``m`` and then ``m`` int64 pairs.
BINARY_EDGE_MAGIC = b"REDGE01\n"
_BINARY_HEADER_BYTES = len(BINARY_EDGE_MAGIC) + 16

#: A line holding data: something other than whitespace before any
#: comment character (``%`` has been folded into ``#`` by then).
_DATA_LINE = re.compile(rb"^[ \t\f\v\r]*[^#\s]", re.M)

#: Version of the reader's rules (the ``n`` rule, the row rule, the REDGE
#: layout), folded into every input key.  Bump it with any change that
#: can make one file read as another graph: the store's input records
#: then miss instead of naming the old reading's graph
#: (``tests/graph/test_io.py`` pins a few files to their graphs).
READER_VERSION = 1


def _key_hash() -> "hashlib._Hash":
    """A sha256 primed with :data:`READER_VERSION`: feed it a file's
    bytes to get the file's input key."""
    return hashlib.sha256(b"repro-reader-v%d\n" % READER_VERSION)


class EdgeListError(ValueError):
    """An edge-list file breaks the reader's rules (see
    :func:`read_edge_list`); the message names the file."""


#: Most edge rows :func:`write_edge_list` renders into one write, which
#: bounds the text it holds at once whatever the graph's size.
WRITE_CHUNK_ROWS = 1 << 16


def write_edge_list(g: Graph, path: str | Path, comments: str | None = None) -> None:
    """Write ``g`` as a text edge list with 0-based ids.

    The bytes are exactly: ``# repro edge list: n=<n> m=<m>``, then
    ``# <line>`` for each line of ``comments`` (``str.splitlines``), then
    one ``u v`` line per undirected edge with ``u < v``, in ascending
    ``(u, v)`` order (:meth:`Graph.edge_array`); every line ends in
    ``\\n``.  Input records key files by these bytes, so a change to them
    turns every recorded input into a miss (``tests/graph/test_io.py``
    pins one file's key).  Rows are rendered and written
    :data:`WRITE_CHUNK_ROWS` at a time.
    """
    path = Path(path)
    edges = g.edge_array()
    with path.open("w") as fh:
        fh.write(f"# repro edge list: n={g.n} m={g.num_edges}\n")
        if comments:
            for line in comments.splitlines():
                fh.write(f"# {line}\n")
        for start in range(0, len(edges), WRITE_CHUNK_ROWS):
            chunk = edges[start:start + WRITE_CHUNK_ROWS]
            fh.write("%d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


class BinaryEdgeWriter:
    """Stream edges into the binary format without holding them all.

    Writes the header with a placeholder edge count, appends int64 pair
    chunks, and patches the count on :meth:`close` — so a benchmark can
    generate a graph far larger than RAM in bounded memory.
    """

    def __init__(self, path: str | Path, n: int):
        self.path = Path(path)
        self.n = int(n)
        self.m = 0
        self._fh = open(self.path, "wb")
        self._fh.write(BINARY_EDGE_MAGIC)
        np.array([self.n, 0], dtype=np.int64).tofile(self._fh)

    def write(self, edges: np.ndarray) -> None:
        """Append one ``(k, 2)`` int64 chunk of edges."""
        arr = np.ascontiguousarray(edges, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a (k, 2) array")
        arr.tofile(self._fh)
        self.m += len(arr)

    def close(self) -> None:
        """Patch the edge count into the header and close the file."""
        if self._fh is None:
            return
        self._fh.seek(len(BINARY_EDGE_MAGIC) + 8)
        np.array([self.m], dtype=np.int64).tofile(self._fh)
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "BinaryEdgeWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def write_binary_edges(path: str | Path, n: int, edges: np.ndarray) -> None:
    """Write a complete edge array in the binary format (small inputs)."""
    with BinaryEdgeWriter(path, n) as w:
        w.write(np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def _binary_header(path: Path, head: bytes) -> tuple[int, int] | None:
    """``(n, m)`` of a file whose first bytes are ``head``, if it is a
    binary edge file, else ``None``."""
    if not head.startswith(BINARY_EDGE_MAGIC):
        return None
    if len(head) < _BINARY_HEADER_BYTES:
        raise EdgeListError(f"{path}: truncated binary edge header")
    n, m = np.frombuffer(head, np.int64, 2, len(BINARY_EDGE_MAGIC))
    return int(n), int(m)


def read_binary_header(path: str | Path) -> tuple[int, int] | None:
    """``(n, m)`` if ``path`` is a binary edge file, else ``None``."""
    with open(path, "rb") as fh:
        return _binary_header(Path(path), fh.read(_BINARY_HEADER_BYTES))


class _Reading:
    """What one pass over a file saw: the input key of its bytes (when
    ``hashed``), the ``n`` they declare and the largest id they hold."""

    def __init__(self, hashed: bool) -> None:
        self.hash = _key_hash() if hashed else None
        self.declared: int | None = None
        self.top = -1

    @property
    def key(self) -> str:
        """The :func:`input_key` of the bytes read."""
        return self.hash.hexdigest()

    @property
    def n(self) -> int:
        """The ``n`` rule applied to the bytes read alone."""
        return self.declared if self.declared is not None else self.top + 1


def _checked_n(path: Path, n: int | None) -> int | None:
    if n is not None and n < 0:
        raise EdgeListError(f"{path}: declares a negative vertex count n={n}")
    return n


def _reads(fh: BinaryIO, size: int, h: Any = None) -> Iterator[bytes]:
    """The raw reads of ``size`` bytes (all at once for ``-1``) that make
    up the rest of ``fh``, each fed to the hash ``h`` if given."""
    while data := fh.read(size):
        if h is not None:
            h.update(data)
        yield data


def _line_blocks(
    reads: Iterable[bytes], whole: bool, rest: bytes = b""
) -> Iterator[bytes]:
    """Whole-line blocks of ``rest`` and the ``reads`` after it (a single
    block of everything when ``whole``)."""
    if whole:
        yield b"".join([rest, *reads])
        return
    for data in reads:
        data = rest + data
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        yield data[:cut]
    yield rest


def _text_blocks(path: Path, chunk_bytes: int | None) -> Iterator[bytes]:
    """Whole-line blocks of about ``chunk_bytes`` of a text file (the
    whole file when ``None``)."""
    with open(path, "rb") as fh:
        size = -1 if chunk_bytes is None else chunk_bytes
        yield from _line_blocks(_reads(fh, size), chunk_bytes is None)


def _declared_n(text: bytes) -> int | None:
    """The first parseable ``n=`` value of a ``#``/``%`` comment line in
    ``text`` (the header :func:`write_edge_list` writes)."""
    at = text.find(b"n=")
    while at >= 0:
        start = text.rfind(b"\n", 0, at) + 1
        end = text.find(b"\n", at)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        if line[:1] in (b"#", b"%"):
            try:
                return int(line.split(b"n=")[1].split()[0])
            except (ValueError, IndexError):
                pass
        at = text.find(b"n=", end)
    return None


def _parse_rows(path: Path, text: bytes) -> np.ndarray:
    """The row rule: the first two integer fields of every data line."""
    text = text.replace(b"%", b"#")
    if _DATA_LINE.search(text) is None:
        return np.empty((0, 2), dtype=INDEX_DTYPE)
    try:
        return np.loadtxt(
            io.BytesIO(text), dtype=INDEX_DTYPE, comments="#",
            usecols=(0, 1), ndmin=2,
        )
    except ValueError as exc:
        raise EdgeListError(f"{path}: malformed edge row ({exc})") from None


def _raw_chunks(
    path: Path, chunk_bytes: int | None, seen: _Reading | None
) -> Iterator[np.ndarray]:
    """Unchecked ``(k, 2)`` chunks of either format, from one pass over
    the file whose bytes and declared ``n`` go into ``seen``."""
    h = seen.hash if seen is not None else None
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER_BYTES)
        if h is not None:
            h.update(head)
        header = _binary_header(path, head)
        if header is None:
            size = -1 if chunk_bytes is None else chunk_bytes
            reads = _reads(fh, size, h)
            for text in _line_blocks(reads, chunk_bytes is None, head):
                if seen is not None and seen.declared is None:
                    seen.declared = _declared_n(text)
                yield _parse_rows(path, text)
            return
        if seen is not None:
            seen.declared = header[0]
        size = -1 if chunk_bytes is None else 16 * max(1, chunk_bytes // 16)
        for data in _reads(fh, size, h):
            arr = np.frombuffer(data, INDEX_DTYPE, len(data) // 8)
            if arr.size % 2:
                raise EdgeListError(f"{path}: truncated edge pair")
            yield arr.reshape(-1, 2)


def _iter_edges(
    path: str | Path,
    n: int | None,
    chunk_bytes: int | None = None,
    seen: _Reading | None = None,
) -> Iterator[np.ndarray]:
    """The one edge-list reader: non-empty ``(k, 2)`` int64 chunks of a
    text or REDGE file, each from about ``chunk_bytes`` of it, with every
    id checked non-negative and below ``n``.

    ``seen`` records the pass (see :class:`_Reading`).  Given ``seen``
    and no ``n``, ids are checked against the ``n`` the bytes declare —
    known before the first row, since a whole-file read (``chunk_bytes``
    ``None``) is one block."""
    path = Path(path)
    for pairs in _raw_chunks(path, chunk_bytes, seen):
        if not pairs.size:
            continue
        if (lo := int(pairs.min())) < 0:
            raise EdgeListError(f"{path}: negative vertex id {lo}")
        hi = int(pairs.max())
        bound = n if n is not None or seen is None else _checked_n(path, seen.declared)
        if bound is not None and hi >= bound:
            raise EdgeListError(f"{path}: vertex id {hi} is not below n={bound}")
        if seen is not None:
            seen.top = max(seen.top, hi)
        yield pairs


def input_vertex_count(path: str | Path, chunk_bytes: int | None = None) -> int:
    """The one rule for an edge-list file's ``n``: the REDGE header, else
    the first parseable ``n=`` comment anywhere in a text file, else
    ``max id + 1`` (one extra streaming pass)."""
    path = Path(path)
    header = read_binary_header(path)
    if header is not None:
        n = header[0]
    else:
        declared = map(_declared_n, _text_blocks(path, chunk_bytes))
        n = next((d for d in declared if d is not None), None)
    if n is None:
        tops = (int(p.max()) for p in _iter_edges(path, None, chunk_bytes))
        n = max(tops, default=-1) + 1
    return _checked_n(path, n)


def input_key(path: str | Path) -> str:
    """The content key of an input file: the sha256 of
    :data:`READER_VERSION` and the file's bytes.  Equal keys mean equal
    bytes read by the same rules, hence the same graph."""
    h = _key_hash()
    with open(path, "rb") as fh:
        for _ in _reads(fh, 1 << 20, h):
            pass
    return h.hexdigest()


def _read_whole(path: str | Path, n: int | None, seen: _Reading) -> Graph:
    """The graph of one whole-file pass of the reader."""
    path = Path(path)
    chunks = [np.empty((0, 2), dtype=INDEX_DTYPE), *_iter_edges(path, n, None, seen)]
    n = n if n is not None else _checked_n(path, seen.n)
    return Graph.from_edges(n, np.concatenate(chunks))


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read an edge list: whitespace text (``#``/``%`` comments, blank
    lines allowed) or the binary REDGE format.

    ``n`` is the explicit argument, else the REDGE header or the first
    parseable ``n=`` comment anywhere in the file (the header
    :func:`write_edge_list` writes), else ``max id + 1``.  A row is its
    first two integer fields; the rest is ignored.  A row with fewer than
    two fields, a non-integer field, a negative id or an id ``>= n``
    raises :class:`EdgeListError`.  The file is read once.
    """
    return _read_whole(path, n, _Reading(hashed=False))


def read_keyed_edge_list(path: str | Path) -> tuple[Graph, str]:
    """:func:`read_edge_list` and the :func:`input_key` of the very bytes
    it parsed (one read), so the key names the returned graph even when
    the file changes on disk meanwhile."""
    seen = _Reading(hashed=True)
    return _read_whole(path, None, seen), seen.key
