"""Graph serialization: whitespace edge lists (text or the binary REDGE
format) and a compact NumPy binary format.

The paper's pipeline converts every input to an undirected simple graph
before counting; the readers here do the same via
:meth:`repro.graph.csr.Graph.from_edges`.

Edge lists have exactly one reader, :func:`_iter_edges`: the in-memory
:func:`read_edge_list` concatenates its chunks and the out-of-core
pipeline (:mod:`repro.graph.external`) streams them, so both accept the
same files and fail on the same ones with :class:`EdgeListError`.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Any, BinaryIO, Iterator

import numpy as np

from repro.graph.csr import INDEX_DTYPE, Graph

#: Magic prefix of the binary edge-list format (fixed 8 bytes), followed
#: by two int64 fields ``n`` and ``m`` and then ``m`` int64 pairs.
BINARY_EDGE_MAGIC = b"REDGE01\n"
_BINARY_HEADER_BYTES = len(BINARY_EDGE_MAGIC) + 16

#: A line holding data: something other than whitespace before any
#: comment character (``%`` has been folded into ``#`` by then).
_DATA_LINE = re.compile(rb"^[ \t\f\v\r]*[^#\s]", re.M)


class EdgeListError(ValueError):
    """An edge-list file breaks the reader's rules (see
    :func:`read_edge_list`); the message names the file."""


def write_edge_list(g: Graph, path: str | Path, comments: str | None = None) -> None:
    """Write one ``u v`` line per undirected edge (u < v), 0-based ids."""
    path = Path(path)
    edges = g.edge_array()
    with path.open("w") as fh:
        fh.write(f"# repro edge list: n={g.n} m={g.num_edges}\n")
        if comments:
            for line in comments.splitlines():
                fh.write(f"# {line}\n")
        np.savetxt(fh, edges, fmt="%d")


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


def read_binary_header(path: str | Path) -> tuple[int, int] | None:
    """``(n, m)`` if ``path`` is a binary edge file, else ``None``."""
    with open(path, "rb") as fh:
        if fh.read(len(BINARY_EDGE_MAGIC)) != BINARY_EDGE_MAGIC:
            return None
        header = np.fromfile(fh, dtype=np.int64, count=2)
    if len(header) != 2:
        raise EdgeListError(f"{path}: truncated binary edge header")
    return int(header[0]), int(header[1])


def _text_blocks(path: Path, chunk_bytes: int | None) -> Iterator[bytes]:
    """Whole-line blocks of about ``chunk_bytes`` of a text file (the
    whole file when ``None``)."""
    rest = b""
    with open(path, "rb") as fh:
        while data := fh.read(-1 if chunk_bytes is None else chunk_bytes):
            data = rest + data
            cut = data.rfind(b"\n") + 1
            rest = data[cut:]
            yield data[:cut]
    yield rest


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


def _raw_chunks(path: Path, chunk_bytes: int | None) -> Iterator[np.ndarray]:
    """Unchecked ``(k, 2)`` chunks of either format."""
    if read_binary_header(path) is None:
        for text in _text_blocks(path, chunk_bytes):
            yield _parse_rows(path, text)
        return
    count = -1 if chunk_bytes is None else max(2, chunk_bytes // 16 * 2)
    with open(path, "rb") as fh:
        fh.seek(_BINARY_HEADER_BYTES)
        while (arr := np.fromfile(fh, INDEX_DTYPE, count=count)).size:
            if arr.size % 2:
                raise EdgeListError(f"{path}: truncated edge pair")
            yield arr.reshape(-1, 2)


def _iter_edges(
    path: str | Path, n: int | None, chunk_bytes: int | None = None
) -> Iterator[np.ndarray]:
    """The one edge-list reader: non-empty ``(k, 2)`` int64 chunks of a
    text or REDGE file, each from about ``chunk_bytes`` of it, with every
    id checked non-negative and (given ``n``) below ``n``."""
    path = Path(path)
    for pairs in _raw_chunks(path, chunk_bytes):
        if not pairs.size:
            continue
        if (lo := int(pairs.min())) < 0:
            raise EdgeListError(f"{path}: negative vertex id {lo}")
        if n is not None and (hi := int(pairs.max())) >= n:
            raise EdgeListError(f"{path}: vertex id {hi} is not below n={n}")
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
    if n < 0:
        raise EdgeListError(f"{path}: declares a negative vertex count n={n}")
    return n


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read an edge list: whitespace text (``#``/``%`` comments, blank
    lines allowed) or the binary REDGE format.

    ``n`` is the explicit argument, else the REDGE header or the first
    parseable ``n=`` comment anywhere in the file (the header
    :func:`write_edge_list` writes), else ``max id + 1``.  A row is its
    first two integer fields; the rest is ignored.  A row with fewer than
    two fields, a non-integer field, a negative id or an id ``>= n``
    raises :class:`EdgeListError`.
    """
    if n is None:
        n = input_vertex_count(path)
    chunks = [np.empty((0, 2), dtype=INDEX_DTYPE), *_iter_edges(path, n)]
    return Graph.from_edges(n, np.concatenate(chunks))


def save_npz(g: Graph, file: str | Path | BinaryIO) -> None:
    """Save in the compact binary format (CSR arrays in an ``.npz``) to a
    path or an open binary file."""
    np.savez_compressed(file, n=g.n, indptr=g.adj.indptr, indices=g.adj.indices)


def load_npz(path: str | Path) -> Graph:
    """Load a graph previously written by :func:`save_npz`."""
    from repro.graph.csr import CSR

    with np.load(Path(path)) as z:
        n = int(z["n"])
        return Graph(CSR(n, z["indptr"], z["indices"]))
