"""Graph IO round-trips, and the pin of what files read as."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, rmat_graph
from repro.graph.io import (
    BINARY_EDGE_MAGIC,
    READER_VERSION,
    WRITE_CHUNK_ROWS,
    input_key,
    read_edge_list,
    read_keyed_edge_list,
    write_edge_list,
)
from repro.graph.store import graph_digest


def test_edge_list_roundtrip(tmp_path, er_graph):
    path = tmp_path / "g.txt"
    write_edge_list(er_graph, path)
    g2 = read_edge_list(path)
    assert g2.adj == er_graph.adj


def test_edge_list_header_preserves_isolated_vertices(tmp_path, tiny_graph):
    path = tmp_path / "g.txt"
    write_edge_list(tiny_graph, path)
    g2 = read_edge_list(path)
    assert g2.n == 6  # vertex 5 isolated but counted via header


def test_edge_list_comments(tmp_path, tiny_graph):
    path = tmp_path / "g.txt"
    write_edge_list(tiny_graph, path, comments="made by a test\nsecond line")
    text = path.read_text()
    assert "# made by a test" in text
    assert read_edge_list(path).num_edges == tiny_graph.num_edges


def test_edge_list_explicit_n(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    g = read_edge_list(path, n=10)
    assert g.n == 10 and g.num_edges == 2


def test_edge_list_empty_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nothing\n")
    g = read_edge_list(path, n=3)
    assert g.n == 3 and g.num_edges == 0


# -- the reader-version pin -----------------------------------------------------

#: The ``READER_VERSION`` the digests below were taken under.
PINNED_READER_VERSION = 1

#: Files ``repro.resilience.chaos.write_messy_file`` wrote (text or REDGE),
#: and the ``graph_digest`` of the graph each reads as.
PINNED_FILES = {
    "tabs-third-fields-trailing-comment-late-n": (
        b"0 1\n1\t2\n2 0\n3 4 70\n4 5 95\n1 3\n5 5\n2 1  % trailing\n# n=8\n",
        "954d7ec27b5c7cfce731c925bae627a3ec961811b7491db7c6201033a80a7196",
    ),
    "comment-line-middle-n": (
        b"0 1\n1 2\n2 0\n3 4\n% n=11\n# a comment\n4 5\n1\t3\n5 5\n2 1\n",
        "eeb4bf5920e6200019c5fa311c58d3870290af40ae4eb81e3ba2bdc64379f9aa",
    ),
    "implied-n": (
        b"0 1\n1 2\n2 0 67\n3 4\n4 5\n% a comment\n1\t3\n5 5\n2 1\n",
        "37926fef82a7114635ef68e58c80f05956f6e94c429b7525a71643874c3b331a",
    ),
    "redge": (
        BINARY_EDGE_MAGIC
        + struct.pack("<18q", 8, 8, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 1, 3, 5, 5, 2, 1),
        "954d7ec27b5c7cfce731c925bae627a3ec961811b7491db7c6201033a80a7196",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_reader_version_pins_what_files_read_as(name, tmp_path):
    """The store's input records map a file's bytes to a graph under a
    key that covers ``READER_VERSION``: a reader that reads the same
    bytes as another graph must bump it, or warm counts would serve the
    old reading's graph."""
    assert READER_VERSION == PINNED_READER_VERSION, (
        "READER_VERSION moved: re-pin PINNED_FILES' digests under it and "
        "set PINNED_READER_VERSION"
    )
    data, want = PINNED_FILES[name]
    path = tmp_path / "pinned.edges"
    path.write_bytes(data)
    graph, key = read_keyed_edge_list(path)
    assert graph_digest(graph) == want, (
        f"{name} reads as another graph now: bump READER_VERSION in "
        "repro/graph/io.py so stored input records miss, then re-pin"
    )
    assert graph_digest(read_edge_list(path)) == want
    assert key == input_key(path)


# -- the writer's bytes ---------------------------------------------------------

#: ``input_key`` of ``write_edge_list(rmat_graph(12, seed=1), path)`` (the
#: file CI's store-smoke job counts), taken before the writer rendered rows
#: a chunk at a time.
PINNED_WRITTEN_KEY = "e39b1afabd50270cb6e85613f7e525788f2fabff7ebd5060ad2e501c71c22965"


def _reference_bytes(g, comments=None) -> bytes:
    """What ``write_edge_list`` must write, rendered one row at a time."""
    lines = [f"# repro edge list: n={g.n} m={g.num_edges}\n"]
    lines += [f"# {line}\n" for line in (comments or "").splitlines()]
    lines += [f"{u} {v}\n" for u, v in g.edge_array().tolist()]
    return "".join(lines).encode()


def test_written_file_keeps_its_input_key(tmp_path):
    """Input records key files by their bytes: a writer that moves one
    byte turns every recorded input into a silent store miss."""
    path = tmp_path / "edges.txt"
    write_edge_list(rmat_graph(12, seed=1), path)
    assert input_key(path) == PINNED_WRITTEN_KEY, (
        "write_edge_list writes other bytes than it did: every store input "
        "record of a written file would miss; keep the bytes or re-pin knowingly"
    )


class _EdgeSet:
    """A stand-in for a :class:`Graph` too wide to build (ids up to 2**40):
    the three things ``write_edge_list`` reads."""

    def __init__(self, n: int, edges: np.ndarray) -> None:
        self.n, self.num_edges, self._edges = n, len(edges), edges

    def edge_array(self) -> np.ndarray:
        return self._edges


@st.composite
def _written_graphs(draw):
    """A graph (or, past 2**20 ids, an ``_EdgeSet``) with ids below a drawn
    ceiling, isolated vertices above it, and sometimes one row either side
    of a whole number of write chunks."""
    top = draw(st.sampled_from([1, 2, 12, 1 << 20, 1 << 40]))
    near_chunk = top >= 1 << 20 and draw(st.integers(0, 7)) == 0
    m = (draw(st.sampled_from([-1, 0, 1, WRITE_CHUNK_ROWS + 1])) + WRITE_CHUNK_ROWS
         if near_chunk else draw(st.integers(0, 40)))
    m = min(m, top * (top - 1) // 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.empty((0, 2), dtype=np.int64)
    while len(edges) < m:
        pairs = np.sort(rng.integers(0, top, size=(2 * m, 2)), axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        edges = np.concatenate([edges, pairs])
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        edges = edges[np.diff(edges, axis=0, prepend=[[-1, -1]]).any(axis=1)]
    edges = edges[np.sort(rng.choice(len(edges), size=m, replace=False))]
    n = top + draw(st.integers(0, 3))
    return Graph.from_edges(n, edges) if top <= 1 << 20 else _EdgeSet(n, edges)


_COMMENTS = st.none() | st.text(
    st.characters(min_codepoint=9, max_codepoint=126), max_size=30
)


@settings(deadline=None)
@given(g=_written_graphs(), comments=_COMMENTS)
def test_writer_matches_a_row_at_a_time_rendering(g, comments, tmp_path_factory):
    """The header, the comment lines, then ``u v`` per ``edge_array`` row:
    on the empty graph, isolated vertices, ids up to 2**40 and sizes either
    side of a chunk; and a built graph reads back as itself."""
    path = tmp_path_factory.mktemp("written") / "g.txt"
    write_edge_list(g, path, comments=comments)
    assert path.read_bytes() == _reference_bytes(g, comments)
    if isinstance(g, Graph):
        back, key = read_keyed_edge_list(path)
        assert graph_digest(back) == graph_digest(g)
        assert key == input_key(path)


def test_writer_holds_one_chunk_of_rows_at_a_time(tmp_path, monkeypatch):
    """Each write gets at most ``WRITE_CHUNK_ROWS`` lines, so a graph of
    10**8 edges is never rendered (or tupled) whole."""
    m = 2 * WRITE_CHUNK_ROWS + 5
    g = Graph.from_edges(m + 1, np.stack([np.arange(m), np.arange(1, m + 1)], 1))
    lines_per_write = []
    real_open = Path.open

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            lines_per_write.append(text.count("\n"))
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(Path, "open", lambda self, *a, **k: Recording(real_open(self, *a, **k)))
    write_edge_list(g, tmp_path / "g.txt")
    monkeypatch.undo()
    assert max(lines_per_write) <= WRITE_CHUNK_ROWS
    assert sum(lines_per_write) == m + 1
    assert (tmp_path / "g.txt").read_bytes() == _reference_bytes(g)
