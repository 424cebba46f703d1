"""Graph IO round-trips, and the pin of what files read as."""

from __future__ import annotations

import struct

import pytest

from repro.graph.io import (
    BINARY_EDGE_MAGIC,
    READER_VERSION,
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
