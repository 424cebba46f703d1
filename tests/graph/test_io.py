"""Graph IO round-trips."""

from __future__ import annotations

import numpy as np

from repro.graph import Graph
from repro.graph.io import (
    load_npz,
    read_edge_list,
    save_npz,
    write_edge_list,
)


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


def test_npz_roundtrip(tmp_path, rmat_small):
    path = tmp_path / "g.npz"
    save_npz(rmat_small, path)
    g2 = load_npz(path)
    assert g2.adj == rmat_small.adj


def test_npz_roundtrip_empty(tmp_path):
    g = Graph.from_edges(3, np.empty((0, 2), dtype=np.int64))
    path = tmp_path / "e.npz"
    save_npz(g, path)
    assert load_npz(path).n == 3
