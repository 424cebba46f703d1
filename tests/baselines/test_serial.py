"""Serial counters agree with the linear-algebra oracle and each other."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    count_triangles_list_based,
    count_triangles_map_based,
    count_triangles_node_iterator,
)
from repro.graph import Graph, triangle_count_linalg

ALGOS = [
    count_triangles_list_based,
    count_triangles_map_based,
    count_triangles_node_iterator,
]


@pytest.mark.parametrize("algo", ALGOS)
def test_tiny(algo, tiny_graph):
    assert algo(tiny_graph) == 3


@pytest.mark.parametrize("algo", ALGOS)
def test_er(algo, er_graph):
    assert algo(er_graph) == triangle_count_linalg(er_graph)


@pytest.mark.parametrize("algo", ALGOS)
def test_skewed(algo, rmat_small):
    assert algo(rmat_small) == triangle_count_linalg(rmat_small)


@pytest.mark.parametrize("algo", ALGOS)
def test_empty(algo):
    g = Graph.from_edges(4, np.empty((0, 2), dtype=np.int64))
    assert algo(g) == 0


@pytest.mark.parametrize("algo", ALGOS)
def test_complete_k5(algo):
    edges = np.array([(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert algo(Graph.from_edges(5, edges)) == 10


def test_degree_order_upper_is_dodg(er_graph):
    U = er_graph.degree_order_upper()
    assert U.nnz == er_graph.num_edges
    rows, cols = U.to_coo()
    assert np.all(rows < cols)
    # The relabeling sorts by degree: position i has degree <= position j
    # for i < j under the original degrees.
    order = np.argsort(er_graph.degrees, kind="stable")
    degs = er_graph.degrees[order]
    assert np.all(np.diff(degs) >= 0)


def test_degree_order_out_degrees_bounded(rmat_small):
    # The whole point of the ordering: hubs end up with small out-degree.
    U = rmat_small.degree_order_upper()
    out_deg = U.row_lengths()
    assert out_deg.max() <= rmat_small.degrees.max()
    assert int(out_deg.max()) ** 2 <= 2 * rmat_small.num_edges
    # Out-degree of the last (highest-degree) vertex is 0 by construction.
    assert out_deg[-1] == 0
