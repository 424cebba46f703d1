"""Property-based graph statistics invariants."""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import count_triangles_node_iterator
from repro.graph import Graph, global_clustering, triangle_count_linalg, wedge_count
from repro.graph.convert import to_networkx
from repro.graph.stats import clustering_coefficients, triangles_per_vertex

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_n=35, max_m=100):
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(0, max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    arr = (
        np.array(edges, dtype=np.int64)
        if edges
        else np.empty((0, 2), dtype=np.int64)
    )
    return Graph.from_edges(n, arr)


@settings(**SETTINGS)
@given(g=graphs())
def test_per_vertex_counts_sum_to_three_t(g):
    assert int(triangles_per_vertex(g).sum()) == 3 * triangle_count_linalg(g)


@settings(**SETTINGS)
@given(g=graphs())
def test_triangles_bounded_by_wedges(g):
    assert 3 * triangle_count_linalg(g) <= wedge_count(g)


@settings(**SETTINGS)
@given(g=graphs())
def test_clustering_in_unit_interval(g):
    cc = clustering_coefficients(g)
    assert np.all(cc >= 0) and np.all(cc <= 1.0 + 1e-12)
    assert 0.0 <= global_clustering(g) <= 1.0 + 1e-12


@settings(**SETTINGS)
@given(g=graphs())
def test_adding_an_edge_never_decreases_triangles(g):
    t0 = triangle_count_linalg(g)
    # Add the lexicographically first missing edge, if any.
    for u in range(g.n):
        nbrs = set(g.neighbors(u).tolist())
        for v in range(u + 1, g.n):
            if v not in nbrs:
                edges = np.concatenate([g.edge_array(), [[u, v]]])
                g2 = Graph.from_edges(g.n, edges)
                assert triangle_count_linalg(g2) >= t0
                return


@settings(**SETTINGS)
@given(g=graphs(), seed=st.integers(0, 99))
def test_upper_lower_counts_agree(g, seed):
    """Counting from C[U] and from C[L] (transposed construction) agree.

    Both are formed over the raw labels, so they check the degree-ordered
    oracle against a formulation that shares none of its ordering."""
    U = g.upper_csr().to_scipy()
    L = g.lower_csr().to_scipy()
    cu = int((U @ U).multiply(U).sum())
    cl = int((L @ L).multiply(L).sum())
    assert cu == cl == triangle_count_linalg(g)


@st.composite
def shaped_graphs(draw, max_core=30):
    """A random graph with the shapes a degree order must get right.

    Up to three hubs joined to most of the core (the highest ranks), a
    clique whose members tie on degree, random edges, isolated vertices
    (the lowest ranks) — and the ids shuffled, so none of these sits at a
    predictable label.  Returns the graph and a second permutation.
    """
    core = draw(st.integers(0, max_core))
    isolated = draw(st.integers(0, 4))
    n = core + isolated
    edges = []
    if core:
        vertex = st.integers(0, core - 1)
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3 * core))
        for hub in draw(st.lists(vertex, max_size=3)):
            skip = draw(st.sets(vertex, max_size=core // 3))
            edges += [(hub, v) for v in range(core) if v not in skip]
        k = draw(st.integers(0, min(core, 6)))
        edges += [(u, v) for u in range(k) for v in range(u + 1, k)]
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    shuffle = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    g = Graph.from_edges(n, shuffle[arr])
    return g, np.array(draw(st.permutations(range(n))), dtype=np.int64)


# No max_examples: CI's long profile runs this one 2000 times.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=shaped_graphs())
@example(drawn=(Graph.from_edges(0, np.empty((0, 2))), np.empty(0, dtype=np.int64)))
@example(drawn=(Graph.from_edges(3, np.empty((0, 2))), np.array([2, 0, 1])))
def test_linalg_oracle_matches_node_iterator_networkx_and_any_relabelling(drawn):
    """The degree-ordered ``U.T @ U`` masked by ``U`` counts what the
    serial node iterator and networkx count, whatever the labels."""
    g, perm = drawn
    t = triangle_count_linalg(g)
    assert t == count_triangles_node_iterator(g)
    assert t == sum(nx.triangles(to_networkx(g)).values()) // 3
    assert triangle_count_linalg(g.relabel(perm)) == t
