"""Generator determinism and family-level structural properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    barabasi_albert,
    configuration_model,
    erdos_renyi_gnm,
    global_clustering,
    rmat_edges,
    rmat_graph,
)
from repro.graph.generators import powerlaw_cluster_fast


class TestRmat:
    def test_edge_count_and_range(self):
        e = rmat_edges(8, edge_factor=4, seed=1)
        assert e.shape == (4 << 8, 2)
        assert e.min() >= 0 and e.max() < (1 << 8)

    def test_deterministic(self):
        assert np.array_equal(rmat_edges(8, seed=5), rmat_edges(8, seed=5))
        assert not np.array_equal(rmat_edges(8, seed=5), rmat_edges(8, seed=6))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            rmat_edges(6, a=0.5, b=0.5, c=0.5, d=0.5)

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            rmat_edges(0)

    def test_graph_is_simple(self):
        g = rmat_graph(10, seed=2)
        e = g.edge_array()
        assert np.all(e[:, 0] < e[:, 1])
        keys = set(map(tuple, e))
        assert len(keys) == len(e)

    def test_degree_skew(self):
        # RMAT graphs are heavy-tailed: max degree far above the mean.
        g = rmat_graph(12, seed=0)
        assert g.degrees.max() > 10 * g.degrees.mean()

    def test_shuffle_decorrelates_ids_from_degrees(self):
        plain = rmat_graph(10, seed=4, shuffle_labels=False)
        mixed = rmat_graph(10, seed=4, shuffle_labels=True)
        assert plain.num_edges == mixed.num_edges
        # Unshuffled RMAT concentrates degree mass on low ids.
        half = plain.n // 2
        assert plain.degrees[:half].sum() > plain.degrees[half:].sum()


class TestErdosRenyi:
    def test_size(self):
        g = erdos_renyi_gnm(200, 1000, seed=1)
        assert g.n == 200
        assert 0 < g.num_edges <= 1000

    def test_deterministic(self):
        a = erdos_renyi_gnm(100, 300, seed=2)
        b = erdos_renyi_gnm(100, 300, seed=2)
        assert a.adj == b.adj


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = barabasi_albert(200, 3, seed=1)
        # Each of the n-m new vertices adds at most m edges.
        assert g.num_edges <= 3 * 200
        assert g.num_edges >= 2 * (200 - 3)

    def test_requires_n_above_m(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 5)

    def test_heavy_tail(self):
        g = barabasi_albert(500, 3, seed=7)
        assert g.degrees.max() > 5 * g.degrees.mean()


class TestPowerlawCluster:
    def test_clustering_exceeds_config_model(self):
        hk = powerlaw_cluster_fast(800, 6, 0.6, seed=3)
        cm = configuration_model(800, gamma=2.4, d_min=6, seed=3)
        assert global_clustering(hk) > 3 * global_clustering(cm)

    def test_triad_probability_raises_clustering(self):
        lo = powerlaw_cluster_fast(600, 5, 0.05, seed=2)
        hi = powerlaw_cluster_fast(600, 5, 0.9, seed=2)
        assert global_clustering(hi) > global_clustering(lo)

    def test_single_link_attachment_builds_a_tree(self):
        # m=1 has no seed edge to sample preferentially from.
        g = powerlaw_cluster_fast(40, 1, 0.5, seed=4)
        assert g.n == 40 and g.num_edges == 39

    def test_param_validation(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_fast(50, 3, 1.5)
        with pytest.raises(ValueError):
            powerlaw_cluster_fast(3, 5, 0.5)


class TestConfigurationModel:
    def test_degree_bounds(self):
        g = configuration_model(1000, gamma=2.5, d_min=2, d_max=30, seed=1)
        # Simplification can only reduce degrees below the sampled ones.
        assert g.degrees.max() <= 30

    def test_near_zero_clustering(self):
        g = configuration_model(5000, gamma=2.4, d_min=3, seed=5)
        assert global_clustering(g) < 0.02

    def test_deterministic(self):
        a = configuration_model(300, seed=9)
        b = configuration_model(300, seed=9)
        assert a.adj == b.adj


class TestWattsStrogatz:
    def test_matches_networkx_at_zero_rewire(self):
        import networkx as nx

        from repro.graph import triangle_count_linalg
        from repro.graph.generators import watts_strogatz

        ours = watts_strogatz(60, 6, 0.0)
        theirs = nx.watts_strogatz_graph(60, 6, 0.0)
        assert (
            triangle_count_linalg(ours)
            == sum(nx.triangles(theirs).values()) // 3
        )

    def test_rewiring_reduces_clustering(self):
        from repro.graph import global_clustering
        from repro.graph.generators import watts_strogatz

        lattice = watts_strogatz(300, 8, 0.0, seed=1)
        rewired = watts_strogatz(300, 8, 0.6, seed=1)
        assert global_clustering(rewired) < global_clustering(lattice)
        assert lattice.num_edges == 300 * 4

    def test_validation(self):
        import pytest

        from repro.graph.generators import watts_strogatz

        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(ValueError):
            watts_strogatz(10, 4, 1.5)
        with pytest.raises(ValueError):
            watts_strogatz(4, 4, 0.1)


class TestLatticeAndClique:
    def test_grid_diagonal_closed_form(self):
        from repro.graph import triangle_count_linalg
        from repro.graph.generators import grid_2d

        g = grid_2d(6, 9, diagonal=True)
        assert triangle_count_linalg(g) == 2 * 5 * 8

    def test_plain_grid_triangle_free(self):
        from repro.graph import triangle_count_linalg
        from repro.graph.generators import grid_2d

        assert triangle_count_linalg(grid_2d(7, 7)) == 0

    def test_complete_graph_count(self):
        from repro.graph import triangle_count_linalg
        from repro.graph.generators import complete_graph

        g = complete_graph(9)
        assert g.num_edges == 36
        assert triangle_count_linalg(g) == 84  # C(9, 3)

    def test_validation(self):
        import pytest

        from repro.graph.generators import complete_graph, grid_2d

        with pytest.raises(ValueError):
            grid_2d(0, 3)
        with pytest.raises(ValueError):
            complete_graph(0)


def test_new_generators_work_with_tc2d():
    from repro.core import count_triangles_2d
    from repro.graph import triangle_count_linalg
    from repro.graph.generators import grid_2d, watts_strogatz

    for g in (watts_strogatz(120, 6, 0.2, seed=3), grid_2d(8, 8, diagonal=True)):
        assert count_triangles_2d(g, 9).count == triangle_count_linalg(g)
