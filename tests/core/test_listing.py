"""Triangle enumeration / census: exactness against independent oracles."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import TC2DConfig
from repro.core.listing import triangle_census_2d
from repro.graph import Graph, triangle_count_linalg
from repro.graph.convert import to_networkx
from repro.graph.stats import triangles_per_vertex


@pytest.mark.parametrize("p", [1, 4, 9, 16])
def test_census_count_matches_oracle(er_graph, p):
    census = triangle_census_2d(er_graph, p)
    assert census.count == triangle_count_linalg(er_graph)
    assert len(census.triangles) == census.count


def test_triangles_are_unique_and_real(er_graph):
    census = triangle_census_2d(er_graph, 9)
    tri = np.sort(census.triangles, axis=1)
    assert len(np.unique(tri, axis=0)) == census.count
    for a, b, c in tri[:50]:
        assert er_graph.has_edge(int(a), int(b))
        assert er_graph.has_edge(int(a), int(c))
        assert er_graph.has_edge(int(b), int(c))


def test_vertex_counts_match_stats_oracle(cluster_graph):
    census = triangle_census_2d(cluster_graph, 4)
    assert np.array_equal(
        census.vertex_triangles, triangles_per_vertex(cluster_graph)
    )


def test_edge_support_sums_to_three_t(ba_graph):
    census = triangle_census_2d(ba_graph, 4)
    assert int(census.edge_support.sum()) == 3 * census.count


def test_edge_support_matches_networkx():
    from repro.graph import erdos_renyi_gnm

    g = erdos_renyi_gnm(80, 400, seed=3)
    census = triangle_census_2d(g, 4)
    nxg = to_networkx(g)
    for (u, v), s in zip(census.edges, census.edge_support):
        assert len(set(nxg[int(u)]) & set(nxg[int(v)])) == s


def test_census_on_skewed_graph(rmat_small):
    census = triangle_census_2d(rmat_small, 9)
    assert census.count == triangle_count_linalg(rmat_small)


def test_census_empty_graph():
    g = Graph.from_edges(5, np.empty((0, 2), dtype=np.int64))
    census = triangle_census_2d(g, 4)
    assert census.count == 0
    assert census.triangles.shape == (0, 3)
    assert np.all(census.vertex_triangles == 0)


@pytest.mark.parametrize(
    "cfg",
    [
        TC2DConfig(doubly_sparse=False),
        TC2DConfig(modified_hashing=False),
        TC2DConfig(early_stop=False),
    ],
)
def test_census_config_invariance(tiny_graph, cfg):
    census = triangle_census_2d(tiny_graph, 4, cfg=cfg)
    assert census.count == 3
    tri = {tuple(sorted(t)) for t in census.triangles.tolist()}
    assert tri == {(0, 1, 2), (0, 2, 3), (2, 3, 4)}


def test_census_rejects_ijk():
    g = Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    with pytest.raises(ValueError):
        triangle_census_2d(g, 1, cfg=TC2DConfig(enumeration="ijk"))


def test_census_determinism(er_graph):
    a = triangle_census_2d(er_graph, 9)
    b = triangle_census_2d(er_graph, 9)
    assert np.array_equal(
        np.sort(a.triangles, axis=0), np.sort(b.triangles, axis=0)
    )


# -- the census is the count's run: same counters, same rotation ------------

CONFIG_TOGGLES = [
    {"doubly_sparse": False},
    {"modified_hashing": False},
    {"early_stop": False},
]


def _backends() -> tuple[str, ...]:
    from repro.core.kernels import compiled

    return ("row", "batch", "auto") + (("c",) if compiled.available() else ())


@pytest.mark.parametrize("p", [1, 4, 9, 16])
@pytest.mark.parametrize("name", ["er_graph", "rmat_small", "empty"])
def test_census_charges_what_the_count_charges(request, name, p):
    """Per toggle and backend the census reports the count's logical
    counters and virtual times, and every backend lists the same rows in
    the same order (``c`` lists through ``batch``)."""
    from repro.core import count_triangles_2d

    g = (
        Graph.from_edges(5, np.empty((0, 2), dtype=np.int64))
        if name == "empty"
        else request.getfixturevalue(name)
    )
    for toggle in CONFIG_TOGGLES:
        rows = {}
        for backend in _backends():
            cfg = TC2DConfig(kernel_backend=backend, **toggle)
            census = triangle_census_2d(g, p, cfg=cfg)
            res = count_triangles_2d(g, p, cfg=cfg)
            got = census.result
            assert census.count == res.count == got.count
            assert got.counters_ppt == res.counters_ppt, (toggle, backend)
            assert got.counters_tct == res.counters_tct, (toggle, backend)
            assert (got.ppt_time, got.tct_time) == (res.ppt_time, res.tct_time)
            rows[backend] = census.triangles
        for backend, tri in rows.items():
            assert np.array_equal(tri, rows["row"]), (toggle, backend)


def test_census_records_the_rotation(er_graph):
    res = triangle_census_2d(er_graph, 9).result
    assert res.algorithm == "census"
    assert sorted({s.shift for s in res.shift_records}) == [0, 1, 2]
    assert len(res.shift_records) == 9 * 3
    assert sum(res.extras["kernel_backend_uses"].values()) == 9 * 3


def _census_under(graph, spec):
    from repro.core.listing import census_rank_program
    from repro.core.preprocess import partition_1d
    from repro.resilience import FaultPlan
    from repro.resilience.faults import FaultInjector
    from repro.simmpi import Engine

    inj = FaultInjector(FaultPlan([spec], seed=0))
    Engine(9, fault_injector=inj).run(
        census_rank_program, partition_1d(graph, 9), TC2DConfig()
    )


def test_census_crash_at_a_shift_fails_the_rank(er_graph):
    from repro.resilience import FaultSpec
    from repro.simmpi.errors import RankFailedError

    with pytest.raises(RankFailedError) as info:
        _census_under(er_graph, FaultSpec(kind="crash", rank=4, site="shift:1"))
    assert info.value.rank == 4


def test_census_corrupted_shift_fails_its_crc(er_graph):
    from repro.resilience import FaultSpec
    from repro.simmpi.errors import BlobChecksumError, RankFailedError

    with pytest.raises(RankFailedError) as info:
        _census_under(er_graph, FaultSpec(kind="corrupt", rank=1, tag=120))
    assert isinstance(info.value.original, BlobChecksumError)
