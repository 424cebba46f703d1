"""Cover-edge algorithm: exactness, parity with tc2d, instrumentation.

The contract under test: ``count_triangles_coveredge`` is a drop-in
second algorithm — bit-identical counts to ``count_triangles_2d`` and
the linear-algebra oracle on every graph shape, same span/counter/
cache/executor machinery, plus the cover-edge decomposition record in
``extras["coveredge"]``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TC2DConfig, count_triangles_2d, count_triangles_coveredge
from repro.graph import Graph, triangle_count_linalg
from repro.graph.stats import bfs_levels, cover_edge_stats

GRIDS = [1, 4, 9, 16]


@pytest.mark.parametrize("p", GRIDS)
def test_exact_on_er(er_graph, p):
    want = triangle_count_linalg(er_graph)
    assert count_triangles_coveredge(er_graph, p).count == want


@pytest.mark.parametrize("p", [1, 9, 16])
def test_exact_on_skewed_rmat(rmat_small, p):
    want = triangle_count_linalg(rmat_small)
    assert count_triangles_coveredge(rmat_small, p).count == want


@pytest.mark.parametrize("p", [4, 9])
def test_exact_on_clustered(cluster_graph, p):
    want = triangle_count_linalg(cluster_graph)
    assert count_triangles_coveredge(cluster_graph, p).count == want


@pytest.mark.parametrize("p", [4, 9])
def test_exact_on_preferential(ba_graph, p):
    want = triangle_count_linalg(ba_graph)
    assert count_triangles_coveredge(ba_graph, p).count == want


def test_exact_on_tiny(tiny_graph):
    assert count_triangles_coveredge(tiny_graph, 4).count == 3


def test_empty_graph():
    g = Graph.from_edges(8, np.empty((0, 2), dtype=np.int64))
    assert count_triangles_coveredge(g, 4).count == 0


def test_triangle_free_cycle():
    edges = np.array([[i, (i + 1) % 10] for i in range(10)])
    g = Graph.from_edges(10, edges)
    assert count_triangles_coveredge(g, 9).count == 0


def test_complete_graph():
    n = 12
    edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    g = Graph.from_edges(n, edges)
    res = count_triangles_coveredge(g, 4)
    assert res.count == n * (n - 1) * (n - 2) // 6


def test_bipartite_has_no_horizontal_edges():
    # K_{6,6}: all edges cross BFS levels, so the cover set is empty and
    # both passes trivially agree on zero triangles.
    edges = np.array([(i, 6 + j) for i in range(6) for j in range(6)])
    g = Graph.from_edges(12, edges)
    res = count_triangles_coveredge(g, 4)
    assert res.count == 0
    assert res.extras["coveredge"]["cover_edges"] == 0
    assert res.extras["coveredge"]["horizontal_triangles"] == 0


def test_disconnected_components():
    g = Graph.from_edges(
        7, np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [5, 6]])
    )
    assert count_triangles_coveredge(g, 9).count == 2


def test_non_square_rank_count_rejected(tiny_graph):
    with pytest.raises(ValueError):
        count_triangles_coveredge(tiny_graph, 10)


@pytest.mark.parametrize("p", [1, 9])
def test_parity_with_tc2d(er_graph, p):
    assert (
        count_triangles_coveredge(er_graph, p).count
        == count_triangles_2d(er_graph, p).count
    )


@pytest.mark.parametrize("name,cfg", list(TC2DConfig.ablations().items()))
def test_every_ablation_config_is_exact(er_graph, name, cfg):
    want = triangle_count_linalg(er_graph)
    res = count_triangles_coveredge(er_graph, 9, cfg=cfg)
    assert res.count == want


def test_count_invariant_under_relabeling(er_graph):
    rng = np.random.default_rng(5)
    perm = rng.permutation(er_graph.n)
    relabeled = er_graph.relabel(perm)
    a = count_triangles_coveredge(er_graph, 9).count
    b = count_triangles_coveredge(relabeled, 9).count
    assert a == b


def test_determinism(er_graph):
    r1 = count_triangles_coveredge(er_graph, 9)
    r2 = count_triangles_coveredge(er_graph, 9)
    assert r1.count == r2.count
    assert r1.ppt_time == r2.ppt_time
    assert r1.tct_time == r2.tct_time
    assert r1.counters_tct == r2.counters_tct
    assert r1.extras["coveredge"] == r2.extras["coveredge"]


def test_decomposition_record(er_graph):
    """T = cover_sum - 2*T_H must hold, and at p=1 the distributed BFS
    reproduces the sequential oracle's horizontal-edge count exactly
    (with p>1 the initial cyclic relabeling may pick different BFS
    roots per component, changing the cover set but never the count)."""
    res = count_triangles_coveredge(er_graph, 1)
    ce = res.extras["coveredge"]
    assert res.count == ce["cover_sum"] - 2 * ce["horizontal_triangles"]
    oracle = cover_edge_stats(er_graph, bfs_levels(er_graph))
    assert ce["cover_edges"] == oracle["horizontal_edges"]
    assert ce["bfs_rounds"] is not None and ce["bfs_rounds"] >= 1


def test_decomposition_identity_at_larger_grids(er_graph):
    for p in (4, 16):
        res = count_triangles_coveredge(er_graph, p)
        ce = res.extras["coveredge"]
        assert res.count == ce["cover_sum"] - 2 * ce["horizontal_triangles"]


def test_phase_times_positive(er_graph):
    res = count_triangles_coveredge(er_graph, 16)
    assert res.ppt_time > 0
    assert res.tct_time > 0
    assert res.overall_time == pytest.approx(res.ppt_time + res.tct_time)


def test_without_degree_reorder(er_graph):
    cfg = TC2DConfig(degree_reorder=False)
    res = count_triangles_coveredge(er_graph, 9, cfg=cfg)
    assert res.count == triangle_count_linalg(er_graph)


def test_without_initial_cyclic(er_graph):
    cfg = TC2DConfig(initial_cyclic=False)
    res = count_triangles_coveredge(er_graph, 9, cfg=cfg)
    assert res.count == triangle_count_linalg(er_graph)


# -- registry sweep ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_registry():
    """The full dataset registry at 1/16 scale (keeps the sweep quick
    while still exercising every generator family)."""
    import os

    from repro.graph.datasets import REGISTRY, clear_cache, load_dataset

    old = os.environ.get("REPRO_DATASET_SCALE")
    os.environ["REPRO_DATASET_SCALE"] = "0.0625"
    clear_cache()
    graphs = {name: load_dataset(name, seed=0) for name in REGISTRY}
    yield graphs
    if old is None:
        os.environ.pop("REPRO_DATASET_SCALE", None)
    else:
        os.environ["REPRO_DATASET_SCALE"] = old
    clear_cache()


@pytest.mark.parametrize("p", [4, 9])
def test_registry_parity(small_registry, p):
    """Every registry graph, two grid shapes: coveredge == tc2d ==
    oracle, and the instrumentation (spans) is present for both."""
    for name, g in small_registry.items():
        want = triangle_count_linalg(g)
        ce = count_triangles_coveredge(g, p, trace=True, dataset=name)
        td = count_triangles_2d(g, p, trace=True, dataset=name)
        assert ce.count == want, name
        assert td.count == want, name
        for res in (ce, td):
            phases = {
                s.name
                for s in res.extras["run"].tracer.spans
                if s.cat == "phase"
            }
            assert {"ppt", "tct"} <= phases, (name, phases)


def test_trace_export_parity(er_graph, tmp_path):
    """Both algorithms export valid, deterministic Perfetto traces
    through the same writer."""
    import json

    from repro.instrument import write_chrome_trace

    paths = []
    for i in range(2):
        res = count_triangles_coveredge(er_graph, 9, trace=True)
        path = tmp_path / f"ce{i}.json"
        write_chrome_trace(path, res.extras["run"])
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    names = {e.get("name") for e in doc["traceEvents"]}
    assert "tct" in names and "ppt" in names


# -- cache (content-addressed store) -----------------------------------------


def test_cold_then_warm_cache(er_graph, tmp_path):
    from repro.graph.store import GraphStore

    store = GraphStore(tmp_path / "store")
    cold = count_triangles_coveredge(er_graph, 9, cache=store)
    assert cold.extras["cache"]["hit"] is False
    assert cold.extras["cache"]["stored"] is True
    warm = count_triangles_coveredge(er_graph, 9, cache=store)
    assert warm.extras["cache"]["hit"] is True
    assert warm.count == cold.count
    assert warm.counters_tct == cold.counters_tct
    assert warm.counters_ppt == cold.counters_ppt
    # warm ppt is a recorded replay of the cold run's preprocessing
    assert warm.ppt_time == cold.ppt_time


def test_cache_distinct_from_tc2d_entry(er_graph, tmp_path):
    """The store key includes the algorithm: a tc2d-warm store must not
    serve (wrong-shaped) blocks to a coveredge run."""
    from repro.graph.store import GraphStore

    store = GraphStore(tmp_path / "store")
    t = count_triangles_2d(er_graph, 9, cache=store)
    c = count_triangles_coveredge(er_graph, 9, cache=store)
    assert c.extras["cache"]["hit"] is False
    assert c.extras["cache"]["digest"] != t.extras["cache"]["digest"]
    assert c.count == t.count


# -- parallel executor -------------------------------------------------------


def test_parallel_executor_bit_identical(er_graph):
    seq = count_triangles_coveredge(er_graph, 4)
    par = count_triangles_coveredge(
        er_graph, 4, cfg=TC2DConfig(executor="parallel", workers=2)
    )
    assert par.extras["executor"] == "parallel"
    assert par.count == seq.count
    assert par.ppt_time == seq.ppt_time
    assert par.tct_time == seq.tct_time
    assert par.counters_tct == seq.counters_tct
