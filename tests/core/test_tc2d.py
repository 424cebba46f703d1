"""End-to-end 2D algorithm: exactness, invariants, instrumentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import Graph, triangle_count_linalg
from repro.simmpi import MachineModel, Tracer

GRIDS = [1, 4, 9, 16, 25]


@pytest.fixture(scope="module")
def expected(request):
    return None


@pytest.mark.parametrize("p", GRIDS)
def test_exact_on_er(er_graph, p):
    want = triangle_count_linalg(er_graph)
    assert count_triangles_2d(er_graph, p).count == want


@pytest.mark.parametrize("p", [1, 9, 16])
def test_exact_on_skewed_rmat(rmat_small, p):
    want = triangle_count_linalg(rmat_small)
    assert count_triangles_2d(rmat_small, p).count == want


@pytest.mark.parametrize("p", [4, 9])
def test_exact_on_clustered(cluster_graph, p):
    want = triangle_count_linalg(cluster_graph)
    assert count_triangles_2d(cluster_graph, p).count == want


def test_exact_on_tiny(tiny_graph):
    assert count_triangles_2d(tiny_graph, 4).count == 3


def test_non_square_rank_count_rejected(tiny_graph):
    with pytest.raises(ValueError):
        count_triangles_2d(tiny_graph, 10)


def test_empty_graph():
    g = Graph.from_edges(8, np.empty((0, 2), dtype=np.int64))
    assert count_triangles_2d(g, 4).count == 0


def test_triangle_free_graph():
    edges = np.array([[i, (i + 1) % 10] for i in range(10)])
    g = Graph.from_edges(10, edges)
    assert count_triangles_2d(g, 9).count == 0


def test_complete_graph():
    n = 12
    edges = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    g = Graph.from_edges(n, edges)
    res = count_triangles_2d(g, 4)
    assert res.count == n * (n - 1) * (n - 2) // 6


@pytest.mark.parametrize("name,cfg", list(TC2DConfig.ablations().items()))
def test_every_ablation_config_is_exact(er_graph, name, cfg):
    want = triangle_count_linalg(er_graph)
    assert count_triangles_2d(er_graph, 9, cfg=cfg).count == want


def test_count_invariant_under_relabeling(er_graph):
    rng = np.random.default_rng(5)
    perm = rng.permutation(er_graph.n)
    relabeled = er_graph.relabel(perm)
    a = count_triangles_2d(er_graph, 9).count
    b = count_triangles_2d(relabeled, 9).count
    assert a == b


def test_determinism(er_graph):
    r1 = count_triangles_2d(er_graph, 9)
    r2 = count_triangles_2d(er_graph, 9)
    assert r1.count == r2.count
    assert r1.ppt_time == r2.ppt_time
    assert r1.tct_time == r2.tct_time
    assert r1.counters_tct == r2.counters_tct


def test_run_is_kept_only_when_the_tracer_records(er_graph):
    """A Tracer instance keeps the RunResult only if it is enabled."""
    quiet = count_triangles_2d(er_graph, 4, trace=Tracer(enabled=False))
    assert "run" not in quiet.extras
    traced = count_triangles_2d(er_graph, 4, trace=Tracer())
    assert traced.extras["run"].tracer.spans
    assert (quiet.count, quiet.tct_time) == (traced.count, traced.tct_time)


def test_phase_times_positive(er_graph):
    res = count_triangles_2d(er_graph, 16)
    assert res.ppt_time > 0
    assert res.tct_time > 0
    assert res.overall_time == pytest.approx(res.ppt_time + res.tct_time)


def test_shift_records_cover_grid(er_graph):
    res = count_triangles_2d(er_graph, 16)
    shifts = {(r.shift, r.rank) for r in res.shift_records}
    assert shifts == {(z, r) for z in range(4) for r in range(16)}


def test_task_counter_grows_with_grid(er_graph):
    """Table 4's redundant-work effect: the per-shift task visits sum to
    roughly m per shift, so totals grow with sqrt(p)."""
    t9 = count_triangles_2d(er_graph, 9).tasks_total
    t16 = count_triangles_2d(er_graph, 16).tasks_total
    t25 = count_triangles_2d(er_graph, 25).tasks_total
    assert t9 < t16 < t25


def test_tasks_bounded_by_m_times_q(er_graph):
    res = count_triangles_2d(er_graph, 16)
    assert res.tasks_total <= er_graph.num_edges * 4


def test_jik_probes_fewer_than_ijk(rmat_small):
    """The paper's Section 7.3 headline: the jik enumeration (hash the
    high-degree side once, probe with short lists) does far less probe
    work than ijk on skewed graphs."""
    jik = count_triangles_2d(rmat_small, 9, cfg=TC2DConfig(enumeration="jik"))
    ijk = count_triangles_2d(rmat_small, 9, cfg=TC2DConfig(enumeration="ijk"))
    assert jik.count == ijk.count
    assert jik.probes_total < ijk.probes_total
    assert jik.tct_time < ijk.tct_time


def test_modified_hashing_uses_fast_builds(er_graph):
    on = count_triangles_2d(er_graph, 9)
    off = count_triangles_2d(er_graph, 9, cfg=TC2DConfig(modified_hashing=False))
    assert on.hash_fast_builds > 0
    assert off.hash_fast_builds == 0
    assert on.count == off.count


def test_early_stop_reduces_probe_steps(rmat_small):
    on = count_triangles_2d(rmat_small, 9)
    off = count_triangles_2d(rmat_small, 9, cfg=TC2DConfig(early_stop=False))
    assert on.count == off.count
    assert on.probes_total <= off.probes_total


def test_blob_serialization_fewer_messages(er_graph):
    blob = count_triangles_2d(er_graph, 9, trace=True)
    raw = count_triangles_2d(
        er_graph, 9, cfg=TC2DConfig(blob_serialization=False), trace=True
    )
    assert blob.count == raw.count
    blob_sends = len(blob.extras["run"].tracer.sends())
    raw_sends = len(raw.extras["run"].tracer.sends())
    assert raw_sends > blob_sends
    assert blob.tct_time <= raw.tct_time


def test_custom_model_scales_times(er_graph):
    fast = count_triangles_2d(
        er_graph, 4, model=MachineModel(default_rate=1e12, rates={}, cache=None)
    )
    slow = count_triangles_2d(
        er_graph, 4, model=MachineModel(default_rate=1e6, rates={}, cache=None)
    )
    assert fast.count == slow.count
    assert slow.tct_time > fast.tct_time


def test_result_summary_and_rates(er_graph):
    res = count_triangles_2d(er_graph, 9, dataset="er")
    s = res.summary()
    assert "er" in s and f"{res.count:,}" in s
    assert res.op_rate_kops("tct") > 0
    assert res.op_rate_kops("ppt") > 0
    imb = res.shift_imbalance()
    assert len(imb) == 3
    for _z, mx, avg, ratio in imb:
        assert mx >= avg
        assert ratio >= 1.0


def test_p_larger_than_interesting_rows():
    # More ranks than vertices in some residue classes.
    g = Graph.from_edges(
        7, np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [5, 6]])
    )
    assert count_triangles_2d(g, 25).count == 2


def test_a_sparse_p64_count_sends_no_message_and_meets_18_times():
    """The e2e ``sparse_wide`` op: untraced, without a fault injector,
    every synchronisation is one rendezvous of 64 ranks (63 hand-offs).
    There are 18: five counts-form all-to-alls, three allreduces, an
    exscan and a barrier in preprocessing and Cannon's skew and 7 shifts,
    and no point-to-point message at all."""
    from unittest import mock

    from repro.graph.generators import configuration_model
    from repro.simmpi import Engine

    sent = []
    real = Engine.post_send

    def counting(self, *args, **kwargs):
        sent.append(args)
        return real(self, *args, **kwargs)

    g = configuration_model(10000, 2.4, 3)
    with mock.patch.object(Engine, "post_send", counting):
        res = count_triangles_2d(g, 64, keep_run=True)
    assert res.count == 816
    assert sent == []
    assert res.extras["run"].yields <= 18 * 63 == 1134
