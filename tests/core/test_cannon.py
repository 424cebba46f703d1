"""The shared rotation / run driver / assembler (``repro.core.cannon``):
what every grid driver must report, and what the assembler must refuse."""

from __future__ import annotations

import importlib

import pytest

from repro.core import (
    GRID_DRIVERS,
    TC2DConfig,
    count_triangles_2d,
    count_triangles_2d_allgather,
    count_triangles_coveredge,
    count_triangles_summa,
)
from repro.graph.store import GraphStore
from repro.resilience import count_triangles_2d_resilient
from repro.simmpi.parallel import SuperstepPool

#: name -> (driver taking (graph, cfg=..., **kw) on a 4-rank grid,
#:          module.attribute where the driver looks its rank program up)
DRIVERS = {
    "tc2d": (
        lambda g, **kw: count_triangles_2d(g, 4, **kw),
        "repro.core.tc2d.tc2d_rank_program",
    ),
    "coveredge": (
        lambda g, **kw: count_triangles_coveredge(g, 4, **kw),
        "repro.core.coveredge.coveredge_rank_program",
    ),
    "allgather": (
        lambda g, **kw: count_triangles_2d_allgather(g, 4, **kw),
        "repro.core.allgather_variant.tc2d_allgather_rank_program",
    ),
    "summa": (
        lambda g, **kw: count_triangles_summa(g, 2, 2, **kw),
        "repro.core.summa.summa_rank_program",
    ),
    "resilient": (
        lambda g, **kw: count_triangles_2d_resilient(g, 4, **kw),
        "repro.resilience.recovery.tc2d_rank_program",
    ),
}
SHARED_EXTRAS = {
    "makespan", "mem_peak_bytes", "kernel_backend", "kernel_backend_uses",
}


@pytest.fixture(scope="module")
def truth(er_graph):
    return count_triangles_2d(er_graph, 4).count


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_every_driver_reports_the_shared_extras(er_graph, truth, name):
    res = DRIVERS[name][0](er_graph)
    assert res.count == truth
    assert SHARED_EXTRAS <= set(res.extras)
    assert sum(res.extras["kernel_backend_uses"].values()) > 0
    assert res.counters_tct["task"] > 0 and res.tct_time > 0


@pytest.mark.parametrize(
    "field, message",
    [("total", "ranks disagree"), ("local", "local counts do not sum")],
)
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_every_driver_runs_both_consistency_checks(
    er_graph, monkeypatch, name, field, message
):
    driver, target = DRIVERS[name]
    modname, attr = target.rsplit(".", 1)
    real = getattr(importlib.import_module(modname), attr)

    def tampering(ctx, *args, **kwargs):
        record = real(ctx, *args, **kwargs)
        if ctx.rank == 0:
            record[field] += 1
        return record

    monkeypatch.setattr(target, tampering)
    with pytest.raises(AssertionError, match=message):
        driver(er_graph)


def test_parallel_extras_are_the_same_for_plain_and_resilient_runs(er_graph):
    cfg = TC2DConfig(executor="parallel", workers=2, dispatch="batched")
    with SuperstepPool(workers=2) as pool:
        plain = count_triangles_2d(er_graph, 4, cfg, superstep=pool)
        resilient = count_triangles_2d_resilient(er_graph, 4, cfg, superstep=pool)
    assert set(plain.extras) - set(resilient.extras) == set()
    assert resilient.extras["dispatch"] == plain.extras["dispatch"] == "batched"
    assert resilient.count == plain.count


def test_each_driver_keys_the_store_on_its_own_algorithm(er_graph, tmp_path):
    """``cfg.algorithm`` is CLI/auto-tuner plumbing: a driver runs one
    preprocessing pipeline whatever it says, so it must not split the
    store entry."""
    store = GraphStore(tmp_path / "store")
    first = count_triangles_2d(er_graph, 4, cache=store)
    second = count_triangles_2d(
        er_graph, 4, TC2DConfig(algorithm="coveredge"), cache=store
    )
    assert second.extras["cache"]["digest"] == first.extras["cache"]["digest"]
    assert first.extras["cache"]["hit"] is False
    assert second.extras["cache"]["hit"] is True
    assert len(store.digests()) == 1


def test_grid_drivers_mapping_covers_the_planned_algorithms():
    from repro.core.config import ALGORITHMS

    assert set(GRID_DRIVERS) == set(ALGORITHMS)
    assert GRID_DRIVERS["tc2d"] is count_triangles_2d
    assert GRID_DRIVERS["coveredge"] is count_triangles_coveredge


def test_warm_parallel_coveredge_serves_blocks_from_the_store_files(
    er_graph, tmp_path
):
    store = GraphStore(tmp_path / "store")
    count_triangles_coveredge(er_graph, 4, cache=store)
    warm_seq = count_triangles_coveredge(er_graph, 4, cache=store)
    cfg = TC2DConfig(executor="parallel", workers=2, dispatch="amortized")
    with SuperstepPool(workers=2) as pool:
        warm_par = count_triangles_coveredge(
            er_graph, 4, cfg, cache=store, superstep=pool
        )
        puts = pool.stats_snapshot()["resident_puts"]
    assert warm_par.count == warm_seq.count
    assert warm_par.tct_time == warm_seq.tct_time
    assert warm_par.counters_tct == warm_seq.counters_tct
    assert warm_par.extras["cache"]["file_serving"] is True
    assert warm_seq.extras["cache"]["file_serving"] is False
    assert puts >= 24  # 3 blobs x 2 passes x 4 ranks, all file-backed
