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
from repro.core.cannon import GridJob
from repro.core.coveredge import coveredge_rank_program
from repro.core.tc2d import tc2d_rank_program
from repro.graph.store import GraphStore
from repro.instrument import dumps_chrome_trace
from repro.resilience import FaultInjector, FaultPlan, count_triangles_2d_resilient
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
    cfg = TC2DConfig(executor="parallel", workers=2)
    with SuperstepPool(workers=2) as pool:
        plain = count_triangles_2d(er_graph, 4, cfg, superstep=pool)
        resilient = count_triangles_2d_resilient(er_graph, 4, cfg, superstep=pool)
    assert set(plain.extras) - set(resilient.extras) == set()
    assert resilient.extras["workers"] == plain.extras["workers"] == 2
    assert resilient.count == plain.count


# -- the one transport: residency chosen from what the run can observe -------

_P, _Q = 9, 3


class _PoolLog:
    """Duck-typed telemetry sink: keeps the pool's ``note`` stream."""

    def __init__(self):
        self.events = []

    def note(self, kind, **detail):
        self.events.append((kind, detail))

    def dispatches(self):
        """The ``pool.dispatch`` records, after checking that every queued
        job was a kernel — the pool's one job."""
        labels = [d["label"] for kind, d in self.events if kind == "pool.queue"]
        assert labels and all(lb.startswith("kernel:") for lb in labels)
        return [d for kind, d in self.events if kind == "pool.dispatch"]


def _grid_run(algorithm, graph, store, pool=None, injector=None):
    """One traced run of ``algorithm``'s rank program under a GridJob —
    the drivers' own body, plus the ``fault_injector`` they do not expose."""
    cfg = TC2DConfig(executor="parallel", workers=2) if pool is not None else None
    passes = ("cover", "horiz") if algorithm == "coveredge" else ()
    with GridJob(
        graph, _P, cfg, algorithm, trace=True, superstep=pool, cache=store,
        passes=passes, fault_injector=injector,
    ) as job:
        if algorithm == "tc2d":
            run = job.run(
                tc2d_rank_program, job.cfg, None,
                job.caches[0] if job.caches else None,
            )
        else:
            run = job.run(coveredge_rank_program, job.cfg, tuple(job.caches) or None)
        return job.finish(run, algorithm)


@pytest.fixture(scope="module")
def pool2():
    with SuperstepPool(workers=2) as pool:
        yield pool


@pytest.mark.parametrize("algorithm", ["tc2d", "coveredge"])
@pytest.mark.parametrize("store_state", ["cold", "warm"])
@pytest.mark.parametrize("injector", [False, True], ids=["clean", "injector"])
def test_residency_follows_what_the_run_can_observe(
    er_graph, tmp_path, pool2, injector, store_state, algorithm
):
    """A pool with no fault injector publishes every operand once and
    ships slot references; an attached injector (even one with nothing
    planned) may rewrite blocks in flight, so U/L travel as per-epoch
    transient blobs and only the task block stays resident.  Either way
    the run equals the sequential one bit for bit."""
    store = GraphStore(tmp_path / "store")
    if store_state == "warm":
        _grid_run(algorithm, er_graph, store)
    seq = _grid_run(algorithm, er_graph, store if store_state == "warm" else None)

    log = _PoolLog()
    pool2.attach_telemetry(log)
    dispatched = pool2.stats.dispatches
    try:
        par = _grid_run(
            algorithm, er_graph, store, pool=pool2,
            injector=FaultInjector(FaultPlan()) if injector else None,
        )
    finally:
        pool2.attach_telemetry(None)

    assert par.extras["cache"]["hit"] is (store_state == "warm")
    assert par.count == seq.count
    assert (par.ppt_time, par.tct_time) == (seq.ppt_time, seq.tct_time)
    assert par.counters_ppt == seq.counters_ppt
    assert par.counters_tct == seq.counters_tct
    assert par.shift_records == seq.shift_records
    assert dumps_chrome_trace(par.extras["run"]) == dumps_chrome_trace(
        seq.extras["run"]
    )

    # Cold or warm, the pool sees exactly q dispatches per Cannon pass:
    # preprocessing never leaves the scheduler.
    epochs = log.dispatches()
    passes = 2 if algorithm == "coveredge" else 1
    assert pool2.stats.dispatches - dispatched == passes * _Q
    assert len(epochs) == passes * _Q and all(e["jobs"] == _P for e in epochs)
    hits = sum(e["resident_hits"] for e in epochs)
    if injector:
        assert hits == passes * _P * _Q  # the task block only
        assert all(e["payload_bytes"] > 0 for e in epochs)
    else:
        assert hits == 3 * passes * _P * _Q
        assert all(e["payload_bytes"] == 0 for e in epochs)


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
    cfg = TC2DConfig(executor="parallel", workers=2)
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
