"""profile_report when a warm store hit meets the parallel executor.

A warm run replaces preprocessing with a ``cache`` phase and leaves
``ppt`` empty; the parallel executor offloads the tct kernels to the
worker pool.  The two features compose: the report must show the cache
phase and the empty ppt side by side without double counting any time,
and stay bit-identical to the sequential warm run.
"""

from __future__ import annotations

import pytest

from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import rmat_graph
from repro.graph.store import GraphStore
from repro.instrument import dumps_chrome_trace, profile_report
from repro.simmpi.parallel import SuperstepPool


@pytest.fixture(scope="module")
def pool():
    p = SuperstepPool(workers=2)
    yield p
    p.shutdown()


@pytest.fixture(scope="module")
def warm_runs(tmp_path_factory, pool):
    g = rmat_graph(8, edge_factor=8, seed=3)
    store = GraphStore(tmp_path_factory.mktemp("store"))
    cold = count_triangles_2d(g, 4, cache=store)
    assert not cold.extras["cache"]["hit"]
    seq = count_triangles_2d(g, 4, cache=store, trace=True)
    par = count_triangles_2d(
        g, 4, cfg=TC2DConfig(executor="parallel", workers=2),
        cache=store, trace=True, superstep=pool,
    )
    return cold, seq, par


def test_parallel_warm_run_is_bit_identical_to_sequential(warm_runs):
    cold, seq, par = warm_runs
    assert seq.extras["cache"]["hit"] and par.extras["cache"]["hit"]
    assert par.count == seq.count == cold.count
    assert par.counters_tct == seq.counters_tct
    assert par.tct_time == seq.tct_time
    assert dumps_chrome_trace(par.extras["run"]) == dumps_chrome_trace(
        seq.extras["run"]
    )


def test_profile_report_shows_cache_phase_and_empty_ppt(warm_runs):
    _, _, par = warm_runs
    run = par.extras["run"]
    text = profile_report(run)
    assert "cache" in text
    assert "tct" in text
    # No preprocessing operations ran on the warm path.
    for ppt_op in ("relabel", "csr_build"):
        assert ppt_op not in text
    # No double counting: the live ppt phase is empty — only barrier
    # clock skew (sub-microsecond), no work — and cache + tct account
    # for the makespan.
    assert run.phase_time("ppt") == pytest.approx(0.0, abs=1e-5)
    total = run.phase_time("cache") + run.phase_time("tct")
    assert total == pytest.approx(run.makespan, rel=0.05)
