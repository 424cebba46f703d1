"""One SuperstepPool, many sequential independent runs.

A caller may attach one long-lived pool to many engine runs (the e2e
gauge's ``simmpi.parallel`` probe does exactly that), so cross-run
hygiene is load-bearing: each engine run must reset pending state and
leave counts and clocks bit-identical to a sequential run.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import rmat_graph
from repro.simmpi import SuperstepPool

CFG = TC2DConfig(executor="parallel", workers=2)


def test_sequential_runs_share_pool_bit_identically(fast_model):
    """Two different graphs through one pool == two fresh-pool runs."""
    g1, g2 = rmat_graph(8, seed=1), rmat_graph(8, seed=2)
    with SuperstepPool(workers=2) as pool:
        shared_1 = count_triangles_2d(
            g1, 4, CFG, model=fast_model, superstep=pool
        )
        shared_2 = count_triangles_2d(
            g2, 4, CFG, model=fast_model, superstep=pool
        )
        # Same graph again: still identical (no state bleed from run 2).
        again = count_triangles_2d(g1, 4, CFG, model=fast_model, superstep=pool)
    fresh_1 = count_triangles_2d(g1, 4, CFG, model=fast_model)
    fresh_2 = count_triangles_2d(g2, 4, CFG, model=fast_model)
    assert shared_1.count == fresh_1.count
    assert shared_2.count == fresh_2.count
    assert shared_1.tct_time == fresh_1.tct_time
    assert shared_2.counters_tct == fresh_2.counters_tct
    assert again.count == fresh_1.count
    assert again.ppt_time == fresh_1.ppt_time


def _clocks(res) -> list[str]:
    """Every simulated time a result reports, as exact ``float.hex``."""
    times = [res.ppt_time, res.tct_time, res.comm_fraction_ppt,
             res.comm_fraction_tct, res.extras["makespan"]]
    times += [s.compute_seconds for s in res.shift_records]
    return [float(t).hex() for t in times]


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def test_the_e2e_gauges_call_pattern():
    """What ``benchmarks/e2e/layers.py::probe_parallel`` runs: one
    2-worker pool serving three p = 16 counts, then ``shutdown()``.
    Every count and clock equals a sequential run to the last bit, and
    the pool leaves no shared-memory name and no live child behind."""
    g = rmat_graph(10, seed=1)
    seq = count_triangles_2d(g, 16)
    shm_before = _shm_names()
    children_before = set(multiprocessing.active_children())
    pool = SuperstepPool(workers=2)
    try:
        runs = [count_triangles_2d(g, 16, cfg=CFG, superstep=pool)
                for _ in range(3)]
    finally:
        pool.shutdown()
    for res in runs:
        assert res.count == seq.count
        assert res.counters_tct == seq.counters_tct
        assert _clocks(res) == _clocks(seq)
    assert _shm_names() - shm_before == set()
    assert set(multiprocessing.active_children()) - children_before == set()
