"""Engine integration of the superstep pool: a parallel run is
bit-identical to the sequential one, and a crashed worker is typed.

The cross-product of algorithm and graph family that used to live here
is now a route of the differential sweep (``tests/resilience/
test_chaos.py``).
"""

from __future__ import annotations

import math

import pytest

from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import Graph, rmat_graph, triangle_count_linalg

GRAPHS = {"rmat": lambda: rmat_graph(9, edge_factor=8, seed=2)}

_CACHE: dict[str, tuple[Graph, int]] = {}


def _graph_and_truth(name: str) -> tuple[Graph, int]:
    if name not in _CACHE:
        g = GRAPHS[name]()
        _CACHE[name] = (g, triangle_count_linalg(g))
    return _CACHE[name]


# ---------------------------------------------------------------------------
# Executor parity: the parallel superstep executor must be bit-identical
# to the sequential engine — counts, simulated times, counters, per-rank
# per-shift KernelStats, virtual clocks, and the exported trace bytes.
# ---------------------------------------------------------------------------

PARITY_TOGGLES = {
    "default": TC2DConfig(),
    "probed": TC2DConfig(modified_hashing=False),
    "noearlystop": TC2DConfig(early_stop=False),
    "ijk": TC2DConfig(enumeration="ijk"),
}
PARITY_GRIDS = (4, 9)
PARITY_WORKERS = (1, 2, 4)

#: Sequential reference runs, computed once per (toggle, p) and compared
#: against every worker count.
_SEQ_CACHE: dict = {}


@pytest.fixture(scope="module")
def pools():
    from repro.simmpi.parallel import SuperstepPool

    ps = {w: SuperstepPool(workers=w) for w in PARITY_WORKERS}
    yield ps
    for pool in ps.values():
        pool.shutdown()


def _sequential_reference(toggle: str, p: int):
    if (toggle, p) not in _SEQ_CACHE:
        g, truth = _graph_and_truth("rmat")
        res = count_triangles_2d(
            g, p, PARITY_TOGGLES[toggle], trace=True, keep_run=True
        )
        assert res.count == truth
        _SEQ_CACHE[toggle, p] = res
    return _SEQ_CACHE[toggle, p]


@pytest.mark.parametrize("workers", PARITY_WORKERS)
@pytest.mark.parametrize("p", PARITY_GRIDS)
@pytest.mark.parametrize("toggle", list(PARITY_TOGGLES))
def test_parallel_executor_parity(toggle, p, workers, pools, monkeypatch):
    from repro.instrument import dumps_chrome_trace

    g, truth = _graph_and_truth("rmat")
    seq = _sequential_reference(toggle, p)
    cfg = PARITY_TOGGLES[toggle].replace(executor="parallel", workers=workers)
    pool = pools[workers]
    served = []
    dispatch = pool.dispatch

    def counting_dispatch(timeout=None):
        ranks = dispatch(timeout)
        served.extend(ranks)
        return ranks

    monkeypatch.setattr(pool, "dispatch", counting_dispatch)
    par = count_triangles_2d(g, p, cfg, trace=True, keep_run=True, superstep=pool)

    assert par.count == truth == seq.count
    assert par.extras["executor"] == "parallel"
    assert par.extras["workers"] == workers
    # The pool really ran every rank's kernel of every Cannon epoch.
    assert sorted(served) == sorted(list(range(p)) * math.isqrt(p))

    # Simulated time, counters and per-rank per-shift kernel stats are
    # bit-identical, not merely close.
    assert (par.ppt_time, par.tct_time) == (seq.ppt_time, seq.tct_time)
    assert par.counters_ppt == seq.counters_ppt
    assert par.counters_tct == seq.counters_tct
    assert par.shift_records == seq.shift_records
    assert (par.hash_builds, par.hash_fast_builds) == (
        seq.hash_builds,
        seq.hash_fast_builds,
    )

    run_seq, run_par = seq.extras["run"], par.extras["run"]
    for cs, cp in zip(run_seq.clocks, run_par.clocks):
        assert cs.now == cp.now
    assert len(run_par.tracer.spans) == len(run_seq.tracer.spans)
    assert dumps_chrome_trace(run_par) == dumps_chrome_trace(run_seq)


def test_parallel_worker_crash_is_typed(monkeypatch):
    from repro.simmpi.errors import WorkerCrashError

    g, _ = _graph_and_truth("rmat")
    monkeypatch.setattr(
        "repro.core.cannon.KERNEL_JOB_ENTRY",
        "repro.simmpi.parallel:_crash_for_tests",
    )
    with pytest.raises(WorkerCrashError):
        count_triangles_2d(
            g, 4, TC2DConfig(executor="parallel", workers=1)
        )
