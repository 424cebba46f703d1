"""Cross-product integration matrix: every algorithm family against every
graph family, all validated against the linear-algebra oracle.

This is the repository's broadest single correctness net: if any
combination of (generator regime x algorithm x decomposition geometry)
miscounts, it fails here with a precise parameter id.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import (
    count_triangles_aop,
    count_triangles_havoq,
    count_triangles_psp,
    count_triangles_surrogate,
)
from repro.core import (
    TC2DConfig,
    count_triangles_2d,
    count_triangles_2d_allgather,
    count_triangles_summa,
    triangle_census_2d,
)
from repro.graph import (
    Graph,
    barabasi_albert,
    complete_graph,
    erdos_renyi_gnm,
    grid_2d,
    rmat_graph,
    triangle_count_linalg,
    watts_strogatz,
)
from repro.graph.generators import configuration_model, powerlaw_cluster_fast


def star_graph(n: int) -> Graph:
    edges = np.array([[0, i] for i in range(1, n)])
    return Graph.from_edges(n, edges)


GRAPHS = {
    "er": lambda: erdos_renyi_gnm(250, 2000, seed=1),
    "rmat": lambda: rmat_graph(9, edge_factor=8, seed=2),
    "ba": lambda: barabasi_albert(200, 4, seed=3),
    "holme-kim": lambda: powerlaw_cluster_fast(200, 5, 0.6, seed=4),
    "config": lambda: configuration_model(400, d_min=3, seed=5),
    "small-world": lambda: watts_strogatz(200, 6, 0.2, seed=6),
    "lattice-diag": lambda: grid_2d(12, 12, diagonal=True),
    "clique": lambda: complete_graph(16),
    "star": lambda: star_graph(40),
    "empty": lambda: Graph.from_edges(20, np.empty((0, 2), dtype=np.int64)),
}

ALGOS = {
    "tc2d-p4": lambda g: count_triangles_2d(g, 4).count,
    "tc2d-p9": lambda g: count_triangles_2d(g, 9).count,
    "tc2d-ijk": lambda g: count_triangles_2d(
        g, 4, cfg=TC2DConfig(enumeration="ijk")
    ).count,
    "tc2d-allgather": lambda g: count_triangles_2d_allgather(g, 9).count,
    "summa-2x3": lambda g: count_triangles_summa(g, 2, 3).count,
    "census": lambda g: triangle_census_2d(g, 4).count,
    "aop": lambda g: count_triangles_aop(g, 5).count,
    "surrogate": lambda g: count_triangles_surrogate(g, 5).count,
    "psp": lambda g: count_triangles_psp(g, 5).count,
    "havoq": lambda g: count_triangles_havoq(g, 5).count,
}

_CACHE: dict[str, tuple[Graph, int]] = {}


def _graph_and_truth(name: str) -> tuple[Graph, int]:
    if name not in _CACHE:
        g = GRAPHS[name]()
        _CACHE[name] = (g, triangle_count_linalg(g))
    return _CACHE[name]


@pytest.mark.parametrize("algo_name", list(ALGOS))
@pytest.mark.parametrize("graph_name", list(GRAPHS))
def test_matrix(graph_name, algo_name):
    g, truth = _graph_and_truth(graph_name)
    assert ALGOS[algo_name](g) == truth


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
