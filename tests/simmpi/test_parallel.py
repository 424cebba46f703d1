"""Unit tests for the shared-memory superstep pool (engine-free).

These drive :class:`~repro.simmpi.parallel.SuperstepPool` directly —
submit/dispatch round trips, arena reuse, batching, the typed crash
paths, ``/dev/shm`` hygiene — without an engine attached (but for the
aborted-run leak case).  Engine integration (parity with the
sequential executor) lives in ``tests/test_integration_matrix``.

Worker entries used here live at module level so spawned interpreters
can re-import them by their ``"tests.simmpi.test_parallel:..."`` names.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.simmpi import Engine
from repro.simmpi.errors import RankFailedError, SimMPIError, WorkerCrashError
from repro.simmpi.parallel import SuperstepPool, _resolve_entry


def probe(arrays, meta):
    """Echo entry: array sums/dtypes and the meta dict."""
    return {
        "sums": [float(a.sum()) for a in arrays],
        "dtypes": [str(a.dtype) for a in arrays],
        "meta": meta,
    }


def sleepy(arrays, meta):
    import time

    time.sleep(float(meta["seconds"]))
    return {}


def raising(arrays, meta):
    raise RuntimeError("job blew up on purpose")


PROBE = "tests.simmpi.test_parallel:probe"


@pytest.fixture(scope="module")
def pool():
    with SuperstepPool(workers=2) as p:
        yield p


def test_resolve_entry():
    fn = _resolve_entry(PROBE)
    assert fn is probe
    with pytest.raises(ValueError):
        _resolve_entry("no.colon.here")
    with pytest.raises(ValueError):
        _resolve_entry("tests.simmpi.test_parallel:nope")
    with pytest.raises(ModuleNotFoundError):
        _resolve_entry("no.such.module:fn")


def test_roundtrip_two_ranks(pool):
    a = np.arange(10, dtype=np.int64)
    b = np.linspace(0.0, 1.0, 7)
    pool.submit(0, PROBE, (a, b), meta={"tag": "r0"})
    pool.submit(3, PROBE, (b,), meta={"tag": "r3"})
    assert pool.pending()
    served = pool.dispatch()
    assert served == [0, 3]  # rank order, always
    assert not pool.pending()
    r0 = pool.take_result(0)
    assert r0["sums"] == [float(a.sum()), float(b.sum())]
    assert r0["dtypes"] == ["int64", "float64"]
    assert r0["meta"] == {"tag": "r0"}
    assert pool.take_result(3)["sums"] == [float(b.sum())]
    assert not pool.has_result(0)


def test_arena_reused_across_dispatches(pool):
    arr = np.ones(64, dtype=np.int64)
    pool.submit(0, PROBE, (arr,))
    pool.dispatch()
    pool.take_result(0)
    before = pool.arena_allocations
    for _ in range(4):
        pool.submit(0, PROBE, (arr,))
        pool.dispatch()
        pool.take_result(0)
    assert pool.arena_allocations == before  # same size -> zero growth


def test_arena_grows_on_demand(pool):
    big = np.ones(1 << 17, dtype=np.int64)  # 1 MiB > the minimum arena
    before = pool.arena_allocations
    pool.submit(1, PROBE, (big,))
    pool.dispatch()
    assert pool.take_result(1)["sums"] == [float(big.size)]
    assert pool.arena_allocations == before + 1


def test_double_submit_rejected(pool):
    pool.submit(5, PROBE, (np.arange(3),))
    with pytest.raises(SimMPIError, match="already has a superstep job"):
        pool.submit(5, PROBE, (np.arange(3),))
    pool.reset()


def test_bad_entry_fails_fast_in_parent(pool):
    with pytest.raises(ValueError):
        pool.submit(0, "tests.simmpi.test_parallel:nope", (np.arange(3),))
    assert not pool.pending()


def test_reset_drops_pending_and_results(pool):
    pool.submit(0, PROBE, (np.arange(3),))
    pool.submit(1, PROBE, (np.arange(3),))
    pool.dispatch()
    pool.submit(2, PROBE, (np.arange(3),))
    pool.reset()
    assert not pool.pending()
    assert not pool.has_result(0) and not pool.has_result(1)


def test_job_exception_is_typed(pool):
    pool.submit(4, "tests.simmpi.test_parallel:raising", (np.arange(3),))
    with pytest.raises(WorkerCrashError, match="rank 4"):
        pool.dispatch()
    assert not pool.pending()  # cleared so an engine can abort cleanly


def test_worker_crash_is_typed():
    with SuperstepPool(workers=1) as p:
        p.submit(0, PROBE, (np.arange(2),))
        p.dispatch()
        assert p.take_result(0)["meta"] == {}
        p.submit(1, "repro.simmpi.parallel:_crash_for_tests", (np.arange(2),))
        with pytest.raises(WorkerCrashError, match="rank 1"):
            p.dispatch()


def test_timeout_is_typed():
    with SuperstepPool(workers=1) as p:
        p.submit(
            0,
            "tests.simmpi.test_parallel:sleepy",
            (np.arange(2),),
            meta={"seconds": 2.0},
        )
        with pytest.raises(WorkerCrashError, match="no result within"):
            p.dispatch(timeout=0.1)


def test_shutdown_rejects_new_work():
    p = SuperstepPool(workers=1)
    p.shutdown()
    p.shutdown()  # idempotent
    with pytest.raises(SimMPIError, match="shut down"):
        p.submit(0, PROBE, (np.arange(2),))
    with pytest.raises(SimMPIError, match="shut down"):
        p.dispatch()


def test_workers_validation():
    with pytest.raises(ValueError):
        SuperstepPool(workers=-1)


def test_zero_workers_means_the_cpus_this_process_may_use():
    """``workers=0`` sizes the pool by scheduling affinity, not by
    ``os.cpu_count()``: a process pinned to one CPU gets one worker."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no scheduling affinity on this platform")
    code = (
        "import os\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from repro.simmpi.parallel import SuperstepPool\n"
        "with SuperstepPool(0) as pool:\n"
        "    print(pool.workers)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.split() == ["1"]


def test_batched_dispatch_caps_futures(pool, monkeypatch):
    """Five jobs on two workers coalesce into at most two batches."""
    submitted = []
    submit = pool._executor.submit

    def counting(fn, *args):
        submitted.append(fn)
        return submit(fn, *args)

    monkeypatch.setattr(pool._executor, "submit", counting)
    for r in range(5):
        pool.submit(r, PROBE, (np.arange(4, dtype=np.int64),))
    served = pool.dispatch()
    assert served == list(range(5))
    for r in range(5):
        pool.take_result(r)
    assert 1 <= len(submitted) <= 2


def test_batched_crash_attributes_exact_rank():
    """A raising job inside a multi-job batch names its own rank, not the
    batch's first rank."""
    with SuperstepPool(workers=1) as p:
        p.submit(0, PROBE, (np.arange(2),))
        p.submit(1, "tests.simmpi.test_parallel:raising", (np.arange(2),))
        p.submit(2, PROBE, (np.arange(2),))
        with pytest.raises(WorkerCrashError, match="rank 1"):
            p.dispatch()


def _shm_entries() -> set[str]:
    """Names under ``/dev/shm`` (the listing diff ``benchmarks/e2e`` fails a
    run on; copied, not imported — the gauge is not a library)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _offload_then_fail(ctx):
    """Rank program that aborts the engine mid-superstep: all ranks but
    one are parked on a job when that one raises."""
    if ctx.rank == 1:
        raise RuntimeError("rank program blew up on purpose")
    ctx.offload(PROBE, [np.arange(1 << 12, dtype=np.int64)])


@pytest.mark.parametrize("ending", ["shutdown", "crashed_worker", "aborted_run"])
def test_pool_leaves_nothing_in_dev_shm(ending):
    before = _shm_entries()
    with SuperstepPool(workers=2) as p:
        big = np.arange(1 << 14, dtype=np.int64)  # grows the arena
        p.submit(0, PROBE, (big, big))
        if ending == "crashed_worker":
            p.submit(1, "repro.simmpi.parallel:_crash_for_tests", (np.arange(2),))
            with pytest.raises(WorkerCrashError):
                p.dispatch()
        else:
            p.dispatch()
        if ending == "aborted_run":
            with pytest.raises(RankFailedError):
                Engine(4, superstep=p).run(_offload_then_fail)
        if os.path.isdir("/dev/shm"):
            assert _shm_entries() - before, "the live arena should be listed"
    assert _shm_entries() - before == set()
