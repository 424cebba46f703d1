"""Unit tests for the shared-memory superstep pool (engine-free).

These drive :class:`~repro.simmpi.parallel.SuperstepPool` directly —
submit/dispatch round trips, arena reuse, span bookkeeping, the typed
crash paths, ``/dev/shm`` hygiene — without an engine attached (but for
the aborted-run leak case).  Engine integration (parity with the
sequential executor) lives in ``tests/test_integration_matrix``.

Worker entries used here live at module level so spawned interpreters
can re-import them by their ``"tests.simmpi.test_parallel:..."`` names.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.simmpi import Engine
from repro.simmpi.errors import RankFailedError, SimMPIError, WorkerCrashError
from repro.simmpi.parallel import (
    Resident,
    SuperstepPool,
    WorkerSpan,
    _resolve_entry,
)

#: Set by :func:`set_init_flag` — observable proof the worker_init hook
#: ran in a spawned worker (the parent's copy stays False).
_INIT_FLAG = False


def set_init_flag() -> None:
    global _INIT_FLAG
    _INIT_FLAG = True


def probe(arrays, meta):
    """Echo entry: array sums/dtypes, the meta dict, and the init flag."""
    return {
        "sums": [float(a.sum()) for a in arrays],
        "dtypes": [str(a.dtype) for a in arrays],
        "meta": meta,
        "init_flag": _INIT_FLAG,
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


def test_worker_spans_recorded_and_drained(pool):
    pool.drain_spans()
    pool.submit(2, PROBE, (np.arange(4),), label="probe:x")
    pool.dispatch()
    pool.take_result(2)
    spans = pool.drain_spans()
    assert len(spans) == 1
    s = spans[0]
    assert isinstance(s, WorkerSpan)
    assert (s.rank, s.label) == (2, "probe:x")
    assert s.end >= s.begin >= 0.0 and s.duration >= 0.0
    assert pool.drain_spans() == []  # drained means gone


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


def test_worker_init_hook_runs_in_workers():
    init = "tests.simmpi.test_parallel:set_init_flag"
    with SuperstepPool(workers=1, worker_init=init) as p:
        p.submit(0, PROBE, (np.arange(2),))
        p.dispatch()
        assert p.take_result(0)["init_flag"] is True
    assert _INIT_FLAG is False  # the hook ran in the worker, not here


def test_worker_crash_is_typed():
    with SuperstepPool(workers=1) as p:
        p.submit(0, PROBE, (np.arange(2),))
        p.dispatch()
        assert p.take_result(0)["init_flag"] is False  # no hook by default
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


# ---------------------------------------------------------------------------
# batched dispatch + resident arena (the amortized transport layer)
# ---------------------------------------------------------------------------


def test_batched_dispatch_caps_futures(pool):
    """Five jobs on two workers coalesce into at most two batches."""
    before = pool.stats.batches
    for r in range(5):
        pool.submit(r, PROBE, (np.arange(4, dtype=np.int64),))
    served = pool.dispatch()
    assert served == list(range(5))
    for r in range(5):
        pool.take_result(r)
    assert pool.stats.batches - before <= 2


def test_batched_crash_attributes_exact_rank():
    """A raising job inside a multi-job batch names its own rank, not the
    batch's first rank."""
    with SuperstepPool(workers=1) as p:
        p.submit(0, PROBE, (np.arange(2),))
        p.submit(1, "tests.simmpi.test_parallel:raising", (np.arange(2),))
        p.submit(2, PROBE, (np.arange(2),))
        with pytest.raises(WorkerCrashError, match="rank 1"):
            p.dispatch()


def test_resident_blocks_ship_zero_transient_bytes(pool):
    arr = np.arange(128, dtype=np.int64)
    pool.put_resident(("blk", 0), arr)
    assert pool.has_resident(("blk", 0))
    payload_before = pool.stats.payload_bytes
    hits_before = pool.stats.resident_hits
    pool.submit(0, PROBE, (Resident(("blk", 0)),))
    pool.dispatch()
    assert pool.take_result(0)["sums"] == [float(arr.sum())]
    assert pool.stats.payload_bytes == payload_before  # slot ref only
    assert pool.stats.resident_hits == hits_before + 1
    pool.invalidate_residents()


def test_resident_overwrite_same_key(pool):
    key = ("blk", "rw")
    pool.put_resident(key, np.full(32, 1, dtype=np.int64))
    pool.put_resident(key, np.full(32, 7, dtype=np.int64))
    pool.submit(0, PROBE, (Resident(key),))
    pool.dispatch()
    assert pool.take_result(0)["sums"] == [7.0 * 32]
    pool.invalidate_residents()


def test_resident_survives_arena_growth(pool):
    key = ("blk", "grow")
    small = np.arange(16, dtype=np.int64)
    pool.put_resident(key, small)
    big = np.ones(1 << 18, dtype=np.int64)  # forces a segment regrow
    pool.submit(0, PROBE, (Resident(key), big))
    pool.dispatch()
    out = pool.take_result(0)
    assert out["sums"] == [float(small.sum()), float(big.size)]
    pool.invalidate_residents()


def test_unpublished_resident_rejected_and_generation_bumps(pool):
    pool.put_resident(("blk", "gen"), np.arange(8, dtype=np.int64))
    gen = pool.resident_generation
    pool.invalidate_residents()
    assert pool.resident_generation == gen + 1
    assert not pool.has_resident(("blk", "gen"))
    with pytest.raises(SimMPIError, match="unpublished resident"):
        pool.submit(0, PROBE, (Resident(("blk", "gen")),))
    assert not pool.pending()


def test_reset_invalidates_residents(pool):
    pool.put_resident(("blk", "reset"), np.arange(8, dtype=np.int64))
    pool.reset()
    assert not pool.has_resident(("blk", "reset"))


def _shm_entries() -> set[str]:
    """Names under ``/dev/shm`` (the listing diff ``benchmarks/e2e`` fails a
    run on; copied, not imported — the gauge is not a library)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _publish_then_fail(ctx):
    """Rank program that aborts the engine mid-superstep: every rank has
    published a resident and all but one are parked on a job."""
    ctx.put_resident(("blk", ctx.rank), np.arange(1 << 12, dtype=np.int64))
    if ctx.rank == 1:
        raise RuntimeError("rank program blew up on purpose")
    ctx.offload(PROBE, [Resident(("blk", ctx.rank))])


@pytest.mark.parametrize("ending", ["shutdown", "crashed_worker", "aborted_run"])
def test_pool_leaves_nothing_in_dev_shm(ending):
    before = _shm_entries()
    with SuperstepPool(workers=2) as p:
        p.put_resident("r", np.arange(1 << 14, dtype=np.int64))  # grows the arena
        p.submit(0, PROBE, (Resident("r"), np.arange(1 << 14, dtype=np.int64)))
        if ending == "crashed_worker":
            p.submit(1, "repro.simmpi.parallel:_crash_for_tests", (np.arange(2),))
            with pytest.raises(WorkerCrashError):
                p.dispatch()
        else:
            p.dispatch()
        if ending == "aborted_run":
            with pytest.raises(RankFailedError):
                Engine(4, superstep=p).run(_publish_then_fail)
        if os.path.isdir("/dev/shm"):
            assert _shm_entries() - before, "the live arena should be listed"
    assert _shm_entries() - before == set()
