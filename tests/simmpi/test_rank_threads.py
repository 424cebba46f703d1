"""Lifecycle of the process-wide rank threads: runs borrow them and give
them back, a wedged run's thread is abandoned, and an idle thread keeps
nothing of its last run alive."""

from __future__ import annotations

import gc
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro.core import count_triangles_2d
from repro.graph import rmat_graph
from repro.simmpi import SUM, Engine, RankFailedError, SimMPIError
from repro.simmpi.engine import _RANK_THREADS


def _carrier(ctx):
    return threading.current_thread()


def _carried_sum(ctx):
    return threading.current_thread(), ctx.comm.allreduce(ctx.rank, SUM)


def test_threads_grow_to_the_largest_p_and_no_further():
    """Sequential runs at p = 4, 16, 9, 64, 16 leave exactly 64 rank
    threads (a fresh process, so no other test's runs count)."""
    code = (
        "import threading\n"
        "from repro.simmpi import Engine, SUM\n"
        "assert not [t for t in threading.enumerate()"
        " if t.name.startswith('simmpi-rank-')]\n"
        "for p in (4, 16, 9, 64, 16):\n"
        "    res = Engine(p).run(lambda ctx: ctx.comm.allreduce(1, SUM))\n"
        "    assert res.returns == [p] * p\n"
        "print(sum(t.name.startswith('simmpi-rank-')"
        " for t in threading.enumerate()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split() == ["64"]


def test_repeated_runs_start_no_thread():
    eng = Engine(16)
    first = eng.run(_carrier).returns
    before = threading.active_count()
    for _ in range(20):
        res = eng.run(_carried_sum)
        assert [r[1] for r in res.returns] == [120] * 16
        assert threading.active_count() <= before
    # Sequential runs keep rank r on the same thread.
    assert [r[0] for r in res.returns] == first


def test_failed_run_then_a_correct_run_on_the_same_threads():
    def failing(ctx):
        ctx.comm.barrier()
        if ctx.rank == 2:
            raise ValueError("boom")
        ctx.comm.allreduce(ctx.rank, SUM)

    eng = Engine(5)
    carriers = eng.run(_carrier).returns
    with pytest.raises(RankFailedError) as ei:
        eng.run(failing)
    assert ei.value.rank == 2
    res = eng.run(_carried_sum)
    assert [r[0] for r in res.returns] == carriers
    assert [r[1] for r in res.returns] == [10] * 5


def test_wedged_thread_is_abandoned_and_exits_once_it_unwinds():
    timeout = 0.1
    carriers = {}

    def program(ctx):
        carriers[ctx.rank] = threading.current_thread()
        ctx.comm.barrier()
        if ctx.rank == 1:
            time.sleep(10 * timeout)  # outlives run()'s wait for it
        ctx.comm.barrier()

    with pytest.raises(SimMPIError, match="wedged"):
        Engine(4, real_timeout=timeout).run(program)
    wedged = carriers[1]
    assert wedged.is_alive()  # still asleep in rank code

    nxt = Engine(4, real_timeout=5).run(_carrier).returns
    assert wedged not in nxt
    assert {carriers[r] for r in (0, 2, 3)} <= set(nxt)
    wedged.join(timeout=10)
    assert not wedged.is_alive()


def test_a_finished_run_is_not_kept_alive_by_its_threads():
    class Payload:
        pass

    eng = Engine(4)
    res = eng.run(lambda ctx: Payload())
    engine_ref = weakref.ref(eng)
    return_ref = weakref.ref(res.returns[3])
    del eng, res
    gc.collect()
    assert engine_ref() is None
    assert return_ref() is None


def test_two_concurrent_counts_equal_their_sequential_runs():
    """Two engines at once (as ``repro serve`` runs them) never share a
    thread: counts and every rank's clock match the sequential runs."""
    g = rmat_graph(9, edge_factor=8, seed=3)

    def summary(r):
        run = r.extras["run"]
        clocks = [
            (c.now, sorted((n, vars(ph)) for n, ph in c.phases.items()))
            for c in run.clocks
        ]
        return r.count, r.counters_ppt, r.counters_tct, clocks

    sequential = {p: summary(count_triangles_2d(g, p, keep_run=True)) for p in (9, 16)}
    concurrent: dict[int, object] = {}
    barrier = threading.Barrier(2)

    def worker(p):
        barrier.wait()
        concurrent[p] = summary(count_triangles_2d(g, p, keep_run=True))

    workers = [threading.Thread(target=worker, args=(p,)) for p in (9, 16)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert concurrent == sequential


def test_concurrent_runs_under_switch_pressure_share_no_thread():
    """Four clients run engines of mixed p at once, each failed run
    followed by a correct one, the interpreter switching threads every
    microsecond: every run ends as it should, each correct run on p
    distinct threads, and the set ends with each idle thread once."""
    idle_before = len(_RANK_THREADS._idle)
    errors: list[BaseException] = []

    def failing(ctx):
        if ctx.rank == ctx.num_ranks - 1:
            raise ValueError("boom")
        ctx.comm.barrier()

    def client(k):
        try:
            for i in range(8):
                p = 2 + (k + i) % 5
                with pytest.raises(RankFailedError):
                    Engine(p, real_timeout=30).run(failing)
                res = Engine(p, real_timeout=30).run(_carried_sum)
                assert [r[1] for r in res.returns] == [p * (p - 1) // 2] * p
                assert len({r[0] for r in res.returns}) == p
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(c.is_alive() for c in clients)
    assert errors == []
    idle = _RANK_THREADS._idle
    assert len(set(map(id, idle))) == len(idle) >= idle_before
    assert all(t.thread.is_alive() for t in idle)
