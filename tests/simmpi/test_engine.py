"""Engine scheduling, determinism, and failure semantics."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.simmpi import (
    DeadlockError,
    Engine,
    MachineModel,
    RankFailedError,
    SimMPIError,
    SUM,
    Tracer,
)
from repro.simmpi.engine import _RANK_THREADS


def test_single_rank_runs_and_returns():
    res = Engine(1).run(lambda ctx: ctx.rank * 10 + 7)
    assert res.returns == [7]
    assert res.num_ranks == 1


def test_all_ranks_run_and_return_in_order():
    res = Engine(8).run(lambda ctx: ctx.rank)
    assert res.returns == list(range(8))


def test_args_and_kwargs_are_forwarded():
    def program(ctx, a, b, scale=1):
        return (a + b * ctx.rank) * scale

    res = Engine(3).run(program, 1, 2, scale=10)
    assert res.returns == [10, 30, 50]


def test_send_recv_roundtrip():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send({"x": 1}, dest=1, tag=4)
            return None
        return ctx.comm.recv(source=0, tag=4)

    res = Engine(2).run(program)
    assert res.returns[1] == {"x": 1}


def test_messages_preserve_numpy_payloads():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.arange(100, dtype=np.int64), dest=1)
            return None
        arr = ctx.comm.recv(source=0)
        return int(arr.sum())

    res = Engine(2).run(program)
    assert res.returns[1] == sum(range(100))


def test_deterministic_clocks_and_counters():
    def program(ctx):
        ctx.charge("op", 100 * (ctx.rank + 1))
        return ctx.comm.allreduce(ctx.rank, SUM)

    r1 = Engine(6).run(program)
    r2 = Engine(6).run(program)
    assert [c.now for c in r1.clocks] == [c.now for c in r2.clocks]
    assert r1.counters == r2.counters
    assert r1.returns == r2.returns


def test_deadlock_detected_with_blocked_rank_report():
    def program(ctx):
        ctx.comm.recv(source=(ctx.rank + 1) % ctx.num_ranks, tag=9)

    with pytest.raises(DeadlockError) as ei:
        Engine(3).run(program)
    assert set(ei.value.blocked) == {0, 1, 2}
    assert "tag=9" in ei.value.blocked[0]


def test_partial_deadlock_detected():
    # Rank 0 finishes; ranks 1 and 2 wait on each other with wrong tags.
    def program(ctx):
        if ctx.rank == 0:
            return "done"
        if ctx.rank == 1:
            ctx.comm.send("x", dest=2, tag=1)
            return ctx.comm.recv(source=2, tag=2)
        return ctx.comm.recv(source=1, tag=3)  # tag mismatch: never matches

    with pytest.raises(DeadlockError) as ei:
        Engine(3).run(program)
    assert 0 not in ei.value.blocked
    assert set(ei.value.blocked) == {1, 2}


def test_alltoall_that_cannot_fill_is_reported_with_its_arrival_count():
    def program(ctx):
        if ctx.rank != 2:
            ctx.comm.alltoall([None] * 3)

    with pytest.raises(DeadlockError) as ei:
        Engine(3).run(program)
    assert ei.value.blocked == {
        0: "alltoall#1(comm=0) 2 of 3 arrived",
        1: "alltoall#1(comm=0) 2 of 3 arrived",
    }


def test_tree_collective_that_cannot_fill_is_reported_with_its_arrival_count():
    def program(ctx):
        ctx.comm.barrier()
        if ctx.rank != 0:
            ctx.comm.allreduce(ctx.rank, SUM)

    with pytest.raises(DeadlockError) as ei:
        Engine(3).run(program)
    assert ei.value.blocked == {
        1: "allreduce#2(comm=0) 2 of 3 arrived",
        2: "allreduce#2(comm=0) 2 of 3 arrived",
    }


def test_run_aborted_inside_an_alltoall_leaks_no_deposit_into_the_next():
    eng = Engine(3)

    def bad(ctx):
        if ctx.rank == 2:
            raise ValueError("nope")
        ctx.comm.alltoall(["stale"] * 3)

    with pytest.raises(RankFailedError):
        eng.run(bad)
    # Same communicator, same sequence number as the two stranded deposits.
    res = eng.run(lambda ctx: ctx.comm.alltoall([ctx.rank] * 3))
    assert res.returns == [[0, 1, 2]] * 3
    assert res.yields == 2


def test_parked_alltoall_member_woken_by_an_unrelated_send_parks_again():
    def program(ctx):
        if ctx.rank == 2:
            ctx.comm.send("early", dest=0, tag=5)  # rank 0 is parked by now
            ctx.comm.recv(source=3, tag=6)  # blocks: rank 0 gets the token
        if ctx.rank == 3:
            ctx.comm.send("go", dest=2, tag=6)
        got = ctx.comm.alltoall([(ctx.rank, dst) for dst in range(4)])
        if ctx.rank == 0:
            return got, ctx.comm.recv(source=2, tag=5)
        return got, None

    res = Engine(4).run(program)
    for r, (got, note) in enumerate(res.returns):
        assert got == [(src, r) for src in range(4)]
        assert note == ("early" if r == 0 else None)
    # Three members park, rank 2 blocks once in its receive, and rank 0 —
    # woken before the rendezvous is full — parks a second time.
    assert res.yields == 5


def test_rank_exception_propagates_with_rank_id():
    def program(ctx):
        if ctx.rank == 3:
            raise KeyError("broken")
        ctx.comm.barrier()

    with pytest.raises(RankFailedError) as ei:
        Engine(5).run(program)
    assert ei.value.rank == 3
    assert isinstance(ei.value.original, KeyError)


def test_engine_reusable_after_failure():
    eng = Engine(4)

    def bad(ctx):
        raise ValueError("nope")

    with pytest.raises(RankFailedError):
        eng.run(bad)
    res = eng.run(lambda ctx: ctx.rank)
    assert res.returns == [0, 1, 2, 3]


def test_num_ranks_must_be_positive():
    with pytest.raises(ValueError):
        Engine(0)


def test_charge_advances_clock_by_model_rate():
    model = MachineModel(cache=None)

    def program(ctx):
        ctx.charge("op", 2_000_000)
        return ctx.clock.now

    res = Engine(1, model=model).run(program)
    assert res.returns[0] == pytest.approx(2_000_000 / model.rate("op"))


def test_charge_zero_is_free():
    def program(ctx):
        ctx.charge("op", 0)
        return ctx.clock.now

    assert Engine(1).run(program).returns[0] == 0.0


def test_recv_wait_counts_as_comm_time():
    model = MachineModel(cache=None)

    def program(ctx):
        with ctx.phase("ph"):
            if ctx.rank == 0:
                ctx.charge("op", 10_000_000)  # rank 1 must wait for this
                ctx.comm.send(b"x" * 1000, dest=1)
            else:
                ctx.comm.recv(source=0)
        return ctx.clock.phases["ph"]

    res = Engine(2, model=model).run(program)
    ph1 = res.returns[1]
    assert ph1.comm > 0.04  # waited ~10M ops worth
    assert res.clocks[1].now >= res.clocks[0].now


def test_makespan_is_max_clock():
    def program(ctx):
        ctx.charge("op", 1000 * (ctx.rank + 1))

    res = Engine(4).run(program)
    assert res.makespan == max(c.now for c in res.clocks)
    assert res.makespan == res.clocks[3].now


def test_counter_total_sums_ranks():
    def program(ctx):
        ctx.charge("op", ctx.rank)

    res = Engine(5).run(program)
    assert res.counter_total("op") == sum(range(5))
    assert res.counter_total("missing") == 0


def test_phase_time_requires_recorded_phase():
    res = Engine(2).run(lambda ctx: None)
    with pytest.raises(KeyError):
        res.phase_time("nope")


def test_many_ranks_complete_quickly():
    res = Engine(169).run(lambda ctx: ctx.comm.allreduce(1, SUM))
    assert res.returns == [169] * 169


def test_trace_records_events():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send("m", dest=1, tag=2)
        elif ctx.rank == 1:
            ctx.comm.recv(source=0, tag=2)
        ctx.charge("op", 5)

    res = Engine(2, trace=True).run(program)
    tr = res.tracer
    assert {(s.cat, s.name) for s in tr.spans} == {
        ("comm", "send"), ("comm", "wait"), ("compute", "op"),
    }
    (send,), (wait,) = tr.sends(), tr.waits()
    assert (send.rank, send.detail["dst"], send.detail["tag"]) == (0, 1, 2)
    assert (wait.rank, wait.detail["src"], wait.detail["tag"]) == (1, 0, 2)
    assert send.detail["seq"] == wait.detail["seq"]
    assert wait.end == max(wait.begin, send.detail["arrival"])


def test_run_result_counts_yields_and_scheduler_wakeups():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1)  # nothing sent yet: blocks once
        ctx.comm.send("late", dest=0)

    res = Engine(2).run(program)
    assert res.returns[0] == "late"
    assert res.yields == 1
    # Ranks pass the token among themselves; the scheduler thread is woken
    # once, by the last rank to finish.
    assert res.scheduler_wakeups == 1

    # An all-to-all is one rendezvous: every member but the last parks once.
    wide = Engine(16).run(lambda ctx: ctx.comm.alltoall(list(range(16))))
    assert wide.yields == 15
    assert wide.scheduler_wakeups == 1
    # A Tracer instance that does not record is no observer either.
    quiet = Engine(16, trace=Tracer(enabled=False)).run(
        lambda ctx: ctx.comm.alltoall(list(range(16)))
    )
    assert quiet.yields == 15 and not quiet.tracer.spans

    # A traced run takes the same rendezvous and records the 16 x 15
    # messages the envelope loop would have sent.
    traced = Engine(16, trace=True).run(
        lambda ctx: ctx.comm.alltoall(list(range(16)))
    )
    assert traced.returns == wide.returns
    assert len(traced.tracer.sends()) == 16 * 15
    assert traced.yields == 15
    assert traced.scheduler_wakeups == 1


#: One call of every collective on a 16-rank world, by name.
_EVERY_COLLECTIVE = {
    "barrier": lambda c: c.barrier(),
    "bcast": lambda c: c.bcast(c.rank, root=5),
    "reduce": lambda c: c.reduce(c.rank, SUM, root=3),
    "allreduce": lambda c: c.allreduce(c.rank, SUM),
    "gather": lambda c: c.gather(c.rank, root=7),
    "allgather": lambda c: c.allgather(c.rank),
    "scan": lambda c: c.scan(c.rank, SUM),
    "exscan": lambda c: c.exscan(c.rank, SUM),
    "alltoall": lambda c: c.alltoall(list(range(c.size))),
    "alltoallv": lambda c: c.alltoallv(np.arange(c.size), [1] * c.size),
    "exchange": lambda c: c.exchange(
        [([(c.rank, (c.rank + 1) % c.size, 3)], [((c.rank - 1) % c.size, 3)])]
    ),
}


@pytest.mark.parametrize("name", sorted(_EVERY_COLLECTIVE))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_collective_is_one_rendezvous(name, trace):
    """Each collective costs p - 1 hand-offs, traced or not: every member
    but the last parks once, and nothing goes through a mailbox."""
    sent = []

    class Counting(Engine):
        def post_send(self, *args, **kwargs):
            sent.append(args)
            return super().post_send(*args, **kwargs)

    res = Counting(16, trace=trace).run(lambda ctx: _EVERY_COLLECTIVE[name](ctx.comm))
    assert res.yields == 15 and res.scheduler_wakeups == 1
    assert sent == []
    assert bool(res.tracer.sends()) == trace


def test_rank_that_never_yields_is_reported_as_wedged():
    timeout = 0.2
    carriers = {}

    def program(ctx):
        carriers[ctx.rank] = threading.current_thread()
        ctx.comm.barrier()
        if ctx.rank == 2:
            time.sleep(2.5 * timeout)
        ctx.comm.barrier()

    eng = Engine(4, real_timeout=timeout)
    t0 = time.perf_counter()
    with pytest.raises(SimMPIError, match=r"rank 2 did not yield .* wedged"):
        eng.run(program)
    elapsed = time.perf_counter() - t0
    # Noticed in the first window without a hand-off (so after at most two);
    # run() then waits, up to one more timeout, for the sleeper to unwind.
    assert timeout <= elapsed < 5 * timeout
    # No thread of the run is left running ranks: each is idle in the set
    # again, or was abandoned and has exited.
    idle = {t.thread for t in _RANK_THREADS._idle}
    assert len(carriers) == 4
    for t in carriers.values():
        assert t in idle or not t.is_alive()

    res = eng.run(lambda ctx: ctx.comm.allreduce(ctx.rank, SUM))
    assert res.returns == [6] * 4


def test_long_run_that_keeps_yielding_is_not_wedged():
    timeout = 0.2
    steps = 16

    def program(ctx):
        other = 1 - ctx.rank
        for i in range(steps):
            time.sleep(timeout / 10)
            ctx.comm.sendrecv(i, dest=other, source=other)
        return ctx.rank

    t0 = time.perf_counter()
    res = Engine(2, real_timeout=timeout).run(program)
    assert time.perf_counter() - t0 > 2 * timeout  # outlived whole windows
    assert res.returns == [0, 1]
    assert res.yields >= steps


def test_only_the_token_holder_runs_under_thread_switch_pressure():
    """More rank threads than cores, the interpreter switching threads every
    microsecond: rank code must still never overlap, because a rank touches
    nothing after it has woken its successor."""
    p, rounds = 24, 25
    inside, overlaps, total = [0], [0], [0]

    def critical():
        inside[0] += 1
        if inside[0] != 1:
            overlaps[0] += 1
        seen = total[0]
        for _ in range(25):  # room for a second runner to lose this update
            pass
        total[0] = seen + 1
        inside[0] -= 1

    def program(ctx):
        for i in range(rounds):
            critical()
            got = ctx.comm.alltoall([ctx.rank * i] * p)
            critical()
            assert got == [src * i for src in range(p)]
        return ctx.rank

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = Engine(p, real_timeout=30.0).run(program)
    finally:
        sys.setswitchinterval(interval)
    assert res.returns == list(range(p))
    assert overlaps[0] == 0
    assert total[0] == 2 * p * rounds
