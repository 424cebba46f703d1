"""Collective operations across sizes, roots, payload types and misuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.simmpi import (
    BAND,
    BOR,
    CollectiveMismatchError,
    Engine,
    MAX,
    MIN,
    PROD,
    RankFailedError,
    SUM,
)

SIZES = [1, 2, 3, 4, 5, 7, 8, 13]


@pytest.mark.parametrize("p", SIZES)
def test_barrier_completes(p):
    def program(ctx):
        for _ in range(3):
            ctx.comm.barrier()
        return True

    assert Engine(p).run(program).returns == [True] * p


@pytest.mark.parametrize("p", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_all_roots(p, root):
    r = p - 1 if root == "last" else 0

    def program(ctx):
        obj = {"data": list(range(5))} if ctx.rank == r else None
        return ctx.comm.bcast(obj, root=r)

    res = Engine(p).run(program)
    assert all(x == {"data": [0, 1, 2, 3, 4]} for x in res.returns)


@pytest.mark.parametrize("p", SIZES)
def test_reduce_sum_to_root(p):
    def program(ctx):
        return ctx.comm.reduce(ctx.rank + 1, SUM, root=0)

    res = Engine(p).run(program)
    assert res.returns[0] == p * (p + 1) // 2
    assert all(x is None for x in res.returns[1:])


def test_reduce_to_nonzero_root():
    def program(ctx):
        return ctx.comm.reduce(2**ctx.rank, SUM, root=2)

    res = Engine(5).run(program)
    assert res.returns[2] == 0b11111
    assert res.returns[0] is None


@pytest.mark.parametrize("op,expected", [(MAX, 6), (MIN, 0), (SUM, 21), (PROD, 0)])
def test_allreduce_ops(op, expected):
    def program(ctx):
        return ctx.comm.allreduce(ctx.rank, op)

    res = Engine(7).run(program)
    assert res.returns == [expected] * 7


def test_allreduce_bitwise():
    def program(ctx):
        return (
            ctx.comm.allreduce(1 << ctx.rank, BOR),
            ctx.comm.allreduce(0b111 << ctx.rank, BAND),
        )

    res = Engine(3).run(program)
    assert res.returns[0] == (0b111, 0b100)


def test_allreduce_numpy_elementwise():
    def program(ctx):
        v = np.full(4, ctx.rank, dtype=np.int64)
        return ctx.comm.allreduce(v, SUM)

    res = Engine(4).run(program)
    for arr in res.returns:
        assert np.array_equal(arr, np.full(4, 6))


@pytest.mark.parametrize("p", SIZES)
def test_gather_ordering(p):
    def program(ctx):
        return ctx.comm.gather(ctx.rank * ctx.rank, root=0)

    res = Engine(p).run(program)
    assert res.returns[0] == [r * r for r in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_allgather(p):
    def program(ctx):
        return ctx.comm.allgather(chr(ord("a") + ctx.rank))

    res = Engine(p).run(program)
    expected = [chr(ord("a") + r) for r in range(p)]
    assert all(x == expected for x in res.returns)


@pytest.mark.parametrize("p", SIZES)
def test_alltoall_permutation(p):
    def program(ctx):
        objs = [(ctx.rank, d) for d in range(ctx.comm.size)]
        return ctx.comm.alltoall(objs)

    res = Engine(p).run(program)
    for r in range(p):
        assert res.returns[r] == [(s, r) for s in range(p)]


@pytest.mark.parametrize("p", SIZES)
def test_exscan_and_scan(p):
    def program(ctx):
        ex = ctx.comm.exscan(ctx.rank + 1, SUM)
        inc = ctx.comm.scan(ctx.rank + 1, SUM)
        return (ex, inc)

    res = Engine(p).run(program)
    for r in range(p):
        ex, inc = res.returns[r]
        assert inc == (r + 1) * (r + 2) // 2
        if r == 0:
            assert ex is None
        else:
            assert ex == r * (r + 1) // 2


def test_exscan_numpy_arrays():
    def program(ctx):
        v = np.array([ctx.rank, 1], dtype=np.int64)
        out = ctx.comm.exscan(v, SUM)
        return None if out is None else out.tolist()

    res = Engine(4).run(program)
    assert res.returns[0] is None
    assert res.returns[3] == [0 + 1 + 2, 3]


def test_split_groups_and_keys():
    def program(ctx):
        # Two groups by parity; order the odd group by descending rank.
        color = ctx.rank % 2
        key = -ctx.rank if color == 1 else ctx.rank
        sub = ctx.comm.split(color, key)
        members = sub.allgather(ctx.rank)
        return (sub.rank, sub.size, members)

    res = Engine(6).run(program)
    # Even group: ranks 0,2,4 ordered ascending.
    assert res.returns[0] == (0, 3, [0, 2, 4])
    assert res.returns[4] == (2, 3, [0, 2, 4])
    # Odd group: ranks 5,3,1 (descending key order).
    assert res.returns[5] == (0, 3, [5, 3, 1])
    assert res.returns[1] == (2, 3, [5, 3, 1])


def test_nested_split_grid_rows_cols():
    def program(ctx):
        # 3x3 grid: row and column communicators.
        x, y = divmod(ctx.rank, 3)
        row = ctx.comm.split(x, y)
        col = ctx.comm.split(y, x)
        return (row.allreduce(ctx.rank, SUM), col.allreduce(ctx.rank, SUM))

    res = Engine(9).run(program)
    for r in range(9):
        x, y = divmod(r, 3)
        row_sum = sum(x * 3 + c for c in range(3))
        col_sum = sum(rr * 3 + y for rr in range(3))
        assert res.returns[r] == (row_sum, col_sum)


def test_mismatched_collectives_raise():
    def program(ctx):
        if ctx.rank == 0:
            # Waits for a "barrier" envelope from rank 1 but receives the
            # bcast envelope instead.
            ctx.comm.barrier()
        else:
            ctx.comm.bcast("x", root=1)

    with pytest.raises(RankFailedError) as ei:
        Engine(2).run(program)
    assert isinstance(ei.value.original, CollectiveMismatchError)


def test_collective_sequence_mismatch_raises():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.barrier()
            ctx.comm.bcast("x", root=0)
        else:
            # Skips the barrier: sequence numbers disagree.
            ctx.comm.bcast(None, root=0)

    with pytest.raises(RankFailedError):
        Engine(2).run(program)


def test_a_member_a_collective_ahead_fails_where_the_members_meet():
    def program(ctx):
        if ctx.rank == 2:
            ctx.comm.gather("extra", root=0)  # its peers skip this one
        ctx.comm.alltoall([ctx.rank] * 3)

    # Every collective is a rendezvous: rank 2 enters gather#1 while ranks
    # 0 and 1 wait in alltoall#1, and the arrival that does not match fails.
    with pytest.raises(RankFailedError) as ei:
        Engine(3).run(program)
    assert ei.value.rank == 2
    assert isinstance(ei.value.original, CollectiveMismatchError)
    msg = str(ei.value.original)
    assert "rank 2" in msg and "gather#1" in msg
    assert "rank 0" in msg and "alltoall#1" in msg


def test_peer_entering_another_collective_fails_at_the_rendezvous():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.alltoall([0, 0])
        else:
            ctx.comm.barrier()  # rank 0 already waits in the all-to-all

    with pytest.raises(RankFailedError) as ei:
        Engine(2).run(program)
    assert ei.value.rank == 1
    assert isinstance(ei.value.original, CollectiveMismatchError)
    msg = str(ei.value.original)
    assert "rank 1" in msg and "barrier#1" in msg
    assert "rank 0" in msg and "alltoall#1" in msg
    # Under a fault injector the barrier's envelope reaches rank 0's loop.
    with pytest.raises(RankFailedError) as ei:
        Engine(2, fault_injector=FaultInjector(FaultPlan([]))).run(program)
    assert isinstance(ei.value.original, CollectiveMismatchError)
    assert "'barrier'#1" in str(ei.value.original)


def test_members_naming_different_roots_fail_the_rendezvous():
    def program(ctx):
        ctx.comm.bcast(ctx.rank, root=ctx.rank % 2)

    with pytest.raises(RankFailedError) as ei:
        Engine(4).run(program)
    assert isinstance(ei.value.original, CollectiveMismatchError)
    assert "bcast#1" in str(ei.value.original)


def test_invalid_root_raises():
    def program(ctx):
        ctx.comm.bcast("x", root=5)

    with pytest.raises(RankFailedError):
        Engine(2).run(program)


def test_collectives_cost_time():
    def program(ctx):
        ctx.comm.allgather(np.zeros(1000, dtype=np.int64))
        return ctx.clock.now

    res = Engine(8).run(program)
    assert all(t > 0 for t in res.returns)
