"""Property-based tests of the communication layer (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simmpi import BOR, Engine, MAX, MIN, PROD, SUM

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(**SETTINGS)
@given(
    p=st.integers(1, 9),
    values=st.lists(st.integers(-1000, 1000), min_size=9, max_size=9),
    op=st.sampled_from([SUM, MAX, MIN, BOR]),
)
def test_allreduce_equals_serial_fold(p, values, op):
    vals = values[:p]

    def program(ctx):
        return ctx.comm.allreduce(vals[ctx.rank], op)

    expected = op.reduce(vals)
    res = Engine(p).run(program)
    assert res.returns == [expected] * p


@settings(**SETTINGS)
@given(
    p=st.integers(1, 8),
    root=st.integers(0, 7),
    payload=st.one_of(
        st.integers(),
        st.text(max_size=20),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
    ),
)
def test_bcast_delivers_everywhere(p, root, payload):
    root = root % p

    def program(ctx):
        obj = payload if ctx.rank == root else None
        return ctx.comm.bcast(obj, root=root)

    res = Engine(p).run(program)
    assert all(x == payload for x in res.returns)


@settings(**SETTINGS)
@given(p=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_random_point_to_point_permutation(p, seed):
    """Every rank sends one message to a random destination; every rank
    receives exactly the messages addressed to it."""
    rng = np.random.default_rng(seed)
    dests = rng.integers(0, p, size=p).tolist()
    expected_counts = [dests.count(r) for r in range(p)]

    def program(ctx):
        ctx.comm.send(("from", ctx.rank), dests[ctx.rank], tag=1)
        got = [ctx.comm.recv(tag=1) for _ in range(expected_counts[ctx.rank])]
        return sorted(s for (_f, s) in got)

    res = Engine(p).run(program)
    for r in range(p):
        assert len(res.returns[r]) == expected_counts[r]
        assert res.returns[r] == sorted(
            s for s in range(p) if dests[s] == r
        )


@settings(**SETTINGS)
@given(
    p=st.integers(2, 8),
    n_msgs=st.integers(1, 10),
)
def test_fifo_per_pair_under_load(p, n_msgs):
    def program(ctx):
        nxt = (ctx.rank + 1) % ctx.num_ranks
        prev = (ctx.rank - 1) % ctx.num_ranks
        for i in range(n_msgs):
            ctx.comm.send(i, nxt, tag=2)
        return [ctx.comm.recv(source=prev, tag=2) for _ in range(n_msgs)]

    res = Engine(p).run(program)
    for got in res.returns:
        assert got == list(range(n_msgs))


@settings(**SETTINGS)
@given(
    p=st.integers(1, 9),
    values=st.lists(st.integers(0, 100), min_size=9, max_size=9),
)
def test_scan_prefixes(p, values):
    vals = values[:p]

    def program(ctx):
        return ctx.comm.scan(vals[ctx.rank], SUM)

    res = Engine(p).run(program)
    assert res.returns == [sum(vals[: r + 1]) for r in range(p)]


@settings(**SETTINGS)
@given(p=st.integers(1, 9), ncolors=st.integers(1, 4))
def test_split_partitions_exactly(p, ncolors):
    def program(ctx):
        color = ctx.rank % ncolors
        sub = ctx.comm.split(color)
        return (color, sub.rank, sub.size, tuple(sub.allgather(ctx.rank)))

    res = Engine(p).run(program)
    for color in range(min(ncolors, p)):
        members = [r for r in range(p) if r % ncolors == color]
        for idx, r in enumerate(members):
            c, sub_rank, sub_size, gathered = res.returns[r]
            assert c == color
            assert sub_rank == idx
            assert sub_size == len(members)
            assert list(gathered) == members
