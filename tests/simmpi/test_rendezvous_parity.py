"""The all-to-all rendezvous against the envelope loop that defines it.

An engine executes ``Comm.alltoall`` and its counts form
``Comm.alltoallv`` as one rendezvous (``Engine.alltoall`` /
``Engine.alltoallv``) unless a fault injector is attached; then it runs the
pairwise exchange message by message, and an injector with an empty plan
perturbs nothing.  So the same program run both ways must agree on every
virtual number to the last bit and hand every rank what its peers sent —
the very objects for ``alltoall``, equal rows and counts for
``alltoallv`` — and, traced, record the same trace: each rank's records in
the same order with the same fields, hence the same export and analyses.
"""

from __future__ import annotations

import tracemalloc
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.blocks import Block, build_block, exchange_blocks
from repro.instrument import (
    CommMatrix,
    critical_path,
    dumps_chrome_trace,
    profile_report,
    wait_edges,
)
from repro.instrument.telemetry import Telemetry
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.simmpi import MAX, MIN, SUM, Engine
from repro.simmpi.costmodel import payload_nbytes
from repro.simmpi.errors import CollectiveMismatchError, RankFailedError

_leaf = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(alphabet="abcxyz", max_size=12),
    st.text(alphabet="äß→😀a", max_size=6),
    st.integers(0, 300).map(lambda n: np.arange(n, dtype=np.int64)),
    st.integers(0, 40).map(lambda n: np.zeros((n, 2), dtype=np.float32)),
)
_payload = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet="kq", max_size=2), inner, max_size=2),
    ),
    max_leaves=6,
)


@dataclass
class Case:
    """One generated program: everything a rank does is a function of
    its rank and these fields."""

    p: int
    layout: str  # which communicator the all-to-alls run on
    pool: list[Any]  # the payload objects; every send item is one of them
    salt: int
    rounds: int
    depth: list[int]  # phases open around the whole program, per rank
    inner: list[bool]  # whether the rank wraps each round in a phase
    work: list[int]  # operations charged before each entry, per rank
    p2p_on_sub: bool  # point-to-point traffic on the sub-communicator
    telemetry: bool

    def item(self, rnd: int, src: int, dst: int) -> Any:
        """What world rank ``src`` sends to ``dst`` in round ``rnd``."""
        return self.pool[(self.salt + 7 * rnd + 3 * src + 5 * dst) % len(self.pool)]

    def color(self, rank: int) -> int:
        """``rank``'s group under this case's layout."""
        q = max(1, int(self.p**0.5))
        return {
            "world": 0,
            "row": rank // q,
            "col": rank % q,
            "uneven": int(rank % 5 in (1, 2, 4)) + int(rank % 5 == 4),
        }[self.layout]


@st.composite
def cases(draw) -> Case:
    """Communicator sizes 1..17, every payload kind, uneven entry clocks
    and phase stacks."""
    p = draw(st.integers(1, 17))
    per_rank = lambda elem: draw(st.lists(elem, min_size=p, max_size=p))  # noqa: E731
    return Case(
        p=p,
        layout=draw(st.sampled_from(["world", "row", "col", "uneven"])),
        pool=draw(st.lists(_payload, min_size=1, max_size=6)),
        salt=draw(st.integers(0, 50)),
        rounds=draw(st.integers(1, 3)),
        depth=per_rank(st.integers(0, 3)),
        inner=per_rank(st.booleans()),
        work=per_rank(st.integers(0, 5000)),
        p2p_on_sub=draw(st.booleans()),
        telemetry=draw(st.booleans()),
    )


def _program(ctx, case: Case):
    """Back-to-back all-to-alls, each preceded by uneven compute and by
    eager sends that land on ranks already parked in the collective (the
    matching receives come after it)."""
    me = ctx.rank
    comm = ctx.comm
    if case.layout != "world":
        comm = ctx.comm.split(case.color(me), key=-me)  # reversed order
    world = [comm.members[r] for r in range(comm.size)]
    side = comm if case.p2p_on_sub else ctx.comm
    nxt, prv = (side.rank + 1) % side.size, (side.rank - 1) % side.size
    got = []
    with ExitStack() as outer:
        for d in range(case.depth[me]):
            outer.enter_context(ctx.phase(f"outer{d}"))
        for rnd in range(case.rounds):
            with ExitStack() as inner:
                if case.inner[me]:
                    inner.enter_context(ctx.phase("round"))
                ctx.charge("op", case.work[me] * (rnd + 1))
                ctx.alloc_mem(64 * (me + rnd))
                side.send(("note", me, rnd), dest=nxt, tag=rnd)
                got.append(comm.alltoall([case.item(rnd, me, w) for w in world]))
                assert side.recv(source=prv, tag=rnd)[2] == rnd
    return world, got


def _virtual_state(run) -> list:
    """Every virtual number of a run, floats as hex."""
    out = []
    for clock, counters, peak in zip(run.clocks, run.counters, run.mem_peaks):
        phases = {
            name: (ph.compute.hex(), ph.comm.hex(), ph.start.hex(), ph.end.hex())
            for name, ph in clock.phases.items()
        }
        out.append((clock.now.hex(), phases, sorted(counters.items()), peak))
    return out


def _records(run) -> list:
    """Each rank's trace records in its own order, floats as hex and
    types spelled out (the interleaving across ranks is the schedule's)."""

    def exact(v):
        return (type(v).__name__, v.hex() if isinstance(v, float) else v)

    out: list[list] = [[] for _ in range(run.num_ranks)]
    for s in run.tracer.spans:
        detail = {k: exact(v) for k, v in s.detail.items()}
        out[s.rank].append(
            (s.cat, s.name, s.begin.hex(), s.end.hex(), s.depth, detail)
        )
    return out


def _analyses(run) -> dict:
    """Everything derived from a trace.  The profile's hand-off line is
    left out: yields count real thread hand-offs, the one figure the two
    paths differ in by design."""
    return {
        "export": dumps_chrome_trace(run),
        "matrix": CommMatrix.from_run(run),
        "wait_edges": wait_edges(run),
        "critical_path": critical_path(run),
        "profile": [
            line for line in profile_report(run).splitlines()
            if not line.startswith("Engine hand-offs:")
        ],
        "collective_bytes": run.tracer.collective_bytes(),
    }


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    # Tier-1 replays one fixed set of cases.  A loaded profile brings its own
    # budget and seed: CI runs `--hypothesis-profile=long --hypothesis-seed=0`.
    derandomize=settings.default is settings.get_profile("default"),
)
@given(case=cases())
def test_rendezvous_agrees_with_the_envelope_loop_to_the_last_bit(case):
    tele = Telemetry(sample_interval=0.0) if case.telemetry else None
    fast = Engine(case.p, telemetry=tele).run(_program, case)
    traced = Engine(case.p, trace=True, telemetry=tele).run(_program, case)
    loop = Engine(
        case.p, trace=True, telemetry=tele,
        fault_injector=FaultInjector(FaultPlan([])),
    ).run(_program, case)

    assert loop.tracer.sends() and not fast.tracer.spans
    assert _virtual_state(fast) == _virtual_state(traced) == _virtual_state(loop)
    assert _records(traced) == _records(loop)
    assert _analyses(traced) == _analyses(loop)

    for me, ((world, got), *others) in enumerate(
        zip(fast.returns, traced.returns, loop.returns)
    ):
        for world_other, got_other in others:
            assert world == world_other
            for rnd, (row, row_other) in enumerate(zip(got, got_other)):
                assert len(row) == len(row_other) == len(world)
                for src, a, b in zip(world, row, row_other):
                    assert a is b is case.item(rnd, src, me)


# ---------------------------------------------------------------------------
# the counts form
# ---------------------------------------------------------------------------

_DTYPES = [np.int64, np.int32, np.float32, np.bool_]


@dataclass
class VCase:
    """One generated counts-form program."""

    p: int
    split: bool
    triple: bool  # a (k, 2) array, a 1-D array on its counts, a 1-D on others
    dtypes: list[Any]  # one per array (the first alone when not ``triple``)
    wide: bool  # the single array is (k, 2) rather than 1-D
    pattern: str  # "mixed", "zeros" or "one" (one rank sends everything)
    table: list[int]  # the counts are drawn from this, by (rank, dest)
    salt: int
    rounds: int
    work: list[int]  # operations charged before each entry, per rank

    def counts(self, rnd: int, src: int, dst: int, which: int = 0) -> int:
        """Rows world rank ``src`` sends to ``dst`` in round ``rnd``."""
        if self.pattern == "zeros" or (self.pattern == "one" and src != 0):
            return 0
        i = self.salt + 7 * rnd + 3 * src + 5 * dst + 11 * which
        return self.table[i % len(self.table)]

    def rows(self, n: int, dtype: Any, width: int | None, src: int) -> np.ndarray:
        """``n`` rows of ``dtype`` that say who sent them."""
        shape = (n,) if width is None else (n, width)
        v = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        return (v * 3 + src).astype(dtype)

    def send(self, rnd: int, me: int, world: list[int]):
        """World rank ``me``'s ``(buf, counts)`` in round ``rnd``."""
        first = [self.counts(rnd, me, w) for w in world]
        if not self.triple:
            width = 2 if self.wide else None
            return self.rows(sum(first), self.dtypes[0], width, me), first
        second = [self.counts(rnd, me, w, which=1) for w in world]
        buf = (
            self.rows(sum(first), self.dtypes[0], 2, me),
            self.rows(sum(first), self.dtypes[1], None, me + 1),
            self.rows(sum(second), self.dtypes[2], None, me + 2),
        )
        return buf, (first, first, second)


@st.composite
def vcases(draw) -> VCase:
    """Communicator sizes 1..9, world or a split, each dtype, 1-D and
    ``(k, 2)`` rows, single arrays and 3-tuples, zero and lopsided counts."""
    p = draw(st.integers(1, 9))
    return VCase(
        p=p,
        split=draw(st.booleans()),
        triple=draw(st.booleans()),
        dtypes=draw(st.lists(st.sampled_from(_DTYPES), min_size=3, max_size=3)),
        wide=draw(st.booleans()),
        pattern=draw(st.sampled_from(["mixed", "mixed", "zeros", "one"])),
        table=draw(st.lists(st.integers(0, 6), min_size=1, max_size=8)),
        salt=draw(st.integers(0, 50)),
        rounds=draw(st.integers(1, 2)),
        work=draw(st.lists(st.integers(0, 5000), min_size=p, max_size=p)),
    )


def _v_program(ctx, case: VCase):
    """Back-to-back counts-form all-to-alls after uneven compute, inside a
    phase; returns the world ranks of the communicator and what arrived."""
    me = ctx.rank
    comm = ctx.comm
    if case.split:
        comm = ctx.comm.split(me % 2, key=-me)  # reversed order
    world = [comm.members[r] for r in range(comm.size)]
    got = []
    with ctx.phase("v"):
        for rnd in range(case.rounds):
            ctx.charge("op", case.work[me] * (rnd + 1))
            got.append(comm.alltoallv(*case.send(rnd, me, world)))
    return world, got


def _expected(case: VCase, rnd: int, me: int, world: list[int]):
    """What world rank ``me`` must receive: each source's slice for it,
    in source order, and the per-source row counts."""
    recv: list[list[np.ndarray]] = []
    counts: list[list[int]] = []
    for src in world:
        buf, cnt = case.send(rnd, src, world)
        arrays = (buf,) if not case.triple else buf
        vectors = (cnt,) if not case.triple else cnt
        i = world.index(me)
        for j, (a, c) in enumerate(zip(arrays, vectors)):
            if len(recv) <= j:
                recv.append([])
                counts.append([])
            lo = sum(c[:i])
            recv[j].append(a[lo : lo + c[i]])
            counts[j].append(c[i])
    return [np.concatenate(r) for r in recv], counts


class _Recorder(FaultInjector):
    """An empty-plan injector that keeps the :func:`payload_nbytes` of
    every collective envelope the loop sends."""

    def __init__(self):
        super().__init__(FaultPlan([]))
        self.sized: dict[tuple, int] = {}

    def on_send(self, src, dst, tag, comm_id, nbytes, payload):
        self.sized[(comm_id, payload[1], src, dst)] = payload_nbytes(payload)
        return super().on_send(src, dst, tag, comm_id, nbytes, payload)


def _size_matrices(run_engine):
    """Run ``run_engine()`` while keeping the size matrix of every counts-
    form rendezvous, keyed like :class:`_Recorder`'s envelopes."""
    sized: dict[tuple, int] = {}
    real = Engine._size_counts

    def keeping(rv, sends, head):
        nbytes, plan = real(rv, sends, head)
        for i, src in enumerate(rv.members):
            for j, dst in enumerate(rv.members):
                if i != j:
                    sized[(rv.comm_id, rv.seq, src, dst)] = int(nbytes[i, j])
        return nbytes, plan

    with mock.patch.object(Engine, "_size_counts", staticmethod(keeping)):
        return run_engine(), sized


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    derandomize=settings.default is settings.get_profile("default"),
)
@given(case=vcases())
def test_counts_form_rendezvous_agrees_with_the_envelope_loop(case):
    fast = Engine(case.p).run(_v_program, case)
    traced, sized = _size_matrices(
        lambda: Engine(case.p, trace=True).run(_v_program, case)
    )
    recorder = _Recorder()
    loop = Engine(case.p, trace=True, fault_injector=recorder).run(_v_program, case)

    assert _virtual_state(fast) == _virtual_state(traced) == _virtual_state(loop)
    assert _records(traced) == _records(loop)
    matrices = [CommMatrix.from_run(r) for r in (traced, loop)]
    assert matrices[0] == matrices[1]
    assert matrices[0].total_bytes == matrices[1].total_bytes
    # Every message the rendezvous sized is an envelope the loop sent, at
    # payload_nbytes of that envelope.
    coll = {k: v for k, v in recorder.sized.items() if k in sized}
    assert sized == coll
    assert len(sized) == case.rounds * sum(len(w) - 1 for w, _ in loop.returns)

    for me, runs in enumerate(zip(fast.returns, traced.returns, loop.returns)):
        world = runs[0][0]
        for rnd in range(case.rounds):
            want, want_counts = _expected(case, rnd, me, world)
            for world_other, got in runs:
                assert world_other == world
                recv, recvcounts = got[rnd]
                if not case.triple:
                    recv, recvcounts = (recv,), (recvcounts,)
                assert len(recv) == len(recvcounts) == len(want)
                for r, w, c, wc in zip(recv, want, recvcounts, want_counts):
                    assert type(r) is np.ndarray and r.dtype == w.dtype
                    assert r.shape == w.shape and np.array_equal(r, w)
                    assert c.dtype == np.int64 and c.tolist() == wc


def _both_paths(program):
    """The failure of ``program`` under the rendezvous and under the
    envelope loop: ``[(rank, exception), ...]``."""
    out = []
    for faults in (None, FaultInjector(FaultPlan([]))):
        with pytest.raises(RankFailedError) as ei:
            Engine(3, fault_injector=faults).run(program)
        out.append((ei.value.rank, ei.value.original))
    return out


@pytest.mark.parametrize(
    "buf, counts, error",
    [
        (np.arange(4), [1, 1, 1], ValueError),  # counts sum to 3, not 4
        (np.arange(3), [2, -1, 2], ValueError),  # a negative count
        (np.arange(3), [1, 2], ValueError),  # two counts on three ranks
        (np.arange(3), [1.0, 1.0, 1.0], TypeError),  # counts not integers
        (np.array([None] * 3), [1, 1, 1], TypeError),  # object dtype
        ([0, 1, 2], [1, 1, 1], TypeError),  # a list, not an array
        ((np.arange(3), np.arange(3)), ([1, 1, 1],), ValueError),  # one vector short
    ],
    ids=["sum", "negative", "length", "float", "object", "list", "arity"],
)
def test_counts_form_rejects_a_bad_send_before_it_leaves(buf, counts, error):
    def program(ctx):
        if ctx.rank == 1:
            ctx.comm.alltoallv(buf, counts)
        ctx.comm.alltoallv(np.arange(3), [1, 1, 1])

    for rank, exc in _both_paths(program):
        assert rank == 1 and type(exc) is error


@pytest.mark.parametrize(
    "odd",
    [
        lambda: (np.arange(3, dtype=np.int32), [1, 1, 1]),  # dtype
        lambda: (np.zeros((3, 2), dtype=np.int64), [1, 1, 1]),  # row shape
        lambda: ((np.arange(3),), ([1, 1, 1],)),  # a 1-tuple, not an array
    ],
    ids=["dtype", "row-shape", "arity"],
)
def test_members_that_disagree_on_the_layout_fail_the_collective(odd):
    def program(ctx):
        buf, counts = odd() if ctx.rank == 1 else (np.arange(3), [1, 1, 1])
        ctx.comm.alltoallv(buf, counts)

    for _rank, exc in _both_paths(program):
        assert isinstance(exc, CollectiveMismatchError)
        assert "alltoallv" in str(exc)


def test_alltoall_and_alltoallv_at_one_sequence_number_do_not_mix():
    def program(ctx):
        if ctx.rank == 1:
            ctx.comm.alltoall([1, 2, 3])
        else:
            ctx.comm.alltoallv(np.arange(3), [1, 1, 1])

    (rank, exc), (_, looped) = _both_paths(program)
    assert rank == 1 and isinstance(exc, CollectiveMismatchError)
    assert "alltoall#1" in str(exc) and "alltoallv#1" in str(exc)
    assert isinstance(looped, CollectiveMismatchError)


def test_completing_a_counts_rendezvous_copies_no_payload():
    """The last arrival sizes the messages and settles the clocks from the
    count tables alone — O(p²) numbers — and each member copies only its
    own receive afterwards, in its own thread.  (Building every member's
    receive in the completing rank instead held all p of them at once:
    measured +29 MiB of peak RSS on the e2e ``sparse_wide`` workload, on a
    2-CPU x86_64 host.)"""
    p, rows = 16, 1000
    per_receiver = p * rows * 2 * 8  # (k, 2) int64 rows from p sources
    peaks: list[int] = []
    real = Engine._complete_alltoall

    def measured(self, rv):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        real(self, rv)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    def program(ctx):
        buf = np.full((p * rows, 2), ctx.rank, dtype=np.int64)
        got, counts = ctx.comm.alltoallv(buf, [rows] * p)
        return got.shape, counts.tolist(), int(got[:, 0].sum())

    tracemalloc.start()
    try:
        with mock.patch.object(Engine, "_complete_alltoall", measured):
            run = Engine(p).run(program)
    finally:
        tracemalloc.stop()
    assert run.returns == [((p * rows, 2), [rows] * p, rows * sum(range(p)))] * p
    (peak,) = peaks
    # O(p²) bookkeeping: a few hundred bytes per (source, destination)
    # pair, far below one member's receive, let alone all p of them.
    assert peak < 400 * p * p < per_receiver


# ---------------------------------------------------------------------------
# every collective, and Cannon's exchange in both forms
# ---------------------------------------------------------------------------

_KINDS = [
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scan", "exscan", "alltoall", "alltoallv", "exchange-blob", "exchange-parts",
]
_OPS = [SUM, MAX, MIN]


@dataclass
class MCase:
    """One generated program of mixed collectives."""

    p: int
    layout: str  # the collectives' communicator, as in :class:`Case`
    steps: list[tuple[str, int]]  # (collective, its argument)
    pool: list[Any]  # bcast / gather / alltoall payloads
    depth: list[int]  # phases open around the whole program, per rank
    inner: list[bool]  # whether the rank wraps each step in a phase
    work: list[int]  # operations charged before each step, per rank
    p2p_on_sub: bool

    color = Case.color

    def obj(self, step: int, rank: int, salt: int = 0) -> Any:
        return self.pool[(3 * step + 5 * rank + salt) % len(self.pool)]

    def value(self, step: int, rank: int, arg: int) -> Any:
        """A reduction operand: an int, or an array every member agrees
        on the shape of."""
        if arg % 2:
            return np.arange(3, dtype=np.int64) * (rank + 1) - step
        return (rank * 7 + step * 3 + arg) % 11 - 5


@st.composite
def mcases(draw) -> MCase:
    p = draw(st.integers(1, 17))
    per_rank = lambda elem: draw(st.lists(elem, min_size=p, max_size=p))  # noqa: E731
    return MCase(
        p=p,
        layout=draw(st.sampled_from(["world", "row", "col", "uneven"])),
        steps=draw(st.lists(
            st.tuples(st.sampled_from(_KINDS), st.integers(0, 50)),
            min_size=1, max_size=6,
        )),
        pool=draw(st.lists(_payload, min_size=1, max_size=4)),
        depth=per_rank(st.integers(0, 2)),
        inner=per_rank(st.booleans()),
        work=per_rank(st.integers(0, 5000)),
        p2p_on_sub=draw(st.booleans()),
    )


def _block_of(me: int, step: int, size: int):
    """A small block that says who built it."""
    return build_block(
        "U-row", fixed_residue=me, inner_residue=(me + step) % 5, n_outer=4,
        n_inner=6, outer_local=np.array([me % 4, (me + step) % 4, 3]),
        inner_local=np.array([(me + 1) % 6, step % 6, size % 6]),
    )


def _one(comm, case: MCase, kind: str, arg: int, step: int, me: int) -> Any:
    """Rank ``me``'s call of collective ``kind``, with what it returned."""
    root = arg % comm.size
    op = _OPS[arg % len(_OPS)]
    if kind == "barrier":
        return comm.barrier()
    if kind == "bcast":
        return comm.bcast(case.obj(step, me), root=root)
    if kind == "reduce":
        return comm.reduce(case.value(step, me, arg), op, root=root)
    if kind == "allreduce":
        return comm.allreduce(case.value(step, me, arg), op)
    if kind == "gather":
        return comm.gather(case.obj(step, me), root=root)
    if kind == "allgather":
        return comm.allgather(case.obj(step, me))
    if kind == "scan":
        return comm.scan(case.value(step, me, arg), op)
    if kind == "exscan":
        return comm.exscan(case.value(step, me, arg), op)
    if kind == "alltoall":
        return comm.alltoall([case.obj(step, me, d) for d in range(comm.size)])
    if kind == "alltoallv":
        counts = [(arg + me + d) % 3 for d in range(comm.size)]
        return comm.alltoallv(np.arange(sum(counts), dtype=np.int64) + me, counts)
    # Cannon's step: two operands, each shifted around the communicator.
    r, n = comm.rank, comm.size
    moves = [
        (_block_of(me, step, n), (r + arg) % n, (r - arg) % n, 100),
        (_block_of(me + 1, step, n), (r - 1) % n, (r + 1) % n, 110),
    ]
    return exchange_blocks(comm, moves, blob=kind == "exchange-blob")


def _m_program(ctx, case: MCase):
    """The steps in order, each after uneven compute and an eager send
    that lands on a rank already parked in the collective."""
    me = ctx.rank
    comm = ctx.comm
    if case.layout != "world":
        comm = ctx.comm.split(case.color(me), key=-me)  # reversed order
    side = comm if case.p2p_on_sub else ctx.comm
    nxt, prv = (side.rank + 1) % side.size, (side.rank - 1) % side.size
    got = []
    with ExitStack() as outer:
        for d in range(case.depth[me]):
            outer.enter_context(ctx.phase(f"outer{d}"))
        for step, (kind, arg) in enumerate(case.steps):
            with ExitStack() as inner:
                if case.inner[me]:
                    inner.enter_context(ctx.phase(kind))
                ctx.charge("op", case.work[me] * (step + 1))
                side.send(("note", me, step), dest=nxt, tag=step)
                got.append(_one(comm, case, kind, arg, step, me))
                assert side.recv(source=prv, tag=step)[2] == step
    return got


def _plain(x: Any) -> Any:
    """A returned value in comparable form: blocks, arrays, sequences and
    scalars by content and type, anything else (a payload of the case's
    pool, passed on by reference) by identity."""
    if isinstance(x, Block):
        csr = x.dcsr.csr
        return ("block", x.kind, x.fixed_residue, x.inner_residue,
                csr.indptr.tolist(), csr.indices.tolist())
    if type(x) is np.ndarray:
        return ("array", x.dtype.str, x.shape, x.tolist())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_plain(v) for v in x])
    if x is None or isinstance(x, (int, float, str, np.generic)):
        return (type(x).__name__, repr(x))
    return ("id", id(x))


@settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    derandomize=settings.default is settings.get_profile("default"),
)
@given(case=mcases())
def test_every_collective_rendezvous_agrees_with_its_message_loop(case):
    fast = Engine(case.p).run(_m_program, case)
    traced = Engine(case.p, trace=True).run(_m_program, case)
    loop = Engine(
        case.p, trace=True, fault_injector=FaultInjector(FaultPlan([]))
    ).run(_m_program, case)

    assert _virtual_state(fast) == _virtual_state(traced) == _virtual_state(loop)
    assert _records(traced) == _records(loop)
    assert _analyses(traced) == _analyses(loop)
    for runs in zip(fast.returns, traced.returns, loop.returns):
        assert _plain(runs[0]) == _plain(runs[1]) == _plain(runs[2])
