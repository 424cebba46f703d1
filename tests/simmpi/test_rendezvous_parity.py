"""The all-to-all rendezvous against the envelope loop that defines it.

An engine executes ``Comm.alltoall`` as one rendezvous
(``Engine.alltoall``) unless a fault injector is attached; then it runs the
pairwise exchange message by message, and an injector with an empty plan
perturbs nothing.  So the same program run both ways must agree on every
virtual number to the last bit and hand every rank the very objects its
peers sent — and, traced, record the same trace: each rank's records in
the same order with the same fields, hence the same export and analyses.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from repro.simmpi import Engine

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
