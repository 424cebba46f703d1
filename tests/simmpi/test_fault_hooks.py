"""Engine fault-injection hooks: the duck-typed injector protocol.

These tests drive ``Engine(fault_injector=...)`` with minimal stub
injectors (no dependency on ``repro.resilience``) to pin down the
engine-side contract: what each verdict kind does to the message or
rank, that the sender always pays the full send cost, and that every
injected fault is visible in the tracer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import (
    DeadlockError,
    Engine,
    RankCrashError,
    RankFailedError,
)


class _Verdict:
    def __init__(self, kind, delay=0.0, payload=None):
        self.kind = kind
        self.delay = delay
        self.payload = payload


class _OneShotSendFault:
    """Fires one verdict on the first send from ``src`` then goes quiet."""

    def __init__(self, src, verdict):
        self.src = src
        self.verdict = verdict
        self.calls = []

    def on_send(self, src, dst, tag, comm_id, nbytes, payload):
        self.calls.append((src, dst, tag, nbytes))
        if src == self.src and self.verdict is not None:
            v, self.verdict = self.verdict, None
            return v
        return None

    def at_point(self, rank, site):
        return None


class _PointFault:
    def __init__(self, rank, site, verdict):
        self.target = (rank, site)
        self.verdict = verdict
        self.sites = []

    def on_send(self, *a):
        return None

    def at_point(self, rank, site):
        self.sites.append((rank, site))
        if (rank, site) == self.target and self.verdict is not None:
            v, self.verdict = self.verdict, None
            return v
        return None


def _pingpong(ctx):
    if ctx.rank == 0:
        ctx.comm.send(np.arange(64, dtype=np.int64), dest=1, tag=9)
        return None
    return ctx.comm.recv(source=0, tag=9)


def test_no_injector_is_the_default():
    eng = Engine(2)
    assert eng.faults is None
    run = eng.run(_pingpong)
    assert run.returns[1] is not None


def test_injector_consulted_for_every_send():
    inj = _OneShotSendFault(src=99, verdict=None)
    Engine(2, fault_injector=inj).run(_pingpong)
    assert inj.calls, "on_send was never consulted"
    assert all(c[0] == 0 for c in inj.calls)


def test_drop_starves_receiver_into_deadlock():
    inj = _OneShotSendFault(0, _Verdict("drop"))
    with pytest.raises(DeadlockError):
        Engine(2, fault_injector=inj).run(_pingpong)


def test_delay_defers_delivery_not_correctness():
    clean = Engine(2).run(_pingpong)
    inj = _OneShotSendFault(0, _Verdict("delay", delay=0.25))
    faulty = Engine(2, fault_injector=inj).run(_pingpong)
    assert np.array_equal(faulty.returns[1], clean.returns[1])
    # the receiver's clock absorbs the extra wire latency
    assert faulty.makespan >= clean.makespan + 0.25


def test_corrupt_swaps_payload():
    poison = np.full(64, -1, dtype=np.int64)
    inj = _OneShotSendFault(0, _Verdict("corrupt", payload=poison))
    run = Engine(2, fault_injector=inj).run(_pingpong)
    assert np.array_equal(run.returns[1], poison)


def test_dup_leaves_stale_copy_for_next_recv():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.array([1], dtype=np.int64), dest=1, tag=9)
            ctx.comm.send(np.array([2], dtype=np.int64), dest=1, tag=9)
            return None
        a = ctx.comm.recv(source=0, tag=9)
        b = ctx.comm.recv(source=0, tag=9)
        return int(a[0]), int(b[0])

    inj = _OneShotSendFault(0, _Verdict("dup"))
    run = Engine(2, fault_injector=inj).run(program)
    # the duplicate of message 1 is matched before message 2
    assert run.returns[1] == (1, 1)


def test_dropped_send_still_emits_traced_fault():
    """The drop happens after the sender is charged: the traced fault
    record ends at the sender's post-charge clock, on the sender's track,
    and is the only record of the message (it never reached the wire)."""
    eng = Engine(2, fault_injector=_OneShotSendFault(0, _Verdict("drop")),
                 trace=True)
    with pytest.raises(DeadlockError):
        eng.run(_pingpong)
    (ev,) = eng.tracer.faults()
    assert ev.name == "fault:drop" and ev.detail["site"] == "send"
    assert ev.rank == 0
    assert ev.end > ev.begin  # charged before the verdict was applied
    assert eng.tracer.sends() == []


def test_stall_advances_clock_at_site():
    def program(ctx):
        ctx.fault_point("custom:site")
        return ctx.clock.now

    inj = _PointFault(1, "custom:site", _Verdict("stall", delay=0.5))
    run = Engine(4, fault_injector=inj).run(program)
    assert run.returns[1] >= 0.5
    assert all(t < 0.5 for r, t in enumerate(run.returns) if r != 1)


def test_crash_raises_rank_crash_error():
    def program(ctx):
        ctx.fault_point("before:work")
        return "survived"

    inj = _PointFault(2, "before:work", _Verdict("crash"))
    with pytest.raises(RankFailedError) as ei:
        Engine(4, fault_injector=inj).run(program)
    assert ei.value.rank == 2
    assert isinstance(ei.value.original, RankCrashError)
    assert ei.value.original.site == "before:work"


def test_phase_declares_fault_point():
    inj = _PointFault(0, "phase:tct", _Verdict("crash"))

    def program(ctx):
        with ctx.phase("tct"):
            pass

    with pytest.raises(RankFailedError):
        Engine(2, fault_injector=inj).run(program)
    assert (0, "phase:tct") in inj.sites


def test_fault_points_are_noops_without_injector():
    def program(ctx):
        ctx.fault_point("anything")
        return "ok"

    run = Engine(2).run(program)
    assert run.returns == ["ok", "ok"]


def test_traced_faults_carry_spans_and_events():
    inj = _OneShotSendFault(0, _Verdict("delay", delay=0.1))
    eng = Engine(2, fault_injector=inj, trace=True)
    eng.run(_pingpong)
    (ev,) = eng.tracer.faults()
    assert (ev.cat, ev.name) == ("fault", "fault:delay")
    # The fault record sits next to the send record of the delayed message:
    # same sender, same extent, same destination.
    (send,) = eng.tracer.sends()
    assert (send.rank, send.end, send.detail["dst"]) == (
        ev.rank, ev.end, ev.detail["dst"],
    )
    assert send.detail["arrival"] >= send.end + 0.1
