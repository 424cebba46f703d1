"""Tracer behaviour: enablement, the views of the one record list, and the
one-record-per-occurrence contract of a traced engine run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instrument import CommMatrix
from repro.resilience import CheckpointStore, FaultPlan, FaultSpec
from repro.resilience.faults import FaultInjector
from repro.resilience.recovery import ResilienceContext
from repro.simmpi import ANY_SOURCE, MAX, SUM, Engine, Tracer


def _send(t: Tracer, rank: int, name: str = "send", **detail):
    t.span_point(0.0, 1.0, rank, "comm", name, **detail)


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    _send(t, 0, dst=1, nbytes=10)
    assert t.span_begin(0.0, 0, "phase", "ph") is None
    assert t.spans == [] and t.open_spans() == []


def test_emit_and_filter_by_kind():
    """Record one of each, read them back through the views."""
    t = Tracer()
    _send(t, 1, dst=0, nbytes=5, seq=0)
    t.span_point(1.0, 1.0, 0, "comm", "wait", src=1, nbytes=5, seq=0, waited=0.0)
    t.span_point(1.0, 3.0, 0, "compute", "x", count=2)
    t.span_point(3.0, 3.0, 0, "fault", "fault:crash", site="s")
    _send(t, 0, "bcast", dst=1, nbytes=7, seq=1)
    assert [(s.rank, s.name) for s in t.sends()] == [(1, "send"), (0, "bcast")]
    assert [s.detail["src"] for s in t.waits()] == [1]
    assert [s.name for s in t.faults()] == ["fault:crash"]
    assert len(t.spans) == 5
    # One list; the alias exists for the fixed benchmark gauge, which
    # counts len(tracer.events).
    assert t.events is t.spans


def test_for_rank():
    t = Tracer()
    _send(t, 0, dst=1, nbytes=1)
    _send(t, 1, dst=0, nbytes=1)
    assert [s.rank for s in t.spans_for_rank(0)] == [0]


def test_total_bytes():
    """Bytes are counted on send records only; collectives by their name."""
    t = Tracer()
    _send(t, 0, dst=1, nbytes=10)
    _send(t, 0, "alltoall", dst=1, nbytes=32)
    t.span_point(0.0, 1.0, 1, "comm", "wait", src=0, nbytes=999, waited=1.0)
    assert CommMatrix.from_tracer(t, 2).total_bytes == 42
    assert t.collective_bytes() == {"alltoall": 32}


def test_clear():
    t = Tracer()
    _send(t, 0, dst=1, nbytes=1)
    t.span_begin(0.0, 0, "phase", "open")
    t.clear()
    assert t.spans == [] and t.open_spans() == []


def test_engine_trace_has_phase_markers():
    def program(ctx):
        with ctx.phase("ph"):
            ctx.charge("op", 1)

    res = Engine(2, trace=True).run(program)
    phases = [s for s in res.tracer.spans if s.cat == "phase"]
    assert [(s.rank, s.name) for s in phases] == [(0, "ph"), (1, "ph")]
    assert all(s.begin < s.end for s in phases)


def test_phase_hook_sees_top_level_exits_of_an_untraced_run():
    class Closures(Tracer):
        def phase_closed(self, rank, name, virtual_s):
            self.closed.append((rank, name, virtual_s))

    def program(ctx):
        with ctx.phase("outer"):
            ctx.charge("op", 10 * (ctx.rank + 1))
            with ctx.phase("inner"):
                ctx.charge("op", 1)
        with ctx.phase("after"):
            pass

    tr = Closures(enabled=False)
    tr.closed = []
    res = Engine(2, trace=tr).run(program)
    assert not tr.spans
    assert tr.closed == [
        (r, name, res.clocks[r].phases[name].elapsed)
        for r in range(2)
        for name in ("outer", "after")
    ]


# -- one record per occurrence ------------------------------------------------


class _CountingEngine(Engine):
    """Counts wire messages and completed receives without the tracer."""

    posted = received = 0

    def post_send(self, *args, **kwargs):
        self.posted += 1
        super().post_send(*args, **kwargs)

    def wait_recv(self, *args):
        out = super().wait_recv(*args)
        self.received += 1
        return out


#: Non-zero ``ctx.charge`` calls ``_occurrences`` makes on every rank (rank
#: 1 makes one more), the checkpoint's ``checkpoint_io`` charge included.
_CHARGES_PER_RANK = 4
_PHASES_PER_RANK = 2


def _occurrences(ctx, rctx, blocks):
    """Point-to-point, every collective, nested phases, charges, fault
    sites and a checkpoint."""
    comm, r, p = ctx.comm, ctx.rank, ctx.num_ranks
    with ctx.phase("outer"):
        ctx.charge("op", 100 * (r + 1))
        ctx.charge("op", 0)  # a zero charge is not an occurrence
        with ctx.phase("inner"):
            comm.alltoallv([np.full(1 + (r + j) % 3, r) for j in range(p)])
            comm.alltoall(list(range(p)))
            ctx.charge("op", 10)
        comm.sendrecv(r, dest=(r + 1) % p, source=(r - 1) % p, sendtag=3, recvtag=3)
        if r == 0:
            comm.send(np.arange(10), dest=1, tag=7)  # duplicated on the wire
        elif r == 1:
            ctx.charge("op", 100_000)  # both copies are there: no wait
            comm.recv(source=0, tag=7)
            comm.recv(source=ANY_SOURCE, tag=7)
        comm.barrier()
        comm.bcast("x" if r == 0 else None, root=0)
        comm.reduce(r, MAX, root=2)
        comm.allreduce(r, SUM)
        comm.gather(r, root=1)
        comm.allgather(r)
        comm.scan(r + 1, SUM)
        comm.exscan(r + 1, SUM)
        comm.split(color=r // 2, key=-r).allreduce(r, SUM)
        ctx.fault_point("site")
        ctx.charge("op", 5)
        rctx.save(ctx, 1, 0, *blocks[r])
    return ctx.clock.now


def _plan() -> FaultInjector:
    return FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="stall", rank=2, site="site", delay=0.01),
                FaultSpec(kind="delay", rank=1, nth=3, delay=0.002),
                FaultSpec(kind="dup", rank=0, tag=7),
            ]
        )
    )


def test_every_occurrence_is_exactly_one_record(
    tmp_path, er_graph, preprocessed_blocks
):
    p = 4
    blocks = preprocessed_blocks(er_graph, p)
    rctx = ResilienceContext(CheckpointStore(tmp_path / "traced"), None)
    eng = _CountingEngine(p, trace=True, fault_injector=_plan())
    run = eng.run(_occurrences, rctx, blocks)
    tr = run.tracer
    assert len(eng.faults.fired) == 3

    by_cat: dict[str, list] = {}
    for s in tr.spans:
        by_cat.setdefault(s.cat, []).append(s)
    assert set(by_cat) == {"phase", "compute", "comm", "fault", "ckpt"}

    # An envelope is two records: its send and its wait.
    sends, waits = tr.sends(), tr.waits()
    assert len(sends) + len(waits) == len(by_cat["comm"])
    assert len(sends) == eng.posted == CommMatrix.from_run(run).total_messages
    assert len(waits) == eng.received == len(sends) + 1  # + the dup copy
    send_seqs = [s.detail["seq"] for s in sends]
    wait_seqs = [w.detail["seq"] for w in waits]
    assert len(set(send_seqs)) == len(send_seqs)
    assert len(set(wait_seqs)) == len(wait_seqs)
    assert len(set(wait_seqs) - set(send_seqs)) == 1
    assert all({"dst", "nbytes", "tag", "arrival"} <= set(s.detail) for s in sends)
    assert all({"src", "nbytes", "tag", "waited"} <= set(w.detail) for w in waits)
    # A receive that did not wait is a zero-length record, not a missing one.
    dup_waits = [w for w in waits if w.detail["tag"] == 7]
    assert [w.duration for w in dup_waits] == [0.0, 0.0]
    assert any(w.detail["waited"] > 0 for w in waits)
    # Collective envelopes are send records under the collective's name
    # (scan rounds grouped, the exscan shift apart).
    assert {s.name for s in sends} == {
        "send", "alltoall", "barrier", "bcast", "reduce", "gather", "scan",
        "exscan-shift",
    }
    assert set(tr.collective_bytes()) == {s.name for s in sends} - {"send"}

    assert len(by_cat["compute"]) == p * _CHARGES_PER_RANK + 1
    assert len(by_cat["phase"]) == p * _PHASES_PER_RANK
    assert [s.name for s in by_cat["ckpt"]] == ["checkpoint:1"] * p
    assert sorted((s.name, s.detail["site"]) for s in tr.faults()) == [
        ("fault:delay", "send"), ("fault:dup", "send"), ("fault:stall", "site"),
    ]
    (stall,) = (s for s in tr.faults() if s.name == "fault:stall")
    assert stall.detail["delay"] == 0.01
    assert stall.duration == pytest.approx(0.01)
    assert tr.open_spans() == []

    # Disabled: same run, same clocks, nothing recorded.
    rctx = ResilienceContext(CheckpointStore(tmp_path / "untraced"), None)
    quiet = Engine(p, fault_injector=_plan()).run(_occurrences, rctx, blocks)
    assert quiet.returns == run.returns
    assert quiet.tracer.spans == [] and quiet.tracer.open_spans() == []
