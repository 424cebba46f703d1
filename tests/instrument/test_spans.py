"""Span tracing invariants: nesting, depths, zero-cost disablement."""

from __future__ import annotations

import pytest

from repro.simmpi import Engine, Tracer


def test_span_begin_end_roundtrip():
    t = Tracer()
    s = t.span_begin(1.0, 0, "phase", "outer")
    t.span_end(3.0, s)
    assert len(t.spans) == 1
    assert t.spans[0].name == "outer"
    assert t.spans[0].duration == 2.0
    assert t.spans[0].depth == 0


def test_span_nesting_depth_and_lifo_close_order():
    t = Tracer()
    outer = t.span_begin(0.0, 0, "phase", "outer")
    inner = t.span_begin(1.0, 0, "phase", "inner")
    assert outer.depth == 0 and inner.depth == 1
    t.span_end(2.0, inner)
    t.span_end(3.0, outer)
    # Close order: inner first.
    assert [s.name for s in t.spans] == ["inner", "outer"]
    # Nesting: inner's extent lies within outer's.
    assert outer.begin <= inner.begin and inner.end <= outer.end
    assert t.open_spans() == []


def test_span_end_rejects_non_innermost():
    t = Tracer()
    outer = t.span_begin(0.0, 0, "phase", "outer")
    t.span_begin(1.0, 0, "phase", "inner")
    with pytest.raises(RuntimeError, match="innermost"):
        t.span_end(2.0, outer)


def test_span_stacks_are_per_rank():
    t = Tracer()
    a = t.span_begin(0.0, 0, "phase", "a")
    b = t.span_begin(0.0, 1, "phase", "b")
    # Interleaved closes across ranks are fine; LIFO is per rank.
    t.span_end(1.0, a)
    t.span_end(2.0, b)
    assert {s.rank for s in t.spans} == {0, 1}


def test_disabled_tracer_spans_are_free():
    t = Tracer(enabled=False)
    s = t.span_begin(0.0, 0, "phase", "x")
    assert s is None
    t.span_end(1.0, s)  # accepts None without branching at the call site
    t.span_point(0.0, 1.0, 0, "compute", "op")
    assert t.spans == [] and t.open_spans() == []


def test_engine_run_produces_nested_spans():
    def program(ctx):
        with ctx.phase("outer"):
            ctx.charge("op", 1000)
            with ctx.phase("inner"):
                ctx.charge("op", 500)

    res = Engine(2, trace=True).run(program)
    tr = res.tracer
    assert tr.open_spans() == []
    for rank in range(2):
        spans = tr.spans_for_rank(rank)
        phases = {s.name: s for s in spans if s.cat == "phase"}
        assert set(phases) == {"outer", "outer/inner"}
        outer, inner = phases["outer"], phases["outer/inner"]
        assert outer.depth == 0 and inner.depth == 1
        assert outer.begin <= inner.begin <= inner.end <= outer.end
        # Compute spans nest inside the innermost open phase.
        computes = [s for s in spans if s.cat == "compute"]
        assert len(computes) == 2
        assert all(outer.begin <= c.begin <= c.end <= outer.end for c in computes)
        assert computes[0].depth == 1 and computes[1].depth == 2


def test_engine_comm_spans_cover_send_and_wait():
    def program(ctx):
        if ctx.rank == 0:
            ctx.charge("op", 100000)  # delay so rank 1 really waits
            ctx.comm.send(b"x" * 1000, dest=1)
        else:
            ctx.comm.recv(source=0)

    res = Engine(2, trace=True).run(program)
    sends = [s for s in res.tracer.spans if s.cat == "comm" and s.name == "send"]
    waits = [s for s in res.tracer.spans if s.cat == "comm" and s.name == "wait"]
    assert len(sends) == 1 and sends[0].rank == 0
    assert sends[0].duration > 0
    assert len(waits) == 1 and waits[0].rank == 1
    assert waits[0].detail["src"] == 0
    assert waits[0].duration > 0


def test_untraced_engine_run_records_nothing():
    def program(ctx):
        with ctx.phase("ph"):
            ctx.charge("op", 10)
        if ctx.rank == 0:
            ctx.comm.send(1, dest=1)
        elif ctx.rank == 1:
            ctx.comm.recv(source=0)

    res = Engine(2, trace=False).run(program)
    assert res.tracer.spans == [] and res.tracer.open_spans() == []
