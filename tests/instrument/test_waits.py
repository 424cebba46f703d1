"""Wait-for edges and critical-path reconstruction."""

from __future__ import annotations

import pytest

from repro.instrument import critical_path, profile_report, wait_edges, wait_table
from repro.simmpi import Engine, MachineModel


def _model() -> MachineModel:
    # 1 op = 1 us, no cache effects: exact hand-computable times.
    return MachineModel(rates={"op": 1e6}, default_rate=1e6, cache=None)


def _chain_program(ctx):
    # rank 0 computes 10 ms then feeds rank 1, which computes then feeds
    # rank 2: a pure pipeline whose critical path is 0 -> 1 -> 2.
    with ctx.phase("pipe"):
        if ctx.rank > 0:
            ctx.comm.recv(source=ctx.rank - 1)
        ctx.charge("op", 10_000)
        if ctx.rank < ctx.num_ranks - 1:
            ctx.comm.send(b"t" * 64, dest=ctx.rank + 1)


def test_wait_edges_identify_the_upstream_rank():
    run = Engine(3, model=_model(), trace=True).run(_chain_program)
    edges = wait_edges(run)
    # Each downstream rank stalled exactly once, on its predecessor.
    by_rank = {e.rank: e for e in edges}
    assert set(by_rank) == {1, 2}
    assert by_rank[1].src == 0 and by_rank[2].src == 1
    assert by_rank[1].count == 1 and by_rank[2].count == 1
    # Rank 1 waited ~10 ms (rank 0's compute); rank 2 waited ~20 ms.
    assert by_rank[1].seconds == pytest.approx(10e-3, rel=0.01)
    assert by_rank[2].seconds == pytest.approx(20e-3, rel=0.01)
    # Waits attribute to the innermost enclosing phase.
    assert by_rank[1].phase == "pipe"
    # Sorted by stall time, largest first.
    assert edges[0].rank == 2


def test_critical_path_walks_the_pipeline_backwards():
    run = Engine(3, model=_model(), trace=True).run(_chain_program)
    hops = critical_path(run)
    assert [h.rank for h in hops] == [0, 1, 2]
    assert hops[0].waited_on is None  # origin computed from t=0
    assert hops[1].waited_on == 0
    assert hops[2].waited_on == 1
    # Chronological and contiguous-ish: each hop starts no earlier than
    # the previous one began, and the final hop ends at the makespan.
    for a, b in zip(hops, hops[1:]):
        assert b.begin >= a.begin
    assert hops[-1].end == pytest.approx(run.makespan)


def test_no_waits_means_single_hop_path():
    def program(ctx):
        ctx.charge("op", 100 * (ctx.rank + 1))

    run = Engine(2, model=_model(), trace=True).run(program)
    assert wait_edges(run) == []
    hops = critical_path(run)
    assert len(hops) == 1
    assert hops[0].rank == 1 and hops[0].waited_on is None


def test_wait_table_renders():
    run = Engine(3, model=_model(), trace=True).run(_chain_program)
    text = wait_table(run)
    assert "stalled on" in text and "pipe" in text


def test_profile_report_traced_and_untraced():
    run = Engine(3, model=_model(), trace=True).run(_chain_program)
    text = profile_report(run, matrix=True)
    assert "Per-phase breakdown" in text
    assert "Critical path" in text
    assert "Communication matrix" in text
    handoffs = f"{run.yields:,} yields"
    assert handoffs in text
    assert "1 scheduler wake-ups, for" in text  # ... N messages

    bare = Engine(3, model=_model()).run(_chain_program)
    text2 = profile_report(bare)
    assert "Per-phase breakdown" in text2
    assert "not traced" in text2
    assert bare.yields == run.yields and handoffs in text2
