"""Allgather variant under the tracer: span/byte parity with Cannon.

The rejected collect-first formulation must be observable with exactly
the same machinery as the Cannon driver: same phase spans, same
send-record byte accounting (tracer totals == comm-matrix totals), same
result record shape.  This pins the tracing contract for both variants.
"""

from __future__ import annotations

import pytest

from repro.core import count_triangles_2d
from repro.core.allgather_variant import count_triangles_2d_allgather
from repro.instrument import CommMatrix

P = 9


def _nbytes(records) -> int:
    return sum(r.detail["nbytes"] for r in records)


@pytest.fixture(scope="module")
def traced_pair(er_graph):
    cannon = count_triangles_2d(er_graph, P, trace=True)
    allg = count_triangles_2d_allgather(er_graph, P, trace=True)
    return cannon, allg


def test_counts_agree(traced_pair):
    cannon, allg = traced_pair
    assert allg.count == cannon.count


def test_trace_retained_only_on_request(er_graph):
    plain = count_triangles_2d_allgather(er_graph, 4)
    assert "run" not in plain.extras
    kept = count_triangles_2d_allgather(er_graph, 4, keep_run=True)
    assert "run" in kept.extras


def test_both_variants_record_phase_spans_per_rank(traced_pair):
    for res in traced_pair:
        tracer = res.extras["run"].tracer
        for rank in range(P):
            spans = tracer.spans_for_rank(rank)
            names = [s.name for s in spans if s.cat == "phase"]
            assert "ppt" in names and "tct" in names
        assert not tracer.open_spans()


def test_tracer_bytes_match_comm_matrix(traced_pair):
    """Same accounting identity must hold for both formulations."""
    for res in traced_pair:
        tracer = res.extras["run"].tracer
        m = CommMatrix.from_tracer(tracer, P)
        assert m.total_bytes == _nbytes(tracer.sends())
        assert m.total_messages == len(tracer.sends())


def test_send_events_have_symmetric_recv_accounting(traced_pair):
    for res in traced_pair:
        tracer = res.extras["run"].tracer
        sends, waits = tracer.sends(), tracer.waits()
        assert len(sends) == len(waits)
        assert _nbytes(sends) == _nbytes(waits)
        assert {s.detail["seq"] for s in sends} == {w.detail["seq"] for w in waits}


def test_ppt_accounting_identical_across_variants(traced_pair):
    """Preprocessing is byte-for-byte the same code path in both."""
    cannon, allg = traced_pair
    assert cannon.counters_ppt == allg.counters_ppt
    assert cannon.ppt_time == pytest.approx(allg.ppt_time)


def test_variants_differ_only_in_counting_phase_comm(traced_pair):
    """Cannon ships 2 blocks/step; allgather ships whole rows/columns up
    front — their tct wire traffic must differ, visibly, in the trace."""
    cannon, allg = traced_pair

    def tct_send_bytes(res):
        tracer = res.extras["run"].tracer
        sends = tracer.sends()
        total = 0
        for rank in range(P):
            phases = [
                s for s in tracer.spans_for_rank(rank)
                if s.cat == "phase" and s.name == "tct"
            ]
            (ph,) = phases
            total += _nbytes(
                s for s in sends
                if s.rank == rank and ph.begin <= s.end <= ph.end
            )
        return total

    assert tct_send_bytes(cannon) != tct_send_bytes(allg)
