"""Communication matrix: accumulation, symmetry, aggregates."""

from __future__ import annotations

from repro.instrument import CommMatrix
from repro.simmpi import Engine


def _ring_sendrecv(ctx):
    # Symmetric pairwise pattern: every rank exchanges with both ring
    # neighbours via sendrecv.
    p = ctx.num_ranks
    right = (ctx.rank + 1) % p
    left = (ctx.rank - 1) % p
    ctx.comm.sendrecv(b"x" * 64, dest=right, source=left, sendtag=1, recvtag=1)
    ctx.comm.sendrecv(b"y" * 64, dest=left, source=right, sendtag=2, recvtag=2)


def test_sendrecv_ring_is_symmetric():
    run = Engine(4, trace=True).run(_ring_sendrecv)
    cm = CommMatrix.from_run(run)
    assert cm.is_symmetric()
    # Each rank sent exactly one message to each neighbour.
    for r in range(4):
        assert cm.messages[r][(r + 1) % 4] == 1
        assert cm.messages[r][(r - 1) % 4] == 1
        assert cm.messages[r][r] == 0
    assert cm.total_messages == 8


def test_asymmetric_pattern_detected():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"z", dest=1)
        elif ctx.rank == 1:
            ctx.comm.recv(source=0)

    cm = CommMatrix.from_run(Engine(2, trace=True).run(program))
    assert not cm.is_symmetric()
    assert cm.messages[0][1] == 1 and cm.messages[1][0] == 0


def test_sent_received_totals_agree():
    run = Engine(4, trace=True).run(_ring_sendrecv)
    cm = CommMatrix.from_run(run)
    assert sum(cm.sent_by(r)[0] for r in range(4)) == cm.total_messages
    assert sum(cm.received_by(r)[1] for r in range(4)) == cm.total_bytes
    sends = run.tracer.sends()
    assert cm.total_messages == len(sends)
    assert cm.total_bytes == sum(s.detail["nbytes"] for s in sends)


def test_collective_traffic_lands_in_matrix():
    from repro.simmpi import SUM

    def program(ctx):
        ctx.comm.allreduce(ctx.rank, SUM)

    cm = CommMatrix.from_run(Engine(4, trace=True).run(program))
    # A reduce+bcast tree moves at least p - 1 messages each way.
    assert cm.total_messages >= 6
    assert cm.total_bytes > 0


def test_hottest_pairs_sorted_by_bytes():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"a" * 1000, dest=1)
            ctx.comm.send(b"b" * 10, dest=2)
        elif ctx.rank in (1, 2):
            ctx.comm.recv(source=0)

    cm = CommMatrix.from_run(Engine(3, trace=True).run(program))
    pairs = cm.hottest_pairs(top=2)
    assert pairs[0][:2] == (0, 1)
    assert pairs[1][:2] == (0, 2)
    assert pairs[0][3] > pairs[1][3]


def test_render_mentions_totals():
    cm = CommMatrix.from_run(Engine(2, trace=True).run(_ring_sendrecv))
    text = cm.render("messages")
    assert "Communication matrix" in text and "msgs" in text
