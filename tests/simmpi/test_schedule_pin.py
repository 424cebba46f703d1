"""Pin the engine's schedule: who runs when, and which message gets which seq.

Everything downstream — clocks, counters, traces, the recorded ppt costs in
the graph store — is deterministic only because the engine resumes ranks in
one fixed round-robin order.  These tests compare that order, message by
message, against ``data/schedule_pin.json``, recorded from the scheduler
as it stood before the hand-off moved off the scheduler thread.  A change to
the hand-off mechanism must leave the file untouched; a deliberate change of
scheduling *policy* regenerates it with
``PYTHONPATH=src python -m tests.simmpi.test_schedule_pin``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import TC2DConfig, count_triangles_2d
from repro.graph import Graph
from repro.instrument import dumps_chrome_trace
from repro.simmpi import ANY_SOURCE, SUM, Engine
from repro.simmpi.parallel import SuperstepPool

EXPECTED = Path(__file__).parent / "data" / "schedule_pin.json"
PROBE = "tests.simmpi.test_parallel:probe"
P = 9


def _mixed_program(ctx, started):
    """alltoall, ring shifts, ANY_SOURCE receives, an offload, a split."""
    comm, r = ctx.comm, ctx.rank
    started.append(r)
    got = comm.alltoall(
        [np.full(1 + (r + j) % 3, r, dtype=np.int64) for j in range(P)]
    )
    token = int(sum(a.sum() for a in got))
    for step in range(3):
        token = comm.sendrecv(
            token, dest=(r + 1) % P, source=(r - 1) % P,
            sendtag=10 + step, recvtag=10 + step,
        )
    if r == 0:
        arrivals = [
            comm.recv(source=ANY_SOURCE, tag=20, return_status=True)[1].source
            for _ in range(P - 1)
        ]
    else:
        comm.send(r * r, dest=0, tag=20)
        arrivals = None
    echoed = ctx.offload(PROBE, [np.arange(r + 1, dtype=np.int64)], label="pin")
    row = comm.split(color=r // 3, key=-r)
    return token, arrivals, echoed["sums"], row.allreduce(r, SUM)


def _observe_mixed(pool) -> dict:
    """Run the p=9 program; return the resume order and the send order."""
    resumes: list[int] = []
    started: list[int] = []
    orig_block = Engine._block

    def recording_block(self, rank, why):
        orig_block(self, rank, why)
        resumes.append(rank)  # only reached when the rank was rescheduled

    Engine._block = recording_block
    try:
        run = Engine(P, trace=True, superstep=pool).run(_mixed_program, started)
    finally:
        Engine._block = orig_block
    sends = [
        [e.detail["seq"], e.rank, e.detail["dst"], e.detail["tag"]]
        for e in run.tracer.events
        if e.kind == "send"
    ]
    return {
        "started": started,
        "resumes": resumes,
        "sends": sends,
        "any_source_arrivals": run.returns[0][1],
    }


def _circulant_graph(n: int = 192) -> Graph:
    """RNG-free graph with plenty of triangles (no generator involved, so
    the pinned digest does not depend on numpy's bit generators)."""
    i = np.arange(n, dtype=np.int64)
    edges = np.concatenate(
        [np.stack([i, (i + d) % n], axis=1) for d in (1, 2, 5)]
        + [np.stack([i, (i * 7 + 3) % n], axis=1)]
    )
    return Graph.from_edges(n, edges)


def _observe_tc2d() -> dict:
    res = count_triangles_2d(
        _circulant_graph(), 16, TC2DConfig(), trace=True, keep_run=True
    )
    blob = dumps_chrome_trace(res.extras["run"]).encode()
    return {
        "count": int(res.count),
        "trace_bytes": len(blob),
        "trace_sha256": hashlib.sha256(blob).hexdigest(),
    }


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(EXPECTED.read_text())


def test_mixed_program_schedule_is_pinned(expected):
    with SuperstepPool(workers=2) as pool:
        got = _observe_mixed(pool)
    want = expected["mixed_p9"]
    assert got["started"] == want["started"]
    assert got["any_source_arrivals"] == want["any_source_arrivals"]
    assert got["sends"] == want["sends"]
    assert got["resumes"] == want["resumes"]


def test_tc2d_p16_trace_bytes_are_pinned(expected):
    assert _observe_tc2d() == expected["tc2d_p16"]


if __name__ == "__main__":
    with SuperstepPool(workers=2) as _pool:
        _doc = {"mixed_p9": _observe_mixed(_pool), "tc2d_p16": _observe_tc2d()}
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(_doc, separators=(",", ":")) + "\n")
    print(f"wrote {EXPECTED}")
