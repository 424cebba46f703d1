"""Pin the engine's schedule: who runs when, and in which order messages go.

Everything downstream — clocks, counters, traces, the recorded ppt costs in
the graph store — is deterministic only because the engine resumes ranks in
one fixed round-robin order.  These tests compare that order, message by
message, against ``data/schedule_pin.json``, recorded from the scheduler
as it stood before the hand-off moved off the scheduler thread.  A change to
the hand-off mechanism must leave the file untouched; a deliberate change of
scheduling *policy* regenerates it with
``PYTHONPATH=src python -m tests.simmpi.test_schedule_pin``.  (Its trace
digests and the ``seq`` column of ``mixed_p9`` were re-recorded once, when a
message's trace ``seq`` became a number its sender alone assigns and the
Perfetto flow ids became that ``seq``; the send order itself did not move.)

The ``drivers`` section pins what every grid driver reports — count,
logical counters, virtual clocks, memory peak, shift records, trace bytes,
cache spans, the recovery attempt log — recorded before the drivers were
folded onto one Cannon rotation and one run driver (``core/cannon.py``).
A refactor of that plumbing must leave it untouched too.  (Re-recorded
once since, when the warm runs' ``cache`` record lost its
``file_serving`` key together with file-backed worker-pool serving;
nothing else moved.)  The 1D competitors (AOP, Surrogate, OPT-PSP,
HavoqGT) joined it before their counting loops became one bulk
build-and-probe call; those entries were added, none changed.

Kernel spans are labelled ``kernel:<backend>``, and which backend ``auto``
picks depends on whether the host could build the compiled one.  The pin
must not: every pinned observer runs under ``compiler_less`` (the state of
a host without ``cc``), and :func:`test_compiled_backend_moves_only_the_label`
holds the same observers under ``"c"`` to the same numbers.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import (
    count_triangles_aop,
    count_triangles_havoq,
    count_triangles_psp,
    count_triangles_surrogate,
)
from repro.core import (
    TC2DConfig,
    count_triangles_2d,
    count_triangles_2d_allgather,
    count_triangles_coveredge,
    count_triangles_summa,
    triangle_census_2d,
)
from repro.core.kernels import compiled
from repro.graph import Graph
from repro.graph.store import GraphStore
from repro.instrument import dumps_chrome_trace
from repro.resilience import FaultPlan, FaultSpec, count_triangles_2d_resilient
from repro.resilience.faults import FaultInjector
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
    # The schedule pinned here is the envelope loop's, the all-to-all path a
    # fault injector selects; an empty plan perturbs nothing.
    loop = FaultInjector(FaultPlan([]))
    try:
        run = Engine(P, trace=True, superstep=pool, fault_injector=loop).run(
            _mixed_program, started
        )
    finally:
        Engine._block = orig_block
    sends = [
        [s.detail["seq"], s.rank, s.detail["dst"], s.detail["tag"]]
        for s in run.tracer.sends()
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


def _clocks(res) -> dict:
    """Count, logical counters and virtual clocks of one result record."""
    return {
        "count": int(res.count),
        "counters_ppt": res.counters_ppt,
        "counters_tct": res.counters_tct,
        "ppt_time": res.ppt_time,
        "tct_time": res.tct_time,
        "makespan": res.extras["makespan"],
    }


def _full(res) -> dict:
    """``_clocks`` plus memory peak, shift records and the trace digest."""
    run = res.extras["run"]
    blob = dumps_chrome_trace(run).encode()
    return {
        **_clocks(res),
        "mem_peak_bytes": max(run.mem_peaks) if run.mem_peaks else 0,
        "shift_records": [
            [s.shift, s.rank, s.compute_seconds, s.tasks]
            for s in res.shift_records
        ],
        "trace_sha256": hashlib.sha256(blob).hexdigest(),
    }


def _warm(driver, store_dir) -> dict:
    """Cold run into a fresh store, then pin what the warm run reports."""
    g = _circulant_graph()
    cold = driver(g, 9, cache=GraphStore(store_dir))
    assert cold.extras["cache"]["hit"] is False
    res = driver(g, 9, cache=GraphStore(store_dir), trace=True)
    # "hit" first, as the pin file has it: regenerating that file must
    # reproduce its bytes (CI runs `git diff --exit-code` on it).
    info = res.extras["cache"]
    cache = {"hit": info["hit"], **info}
    spans = sorted(
        {s.name for s in res.extras["run"].tracer.spans if s.cat == "cache"}
    )
    return {**_full(res), "cache": cache, "cache_spans": spans}


def _observe_parallel_coveredge() -> dict:
    cfg = TC2DConfig(executor="parallel", workers=2)
    return _clocks(count_triangles_coveredge(_circulant_graph(), 9, cfg))


def _observe_census() -> dict:
    census = triangle_census_2d(_circulant_graph(), 9)
    return {
        "count": int(census.count),
        "edge_support_sha256": hashlib.sha256(
            np.ascontiguousarray(census.edge_support, dtype=np.int64).tobytes()
        ).hexdigest(),
        "vertex_triangles_sum": int(census.vertex_triangles.sum()),
    }


def _observe_resilient() -> dict:
    plan = FaultPlan([FaultSpec(kind="crash", rank=4, site="shift:1")], seed=0)
    res = count_triangles_2d_resilient(
        _circulant_graph(), 9, fault_plan=plan, trace=True
    )
    return {
        **_full(res),
        "attempts": [
            [a.attempt, a.restored_epoch, a.outcome, a.faults_fired]
            for a in res.extras["attempts"]
        ],
        "faults_fired": res.extras["faults_fired"],
    }


def _competitor(driver, extra: str | None = None) -> dict:
    """Count, virtual clocks and comm fractions of a 1D competitor at
    p = 9, plus its own extras record (ghost bytes, wedges)."""
    res = driver(_circulant_graph(), 9)
    got = {
        "count": int(res.count),
        "ppt_time": res.ppt_time,
        "tct_time": res.tct_time,
        "makespan": res.extras["makespan"],
        "comm_fraction_ppt": res.comm_fraction_ppt,
        "comm_fraction_tct": res.comm_fraction_tct,
    }
    if extra is not None:
        got[extra] = res.extras[extra]
    return got


#: name -> observer(tmp_dir); every value is compared for exact equality.
DRIVER_OBSERVERS = {
    "coveredge_p9": lambda tmp: _full(
        count_triangles_coveredge(_circulant_graph(), 9, trace=True)
    ),
    "coveredge_p9_amortized": lambda tmp: _observe_parallel_coveredge(),
    "summa_2x3": lambda tmp: _full(
        count_triangles_summa(_circulant_graph(), 2, 3, trace=True)
    ),
    "allgather_p9": lambda tmp: _full(
        count_triangles_2d_allgather(_circulant_graph(), 9, trace=True)
    ),
    "census_p9": lambda tmp: _observe_census(),
    "warm_tc2d_p9": lambda tmp: _warm(count_triangles_2d, tmp / "tc2d"),
    "warm_coveredge_p9": lambda tmp: _warm(
        count_triangles_coveredge, tmp / "coveredge"
    ),
    "resilient_p9_crash_shift1": lambda tmp: _observe_resilient(),
    "aop_p9": lambda tmp: _competitor(count_triangles_aop, "ghost_bytes_total"),
    "surrogate_p9": lambda tmp: _competitor(count_triangles_surrogate),
    "psp_p9": lambda tmp: _competitor(count_triangles_psp),
    "havoq_p9": lambda tmp: _competitor(count_triangles_havoq, "wedges_total"),
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


def test_tc2d_p16_trace_bytes_are_pinned(expected, compiler_less):
    assert _observe_tc2d() == expected["tc2d_p16"]


@pytest.mark.parametrize("name", sorted(DRIVER_OBSERVERS))
def test_driver_reports_are_pinned(expected, name, tmp_path, compiler_less):
    # Through JSON and back so tuples/ints compare the way they were stored
    # (floats round-trip exactly via repr).
    got = json.loads(json.dumps(DRIVER_OBSERVERS[name](tmp_path)))
    assert got == expected["drivers"][name]


_TRACE_FIELDS = {"trace_sha256", "trace_bytes"}
_KERNEL_LABEL = re.compile(r"kernel:\w+")


@pytest.mark.parametrize("name", ["tc2d_p16", *sorted(DRIVER_OBSERVERS)])
def test_compiled_backend_moves_only_the_label(
    expected, name, tmp_path, monkeypatch
):
    """The same observers with ``auto`` resolving to ``"c"``: every pinned
    field but the trace digest/size is the pinned value, and the trace is
    the compiler-less one once each ``kernel:c`` label is mapped back to
    the label that run gave the same span."""
    if not compiled.available():
        pytest.skip(f"compiled backend unavailable: {compiled.unavailable_reason()}")
    if name == "tc2d_p16":
        observe, want = _observe_tc2d, expected["tc2d_p16"]
    else:
        observe = lambda: DRIVER_OBSERVERS[name](tmp_path / "c")  # noqa: E731
        want = expected["drivers"][name]
    traces: list[str] = []
    real_dumps = dumps_chrome_trace

    def recording_dumps(run):
        traces.append(real_dumps(run))
        return traces[-1]

    monkeypatch.setattr(sys.modules[__name__], "dumps_chrome_trace", recording_dumps)
    got = json.loads(json.dumps(observe()))
    assert got.keys() == want.keys()
    assert {k: got[k] for k in got.keys() - _TRACE_FIELDS} == {
        k: want[k] for k in want.keys() - _TRACE_FIELDS
    }
    if not traces:
        return  # an observer that pins no trace
    (with_c,) = traces
    # (allgather and SUMMA traces carry no kernel spans at all)
    assert set(_KERNEL_LABEL.findall(with_c)) <= {"kernel:c", "kernel:row"}
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "_loaded", "no C compiler (pin twin)")
        if name != "tc2d_p16":
            observe = lambda: DRIVER_OBSERVERS[name](tmp_path / "less")  # noqa: E731
        observe()
    without = traces[1]
    assert hashlib.sha256(without.encode()).hexdigest() == want["trace_sha256"]
    labels = iter(_KERNEL_LABEL.findall(without))
    assert _KERNEL_LABEL.sub(lambda _: next(labels), with_c) == without


if __name__ == "__main__":
    import tempfile

    # What the tests' ``compiler_less`` fixture does: the file must come
    # out the same bytes wherever it is regenerated.
    compiled._loaded = "no C compiler (pin regeneration)"

    with SuperstepPool(workers=2) as _pool:
        _doc = {"mixed_p9": _observe_mixed(_pool), "tc2d_p16": _observe_tc2d()}
    with tempfile.TemporaryDirectory() as _tmp:
        _doc["drivers"] = {
            name: fn(Path(_tmp)) for name, fn in sorted(DRIVER_OBSERVERS.items())
        }
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(_doc, separators=(",", ":")) + "\n")
    print(f"wrote {EXPECTED}")
