"""Wait-for and critical-path analysis over a run's trace.

Whenever a rank's receive completes later than it was posted, the gap is
stall time attributable to the *sender* of the matched message.  This
module aggregates those stalls into **wait edges** — "rank r stalled W
seconds on rank s inside phase ph" — and walks the message chain backward
from the last-finishing rank to reconstruct the run's **critical path**,
the alternating compute/wait chain that bounds the makespan.

Both analyses need a traced run (``Engine(..., trace=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.instrument.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import RunResult


@dataclass(frozen=True)
class WaitEdge:
    """Aggregate stall of one rank on one peer within one phase.

    Attributes
    ----------
    rank:
        The waiting (stalled) rank.
    src:
        The rank whose message ended the waits.
    phase:
        Innermost phase the waits occurred in (``""`` if outside any
        phase).
    seconds:
        Total stalled virtual seconds.
    count:
        Number of individual waits aggregated.
    """

    rank: int
    src: int
    phase: str
    seconds: float
    count: int


@dataclass(frozen=True)
class CriticalHop:
    """One segment of the critical path: ``rank`` was on the path from
    ``begin`` to ``end``; if ``waited_on`` is not ``None``, the segment
    was *preceded* by a stall that ended when ``waited_on``'s message
    arrived at ``begin``."""

    rank: int
    begin: float
    end: float
    waited_on: int | None


def _phase_lookup(run: "RunResult") -> dict[int, list]:
    """Per-rank phase spans sorted by begin time (deepest resolves last)."""
    by_rank: dict[int, list] = {r: [] for r in range(run.num_ranks)}
    for span in run.tracer.spans:
        if span.cat == "phase":
            by_rank[span.rank].append(span)
    return by_rank


def _phase_at(spans: list, t: float) -> str:
    """Name of the innermost phase span covering time ``t``."""
    best_name = ""
    best_depth = -1
    for s in spans:
        if s.begin <= t <= s.end and s.depth > best_depth:
            best_name, best_depth = s.name, s.depth
    return best_name


def wait_edges(run: "RunResult") -> list[WaitEdge]:
    """Aggregate every positive receive wait into per-(rank, src, phase)
    edges, sorted by total stall time (largest first)."""
    phases = _phase_lookup(run)
    acc: dict[tuple[int, int, str], tuple[float, int]] = {}
    for w in run.tracer.waits():
        waited = w.detail["waited"]
        if waited <= 0:
            continue
        phase = _phase_at(phases[w.rank], w.end)
        key = (w.rank, w.detail["src"], phase)
        sec, cnt = acc.get(key, (0.0, 0))
        acc[key] = (sec + waited, cnt + 1)
    edges = [
        WaitEdge(rank=r, src=s, phase=ph, seconds=sec, count=cnt)
        for (r, s, ph), (sec, cnt) in acc.items()
    ]
    edges.sort(key=lambda w: (-w.seconds, w.rank, w.src, w.phase))
    return edges


def wait_table(run: "RunResult", top: int = 10) -> str:
    """The ``top`` wait edges as an aligned text table."""
    rows = [
        (w.rank, w.src, w.phase or "-", w.seconds * 1e3, w.count)
        for w in wait_edges(run)[:top]
    ]
    return format_table(
        ["rank", "stalled on", "phase", "wait (ms)", "waits"],
        rows,
        title="Top wait-for edges (which rank each rank stalled on)",
        floatfmt=".3f",
    )


def critical_path(run: "RunResult", max_hops: int = 64) -> list[CriticalHop]:
    """Walk the message chain backward from the last-finishing rank.

    Starting at the makespan-defining rank, repeatedly find the latest
    receive wait before the current time; the path jumps to the sender of
    the message that ended that wait, at the time it was sent.  The walk
    stops at a rank that reached its current position without stalling
    (pure compute from t=0) or after ``max_hops`` segments.

    Returns hops in chronological order (earliest first).
    """
    # send time by message seq, for jumping from a wait to its sender.
    send_t = {s.detail["seq"]: s.end for s in run.tracer.sends()}
    # per-rank positive waits in time order.
    waits: dict[int, list] = {r: [] for r in range(run.num_ranks)}
    for w in run.tracer.waits():
        if w.detail["waited"] > 0:
            waits[w.rank].append(w)
    for lst in waits.values():
        lst.sort(key=lambda w: w.end)

    rank = max(range(run.num_ranks), key=lambda r: run.clocks[r].now)
    t = run.clocks[rank].now
    hops: list[CriticalHop] = []
    for _ in range(max_hops):
        last = None
        for w in waits[rank]:
            if w.end <= t:
                last = w
            else:
                break
        if last is None:
            hops.append(CriticalHop(rank=rank, begin=0.0, end=t, waited_on=None))
            break
        src = last.detail["src"]
        hops.append(CriticalHop(rank=rank, begin=last.end, end=t, waited_on=src))
        # The duplicate copy of a dup-faulted message has no send record.
        t = send_t.get(last.detail["seq"], last.end)
        rank = src
    hops.reverse()
    return hops


def critical_path_table(run: "RunResult", max_hops: int = 64) -> str:
    """The critical path as an aligned text table."""
    rows = []
    for hop in critical_path(run, max_hops=max_hops):
        rows.append(
            (
                hop.rank,
                hop.begin * 1e3,
                hop.end * 1e3,
                "-" if hop.waited_on is None else str(hop.waited_on),
            )
        )
    return format_table(
        ["rank", "from (ms)", "to (ms)", "unblocked by"],
        rows,
        title="Critical path (chronological; last row ends at the makespan)",
        floatfmt=".3f",
    )
