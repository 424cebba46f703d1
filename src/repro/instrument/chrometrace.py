"""Chrome trace-event (Perfetto-compatible) export of a traced run.

The exporter maps the simulated run onto the Chrome trace-event JSON
format (the ``traceEvents`` array format documented by the Trace Event
Profiling Tool and consumed by https://ui.perfetto.dev): one process, one
track (tid) per virtual rank, virtual seconds mapped to microseconds on
the trace clock.

Everything is derived from the tracer's one record list
(:mod:`repro.simmpi.tracing`):

* records (phases, compute bursts, send overheads, receive waits) become
  ``"X"`` complete events — except a wait that did not wait (``waited``
  0), which draws no box;
* each delivered message becomes a flow arrow (``"s"``/``"f"`` flow
  events from the end of its send record to the end of the wait record
  with the same ``seq``, the flow id being that ``seq``), so Perfetto
  draws Cannon's shift pattern as arrows between rank tracks;
* a send record named after a collective also becomes an ``"i"`` instant
  event under that name;
* injected-fault and checkpoint records (the resilience subsystem) also
  become labeled ``"i"`` instant events (``cat`` ``"fault"`` / ``"ckpt"``)
  whose ``fault`` / ``epoch`` arg is read from the record name
  (``fault:<kind>`` / ``checkpoint:<epoch>``);
* the keys that only link records to each other (``seq``, ``tag``,
  ``arrival``, ``waited``) are never shown as args;
* optionally, telemetry counter samples (RSS — see
  :func:`repro.instrument.telemetry.counter_samples`) become ``"C"``
  counter tracks on a second, wall-clock process.

Export is fully deterministic *and schedule-invariant*: records
are emitted rank-major (each rank's records in its own program order —
which is identical under the sequential and parallel executors and on
either all-to-all path — ranks concatenated in id order), a ``seq`` is
numbered by its sender alone (``Engine._trace_seq``), and events are
serialized with sorted keys, so two runs that differ only in executor or
in rank interleaving produce byte-identical files.  The opt-in counter
tracks are the one exception: they record real time and are therefore
nondeterministic by nature.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import RunResult

#: Trace clock: virtual seconds -> microseconds.
_US = 1e6
_PID = 0
#: Second trace process holding the wall-clock counter tracks.
_WALL_PID = 1


def _rank_major(records: Iterable[Any]) -> list[Any]:
    """Stable rank-major order: per-rank record order is engine-program
    order (executor-invariant); ranks concatenate in id order."""
    return sorted(records, key=lambda r: r.rank)


#: Detail keys that link records to each other (a send to its wait, a wait
#: to its stall); the analyses read them, the viewer does not show them.
_LINK_KEYS = frozenset(("seq", "tag", "arrival", "waited"))


def _span_args(detail: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in detail.items() if k not in _LINK_KEYS}


def _meta(pid: int, tid: int, name: str, /, **args: Any) -> dict[str, Any]:
    """Metadata event naming or ordering one process or thread track."""
    return {"ph": "M", "pid": pid, "tid": tid, "name": name, "args": args}


def _marker(span: Any, cat: str, scope: str, **args: Any) -> dict[str, Any]:
    """Instant event at the end of ``span``, on its rank's track."""
    return {
        "ph": "i",
        "s": scope,
        "pid": _PID,
        "tid": span.rank,
        "ts": span.end * _US,
        "name": span.name,
        "cat": cat,
        "args": args,
    }


def chrome_trace(
    run: "RunResult",
    counters: Sequence[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Build the trace-event dictionary for a traced ``run``.

    ``counters`` (optional) adds ``"C"`` counter tracks on a second,
    wall-clock trace process — each sample a dict with ``t`` (seconds),
    ``name`` and ``value``, as produced by
    :func:`repro.instrument.telemetry.counter_samples`.  Leave it
    ``None`` (the default) for a fully deterministic export.

    Raises ``ValueError`` if the run was executed without tracing (there
    would be nothing to export).
    """
    tracer = run.tracer
    if not tracer.enabled and not tracer.spans:
        raise ValueError(
            "run has no trace; construct the engine with trace=True "
            "(or pass trace=True to the algorithm driver)"
        )
    # Track naming/ordering metadata first.
    events: list[dict[str, Any]] = [
        _meta(_PID, 0, "process_name", name=f"simmpi run ({run.num_ranks} ranks)")
    ]
    for r in range(run.num_ranks):
        events.append(_meta(_PID, r, "thread_name", name=f"rank {r}"))
        events.append(_meta(_PID, r, "thread_sort_index", sort_index=r))

    # Records -> complete events.
    records = _rank_major(tracer.spans)
    for span in records:
        if span.detail.get("waited") == 0:
            continue  # the message was already there: nothing to draw
        events.append(
            {
                "ph": "X",
                "pid": _PID,
                "tid": span.rank,
                "ts": span.begin * _US,
                "dur": span.duration * _US,
                "name": span.name,
                "cat": span.cat,
                "args": _span_args(span.detail),
            }
        )

    # Message flows: bind each send to its matching wait by seq, which is
    # unique, schedule-invariant and therefore the flow id as well.
    wait_by_seq = {w.detail["seq"]: w for w in tracer.waits()}
    for span in records:
        if span.cat == "comm" and span.name != "wait":
            # No wait record: sent but never received (e.g. aborted run).
            wait = wait_by_seq.get(span.detail["seq"])
            if wait is not None:
                flow = {
                    "cat": "msg",
                    "name": f"{span.rank}->{wait.rank}",
                    "id": span.detail["seq"],
                    "pid": _PID,
                }
                events.append(
                    {**flow, "ph": "s", "tid": span.rank, "ts": span.end * _US}
                )
                events.append(
                    {
                        **flow,
                        "ph": "f",
                        "bp": "e",
                        "tid": wait.rank,
                        "ts": wait.end * _US,
                    }
                )
            if span.name != "send":
                events.append(
                    _marker(span, "collective", "t", nbytes=span.detail["nbytes"])
                )
        elif span.cat == "fault":
            # Global scope: a fault is a run-wide incident.
            events.append(
                _marker(
                    span, "fault", "g", fault=span.name.partition(":")[2],
                    **_span_args(span.detail),
                )
            )
        elif span.cat == "ckpt":
            events.append(
                _marker(
                    span, "ckpt", "t", epoch=int(span.name.partition(":")[2]),
                    **_span_args(span.detail),
                )
            )

    # Optional telemetry counter tracks (RSS) on a second, wall-clock
    # process.  Counter events carry no flow ids, so adding them never
    # renumbers the message arrows above.
    if counters:
        events.append(
            _meta(_WALL_PID, 0, "process_name", name="telemetry (wall clock)")
        )
        for c in counters:
            events.append(
                {
                    "ph": "C",
                    "pid": _WALL_PID,
                    "tid": 0,
                    "ts": float(c["t"]) * _US,
                    "name": str(c["name"]),
                    "cat": "telemetry",
                    "args": {"value": c["value"]},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "ranks": run.num_ranks,
            "makespan_us": run.makespan * _US,
            "clock": "virtual",
        },
    }


def dumps_chrome_trace(
    run: "RunResult",
    counters: Sequence[dict[str, Any]] | None = None,
) -> str:
    """Serialize :func:`chrome_trace` deterministically (sorted keys,
    fixed separators, trailing newline)."""
    return (
        json.dumps(
            chrome_trace(run, counters=counters),
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )


def write_chrome_trace(
    path,
    run: "RunResult",
    counters: Sequence[dict[str, Any]] | None = None,
) -> None:
    """Write the Perfetto-loadable trace of ``run`` to ``path``.

    Open the file at https://ui.perfetto.dev (or ``chrome://tracing``).
    """
    from pathlib import Path

    Path(path).write_text(
        dumps_chrome_trace(run, counters=counters)
    )
