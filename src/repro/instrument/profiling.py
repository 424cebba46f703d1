"""One-call profile report combining every observability view of a run.

:func:`profile_report` is what ``repro profile`` and ``repro count
--profile`` print: the per-phase breakdown with imbalance factors and
communication fractions and the engine's hand-off counts (always
available), plus — when the run was traced — byte totals per collective,
the hottest rank pairs of the communication matrix, the top wait-for
edges, and the critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.instrument.commmatrix import CommMatrix
from repro.instrument.metrics import RunMetrics
from repro.instrument.report import format_table
from repro.instrument.waits import critical_path_table, wait_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.engine import RunResult


def profile_report(
    run: "RunResult",
    top_waits: int = 10,
    counters: bool = True,
    matrix: bool = False,
    kernel_backend: str | None = None,
) -> str:
    """Render the full observability report of ``run`` as text.

    ``matrix`` additionally includes the dense rank-to-rank message
    matrix (readable up to a few dozen ranks).  ``kernel_backend`` is a
    free-form label of the intersection-kernel backend that produced the
    run (e.g. ``"auto (batch×36, row×12)"``), prepended as a
    header line when given.
    """
    metrics = RunMetrics.from_run(run)
    parts = []
    if kernel_backend:
        parts.append(f"kernel backend: {kernel_backend}")
    parts.append(metrics.phase_table())
    if counters and metrics.counters:
        parts.append(metrics.counter_table())

    # What the run cost in real time is mostly thread hand-offs, one per
    # yield; fewer, larger messages (agglomeration) shows up here first.
    handoffs = (
        f"Engine hand-offs: {run.yields:,} yields (a rank blocked and passed "
        f"the token on), {run.scheduler_wakeups:,} scheduler wake-ups"
    )
    if run.tracer.spans:
        cm = CommMatrix.from_run(run)
        parts.append(f"{handoffs}, for {cm.total_messages:,} messages")
        coll = run.tracer.collective_bytes()
        if coll:
            parts.append(
                format_table(
                    ["collective", "bytes"],
                    sorted(coll.items()),
                    title="Wire bytes inside collectives",
                )
            )
        pairs = cm.hottest_pairs()
        if pairs:
            parts.append(
                format_table(
                    ["src", "dst", "messages", "bytes"],
                    pairs,
                    title=(
                        f"Hottest communication pairs "
                        f"({cm.total_messages} msgs, {cm.total_bytes:,} "
                        "bytes total)"
                    ),
                )
            )
        if matrix:
            parts.append(cm.render("messages"))
        wt = wait_table(run, top=top_waits)
        parts.append(wt)
        parts.append(critical_path_table(run))
    else:
        parts.append(handoffs)
        parts.append(
            "(run was not traced: comm matrix, wait-for and critical-path "
            "analyses need trace=True)"
        )
    return "\n\n".join(parts)
