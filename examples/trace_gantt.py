#!/usr/bin/env python
"""Visualize Cannon's shift pattern from an engine trace.

Runs the 2D algorithm on a 3x3 grid with tracing enabled and renders an
ASCII Gantt chart of each rank's counting phase: compute spans (#),
communication/waiting spans (.), one row per rank.  The staircase of
block exchanges between the sqrt(p) compute rounds is clearly visible.

The same trace is also exported as Perfetto-loadable Chrome trace-event
JSON, the interactive counterpart of the ASCII chart (open it at
https://ui.perfetto.dev).

Run:  python examples/trace_gantt.py [trace-output.json]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.core import count_triangles_2d
from repro.graph import rmat_graph
from repro.instrument import write_chrome_trace

WIDTH = 100


def main() -> None:
    g = rmat_graph(10, edge_factor=8, seed=1)
    res = count_triangles_2d(g, p=9, trace=True)
    run = res.extras["run"]
    print(f"count = {res.count:,}; drawing the tct phase of all 9 ranks\n")

    # Phase window: the tct phase across ranks.
    starts = [c.phases["tct"].start for c in run.clocks]
    ends = [c.phases["tct"].end for c in run.clocks]
    t0, t1 = min(starts), max(ends)
    span = t1 - t0

    def col(t: float) -> int:
        return min(WIDTH - 1, max(0, int((t - t0) / span * (WIDTH - 1))))

    rows = []
    for rank in range(run.num_ranks):
        line = [" "] * WIDTH
        # Fill the rank's tct span with '.', then overlay compute bursts.
        lo, hi = col(starts[rank]), col(ends[rank])
        for c in range(lo, hi + 1):
            line[c] = "."
        for sp in run.tracer.spans_for_rank(rank):
            if sp.cat == "compute" and starts[rank] <= sp.end <= ends[rank]:
                for c in range(max(lo, col(sp.begin)), col(sp.end) + 1):
                    line[c] = "#"
        rows.append("".join(line))

    print(f"time -> ({span * 1e3:.3f} simulated ms across {WIDTH} columns)")
    print("  legend: # compute burst   . waiting/communication\n")
    for rank, row in enumerate(rows):
        print(f"rank {rank} |{row}|")

    sends = run.tracer.sends()
    tct_sends = [s for s in sends if s.end >= t0]
    total_bytes = sum(s.detail["nbytes"] for s in sends)
    print(
        f"\n{len(tct_sends)} messages in the counting phase "
        f"({total_bytes:,} bytes total over the whole run)"
    )
    print(
        "Each vertical band of '#' is one of the sqrt(p)=3 Cannon compute "
        "rounds;\nbetween bands the U blocks shift left and the L blocks "
        "shift up."
    )

    out = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(tempfile.gettempdir()) / "trace_gantt.trace.json"
    )
    write_chrome_trace(out, run)
    print(f"\nwrote Perfetto trace to {out} (open at https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
