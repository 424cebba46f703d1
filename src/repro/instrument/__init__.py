"""Observability layer: metrics, comm matrix, wait analysis, exporters.

The subsystem has four pieces, all driven by the records a
:class:`~repro.simmpi.engine.RunResult` carries:

* :mod:`repro.instrument.metrics` — per-phase min/max/mean timings,
  load-imbalance factors (Table 3) and communication fractions (Figure 3);
* :mod:`repro.instrument.commmatrix` — rank-to-rank message/byte matrix;
* :mod:`repro.instrument.waits` — wait-for edges and critical-path walk;
* :mod:`repro.instrument.chrometrace` — Perfetto/Chrome trace-event JSON
  export of the span trace;
* :mod:`repro.instrument.telemetry` — wall-clock runtime telemetry: the
  structured event bus, flight-recorder ring buffer, RSS/GC
  samplers and the per-run record ``repro diff`` compares;
* :mod:`repro.instrument.diffing` — compare two recorded telemetry runs.

Plus the report/counter helpers that predate the layer
(:func:`format_table`, :func:`ascii_chart`, :func:`merge_counters`,
:func:`counters_diff`) and :func:`profile_report`, which stitches every
view into the text report the CLI prints.

Every name here loads its module on first access (:mod:`repro._lazy`):
a run that only merges counters does not import the exporters.  See
``docs/observability.md`` for a walkthrough.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.instrument.chrometrace import (
        chrome_trace,
        dumps_chrome_trace,
        write_chrome_trace,
    )
    from repro.instrument.commmatrix import CommMatrix
    from repro.instrument.counters import counters_diff, merge_counters
    from repro.instrument.diffing import diff_records, load_record, render_diff
    from repro.instrument.metrics import PhaseMetric, RunMetrics, imbalance_factor
    from repro.instrument.profiling import profile_report
    from repro.instrument.report import ascii_chart, format_table
    from repro.instrument.telemetry import (
        FlightRecorder,
        Telemetry,
        TelemetryEvent,
        counter_samples,
        host_metadata,
        peak_rss_bytes,
        rss_bytes,
        telemetry_report,
    )
    from repro.instrument.waits import (
        CriticalHop,
        WaitEdge,
        critical_path,
        critical_path_table,
        wait_edges,
        wait_table,
    )

__all__ = [
    "CommMatrix",
    "CriticalHop",
    "FlightRecorder",
    "PhaseMetric",
    "RunMetrics",
    "Telemetry",
    "TelemetryEvent",
    "WaitEdge",
    "ascii_chart",
    "chrome_trace",
    "counter_samples",
    "counters_diff",
    "critical_path",
    "critical_path_table",
    "diff_records",
    "dumps_chrome_trace",
    "format_table",
    "host_metadata",
    "imbalance_factor",
    "load_record",
    "merge_counters",
    "peak_rss_bytes",
    "profile_report",
    "render_diff",
    "rss_bytes",
    "telemetry_report",
    "wait_edges",
    "wait_table",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.instrument.chrometrace": "chrome_trace dumps_chrome_trace write_chrome_trace",
    "repro.instrument.commmatrix": "CommMatrix",
    "repro.instrument.counters": "counters_diff merge_counters",
    "repro.instrument.diffing": "diff_records load_record render_diff",
    "repro.instrument.metrics": "PhaseMetric RunMetrics imbalance_factor",
    "repro.instrument.profiling": "profile_report",
    "repro.instrument.report": "ascii_chart format_table",
    "repro.instrument.telemetry": (
        "FlightRecorder Telemetry TelemetryEvent counter_samples host_metadata "
        "peak_rss_bytes rss_bytes telemetry_report"
    ),
    "repro.instrument.waits": (
        "CriticalHop WaitEdge critical_path critical_path_table wait_edges "
        "wait_table"
    ),
})
